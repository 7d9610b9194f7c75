"""Unit tests for the declarative workflow API.

Covers the builder's DAG validation, the four typed stage descriptors,
runner events and per-stage overrides.
"""

from __future__ import annotations

import pytest

from repro.errors import WorkflowError
from repro.pregel import PregelJob, min_combiner
from repro.ppa.hash_min import HashMinVertex
from repro.workflow import (
    BranchStage,
    ConvertStage,
    MapReduceStage,
    PregelStage,
    Stage,
    Workflow,
    WorkflowRunner,
)


def _noop(ctx):
    return None


# ----------------------------------------------------------------------
# builder validation
# ----------------------------------------------------------------------
def test_empty_workflow_is_invalid():
    with pytest.raises(WorkflowError, match="no stages"):
        Workflow("empty").validate()


def test_duplicate_stage_names_rejected():
    workflow = Workflow("dup")
    workflow.add(ConvertStage("a", _noop))
    with pytest.raises(WorkflowError, match="already has a stage"):
        workflow.add(ConvertStage("a", _noop))


def test_unknown_dependency_rejected():
    workflow = Workflow("dangling")
    workflow.add(ConvertStage("a", _noop), after=["ghost"])
    with pytest.raises(WorkflowError, match="unknown stage 'ghost'"):
        workflow.validate()


def test_self_dependency_rejected():
    workflow = Workflow("selfie")
    workflow.add(ConvertStage("a", _noop), after=["a"])
    with pytest.raises(WorkflowError, match="depends on itself"):
        workflow.validate()


def test_cycle_rejected():
    workflow = Workflow("cyclic")
    workflow.add(ConvertStage("a", _noop), after=["b"])
    workflow.add(ConvertStage("b", _noop), after=["a"])
    with pytest.raises(WorkflowError, match="dependency cycle"):
        workflow.validate()


def test_linear_chain_by_default_and_explicit_fanin():
    workflow = Workflow("dag")
    a = workflow.add(ConvertStage("a", _noop), after=())
    b = workflow.add(ConvertStage("b", _noop), after=())
    workflow.add(ConvertStage("join", _noop), after=[a, b])
    workflow.add(ConvertStage("tail", _noop))  # implicitly after join
    workflow.validate()
    assert workflow.stage_names() == ["a", "b", "join", "tail"]
    assert workflow.dependencies("tail") == ["join"]
    assert set(workflow.dependencies("join")) == {"a", "b"}


def test_describe_lists_stages_in_order():
    workflow = Workflow("pretty", description="for the CLI")
    workflow.add(ConvertStage("first", _noop))
    workflow.add(BranchStage("maybe", condition=lambda ctx: True,
                             then_stages=[ConvertStage("inner", _noop)]))
    text = workflow.describe()
    assert "workflow pretty (2 stages)" in text
    assert "for the CLI" in text
    assert text.index("first") < text.index("maybe")
    assert "then [inner]" in text


def test_unknown_stage_lookup_raises():
    workflow = Workflow("lookup")
    workflow.add(ConvertStage("a", _noop))
    with pytest.raises(WorkflowError, match="no stage named"):
        workflow.stage("nope")


# ----------------------------------------------------------------------
# typed stages end to end
# ----------------------------------------------------------------------
def test_convert_and_mapreduce_and_pregel_stages_run_and_meter():
    workflow = Workflow("mixed")
    workflow.add(
        ConvertStage("make-words", lambda ctx: ["a", "b", "a"], output="words")
    )
    workflow.add(
        MapReduceStage(
            "count-words",
            records="words",
            map_fn=lambda word: [(word, 1)],
            reduce_fn=lambda word, ones: [(word, sum(ones))],
            collect=lambda ctx, result: dict(result.outputs),
            output="counts",
        )
    )
    workflow.add(
        PregelStage(
            "components",
            job_factory=lambda ctx: PregelJob(
                name="components",
                vertices=[
                    HashMinVertex(1, value=1, edges=[2]),
                    HashMinVertex(2, value=2, edges=[1]),
                    HashMinVertex(3, value=3, edges=[]),
                ],
                combiner=min_combiner(),
            ),
            collect=lambda ctx, result: {
                vid: vertex.value for vid, vertex in result.vertices.items()
            },
            output="labels",
        )
    )
    ctx = WorkflowRunner(num_workers=2).run(workflow)
    assert ctx.state["counts"] == {"a": 2, "b": 1}
    assert ctx.state["labels"] == {1: 1, 2: 1, 3: 3}
    # Both jobs were metered into the runner's single pipeline account.
    job_names = [job.job_name for job in ctx.pipeline_metrics.jobs]
    assert job_names == ["count-words", "components"]


def test_mapreduce_records_callable_and_missing_state_key():
    workflow = Workflow("records")
    workflow.add(
        MapReduceStage(
            "double",
            records=lambda ctx: [1, 2],
            map_fn=lambda n: [(n, n)],
            reduce_fn=lambda n, values: [n * 2],
            output="doubled",
        )
    )
    ctx = WorkflowRunner(num_workers=2).run(workflow)
    assert sorted(ctx.state["doubled"].outputs) == [2, 4]

    missing = Workflow("missing")
    missing.add(
        MapReduceStage(
            "boom", records="absent", map_fn=lambda r: [], reduce_fn=lambda k, v: []
        )
    )
    with pytest.raises(WorkflowError, match="no value for 'absent'"):
        WorkflowRunner(num_workers=2).run(missing)


def test_pregel_stage_rejects_non_job_factory():
    workflow = Workflow("badjob")
    workflow.add(PregelStage("nope", job_factory=lambda ctx: "not a job"))
    with pytest.raises(WorkflowError, match="must return a PregelJob"):
        WorkflowRunner(num_workers=2).run(workflow)


def test_branch_stage_takes_the_matching_path_and_records_it():
    def build(flag):
        workflow = Workflow("branchy")
        workflow.add(ConvertStage("seed", lambda ctx: flag, output="flag"))
        workflow.add(
            BranchStage(
                "fork",
                condition=lambda ctx: ctx.state["flag"],
                then_stages=[ConvertStage("then", lambda ctx: "T", output="path")],
                else_stages=[ConvertStage("else", lambda ctx: "F", output="path")],
            )
        )
        return workflow

    taken = WorkflowRunner(num_workers=2).run(build(True))
    assert taken.state["path"] == "T"
    assert taken.state["fork/taken"] is True
    skipped = WorkflowRunner(num_workers=2).run(build(False))
    assert skipped.state["path"] == "F"
    assert skipped.state["fork/taken"] is False


def test_branch_stage_rejects_duplicate_inner_names():
    with pytest.raises(WorkflowError, match="duplicate inner stage"):
        BranchStage(
            "fork",
            condition=lambda ctx: True,
            then_stages=[ConvertStage("x", _noop)],
            else_stages=[ConvertStage("x", _noop)],
        )


# ----------------------------------------------------------------------
# runner: events, overrides, custom Stage subclasses
# ----------------------------------------------------------------------
def test_hooks_fire_in_order_including_branch_inners():
    events = []
    def record(event):
        events.append((event.kind.removeprefix("stage-"), event.stage.name))

    workflow = Workflow("hooked")
    workflow.add(ConvertStage("a", _noop))
    workflow.add(
        BranchStage(
            "b",
            condition=lambda ctx: True,
            then_stages=[ConvertStage("b.inner", _noop)],
        )
    )
    WorkflowRunner(num_workers=2, subscriber=record).run(workflow)
    assert events == [
        ("start", "a"), ("end", "a"),
        ("start", "b"),
        ("start", "b.inner"), ("end", "b.inner"),
        ("end", "b"),
    ]


def test_per_stage_worker_override_shares_one_metrics_account():
    workflow = Workflow("override")
    workflow.add(
        MapReduceStage(
            "narrow",
            records=lambda ctx: [1, 2, 3],
            map_fn=lambda n: [(n % 2, n)],
            reduce_fn=lambda k, values: [sum(values)],
        )
    )
    workflow.add(
        MapReduceStage(
            "wide",
            records=lambda ctx: [1, 2, 3],
            map_fn=lambda n: [(n % 2, n)],
            reduce_fn=lambda k, values: [sum(values)],
            num_workers=7,
        )
    )
    runner = WorkflowRunner(num_workers=2)
    ctx = runner.run(workflow)
    narrow, wide = ctx.pipeline_metrics.jobs
    assert narrow.num_workers == 2
    assert wide.num_workers == 7
    # The override executor funnels into the same pipeline metrics.
    assert runner.executor.pipeline_metrics is ctx.pipeline_metrics


def test_branch_override_is_inherited_by_inner_stages():
    def mapreduce(name, num_workers=None):
        return MapReduceStage(
            name,
            records=lambda ctx: [1, 2],
            map_fn=lambda n: [(n, 1)],
            reduce_fn=lambda k, ones: [sum(ones)],
            num_workers=num_workers,
        )

    workflow = Workflow("branch-override")
    workflow.add(
        BranchStage(
            "fork",
            condition=lambda ctx: True,
            then_stages=[mapreduce("inherits"), mapreduce("own", num_workers=3)],
            num_workers=5,
        )
    )
    workflow.add(mapreduce("outside"))
    ctx = WorkflowRunner(num_workers=2).run(workflow)
    by_name = {job.job_name: job.num_workers for job in ctx.pipeline_metrics.jobs}
    # Inner stages inherit the branch's override unless they carry
    # their own; the override must not leak past the branch.
    assert by_name == {"inherits": 5, "own": 3, "outside": 2}


def test_custom_stage_subclass_runs():
    class Doubler(Stage):
        kind = "doubler"

        def run(self, ctx):
            ctx.state["value"] = ctx.require("value") * 2

    workflow = Workflow("subclass")
    workflow.add(ConvertStage("seed", lambda ctx: 21, output="value"))
    workflow.add(Doubler("double"))
    ctx = WorkflowRunner(num_workers=2).run(workflow)
    assert ctx.state["value"] == 42
    assert "doubler" in workflow.describe()
