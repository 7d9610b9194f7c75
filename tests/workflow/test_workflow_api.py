"""Unit tests for the declarative workflow API.

Covers the builder's ordering and validation, the four typed stage
descriptors, runner events and the in-tree workflows' stage lists.
"""

from __future__ import annotations

import pytest

from repro.assembler import AssemblyConfig
from repro.assembler.pipeline import build_assembly_workflow
from repro.errors import WorkflowError
from repro.pregel import PregelJob, min_combiner
from repro.ppa.hash_min import HashMinVertex
from repro.scaffold.scaffolder import build_scaffolding_workflow
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
    workflow.add(
        BranchStage("fork", lambda ctx: True, [ConvertStage("inner", _noop)])
    )
    clashes = [
        ("a", ConvertStage("a", _noop)),
        # A branch inner stage shares the name space of the whole workflow.
        ("a", BranchStage("other", lambda ctx: True, [ConvertStage("a", _noop)])),
        ("fork", ConvertStage("fork", _noop)),
        ("inner", ConvertStage("inner", _noop)),
    ]
    for taken, clash in clashes:
        with pytest.raises(WorkflowError, match=f"already has a stage named '{taken}'"):
            workflow.add(clash)
    assert workflow.stage_names() == ["a", "fork"]


def test_stages_list_and_run_in_insertion_order():
    ran = []
    workflow = Workflow("ordered")
    for name in ["c", "a", "b"]:
        workflow.add(ConvertStage(name, lambda ctx, name=name: ran.append(name)))
    assert workflow.stage_names() == ["c", "a", "b"]
    assert [stage.name for stage in workflow.stages()] == ["c", "a", "b"]
    assert "after" not in workflow.describe()
    WorkflowRunner(num_workers=2).run(workflow)
    assert ran == ["c", "a", "b"]


def test_in_tree_workflows_keep_their_stage_lists():
    # Checkpoints record these names in this order; a change would stop
    # existing checkpoints from resuming.
    assembly = [
        "dbg-construction",
        "contig-labeling/kmers",
        "contig-merging/first-round",
        "bubble-filtering/round-1",
        "tip-removing/round-1",
        "contig-labeling/contigs-round-1",
        "contig-merging/round-2",
    ]
    config = AssemblyConfig(k=15)
    assert build_assembly_workflow(config).stage_names() == assembly
    scaffolded = build_assembly_workflow(AssemblyConfig(k=15, scaffold=True))
    assert scaffolded.stage_names() == assembly + ["scaffolding"]
    assert build_scaffolding_workflow().stage_names() == [
        "scaffolding/map-pairs",
        "scaffolding/bundle",
        "scaffolding/layout",
    ]


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
    job_names = [job.job_name for job in ctx.executor.pipeline_metrics.jobs]
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
# runner: events, custom Stage subclasses
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
