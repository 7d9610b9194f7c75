"""Unit tests for the declarative workflow API.

Covers the builder's ordering and validation, the one stage type (a
name and a function that launches metered jobs on ``ctx.executor``)
and the in-tree workflow's stage lists.
"""

from __future__ import annotations

import pytest

from repro.assembler import AssemblyConfig
from repro.assembler.pipeline import build_assembly_workflow
from repro.errors import WorkflowError
from repro.pregel import PregelJob, min_combiner
from repro.ppa.hash_min import HashMinVertex
from repro.workflow import Stage, Workflow, WorkflowRunner


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
    workflow.add(Stage("a", _noop))
    with pytest.raises(WorkflowError, match="already has a stage named 'a'"):
        workflow.add(Stage("a", _noop))
    assert workflow.stage_names() == ["a"]


def test_stages_list_and_run_in_insertion_order():
    ran = []
    workflow = Workflow("ordered")
    for name in ["c", "a", "b"]:
        workflow.add(Stage(name, lambda ctx, name=name: ran.append(name)))
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


def test_describe_lists_stages_in_order():
    workflow = Workflow("pretty", description="for the CLI")
    workflow.add(Stage("first", _noop))
    workflow.add(Stage("maybe", _noop))
    text = workflow.describe()
    assert "workflow pretty (2 stages)" in text
    assert "for the CLI" in text
    assert text.index("first") < text.index("maybe")
    assert text.splitlines()[-2:] == ["   1. first", "   2. maybe"]


def test_unknown_stage_lookup_raises():
    workflow = Workflow("lookup")
    workflow.add(Stage("a", _noop))
    with pytest.raises(WorkflowError, match="no stage named"):
        workflow.stage("nope")


# ----------------------------------------------------------------------
# stage functions end to end
# ----------------------------------------------------------------------
def _count_words(ctx):
    result = ctx.executor.run_mapreduce(
        "count-words",
        ctx.require("words"),
        lambda word: [(word, 1)],
        lambda word, ones: [(word, sum(ones))],
    )
    return dict(result.outputs)


def _components(ctx):
    result = ctx.executor.run_pregel(
        PregelJob(
            name="components",
            vertices=[
                HashMinVertex(1, value=1, edges=[2]),
                HashMinVertex(2, value=2, edges=[1]),
                HashMinVertex(3, value=3, edges=[]),
            ],
            combiner=min_combiner(),
        )
    )
    return {vid: vertex.value for vid, vertex in result.vertices.items()}


def test_convert_and_mapreduce_and_pregel_stages_run_and_meter():
    workflow = Workflow("mixed")
    workflow.add(Stage("make-words", lambda ctx: ["a", "b", "a"], output="words"))
    workflow.add(Stage("count-words", _count_words, output="counts"))
    workflow.add(Stage("components", _components, output="labels"))
    ctx = WorkflowRunner(num_workers=2).run(workflow)
    assert ctx.state["counts"] == {"a": 2, "b": 1}
    assert ctx.state["labels"] == {1: 1, 2: 1, 3: 3}
    # Both jobs were metered into the runner's single pipeline account.
    job_names = [job.job_name for job in ctx.executor.pipeline_metrics.jobs]
    assert job_names == ["count-words", "components"]


def test_stage_without_output_stores_nothing():
    workflow = Workflow("quiet")
    workflow.add(Stage("returns", lambda ctx: "ignored"))
    ctx = WorkflowRunner(num_workers=2).run(workflow, state={"seed": 1})
    assert ctx.state == {"seed": 1}


def test_require_names_the_missing_state_key():
    missing = Workflow("missing")
    missing.add(Stage("boom", lambda ctx: ctx.require("absent")))
    with pytest.raises(WorkflowError, match="no value for 'absent'"):
        WorkflowRunner(num_workers=2).run(missing)
