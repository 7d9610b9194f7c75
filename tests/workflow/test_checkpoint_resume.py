"""Checkpoint/resume correctness: a resumed run is bit-identical.

The acceptance criterion for the workflow redesign: kill an assembly
after stage N, resume it from the checkpoint directory, and get exactly
the contigs, scaffolds, per-stage summaries, and per-superstep
``PipelineMetrics`` an uninterrupted run produces — on both execution
backends.
"""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.assembler import chain as chain_module
from repro.assembler.pipeline import ASSEMBLY_WORKFLOW_NAME
from repro.dna import simulate_dataset, simulate_paired_dataset
from repro.errors import CheckpointError
from repro.workflow import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    Stage,
    Workflow,
    WorkflowRunner,
)


class SimulatedCrash(RuntimeError):
    pass


def _crash_after(stage_index: int):
    def bomb(event):
        if event.kind == "stage-end" and event.index == stage_index:
            raise SimulatedCrash(event.stage.name)

    return bomb


@pytest.fixture(scope="module")
def paired_library():
    _genome, pairs = simulate_paired_dataset(
        6_000, insert_size_mean=350, insert_size_std=35, seed=9
    )
    return pairs


def _config(backend: str) -> AssemblyConfig:
    return AssemblyConfig(k=17, scaffold=True, num_workers=2, backend=backend)


def _assert_identical(resumed, baseline):
    assert resumed.contigs == baseline.contigs
    assert resumed.scaffolds == baseline.scaffolds
    assert resumed.scaffolding == baseline.scaffolding
    assert [(s.name, s.detail) for s in resumed.stages] == [
        (s.name, s.detail) for s in baseline.stages
    ]
    # Bit-identical metrics: every job, every superstep, every
    # per-worker counter (dataclass equality is deep).
    assert resumed.metrics == baseline.metrics
    assert resumed.labeling_metrics == baseline.labeling_metrics


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_killed_then_resumed_assembly_is_bit_identical(
    backend, paired_library, tmp_path
):
    config = _config(backend)
    baseline = PPAAssembler(config).assemble_paired(paired_library)

    checkpoint_dir = tmp_path / "ckpt"
    with pytest.raises(SimulatedCrash):
        PPAAssembler(config).assemble_paired(
            paired_library,
            checkpoint_dir=checkpoint_dir,
            subscriber=_crash_after(3),
        )
    assert list(checkpoint_dir.glob("checkpoint-*.pkl"))

    resumed = PPAAssembler(config).assemble_paired(
        paired_library, checkpoint_dir=checkpoint_dir, resume=True
    )
    _assert_identical(resumed, baseline)


@pytest.mark.parametrize("crash_index", [0, 5])
def test_resume_works_from_any_stage_boundary(
    crash_index, paired_library, tmp_path
):
    config = _config("serial")
    baseline = PPAAssembler(config).assemble_paired(paired_library)
    checkpoint_dir = tmp_path / f"ckpt-{crash_index}"
    with pytest.raises(SimulatedCrash):
        PPAAssembler(config).assemble_paired(
            paired_library,
            checkpoint_dir=checkpoint_dir,
            subscriber=_crash_after(crash_index),
        )
    resumed = PPAAssembler(config).assemble_paired(
        paired_library, checkpoint_dir=checkpoint_dir, resume=True
    )
    _assert_identical(resumed, baseline)


def test_resume_of_completed_run_recomputes_nothing(paired_library, tmp_path):
    config = _config("serial")
    checkpoint_dir = tmp_path / "done"
    first = PPAAssembler(config).assemble_paired(
        paired_library, checkpoint_dir=checkpoint_dir
    )

    executed = []
    def record_starts(event):
        if event.kind == "stage-start":
            executed.append(event.stage.name)

    again = PPAAssembler(config).assemble_paired(
        paired_library, checkpoint_dir=checkpoint_dir, resume=True, subscriber=record_starts
    )
    assert executed == []
    _assert_identical(again, first)


def test_strict_resume_without_checkpoint_raises(tmp_path):
    workflow = Workflow("strict")
    workflow.add(Stage("only", lambda ctx: None))
    runner = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path / "empty")
    with pytest.raises(CheckpointError, match="no checkpoint"):
        runner.resume(workflow)


def test_resume_without_checkpoint_dir_raises():
    workflow = Workflow("nodir")
    workflow.add(Stage("only", lambda ctx: None))
    with pytest.raises(CheckpointError, match="no checkpoint directory"):
        WorkflowRunner(num_workers=2).run(workflow, resume=True)


def test_mismatched_workflow_shape_refuses_to_resume(paired_library, tmp_path):
    checkpoint_dir = tmp_path / "shape"
    config = _config("serial")
    with pytest.raises(SimulatedCrash):
        PPAAssembler(config).assemble_paired(
            paired_library, checkpoint_dir=checkpoint_dir, subscriber=_crash_after(2)
        )
    # Same workflow name, different stage schedule (two correction
    # rounds instead of one) — resuming must fail loudly.
    import dataclasses

    reshaped = dataclasses.replace(config, error_correction_rounds=2)
    with pytest.raises(CheckpointError, match="differently-shaped"):
        PPAAssembler(reshaped).assemble_paired(
            paired_library, checkpoint_dir=checkpoint_dir, resume=True
        )


def test_corrupt_checkpoint_files_degrade_to_earlier_ones(tmp_path):
    store = CheckpointStore(tmp_path)
    workflow = Workflow("robust")
    workflow.add(Stage("one", lambda ctx: 1, output="x"))
    workflow.add(Stage("two", lambda ctx: ctx.require("x") + 1, output="x"))
    runner = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path)
    runner.run(workflow)

    files = sorted(tmp_path.glob("checkpoint-*.pkl"))
    assert len(files) == 2
    files[-1].write_bytes(b"truncated garbage")
    latest = store.latest("robust")
    assert latest is not None
    assert latest.completed == 1
    # A fresh runner resumes from the surviving checkpoint and redoes
    # only the stage whose checkpoint was lost.
    ctx = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(
        workflow, resume=True
    )
    assert ctx.state["x"] == 2


def _pickled_against_a_vanished_module(tmp_path, payload_of, vanished="module") -> bytes:
    """``payload_of(thing)`` pickled so that ``thing``'s class is gone on load.

    ``"module"``: the class's whole module is gone.  ``"class"``: the
    module still imports but no longer has the class — what an older
    checkpoint's ``repro.assembler.chain.ChainGraph`` has become.
    """
    if vanished == "class":
        thing_class = type("ChainGraph", (), {"__module__": chain_module.__name__})
        chain_module.ChainGraph = thing_class
        try:
            return pickle.dumps(payload_of(thing_class()), protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            del chain_module.ChainGraph
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / "vanished_state_module.py").write_text("class Thing:\n    pass\n")
    sys.path.insert(0, str(module_dir))
    try:
        import vanished_state_module

        return pickle.dumps(
            payload_of(vanished_state_module.Thing()), protocol=pickle.HIGHEST_PROTOCOL
        )
    finally:
        sys.path.remove(str(module_dir))
        sys.modules.pop("vanished_state_module", None)


def _two_stage_payload(thing):
    return {
        "format": CHECKPOINT_FORMAT,
        "workflow": "robust",
        "stage_names": ["one", "two"],
        "completed": 2,
        "state": {"x": thing},
        "metrics": None,
        "seed_fingerprint": None,
    }


def _two_stage_workflow() -> Workflow:
    workflow = Workflow("robust")
    workflow.add(Stage("one", lambda ctx: 1, output="x"))
    workflow.add(Stage("two", lambda ctx: ctx.require("x") + 1, output="x"))
    return workflow


def test_checkpoint_of_a_vanished_module_degrades_to_the_earlier_one(tmp_path):
    checkpoints = tmp_path / "checkpoints"
    workflow = _two_stage_workflow()
    WorkflowRunner(num_workers=2, checkpoint_dir=checkpoints).run(workflow)
    files = sorted(checkpoints.glob("checkpoint-*.pkl"))
    files[-1].write_bytes(_pickled_against_a_vanished_module(tmp_path, _two_stage_payload))

    latest = CheckpointStore(checkpoints).latest("robust")
    assert latest is not None
    assert latest.completed == 1
    ctx = WorkflowRunner(num_workers=2, checkpoint_dir=checkpoints).run(
        workflow, resume=True
    )
    assert ctx.state["x"] == 2


def test_assembly_checkpoint_of_a_vanished_class_degrades_to_the_earlier_one(tmp_path):
    """Checkpoints whose labeling names a class its module no longer has are skipped."""
    _genome, reads = simulate_dataset(genome_length=3000, seed=7)
    config = AssemblyConfig(k=15, num_workers=2)
    baseline = PPAAssembler(config).assemble(reads)
    checkpoints = tmp_path / "checkpoints"
    PPAAssembler(config).assemble(reads, checkpoint_dir=checkpoints)
    stale = 0
    for path in checkpoints.glob("checkpoint-*.pkl"):
        payload = pickle.loads(path.read_bytes())
        labeling = payload["state"].get("labeling")
        if labeling is None:
            continue
        stale += 1
        path.write_bytes(
            _pickled_against_a_vanished_module(
                tmp_path,
                lambda thing: {
                    **payload,
                    "state": {**payload["state"], "labeling": replace(labeling, chain=thing)},
                },
                vanished="class",
            )
        )
    assert stale > 1

    latest = CheckpointStore(checkpoints).latest(ASSEMBLY_WORKFLOW_NAME)
    assert latest is not None
    assert latest.stage_names[: latest.completed] == ["dbg-construction"]
    resumed = PPAAssembler(config).assemble(reads, checkpoint_dir=checkpoints, resume=True)
    assert resumed.contigs == baseline.contigs


def test_fresh_run_clears_a_checkpoint_of_a_vanished_module(tmp_path):
    checkpoints = tmp_path / "checkpoints"
    checkpoints.mkdir()
    stale = checkpoints / "checkpoint-005-robust-two.pkl"
    stale.write_bytes(_pickled_against_a_vanished_module(tmp_path, _two_stage_payload))

    ctx = WorkflowRunner(num_workers=2, checkpoint_dir=checkpoints).run(
        _two_stage_workflow(), state={"x": 0}
    )
    assert ctx.state["x"] == 2
    assert not stale.exists()


def _without_stage_names(payload):
    return {"format": payload["format"], "workflow": payload["workflow"]}


def _with_a_bad_completed_count(payload):
    return {**payload, "completed": "x"}


@pytest.mark.parametrize(
    "damage, field",
    [(_without_stage_names, "stage_names"), (_with_a_bad_completed_count, "completed")],
    ids=["no-stage-names", "completed-not-an-int"],
)
def test_malformed_checkpoint_raises_a_checkpoint_error_naming_the_file(
    tmp_path, damage, field
):
    workflow = _two_stage_workflow()
    WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(workflow)
    latest = sorted(tmp_path.glob("checkpoint-*.pkl"))[-1]
    latest.write_bytes(pickle.dumps(damage(pickle.loads(latest.read_bytes()))))

    with pytest.raises(CheckpointError, match=f"{latest.name} is malformed: {field}"):
        CheckpointStore(tmp_path).latest("robust")
    with pytest.raises(CheckpointError, match=latest.name):
        WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(workflow, resume=True)


def _local_function():
    def local():
        return None

    return local


@pytest.mark.parametrize(
    "make_value", [threading.Lock, _local_function], ids=["lock", "local-function"]
)
def test_unpicklable_state_raises_a_checkpoint_error_naming_the_stage(
    tmp_path, make_value
):
    workflow = Workflow("unpicklable")
    workflow.add(Stage("holds-it", lambda ctx: make_value(), output="value"))
    with pytest.raises(CheckpointError, match="after stage 'holds-it'"):
        WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(workflow)
    assert list(tmp_path.iterdir()) == []


def test_fresh_run_clears_stale_checkpoints_from_previous_run(tmp_path):
    """A crashed re-run must not resume into an older run's leftovers.

    Without clearing, run 1's higher-numbered checkpoints survive run
    2's lower-numbered overwrites, and run 2's resume silently returns
    run 1's state.
    """
    def build():
        workflow = Workflow("reruns")
        workflow.add(Stage("seed", lambda ctx: None))
        workflow.add(
            Stage("inc1", lambda ctx: ctx.require("x") + 1, output="x")
        )
        workflow.add(
            Stage("inc2", lambda ctx: ctx.require("x") + 1, output="x")
        )
        return workflow

    # Run 1: completes with x=100 → checkpoints 001..003.
    first = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(
        build(), state={"x": 100}
    )
    assert first.state["x"] == 102

    # Run 2: different input, crashes after stage 1.
    with pytest.raises(SimulatedCrash):
        WorkflowRunner(
            num_workers=2, checkpoint_dir=tmp_path, subscriber=_crash_after(0)
        ).run(build(), state={"x": 0})

    resumed = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(
        build(), state={"x": 0}, resume=True
    )
    assert resumed.state["x"] == 2  # run 2's data, not run 1's 102


def test_resume_with_different_inputs_is_refused(tmp_path):
    """Same workflow shape, different seed state: resuming must not
    silently return the old run's results for the new inputs."""
    workflow = Workflow("inputs")
    workflow.add(Stage("double", lambda ctx: ctx.require("x") * 2, output="y"))
    workflow.add(Stage("tail", lambda ctx: None))

    # Crash during stage 2: stage 1's checkpoint is already on disk
    # (the end-of-stage hook fires before that stage's own checkpoint
    # is written, so crashing any earlier would leave none).
    with pytest.raises(SimulatedCrash):
        WorkflowRunner(
            num_workers=2, checkpoint_dir=tmp_path, subscriber=_crash_after(1)
        ).run(workflow, state={"x": 1})
    assert list(tmp_path.glob("checkpoint-*.pkl"))

    with pytest.raises(CheckpointError, match="different inputs or parameters"):
        WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(
            workflow, state={"x": 2}, resume=True
        )
    # The original inputs still resume fine.
    ctx = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(
        workflow, state={"x": 1}, resume=True
    )
    assert ctx.state["y"] == 2


def test_resume_without_seed_state_uses_the_checkpoints(tmp_path):
    """Omitting the seed state on resume is the natural call and must
    work — the checkpoint's state takes over regardless."""
    workflow = Workflow("stateless-resume")
    workflow.add(Stage("double", lambda ctx: ctx.require("x") * 2, output="y"))
    workflow.add(Stage("tail", lambda ctx: None))

    with pytest.raises(SimulatedCrash):
        WorkflowRunner(
            num_workers=2, checkpoint_dir=tmp_path, subscriber=_crash_after(1)
        ).run(workflow, state={"x": 21})

    ctx = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).resume(workflow)
    assert ctx.state["y"] == 42
    # The continued run's checkpoints keep the original fingerprint:
    # a later resume with the original seed state still matches...
    again = WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).resume(
        workflow, state={"x": 21}
    )
    assert again.state["y"] == 42
    # ...and one with different inputs is still refused.
    with pytest.raises(CheckpointError, match="different inputs or parameters"):
        WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).resume(
            workflow, state={"x": 99}
        )


def test_orphaned_tmp_files_are_swept_on_next_write(tmp_path):
    # A *stale* checkpoint temp file (a hard-killed write) is an orphan
    # and gets swept; freshness/ownership edge cases live in
    # test_checkpoint_concurrency.py.
    import os
    import time as _time

    from repro.workflow.checkpoint import _TMP_PREFIX, ORPHAN_TMP_AGE_SECONDS

    orphan = tmp_path / (_TMP_PREFIX + "abc123.tmp")
    orphan.write_bytes(b"half-written checkpoint")
    ancient = _time.time() - 2 * ORPHAN_TMP_AGE_SECONDS
    os.utime(orphan, (ancient, ancient))
    workflow = Workflow("sweeper")
    workflow.add(Stage("only", lambda ctx: None))
    WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(workflow)
    assert not list(tmp_path.glob("*.tmp"))
    assert list(tmp_path.glob("checkpoint-*.pkl"))


def test_other_workflows_checkpoints_survive_clearing(tmp_path):
    one = Workflow("one")
    one.add(Stage("only", lambda ctx: 1, output="x"))
    other = Workflow("other")
    other.add(Stage("only", lambda ctx: 2, output="x"))

    WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(one)
    WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(other)
    # Running `other` fresh must not have deleted `one`'s checkpoint.
    assert CheckpointStore(tmp_path).latest("one") is not None
    assert CheckpointStore(tmp_path).latest("other") is not None


def test_assembly_checkpoints_do_not_repickle_reads(paired_library, tmp_path):
    """Stage ① consumes the reads; later checkpoints must not carry them."""
    checkpoint_dir = tmp_path / "lean"
    PPAAssembler(_config("serial")).assemble_paired(
        paired_library, checkpoint_dir=checkpoint_dir
    )
    store = CheckpointStore(checkpoint_dir)
    latest = store.latest("ppa-assembly")
    assert latest is not None
    assert "reads" not in latest.state
    assert latest.state["pairs"]  # scaffolding's input is still there


def test_checkpoint_payload_is_plain_pickle(tmp_path):
    """Checkpoints must stay loadable with nothing but pickle."""
    workflow = Workflow("plain")
    workflow.add(Stage("only", lambda ctx: "payload", output="value"))
    WorkflowRunner(num_workers=2, checkpoint_dir=tmp_path).run(workflow)
    (path,) = tmp_path.glob("checkpoint-*.pkl")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    assert payload["workflow"] == "plain"
    assert payload["completed"] == 1
    assert payload["state"]["value"] == "payload"
    assert payload["stage_names"] == ["only"]
