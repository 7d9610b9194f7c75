"""Concurrent :class:`CheckpointStore` use: shared directories stay safe.

The job service gives every job its own checkpoint directory, but the
store itself must not *require* that isolation: two runners pointed at
one shared root have namespaced file names (workflow slug in the name),
and the orphan ``.tmp`` sweep must never race a sibling store's write
in flight.  These tests pin both properties down, plus the sweep's
actual job (stale orphans do get removed).
"""

from __future__ import annotations

import os
import threading
import time

from repro.workflow import CheckpointStore, Stage, Workflow, WorkflowRunner
from repro.workflow.checkpoint import (
    _TMP_PREFIX,
    ORPHAN_TMP_AGE_SECONDS,
    Checkpoint,
)


def _counting_workflow(name: str, stages: int = 4) -> Workflow:
    workflow = Workflow(name)

    def bump(ctx) -> None:
        ctx.state["count"] = ctx.state.get("count", 0) + 1
        ctx.state.setdefault("trace", []).append(ctx.state["count"])

    for index in range(stages):
        workflow.add(Stage(f"step-{index}", bump))
    return workflow


def test_two_runners_sharing_a_root_do_not_clobber_each_other(tmp_path):
    """Concurrent runs of two workflows into ONE directory stay disjoint."""
    shared = tmp_path / "shared"
    results = {}
    errors = []

    def run(name: str) -> None:
        try:
            runner = WorkflowRunner(num_workers=2, checkpoint_dir=shared)
            ctx = runner.run(_counting_workflow(name), state={"seed": name})
            results[name] = ctx.state["trace"]
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append((name, exc))

    threads = [
        threading.Thread(target=run, args=(name,))
        for name in ("alpha-job", "beta-job")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert results["alpha-job"] == [1, 2, 3, 4]
    assert results["beta-job"] == [1, 2, 3, 4]
    # Four namespaced checkpoints each, none overwritten by the sibling.
    alpha = sorted(p.name for p in shared.glob("checkpoint-*-alpha-job-*.pkl"))
    beta = sorted(p.name for p in shared.glob("checkpoint-*-beta-job-*.pkl"))
    assert len(alpha) == 4 and len(beta) == 4

    # Each workflow resumes from *its own* final checkpoint.
    for name in ("alpha-job", "beta-job"):
        store = CheckpointStore(shared)
        checkpoint = store.latest(name)
        assert checkpoint is not None
        assert checkpoint.workflow == name
        assert checkpoint.completed == 4
        assert checkpoint.state["seed"] == name


def test_sweep_keeps_a_sibling_stores_fresh_tmp_file(tmp_path):
    """A fresh in-flight temp file is a write in progress, not an orphan."""
    in_flight = tmp_path / (_TMP_PREFIX + "sibling-write.tmp")
    in_flight.write_bytes(b"half a checkpoint")

    store = CheckpointStore(tmp_path)
    store.save(
        Checkpoint(workflow="wf", stage_names=["a"], completed=1, state={})
    )

    assert in_flight.exists(), "sweep deleted a sibling's in-flight temp file"


def test_sweep_removes_stale_orphans_only(tmp_path):
    """Stale prefix-matching orphans go; foreign .tmp files never do."""
    stale = tmp_path / (_TMP_PREFIX + "killed-write.tmp")
    stale.write_bytes(b"orphaned")
    foreign = tmp_path / "user-data.tmp"
    foreign.write_bytes(b"not ours")
    ancient = time.time() - 2 * ORPHAN_TMP_AGE_SECONDS
    os.utime(stale, (ancient, ancient))
    os.utime(foreign, (ancient, ancient))

    store = CheckpointStore(tmp_path)
    store.save(
        Checkpoint(workflow="wf", stage_names=["a"], completed=1, state={})
    )

    assert not stale.exists(), "stale orphan survived the sweep"
    assert foreign.exists(), "sweep deleted a file it does not own"


def test_concurrent_saves_into_one_directory_all_land(tmp_path):
    """Many threads saving simultaneously: every file intact afterwards."""
    store = CheckpointStore(tmp_path)
    errors = []

    def save(index: int) -> None:
        try:
            local = CheckpointStore(tmp_path)
            for completed in range(1, 4):
                local.save(
                    Checkpoint(
                        workflow=f"job-{index}",
                        stage_names=["s1", "s2", "s3"],
                        completed=completed,
                        state={"index": index, "completed": completed},
                    )
                )
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=save, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    for index in range(6):
        checkpoint = store.latest(f"job-{index}")
        assert checkpoint is not None
        assert checkpoint.completed == 3
        assert checkpoint.state == {"index": index, "completed": 3}
    # No temp litter left behind by any of the writers.
    assert not list(tmp_path.glob("*.tmp"))
