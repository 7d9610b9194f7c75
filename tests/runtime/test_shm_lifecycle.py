"""Lifecycle of the shared-memory arenas: no exit path may leak.

The master process owns every ``/dev/shm`` arena segment; workers only
attach.  These tests drive the paths where that ownership matters:

* a worker SIGKILLed mid-superstep — the backend must fail loudly
  *and* unlink every segment on its abort path;
* a dead Pregel master — the job-service supervisor sweeps the
  orphaned segments by PID;
* a host where shm allocation fails (the ``shm_alloc_fail`` fault) —
  the plane must fall back to the pickled-queue path with identical
  results;
* an arena too small for the traffic — overflow batches ride the
  queue and the grow protocol widens the arena, with identical
  results throughout.
"""

from __future__ import annotations

import glob
import json
import os
import signal

import pytest

from repro.errors import BackendExecutionError
from repro.pregel import PregelEngine, PregelJob, Vertex, min_combiner
from repro.runtime import MultiprocessBackend
from repro.runtime.shm import (
    shm_plane_usable,
    sweep_dead_masters,
    sweep_master_segments,
)

pytestmark = pytest.mark.skipif(
    not shm_plane_usable(), reason="POSIX shared memory not usable on this host"
)


def _arena_segments() -> set:
    return set(glob.glob("/dev/shm/psm_repro_*"))


class ChattyVertex(Vertex):
    """Floods minima around a ring: steady columnar traffic every step."""

    columnar_state = True

    def compute(self, messages, ctx):
        best = min(messages) if messages else self.value
        if ctx.superstep == 0 or best < self.value:
            self.value = min(self.value, best)
            for neighbor in self.edges:
                ctx.send(neighbor, self.value)
        self.vote_to_halt()


class SuicidalVertex(ChattyVertex):
    """SIGKILLs its own worker process at superstep 2."""

    def compute(self, messages, ctx):
        if ctx.superstep == 2 and self.vertex_id == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        super().compute(messages, ctx)


def _ring_job(vertex_class, n=400, name="ring"):
    vertices = [
        vertex_class(i, value=i, edges=[(i + 1) % n, (i - 1) % n]) for i in range(n)
    ]
    return PregelJob(name=name, vertices=vertices, combiner=min_combiner())


def test_killed_worker_mid_superstep_leaks_no_segments():
    # The worker owning vertex 0 dies inside superstep 2, after the
    # arenas exist and carry traffic.  The master must raise — and its
    # abort path must unlink every arena segment even though the dead
    # worker could not participate in any cleanup.
    before = _arena_segments()
    backend = MultiprocessBackend(num_workers=2, message_plane="shm")
    with pytest.raises(BackendExecutionError):
        backend.run(_ring_job(SuicidalVertex, name="ring-killed"))
    assert _arena_segments() - before == set()


def test_supervisor_sweeps_segments_of_a_dead_master():
    # A SIGKILLed *master* cannot unlink anything itself; the service
    # supervisor reclaims its segments by the PID baked into the name.
    # Simulate the orphaned state directly: segment files named for a
    # PID that is not a live master (plain files, so this process's
    # resource tracker never adopts them).
    from repro.runtime.shm import segment_name

    fake_pid = 999_999_999  # no live process; sweep keys on the name only
    names = [segment_name(fake_pid, "deadbeef", worker, buf, 1) for worker in (0, 1) for buf in (0, 1)]
    for name in names:
        with open(f"/dev/shm/{name}", "wb") as handle:
            handle.write(b"\0" * 64)
    try:
        removed = sweep_master_segments(fake_pid)
        assert sorted(removed) == sorted(names)
        assert not glob.glob(f"/dev/shm/psm_repro_{fake_pid}_*")
        # Sweeping again is a no-op, not an error.
        assert sweep_master_segments(fake_pid) == []
    finally:
        for name in names:  # pragma: no cover - only on assertion failure
            try:
                path = f"/dev/shm/{name}"
                if os.path.exists(path):
                    os.unlink(path)
            except OSError:
                pass


def test_dead_master_sweep_spares_live_owners():
    # sweep_dead_masters() is the restarted service's start-up
    # reclamation: it may remove only segments whose embedded master
    # PID is no longer alive.  Own segments (live PID: this process)
    # must survive; a dead PID's must go.
    from repro.runtime.shm import segment_name

    dead_name = segment_name(999_999_999, "cafecafe", 0, 0, 1)
    live_name = segment_name(os.getpid(), "cafecafe", 0, 0, 1)
    for name in (dead_name, live_name):
        with open(f"/dev/shm/{name}", "wb") as handle:
            handle.write(b"\0" * 64)
    try:
        removed = sweep_dead_masters()
        assert dead_name in removed
        assert live_name not in removed
        assert os.path.exists(f"/dev/shm/{live_name}")
        assert not os.path.exists(f"/dev/shm/{dead_name}")
    finally:
        for name in (dead_name, live_name):
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass


def test_shm_alloc_fail_fault_forces_queue_fallback(monkeypatch):
    # The shm_alloc_fail injector simulates a host with an exhausted
    # /dev/shm: the plane must report itself unusable and the backend
    # must transparently run on the pickled-queue path with identical
    # results — and, obviously, zero segments.
    oracle = PregelEngine(num_workers=2, backend="serial").run(_ring_job(ChattyVertex))

    monkeypatch.setenv("REPRO_FAULTS", json.dumps([{"kind": "shm_alloc_fail"}]))
    assert not shm_plane_usable()
    before = _arena_segments()
    backend = MultiprocessBackend(num_workers=2, message_plane="shm")
    result = backend.run(_ring_job(ChattyVertex))
    assert _arena_segments() == before

    assert result.vertex_values() == oracle.vertex_values()
    assert result.metrics.supersteps == oracle.metrics.supersteps


def test_tiny_arena_grows_without_changing_results():
    # An arena far too small for the ring's traffic: early batches
    # overflow to the queue while the grow protocol doubles the idle
    # buffer at each barrier.  Results must be bit-identical to serial
    # and nothing may leak.
    oracle = PregelEngine(num_workers=2, backend="serial").run(_ring_job(ChattyVertex))
    backend = MultiprocessBackend(
        num_workers=2, message_plane="shm", shm_arena_bytes=4096
    )
    result = backend.run(_ring_job(ChattyVertex))
    assert result.vertex_values() == oracle.vertex_values()
    assert result.metrics.supersteps == oracle.metrics.supersteps
    assert _arena_segments() == set()


def test_queue_plane_never_allocates_segments():
    before = _arena_segments()
    backend = MultiprocessBackend(num_workers=2, message_plane="queue")
    result = backend.run(_ring_job(ChattyVertex))
    assert _arena_segments() == before
    oracle = PregelEngine(num_workers=2, backend="serial").run(_ring_job(ChattyVertex))
    assert result.vertex_values() == oracle.vertex_values()


def test_service_kill_worker_recovery_leaves_no_segments(tmp_path, monkeypatch):
    """PR 7's recovery plus this PR's arenas: SIGKILL mid-assembly.

    The service worker process is the Pregel *master* of the
    multiprocess backend it runs; killing it strands its arena
    segments.  The supervisor must reclaim the job (recovery contract
    from the fault suite) and sweep the dead master's segments by PID.
    """
    import time

    from repro.service import AssemblyService, JobSpec

    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([{"kind": "kill_worker", "stage": 2, "attempts": [1]}]),
    )
    service = AssemblyService(
        tmp_path / "shm-chaos",
        num_workers=1,
        port=0,
        poll_interval=0.05,
        lease_seconds=0.6,
        reap_interval=0.1,
        drain_timeout=10.0,
    )
    service.start()
    try:
        record = service.submit(
            JobSpec(
                input={"mode": "simulate", "genome_length": 12_000, "seed": 29},
                config={
                    "k": 17,
                    "backend": "multiprocess",
                    "num_workers": 2,
                    "message_plane": "shm",
                },
                retry={"max_attempts": 3, "backoff_seconds": 0.05},
            )
        )
        deadline = time.monotonic() + 240.0
        while time.monotonic() < deadline:
            current = service.store.get(record.id)
            if current.is_terminal:
                break
            time.sleep(0.05)
        events = [event.type for event in service.store.events(record.id)]
        assert current.state == "succeeded", events
        assert "recovered" in events
    finally:
        service.stop(wait=True)
    assert _arena_segments() == set()
