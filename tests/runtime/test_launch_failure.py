"""A job whose workers fail must fail loudly and leave nothing behind.

``ExecutionBackend.run`` wraps launch-to-teardown in one ``with``
block that ends in ``close``, so a backend that dies while bringing
its workers up — the second ``fork`` hitting ``EAGAIN``, a spill
failing while the serial plane adopts the partitions — still stops the
workers it did start and closes its spill store.  A worker process
killed mid-superstep is noticed at the barrier instead of hanging it.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import BackendExecutionError
from repro.pregel import PregelJob, Vertex, min_combiner
from repro.runtime import MultiprocessBackend, SerialBackend
from repro.store.spill import SpillManager


class IdleVertex(Vertex):
    def compute(self, messages, ctx):
        self.vote_to_halt()


def _job() -> PregelJob:
    return PregelJob(name="launch", vertices=[IdleVertex(i, value=i) for i in range(8)])


class _SecondStartFails:
    """A multiprocessing context whose second ``Process.start()`` raises."""

    def __init__(self, context) -> None:
        self._context = context
        self.processes = []

    def __getattr__(self, name):
        return getattr(self._context, name)

    def Process(self, *args, **kwargs):
        process = self._context.Process(*args, **kwargs)
        if len(self.processes) == 1:
            def start():
                raise OSError(11, "Resource temporarily unavailable")

            process.start = start
        self.processes.append(process)
        return process


def test_failed_second_fork_leaves_no_worker_running():
    backend = MultiprocessBackend(num_workers=2)
    context = backend._context = _SecondStartFails(backend._context)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        backend.run(_job())
    first = context.processes[0]
    assert first.pid is not None, "the first worker was never started"
    assert not first.is_alive()


def test_failed_adoption_closes_the_spill_store(monkeypatch):
    closed = []
    real_close = SpillManager.close

    def failing_spill(self, name, obj):
        raise OSError(28, "No space left on device")

    def recording_close(self):
        closed.append(self.owner)
        real_close(self)

    monkeypatch.setattr(SpillManager, "spill", failing_spill)
    monkeypatch.setattr(SpillManager, "close", recording_close)
    with pytest.raises(OSError, match="No space left on device"):
        SerialBackend(num_workers=2, memory_budget_mb=0.0001).run(_job())
    assert closed == ["serial:launch"]


class SuicidalVertex(Vertex):
    """Floods minima around a ring; SIGKILLs its own worker at superstep 2."""

    def compute(self, messages, ctx):
        if ctx.superstep == 2 and self.vertex_id == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        best = min(messages) if messages else self.value
        if ctx.superstep == 0 or best < self.value:
            self.value = min(self.value, best)
            for neighbor in self.edges:
                ctx.send(neighbor, self.value)
        self.vote_to_halt()


def test_worker_killed_mid_superstep_raises_backend_execution_error():
    # The worker owning vertex 0 dies inside superstep 2, with messages
    # in flight both ways; the master must raise instead of waiting on
    # the barrier forever.
    size = 400
    vertices = [
        SuicidalVertex(i, value=i, edges=[(i + 1) % size, (i - 1) % size])
        for i in range(size)
    ]
    job = PregelJob(name="ring-killed", vertices=vertices, combiner=min_combiner())
    with pytest.raises(BackendExecutionError, match="exited"):
        MultiprocessBackend(num_workers=2).run(job)
