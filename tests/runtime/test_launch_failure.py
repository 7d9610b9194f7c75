"""A launch that fails half-way must leave nothing behind.

``ExecutionBackend.run`` wraps launch-to-teardown in one ``with``
block that ends in ``close``, so a backend that dies while bringing
its workers up — the second ``fork`` hitting ``EAGAIN``, a spill
failing while the serial plane adopts the partitions — still unlinks
its shared-memory arenas, stops the workers it did start, and closes
its spill store.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.pregel import PregelJob, Vertex
from repro.runtime import MultiprocessBackend, SerialBackend
from repro.runtime.shm import shm_plane_usable
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


@pytest.mark.skipif(
    not shm_plane_usable(), reason="POSIX shared memory not usable on this host"
)
def test_failed_second_fork_leaks_no_segment_and_no_worker():
    backend = MultiprocessBackend(num_workers=2, message_plane="shm")
    context = backend._context = _SecondStartFails(backend._context)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        backend.run(_job())
    assert glob.glob(f"/dev/shm/psm_repro_{os.getpid()}_*") == []
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
