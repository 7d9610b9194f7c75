"""Shared-memory message arenas for the multiprocess backend.

The multiprocess backend's original data plane pickles every message
batch into a ``multiprocessing.Queue`` — for columnar batches that
means copying megabytes of ndarray payload through a pipe per
superstep.  This module provides the zero-copy alternative: the master
creates one double-buffered *arena* (a ``multiprocessing.shared_memory``
segment pair) per worker, workers write their outgoing columnar batches
directly into their own arena, and only a tiny ``(name, offset, count)``
descriptor crosses the queue.  Receivers attach the named segment once
and read the arrays in place.

Why the double buffer works
---------------------------
Messages produced during superstep ``s`` are delivered at superstep
``s + 1``; a batch for delivery superstep ``d`` lives in buffer
``d % 2`` of its sender's arena.  During superstep ``s`` a worker
*writes* its buffer ``(s + 1) % 2`` and *reads* other workers' buffers
``s % 2``.  The BSP barrier at the end of each superstep guarantees
every read of a buffer finishes before that buffer is rewritten two
supersteps later, so two buffers per worker suffice and no segment is
ever reallocated while a reader may touch it.

Lifecycle and crash-safety
--------------------------
The *master* process owns every segment: it creates them before the
first superstep, reallocates a just-drained buffer at a barrier when a
worker requested more room (the grow path), and closes + unlinks all of
them in its shutdown/abort paths — including the path where a worker
died mid-superstep, so a killed worker can never leak ``/dev/shm``
segments (workers only ever *attach*).  Segment names embed the
master's PID so an outside supervisor (the job service) can sweep the
segments of a master that was itself SIGKILLed; the interpreter's
``resource_tracker`` remains the final safety net behind both.

Python 3.12 and earlier register attached segments with the resource
tracker as if the attaching process owned them, which triggers spurious
unlink attempts and warnings at worker exit; :func:`attach` therefore
unregisters the segment right after attaching.
"""

from __future__ import annotations

import glob
import os
import secrets
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - platforms without shared memory support
    from multiprocessing import shared_memory as _shared_memory
except Exception:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

#: Prefix for every arena segment.  It deliberately keeps the standard
#: ``psm_`` prefix so generic ``/dev/shm/psm_*`` leak checks see our
#: segments, and appends ``repro_<master-pid>`` so a supervisor can
#: sweep the segments of one dead master precisely.
_NAME_PREFIX = "psm_repro_"

#: Default size of each arena buffer.  Small enough that idle jobs cost
#: ~2 MiB per worker, big enough that most supersteps fit; the grow
#: protocol doubles a buffer that overflowed (overflow batches fall
#: back to the pickled queue path, so growth is a performance matter,
#: not a correctness one).
DEFAULT_ARENA_BYTES = 1 << 20

#: Tag marking a shared-memory batch descriptor on the data queues.
SHM_BATCH = "shmb"


def segment_name(master_pid: int, token: str, worker: int, buf: int, gen: int) -> str:
    return f"{_NAME_PREFIX}{master_pid}_{token}_{worker}_{buf}_g{gen}"


def attach(name: str):
    """Attach an existing segment without adopting cleanup ownership.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker as if the attaching process owned it (fixed only in Python
    3.13's ``track=False``).  Under ``fork`` the children share the
    master's tracker, so an attach-side registration followed by any
    unregister makes the master's own ``unlink()`` unregister fail
    noisily.  Suppressing registration for the duration of the attach
    keeps exactly one owner — the master — in the tracker's books.
    (Attaches happen on the worker's single control thread, so the
    brief monkeypatch cannot race another registration.)
    """
    try:  # pragma: no cover - tracker layout is version-dependent
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
    except Exception:
        return _shared_memory.SharedMemory(name=name)
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def shm_plane_usable() -> bool:
    """True when the shared-memory plane can actually be used here.

    Consults the fault plane first (``shm_alloc_fail`` simulates a host
    where ``/dev/shm`` allocation fails, forcing the queue fallback),
    then probes a real allocate/close/unlink round trip.
    """
    if _shared_memory is None:
        return False
    try:
        from ..service.faults import FaultPlan

        if FaultPlan.from_env().shm_alloc_fail():
            return False
    except Exception:  # pragma: no cover - fault plane must never break runs
        pass
    try:
        probe = _shared_memory.SharedMemory(create=True, size=64)
    except Exception:
        return False
    try:
        probe.close()
        probe.unlink()
    except Exception:  # pragma: no cover - best-effort cleanup of the probe
        pass
    return True


def sweep_dead_masters() -> List[str]:
    """Remove arena segments of every master that is no longer alive.

    Covers the gap :func:`sweep_master_segments` cannot: a service (and
    its worker processes — each the Pregel *master* of the backend it
    runs) SIGKILLed wholesale leaves segments whose owners nobody ever
    *observed* dying.  A restarted service calls this once at worker
    pool start-up; segments whose embedded master PID is dead can never
    be unlinked by their owner, so removing them is always safe, while
    a live master's segments are never touched.
    """
    removed: List[str] = []
    for path in glob.glob(f"/dev/shm/{_NAME_PREFIX}*"):
        name = os.path.basename(path)
        try:
            pid = int(name[len(_NAME_PREFIX):].split("_", 1)[0])
        except ValueError:  # pragma: no cover - foreign name under our prefix
            continue
        try:
            os.kill(pid, 0)
            continue  # the owning master is alive; its segment, its call
        except ProcessLookupError:
            pass  # dead owner: definitely orphaned
        except OSError:  # pragma: no cover - e.g. EPERM: someone else's pid
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(name)
    return removed


def sweep_master_segments(master_pid: int) -> List[str]:
    """Remove arena segments left by a dead master process.

    Used by the job-service supervisor after reclaiming a SIGKILLed
    worker process (which is the Pregel *master* of any backend it was
    running): masters unlink their segments on every orderly or
    exception exit, so anything still present under this PID is a leak.
    Returns the removed segment names (for logs/tests).
    """
    removed: List[str] = []
    pattern = f"/dev/shm/{_NAME_PREFIX}{master_pid}_*"
    for path in glob.glob(pattern):
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(os.path.basename(path))
    return removed


class ArenaPool:
    """Master-side owner of every worker's double-buffered arena."""

    def __init__(self, num_workers: int, arena_bytes: int = DEFAULT_ARENA_BYTES) -> None:
        self.num_workers = num_workers
        self.arena_bytes = max(4096, int(arena_bytes))
        self._token = secrets.token_hex(4)
        self._pid = os.getpid()
        # segments[worker][buf] -> (name, SharedMemory, size)
        self._segments: List[List[Tuple[str, object, int]]] = []
        self._gen = 0
        # Sticky per-worker byte request: the high-water mark of arena
        # space a worker reported needing; both buffers are grown to it
        # (each at the barrier where it is idle).
        self._requested: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def _create(self, worker: int, buf: int, size: int):
        self._gen += 1
        name = segment_name(self._pid, self._token, worker, buf, self._gen)
        segment = _shared_memory.SharedMemory(name=name, create=True, size=size)
        return name, segment, size

    def create_all(self) -> None:
        self._segments = [
            [self._create(worker, buf, self.arena_bytes) for buf in (0, 1)]
            for worker in range(self.num_workers)
        ]

    def names(self, worker: int) -> Tuple[str, str]:
        """The (buffer 0, buffer 1) segment names for ``worker``."""
        return (self._segments[worker][0][0], self._segments[worker][1][0])

    # ------------------------------------------------------------------
    # grow protocol
    # ------------------------------------------------------------------
    def request(self, worker: int, wanted_bytes: int) -> None:
        """Record a worker's end-of-superstep arena space request."""
        if wanted_bytes > self._requested.get(worker, 0):
            self._requested[worker] = int(wanted_bytes)

    def grow_idle(self, idle_buf: int) -> None:
        """Reallocate undersized idle buffers at a superstep barrier.

        ``idle_buf`` is the buffer parity that was *read* during the
        superstep that just reached its barrier: every consumer is past
        it and its next writer has not started, so replacing it is safe.
        """
        for worker, wanted in self._requested.items():
            name, segment, size = self._segments[worker][idle_buf]
            if wanted <= size:
                continue
            new_size = size
            while new_size < wanted:
                new_size *= 2
            try:
                replacement = self._create(worker, idle_buf, new_size)
            except Exception:
                continue  # out of /dev/shm: keep the old buffer, queues absorb overflow
            self._segments[worker][idle_buf] = replacement
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - already-gone segment
                pass

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def unlink_all(self) -> None:
        """Close and unlink every segment.  Idempotent, never raises."""
        segments, self._segments = self._segments, []
        for per_worker in segments:
            for _name, segment, _size in per_worker:
                try:
                    segment.close()
                except Exception:
                    pass
                try:
                    segment.unlink()
                except Exception:
                    pass


class ArenaWriter:
    """Worker-side sequential writer into this worker's own arena.

    One writer instance manages both buffers; :meth:`begin_superstep`
    (re)attaches whichever segment names the master announced in the
    step command and resets the write cursor of the buffer this
    superstep writes.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self._names: List[Optional[str]] = [None, None]
        self._segments: List[Optional[object]] = [None, None]
        self._offset = 0
        self._active: Optional[int] = None
        # Bytes this superstep wanted in total (written + overflowed);
        # reported to the master so it can grow the arena.
        self.wanted_bytes = 0

    def begin_superstep(self, superstep: int, names: Tuple[str, str]) -> None:
        for buf in (0, 1):
            if self._names[buf] != names[buf]:
                old = self._segments[buf]
                if old is not None:
                    try:
                        old.close()
                    except Exception:  # pragma: no cover
                        pass
                self._segments[buf] = attach(names[buf])
                self._names[buf] = names[buf]
        # Superstep s produces messages delivered at s + 1.
        self._active = (superstep + 1) % 2
        self._offset = 0
        self.wanted_bytes = 0

    def try_write(self, targets, values) -> Optional[Tuple[str, str, int, int]]:
        """Copy a columnar batch into the arena; descriptor or None.

        The batch layout is ``count`` uint64 targets followed by
        ``count`` uint64 values at ``offset``.  Returns ``None`` (caller
        falls back to the pickled queue path) when the batch does not
        fit; the bytes are still charged to ``wanted_bytes`` so the
        master grows the arena for later supersteps.
        """
        count = int(targets.size)
        need = 16 * count
        self.wanted_bytes += need
        segment = self._segments[self._active] if self._active is not None else None
        if segment is None:
            return None
        if self._offset + need > segment.size:
            return None
        offset = self._offset
        view = np.frombuffer(segment.buf, dtype=np.uint64, count=2 * count, offset=offset)
        view[:count] = targets
        view[count:] = values
        del view
        self._offset = offset + need
        return (SHM_BATCH, self._names[self._active], offset, count)

    def close(self) -> None:
        for buf in (0, 1):
            segment = self._segments[buf]
            if segment is not None:
                try:
                    segment.close()
                except Exception:  # pragma: no cover
                    pass
            self._segments[buf] = None
            self._names[buf] = None


class ArenaReader:
    """Worker-side cache of attachments to *other* workers' arenas."""

    def __init__(self) -> None:
        self._segments: Dict[str, object] = {}

    def read(self, name: str, offset: int, count: int):
        """Materialise a descriptor's (targets, values) arrays.

        The arrays are copied out of the segment: the inbox may outlive
        the buffer's reuse window, and holding views would pin the
        ``memoryview`` export and break ``close()``.
        """
        segment = self._segments.get(name)
        if segment is None:
            segment = attach(name)
            self._segments[name] = segment
        view = np.frombuffer(segment.buf, dtype=np.uint64, count=2 * count, offset=offset)
        targets = view[:count].copy()
        values = view[count:].copy()
        del view
        return targets, values

    def close(self) -> None:
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            try:
                segment.close()
            except Exception:  # pragma: no cover
                pass
