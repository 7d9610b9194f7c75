"""The worker pool and its supervision: where queued jobs become contigs.

At most ``num_workers`` jobs run concurrently, each under a heartbeat-
renewed lease, each in a worker of :class:`ProcessWorkerPool`: a
**spawned process** running its own claim loop
(:func:`~repro.service.worker.worker_main`) against the shared SQLite
store.  Compute scales with cores, and the fault model is enforceable:
a supervisor thread watches for worker death (any exit — SIGKILL, a
deliberate timeout exit, a crash) and immediately reclaims the dead
incarnation's jobs for retry, then respawns the slot (with a short
backoff when a worker dies instantly, so a poisoned environment cannot
spawn-loop).  Spawn, not fork: the service process is heavily
multi-threaded (HTTP server, supervisor) and forking a threaded process
inherits locks in undefined states; children are non-daemonic because
the multiprocess Pregel backend forks its own workers.

The supervisor also **reaps**: every ``reap_interval`` seconds,
:meth:`~repro.service.store.JobStore.reap_expired` re-enqueues any
running job whose lease lapsed.  With one replica this catches workers
that died without the supervisor noticing; with several replicas
sharing a store it is what makes *another* replica's death survivable —
its jobs come back to whoever is still alive, with no restart anywhere.
It additionally kills any of its own children that got fenced (their
job was reclaimed while they kept computing — the stalled-heartbeat
case), because a fenced worker is doing work nobody will accept.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..telemetry import get_registry
from .store import JobStore
from .worker import (
    EXIT_REASONS,
    MetricsSpool,
    job_dir,
    worker_main,
)

logger = logging.getLogger("repro.service")

#: How long a worker slot must survive for its respawn backoff to reset.
_QUICK_DEATH_SECONDS = 2.0
_MAX_RESPAWN_BACKOFF = 5.0


def _death_reason(exitcode: Optional[int]) -> str:
    """A bounded label for how a worker process ended."""
    if exitcode is None:
        return "unknown"
    if exitcode in EXIT_REASONS:
        return EXIT_REASONS[exitcode]
    if exitcode < 0:
        return f"signal-{-exitcode}"
    return f"exit-{exitcode}"


class ProcessWorkerPool:
    """Supervised pool of spawned worker *processes*."""

    def __init__(
        self,
        store: JobStore,
        data_dir,
        num_workers: int = 2,
        poll_interval: float = 0.2,
        lease_seconds: Optional[float] = None,
        reap_interval: float = 1.0,
        drain_timeout: float = 30.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.store = store
        self.data_dir = Path(data_dir)
        self.num_workers = num_workers
        self.poll_interval = poll_interval
        self.lease_seconds = (
            store.lease_seconds if lease_seconds is None else lease_seconds
        )
        self.reap_interval = reap_interval
        self.drain_timeout = drain_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._stop_event = None
        self._supervisor: Optional[threading.Thread] = None
        self._stopping = False
        self._lock = threading.Lock()
        self._slots: List[Dict] = []
        self._spool = MetricsSpool(self.data_dir)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._slots and not self._stopping:
                return  # already running
            self._stopping = False
            self._stop_event = self._ctx.Event()
            self._slots = [
                {
                    "index": index,
                    "process": None,
                    "incarnation": None,
                    "spawned_at": 0.0,
                    "respawn_after": 0.0,
                    "backoff": 0.0,
                }
                for index in range(self.num_workers)
            ]
            for slot in self._slots:
                self._spawn_locked(slot)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-service-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_locked(self, slot: Dict) -> None:
        worker_name = f"worker-{slot['index']}"
        options = {
            "poll_interval": self.poll_interval,
            "lease_seconds": self.lease_seconds,
            "max_attempts": self.store.max_attempts,
            "backoff_seconds": self.store.backoff_seconds,
            "backoff_cap_seconds": self.store.backoff_cap_seconds,
        }
        process = self._ctx.Process(
            target=worker_main,
            args=(
                str(self.store.path),
                str(self.data_dir),
                worker_name,
                self._stop_event,
                options,
            ),
            name=f"repro-service-{worker_name}",
            # Non-daemonic on purpose: the multiprocess Pregel backend
            # forks *its* workers from this process, and daemonic
            # processes may not have children.  Orphan safety comes
            # from the child's own getppid() check instead.
            daemon=False,
        )
        process.start()
        slot["process"] = process
        slot["incarnation"] = f"{worker_name}@{process.pid}"
        slot["spawned_at"] = time.monotonic()

    def _supervise_loop(self) -> None:
        last_reap = time.monotonic()
        while not self._stopping:
            time.sleep(0.1)
            if self._stopping:
                return
            now = time.monotonic()
            with self._lock:
                for slot in self._slots:
                    process = slot["process"]
                    if process is not None and not process.is_alive():
                        self._on_death_locked(slot, now)
                    if (
                        slot["process"] is None
                        and not self._stopping
                        and now >= slot["respawn_after"]
                    ):
                        self._spawn_locked(slot)
            if now - last_reap >= self.reap_interval:
                last_reap = now
                self._reap_once()

    def _on_death_locked(self, slot: Dict, now: float) -> None:
        process = slot["process"]
        reason = _death_reason(process.exitcode)
        incarnation = slot["incarnation"]
        process.join()
        slot["process"] = None
        get_registry().counter(
            "repro_worker_deaths_total",
            "Worker processes that exited, by reason.",
            labelnames=("reason",),
        ).labels(reason).inc()
        if not self._stopping:
            logger.warning(
                "worker %s died (%s); reclaiming its jobs", incarnation, reason
            )
        # The supervisor knows the owner is dead: reclaim immediately
        # instead of waiting out the lease.
        try:
            self._count_reclaims(
                self.store.reclaim_worker(incarnation, reason=f"worker-{reason}")
            )
        except Exception:  # noqa: BLE001 — supervision must survive store hiccups
            pass
        lifetime = now - slot["spawned_at"]
        if lifetime < _QUICK_DEATH_SECONDS:
            slot["backoff"] = min(
                _MAX_RESPAWN_BACKOFF, max(0.2, slot["backoff"] * 2)
            )
        else:
            slot["backoff"] = 0.0
        slot["respawn_after"] = now + slot["backoff"]

    def _count_reclaims(self, reclaims) -> None:
        for reclaim in reclaims:
            logger.warning(
                "reclaimed job %s from %s (%s, attempt %d)",
                reclaim.record.id,
                reclaim.previous_owner,
                reclaim.outcome,
                reclaim.record.attempts,
            )

    def _reap_once(self) -> None:
        try:
            reclaims = self.store.reap_expired()
        except Exception:  # noqa: BLE001
            return
        self._count_reclaims(reclaims)
        if not reclaims:
            return
        # A reclaimed job whose previous owner is one of *our live*
        # children means that child is fenced (it stopped heartbeating
        # but kept computing).  Nobody will accept its writes; kill it
        # so the slot goes back to useful work.
        owners = {reclaim.previous_owner for reclaim in reclaims}
        with self._lock:
            for slot in self._slots:
                process = slot["process"]
                if (
                    process is not None
                    and process.is_alive()
                    and slot["incarnation"] in owners
                ):
                    logger.warning(
                        "killing fenced worker %s", slot["incarnation"]
                    )
                    process.kill()

    def stop(self, wait: bool = True) -> bool:
        """Drain (or terminate) the worker processes.

        ``wait=True`` is the graceful drain: signal the stop event,
        give every child up to ``drain_timeout`` seconds to finish its
        current job (stages checkpoint as they complete, so even an
        unfinished job loses nothing durable), then escalate to
        SIGTERM and finally SIGKILL, reclaiming whatever the killed
        children held.  Returns True when every worker exited on its
        own, False when escalation was needed — the service surfaces
        this as ``stopped_cleanly``.
        """
        self._stopping = True
        if self._stop_event is not None:
            self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
            self._supervisor = None
        clean = True
        with self._lock:
            processes = [
                (slot, slot["process"])
                for slot in self._slots
                if slot["process"] is not None
            ]
            deadline = time.monotonic() + (self.drain_timeout if wait else 0.5)
            for slot, process in processes:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    clean = False
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
                try:
                    self._count_reclaims(
                        self.store.reclaim_worker(
                            slot["incarnation"], reason="shutdown"
                        )
                    )
                except Exception:  # noqa: BLE001 — the store may already be closed
                    pass
                slot["process"] = None
            self._slots = []
        return clean

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return job_dir(self.data_dir, job_id)

    def worker_pids(self) -> List[int]:
        """PIDs of live worker processes."""
        with self._lock:
            return [
                slot["process"].pid
                for slot in self._slots
                if slot["process"] is not None and slot["process"].is_alive()
            ]

    def drain_metrics(self, registry) -> None:
        """Fold spooled worker-process metrics into ``registry``."""
        self._spool.drain_into(registry)
