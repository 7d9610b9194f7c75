"""The serial spill plane: how the serial backend sheds memory under a budget.

:class:`SerialSpillPlane` owns the serial backend's worker partitions
and delivered inboxes for one job.  Between supersteps the partitions
of workers that are not currently executing are idle by construction
(workers run one after another), so any of them may live on disk; the
plane loads each worker just-in-time, re-accounts it after it executes,
and spills the entries whose next turn is furthest away until the
ledger is back under budget.  Partitions go to disk as
:func:`~repro.pregel.partition.pack_partition` payloads.

The multiprocess backend has no counterpart: its worker processes keep
their partitions and in-flight batches resident, so there the budget
bounds DBG construction only.

Spilling is transparent to results: the parity suite pins contigs,
scaffolds, metrics and aggregate histories bit-identical at any budget.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..pregel.partition import pack_partition, unpack_partition
from ..pregel.worker import Worker
from ..store.ledger import MemoryLedger, estimate_nbytes
from ..store.spill import SpillManager, process_spill_stats


#: Stands in, in the inbox mapping, for an inbox that lives on disk.
_SPILLED = object()


class SerialSpillPlane:
    """Budgeted custody of one serial job's partitions and inboxes."""

    def __init__(self, budget_bytes: int, job_name: str = "job") -> None:
        self.ledger = MemoryLedger(budget_bytes, name=f"serial:{job_name}")
        self.manager = SpillManager(owner=f"serial:{job_name}")
        self._workers: Dict[int, Optional[Worker]] = {}
        self._inboxes: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def adopt(self, workers: Iterable[Worker]) -> None:
        """Take custody of the job's partitions (call once, after split)."""
        for worker in workers:
            self._workers[worker.worker_id] = worker
            self._account(worker)
        self.rebalance()

    def worker(self, worker_id: int) -> Worker:
        """The partition, loaded back from disk if it was spilled."""
        worker = self._workers.get(worker_id)
        if worker is None:
            worker = Worker(worker_id)
            worker.vertices = unpack_partition(
                self.manager.load(self._partition_key(worker_id))
            )
            self._workers[worker_id] = worker
            self._account(worker)
        return worker

    def reaccount(self, worker: Worker) -> None:
        """Refresh a partition's ledger entry after it executed.

        Execution mutates vertex values and may create vertices via the
        vertex factory, so the pre-superstep estimate is stale.
        """
        self._account(worker)

    # ------------------------------------------------------------------
    # inboxes
    # ------------------------------------------------------------------
    def stash_inboxes(self, inboxes: Dict[int, Any]) -> Dict[int, Any]:
        """Account delivered inboxes, then rebalance (may spill some).

        Returns the inbox mapping with spilled entries replaced by a
        marker; :meth:`take_inbox` loads those back.
        """
        for worker_id, inbox in inboxes.items():
            if inbox:
                self.ledger.track(self._inbox_key(worker_id), estimate_nbytes(inbox))
        self._inboxes = inboxes
        self.rebalance()
        return inboxes

    def take_inbox(self, worker_id: int, inboxes: Dict[int, Any]) -> Dict[int, Any]:
        """The worker's inbox, loaded back if it was spilled; releases it."""
        inbox = inboxes.get(worker_id, {})
        if inbox is _SPILLED:
            inbox = self.manager.load(self._inbox_key(worker_id))
        else:
            self.ledger.release(self._inbox_key(worker_id))
        inboxes.pop(worker_id, None)
        return inbox

    # ------------------------------------------------------------------
    # budget enforcement
    # ------------------------------------------------------------------
    def rebalance(self, exclude_worker: Optional[int] = None) -> None:
        """Spill the entries needed furthest from now until under budget.

        Workers run in id order every superstep, so what worker ``w``
        owns (its partition, its delivered inbox) is next needed
        ``(w - position - 1) mod num_workers`` turns from now, where
        ``position`` is the worker that just executed, or -1 between
        supersteps.  Victims go in descending distance, a worker's
        partition before its inbox: the workers about to run keep their
        entries from one superstep to the next and only the rest cycle
        through the store.  (Evicting by last use would reload every
        partition every superstep — the scan is cyclic.)

        ``exclude_worker`` pins the partition that just executed (its
        object is on the caller's stack; spilling it would just burn a
        serialization without freeing the memory).
        """
        ledger = self.ledger
        if not ledger.over_budget:
            return
        num_workers = len(self._workers)
        position = -1 if exclude_worker is None else exclude_worker
        for distance in range(num_workers - 1, -1, -1):
            worker_id = (position + 1 + distance) % num_workers
            worker = self._workers.get(worker_id)
            if worker is not None and worker_id != exclude_worker:
                name = self._partition_key(worker_id)
                if self.manager.spill(name, pack_partition(worker.vertices)):
                    self._workers[worker_id] = None
                    ledger.release(name)
            name = self._inbox_key(worker_id)
            if ledger.over_budget and ledger.tracked(name):
                if self.manager.spill(name, self._inboxes[worker_id]):
                    self._inboxes[worker_id] = _SPILLED
                    ledger.release(name)
            if not ledger.over_budget:
                break
        process_spill_stats().record_ledger_peak(ledger.peak_bytes)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def restore_all(self) -> List[Worker]:
        """Load every partition back; the job is over and wants vertices."""
        return [self.worker(worker_id) for worker_id in sorted(self._workers)]

    def close(self) -> None:
        process_spill_stats().record_ledger_peak(self.ledger.peak_bytes)
        self.manager.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _account(self, worker: Worker) -> None:
        self.ledger.track(
            self._partition_key(worker.worker_id), estimate_nbytes(worker.vertices)
        )

    @staticmethod
    def _partition_key(worker_id: int) -> str:
        return f"partition:{worker_id}"

    @staticmethod
    def _inbox_key(worker_id: int) -> str:
        return f"inbox:{worker_id}"
