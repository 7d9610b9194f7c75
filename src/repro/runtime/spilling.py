"""Spill planes: how the execution backends shed memory under a budget.

Two cooperating pieces, one per backend shape:

* :class:`SerialSpillPlane` — owns the serial backend's worker
  partitions and delivered inboxes for one job.  Between supersteps the
  partitions of workers that are not currently executing are idle by
  construction (workers run one after another), so any of them may live
  on disk; the plane loads each worker just-in-time, re-accounts it
  after it executes, and spills the entries whose next turn is furthest
  away until the ledger is back under budget.  Partitions go to disk as
  :func:`~repro.pregel.partition.pack_partition` payloads.

* :class:`WorkerBatchSpiller` — used *inside* a multiprocess worker
  process for message batches staged for future supersteps.  Each
  worker gets an equal share of the job budget; staged batches beyond
  the share spill to a private store and are resolved when their
  superstep arrives.  Spill totals are drained per superstep and ride
  the existing counter dict to the master, which folds them into the
  process-wide :class:`~repro.store.spill.SpillStats`.

Spilling is transparent to results: the parity suite pins contigs,
scaffolds, metrics and aggregate histories bit-identical at any budget.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..pregel.partition import pack_partition, unpack_partition
from ..pregel.worker import Worker
from ..store.ledger import MemoryLedger, estimate_nbytes
from ..store.spill import SpillManager, SpillStats, process_spill_stats


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


#: Tag of a spilled staged batch's disk token on the worker side.
SPILLED_BATCH = "spilled-batch"


def _is_spilled_token(batch: Any) -> bool:
    return isinstance(batch, tuple) and len(batch) == 2 and batch[0] == SPILLED_BATCH


def _is_shm_descriptor(batch: Any) -> bool:
    # ("shmb", name, offset, count) — the payload lives in a shared
    # memory arena, not this worker's heap, so it is never accounted
    # or spilled (the tag literal is duplicated here to avoid importing
    # the shm plane into the store layer).
    return isinstance(batch, tuple) and len(batch) == 4 and batch[0] == "shmb"


class WorkerBatchSpiller:
    """Budgeted custody of a multiprocess worker's staged batches.

    Lives inside one worker process.  Batches staged for a *future*
    superstep are the coldest memory the worker holds (its resident
    partition is in use every superstep), so they are what spills:
    :meth:`stash` accounts each arriving batch and returns either the
    batch or a disk token; :meth:`resolve` materialises it when its
    superstep arrives.  Shared-memory descriptors pass through
    untouched — their payload is not on this worker's heap.

    Spill totals accumulate in a *private* :class:`SpillStats` (the
    process-wide one would be polluted by fork-inherited parent counts)
    and are drained per superstep into the counter dict the worker
    already ships at every barrier; the master folds the deltas into
    its own process-wide totals.
    """

    def __init__(
        self,
        budget_bytes: int,
        worker_id: int,
        job_name: str = "job",
        registry=None,
    ) -> None:
        stats = SpillStats()
        self.ledger = MemoryLedger(
            budget_bytes, name=f"mp:{job_name}:w{worker_id}", registry=registry
        )
        self.manager = SpillManager(
            owner=f"mp:{job_name}:w{worker_id}", stats=stats, registry=registry
        )
        self._last_snapshot: Dict[str, int] = {}

    def account_partition(self, vertices: Dict[int, Any]) -> None:
        """Track the resident partition so staged batches feel the squeeze."""
        self.ledger.track("partition", estimate_nbytes(vertices))

    def stash(self, for_superstep: int, sender: int, batch: Any) -> Any:
        """Account a staged batch; spill it if the worker is over budget."""
        if _is_shm_descriptor(batch) or _is_spilled_token(batch):
            return batch
        name = f"batch:{for_superstep}:{sender}"
        self.ledger.track(name, estimate_nbytes(batch))
        if not self.ledger.over_budget:
            return batch
        if self.manager.spill(name, batch):
            self.ledger.release(name)
            return (SPILLED_BATCH, name)
        return batch

    def resolve(self, for_superstep: int, sender: int, batch: Any) -> Any:
        """Materialise a staged batch whose superstep has arrived."""
        if _is_spilled_token(batch):
            return self.manager.load(batch[1])
        self.ledger.release(f"batch:{for_superstep}:{sender}")
        return batch

    def drain_stats(self) -> Dict[str, int]:
        """Spill/load growth since the previous drain (peak is absolute)."""
        snapshot = self.manager.stats.snapshot()
        previous = self._last_snapshot
        delta = {
            "spill_events": snapshot["spill_events"] - previous.get("spill_events", 0),
            "spill_bytes": snapshot["spill_bytes"] - previous.get("spill_bytes", 0),
            "load_events": snapshot["load_events"] - previous.get("load_events", 0),
            "load_bytes": snapshot["load_bytes"] - previous.get("load_bytes", 0),
            "ledger_peak_bytes": self.ledger.peak_bytes,
        }
        self._last_snapshot = snapshot
        return delta

    def close(self) -> None:
        self.manager.close()
