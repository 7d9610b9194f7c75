"""Serial backend: the original in-process Pregel cluster simulation.

Workers execute one after another inside the calling process.  This
keeps counter-based reproduction of the paper bit-exact and
deterministic: the per-worker compute/message/byte breakdowns feed the
BSP cost model that regenerates Tables 2-5 and Figure 12, so this
backend remains the default for every benchmark that reports simulated
cluster numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..pregel.message import deliver_outbox
from ..pregel.vertex import Vertex
from ..pregel.worker import Worker
from ..telemetry import TraceContext, get_registry
from .base import (
    ExecutionBackend,
    JobSession,
    WorkerPlan,
    WorkerReport,
    register_backend,
    run_worker_superstep,
    worker_messages_counter,
)
from .spilling import SerialSpillPlane


class _SerialSession(JobSession):
    """Steps the workers in worker-id order inside this process."""

    def __init__(self, plan: WorkerPlan, workers: List[Worker]) -> None:
        self._plan = plan
        self._workers: Optional[List[Worker]] = workers
        self._plane: Optional[SerialSpillPlane] = None
        #: worker -> vertex -> messages, delivered by the previous superstep.
        self._inboxes: Dict[int, Dict[int, List[Any]]] = {}
        counter = worker_messages_counter(get_registry())
        self._worker_messages = [
            counter.labels(plan.job_name, worker_id)
            for worker_id in range(plan.num_workers)
        ]

    def launch(self) -> None:
        budget_bytes = self._plan.options.memory_budget_bytes
        if budget_bytes is None:
            return
        # With a memory budget, the spill plane takes custody of the
        # partitions: workers are loaded just-in-time and idle ones may
        # live on disk between supersteps.
        self._plane = SerialSpillPlane(budget_bytes, self._plan.job_name)
        workers, self._workers = self._workers, None
        self._plane.adopt(workers)

    def step(
        self,
        superstep: int,
        previous_aggregates: Dict[str, Any],
        trace_ctx: Optional[TraceContext],
    ) -> List[WorkerReport]:
        plan, plane, inboxes = self._plan, self._plane, self._inboxes
        # Workers run in id order, so folding each outbox in as soon as
        # its worker has run is the receivers' sender-id fold.
        delivered: List[Dict[int, List[Any]]] = [{} for _ in range(plan.num_workers)]
        reports = []
        for worker_id in range(plan.num_workers):
            if plane is None:
                worker = self._workers[worker_id]
                inbox = inboxes.pop(worker_id, {})
            else:
                worker = plane.worker(worker_id)
                inbox = plane.take_inbox(worker_id, inboxes)
            outbox, destinations, report = run_worker_superstep(
                worker, plan, superstep, inbox, previous_aggregates, trace_ctx,
                self._worker_messages[worker_id],
            )
            deliver_outbox(delivered, outbox, destinations, plan.combiner)
            reports.append(report)
            if plane is not None:
                # Execution mutated the partition (values, factory-made
                # vertices): refresh its ledger entry, then shed memory
                # before the next worker loads, furthest next turn
                # first.  The just-executed partition is excluded — it
                # is still on this frame.
                plane.reaccount(worker)
                plane.rebalance(exclude_worker=worker_id)

        inboxes = {worker_id: inbox for worker_id, inbox in enumerate(delivered) if inbox}
        self._inboxes = inboxes if plane is None else plane.stash_inboxes(inboxes)
        return reports

    def collect(self) -> List[Dict[int, Vertex]]:
        workers = self._workers if self._plane is None else self._plane.restore_all()
        return [worker.vertices for worker in workers]

    def close(self) -> None:
        if self._plane is not None:
            self._plane.close()


@register_backend
class SerialBackend(ExecutionBackend):
    """Sequential in-process execution with exact simulated-cluster counters."""

    name = "serial"

    def _session(self, plan: WorkerPlan, workers: List[Worker]) -> JobSession:
        return _SerialSession(plan, workers)
