"""The one BSP superstep driver, and the interface a runtime plugs into it.

Every operation of the paper is a program on one Pregel loop, and the
loop exists once: :meth:`ExecutionBackend.run` places the job's
vertices with the backend's one
:class:`~repro.pregel.partitioner.HashPartitioner` (the paper's hash
placement, the same on every backend), drives supersteps until global
termination and folds per-worker reports into
:class:`~repro.pregel.metrics.SuperstepMetrics`, and
:func:`run_worker_superstep` is the one per-worker body.  A runtime
supplies only what differs — a :class:`JobSession` that launches the
workers, steps them, collects their partitions and tears them down:

* :class:`~repro.runtime.serial.SerialBackend` — workers step one after
  another in the calling process, with exact, deterministic counters
  (used for reproducing the paper's Tables 2-5 and Figure 12);
* :class:`~repro.runtime.multiprocess.MultiprocessBackend` —
  shared-nothing worker processes exchanging message batches, for real
  wall-clock parallelism on multi-core hosts.

Backends register themselves in a name registry so that configuration
layers (``AssemblyConfig(backend="multiprocess")``, the bench harness,
the CLI) can select one by name without importing its module directly.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from abc import ABC, abstractmethod
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from ..errors import InvalidJobError, SuperstepLimitExceededError, UnknownBackendError
from ..pregel.aggregator import Aggregator, AggregatorRegistry
from ..pregel.engine import JobResult, PregelJob
from ..pregel.message import Combiner, route_outbox
from ..pregel.metrics import JobMetrics, SuperstepMetrics
from ..pregel.partitioner import HashPartitioner
from ..pregel.vertex import Vertex, VertexFactory, _estimate_size
from ..pregel.worker import Worker
from ..store.ledger import budget_mb_to_bytes
from ..telemetry import (
    TraceContext,
    get_registry,
    get_timeline,
    remote_context,
    span,
    start_remote_span,
)

#: Values :attr:`RuntimeOptions.message_plane` accepts.  Every
#: multiprocess batch travels through the worker queues whichever is
#: named; the field is still validated so a typo fails.
MESSAGE_PLANES = ("shm", "queue")

#: Most worker processes one multiprocess job may start.  Each worker
#: is a forked process holding a command queue, a data queue and its
#: pipe descriptors, so a spec asking for thousands would exhaust the
#: host's process and file-descriptor limits before the first
#: superstep; no workload here gains beyond a few workers per core.
#: Serial worker slots are simulated and stay unbounded.
MAX_PROCESS_WORKERS = 64


@dataclass(frozen=True)
class RuntimeOptions:
    """Every knob of the Pregel runtime, validated once, here.

    One value of this class travels unchanged from whoever configures a
    run (:attr:`AssemblyConfig.runtime
    <repro.assembler.config.AssemblyConfig.runtime>`, a test, a
    benchmark) through ``WorkflowRunner``, ``StageExecutor``,
    ``PregelEngine`` and :func:`create_backend` to the
    :class:`ExecutionBackend` and the :class:`WorkerPlan` of each job.
    Those constructors all take ``(options=None, **overrides)`` and
    resolve them with :func:`dataclasses.replace`, so none of them names
    a knob: a new one is a field here plus whatever reads it.

    Attributes
    ----------
    num_workers:
        Pregel workers (simulated slots on ``"serial"``, processes on
        ``"multiprocess"``).
    backend:
        Name of a registered :class:`ExecutionBackend`.
    message_plane:
        Read by nothing: multiprocess batches always travel through the
        worker queues.  Still validated against :data:`MESSAGE_PLANES`.
    memory_budget_mb:
        Soft cap on live megabytes, finite and positive; ``None``
        disables spilling.  DBG construction shrinks its ingest chunks
        to it and the serial backend's spill plane spills to stay under
        it; multiprocess workers keep their partitions and batches
        resident.
    """

    num_workers: int = 4
    backend: str = "serial"
    message_plane: str = "shm"
    memory_budget_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise InvalidJobError(f"num_workers must be positive, got {self.num_workers}")
        ensure_backend(self.backend)
        if self.backend == "multiprocess" and self.num_workers > MAX_PROCESS_WORKERS:
            raise InvalidJobError(
                f"num_workers must be at most {MAX_PROCESS_WORKERS} on the "
                f"multiprocess backend, got {self.num_workers}"
            )
        if self.message_plane not in MESSAGE_PLANES:
            raise InvalidJobError(
                f"unknown message plane {self.message_plane!r}; "
                f"choose from {', '.join(MESSAGE_PLANES)}"
            )
        budget = self.memory_budget_mb
        if budget is not None and not math.isfinite(budget):
            raise InvalidJobError(f"memory_budget_mb must be finite, got {budget}")
        if budget is not None and budget <= 0:
            raise InvalidJobError(f"memory_budget_mb must be positive, got {budget}")

    @property
    def memory_budget_bytes(self) -> Optional[int]:
        """The budget in bytes, or None when unlimited."""
        return budget_mb_to_bytes(self.memory_budget_mb)


# ----------------------------------------------------------------------
# collector policy
# ----------------------------------------------------------------------
# The collector has one switch per process, so the jobs inside
# :func:`collector_paused` are counted per process: the first one in
# turns it off, the last one out puts back what the first one found.
_pause_lock = threading.Lock()
_pause_depth = 0
_pause_found_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's automatic cyclic collection for one Pregel job.

    A message is a young container that survives until the next barrier
    and is then freed by reference count — the worst case for a
    generational collector, which promotes every one of them and
    re-walks all vertex state on each full pass without finding
    anything to free.  Nothing is collected explicitly, at barriers or
    at the end: cyclic garbage a vertex program creates is reclaimed by
    the first automatic pass after the job.

    Nested jobs, concurrent jobs on sibling threads, a job
    that raises and a caller who had the collector off already all end
    with the state the outermost job found.
    """
    global _pause_depth, _pause_found_enabled
    with _pause_lock:
        if _pause_depth == 0:
            _pause_found_enabled = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_found_enabled:
                gc.enable()


# ----------------------------------------------------------------------
# telemetry instruments shared by every backend
# ----------------------------------------------------------------------
def worker_messages_counter(registry):
    """The per-worker message counter family, declared identically
    everywhere it is touched — in the process-wide registry by the
    serial backend, in each child's local registry by multiprocess
    workers — so cross-process merges land in the same series and
    per-worker sums equal the job-level totals exactly.
    """
    return registry.counter(
        "repro_pregel_worker_messages_total",
        "Messages sent by each Pregel worker partition.",
        labelnames=("job", "worker"),
    )


class SuperstepInstruments:
    """Job-scoped handles on the Pregel metric families.

    Instantiated once per :meth:`ExecutionBackend.run` so the hot loop
    pays label resolution once, not per superstep.  All operations are
    no-ops under the default :class:`~repro.telemetry.metrics.NullRegistry`.
    """

    def __init__(self, job_name: str) -> None:
        registry = get_registry()
        self.job_name = job_name
        labels = ("job",)
        self._supersteps = registry.counter(
            "repro_pregel_supersteps_total",
            "Supersteps executed, by job.",
            labelnames=labels,
        ).labels(job_name)
        self._messages = registry.counter(
            "repro_pregel_messages_total",
            "Messages sent across all supersteps, by job (pre-combine).",
            labelnames=labels,
        ).labels(job_name)
        self._bytes = registry.counter(
            "repro_pregel_message_bytes_total",
            "Message bytes sent across all supersteps, by job.",
            labelnames=labels,
        ).labels(job_name)
        self._delivered = registry.counter(
            "repro_pregel_messages_delivered_total",
            "Messages delivered to vertices after combining, by job "
            "(delivered/sent is the combine ratio).",
            labelnames=labels,
        ).labels(job_name)
        self._cross = registry.counter(
            "repro_pregel_cross_worker_messages_total",
            "Raw messages routed to a different worker than their "
            "sender, by job (the traffic that crosses a process or "
            "network boundary).",
            labelnames=labels,
        ).labels(job_name)
        self._active = registry.gauge(
            "repro_pregel_active_vertices",
            "Active vertices after the most recent superstep, by job.",
            labelnames=labels,
        ).labels(job_name)
        self._seconds = registry.histogram(
            "repro_pregel_superstep_seconds",
            "Wall-clock seconds per superstep, by job.",
            labelnames=labels,
        ).labels(job_name)
        # Timeline events are recorded at the same barrier point on
        # every backend, so serial and multiprocess runs of the same
        # job emit identical superstep event sequences.  Spill totals
        # are reported relative to job start (the process counters are
        # cumulative).
        self._timeline = get_timeline()
        if self._timeline.enabled:
            from ..store.spill import process_spill_stats

            self._spill_base = process_spill_stats().snapshot()

    def record_superstep(self, step: SuperstepMetrics, elapsed_seconds: float) -> None:
        """Charge one finished superstep's counters to the registry."""
        self._supersteps.inc()
        self._messages.inc(step.messages_sent)
        self._bytes.inc(step.bytes_sent)
        self._cross.inc(step.cross_worker_messages)
        delivered = sum(step.worker_messages_received)
        self._delivered.inc(delivered)
        self._active.set(step.active_vertices)
        self._seconds.observe(elapsed_seconds)
        if self._timeline.enabled:
            from ..store.spill import process_spill_stats

            spill = process_spill_stats().delta_since(self._spill_base)
            self._timeline.record(
                "superstep",
                job=self.job_name,
                superstep=step.superstep,
                active_vertices=step.active_vertices,
                messages_sent=step.messages_sent,
                bytes_sent=step.bytes_sent,
                cross_worker_messages=step.cross_worker_messages,
                messages_delivered=delivered,
                elapsed_seconds=round(elapsed_seconds, 6),
                spill_events=spill["spill_events"],
                spill_bytes=spill["spill_bytes"],
                ledger_peak_bytes=spill["ledger_peak_bytes"],
            )


# ----------------------------------------------------------------------
# the per-worker superstep body shared by every backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerPlan:
    """What every worker knows about its job, fixed for the whole run."""

    job_name: str
    options: RuntimeOptions
    num_vertices: int
    #: The backend's vertex placement, shared by every job it runs.
    partitioner: HashPartitioner
    combiner: Optional[Combiner]
    vertex_factory: Optional[VertexFactory]
    #: Whose :meth:`~repro.pregel.vertex.Vertex.compute_partition` runs
    #: each partition (see :func:`job_vertex_class`).
    vertex_class: Type[Vertex]
    #: Empty aggregators, copied afresh by each worker every superstep.
    aggregators: Dict[str, Aggregator]

    @property
    def num_workers(self) -> int:
        return self.options.num_workers


#: One worker's end-of-superstep report: ``(counters, aggregator
#: states, worker span dict or None)`` — plain data, so it crosses a
#: process boundary unchanged.
WorkerReport = Tuple[Dict[str, Any], Dict[str, tuple], Optional[Dict[str, Any]]]


def run_worker_superstep(
    worker: Worker,
    plan: WorkerPlan,
    superstep: int,
    inbox: Dict[int, List[Any]],
    previous_aggregates: Dict[str, Any],
    trace_ctx: Optional[TraceContext],
    worker_messages,
) -> Tuple[Dict[int, Any], WorkerReport]:
    """Run one worker's share of a superstep and route what it sent.

    ``inbox`` is the worker's :func:`~repro.pregel.message.merge_batches`
    result for this superstep; ``worker_messages`` is its child of
    :func:`worker_messages_counter`.  Returns the outgoing batches by
    destination worker and the worker's report.
    """
    aggregator_copies = {
        name: aggregator.fresh_copy() for name, aggregator in plan.aggregators.items()
    }
    worker_span = (
        start_remote_span(f"worker-{worker.worker_id}", trace_ctx, worker=worker.worker_id)
        if trace_ctx is not None
        else None
    )
    outbox, sizes, counters = worker.execute_superstep(
        superstep=superstep,
        inbox=inbox,
        aggregator_copies=aggregator_copies,
        previous_aggregates=previous_aggregates,
        num_vertices=plan.num_vertices,
        vertex_factory=plan.vertex_factory,
        vertex_class=plan.vertex_class,
    )
    span_dict = (
        worker_span.finish(
            messages_sent=counters["messages_sent"],
            compute_calls=counters["compute_calls"],
        )
        if worker_span is not None
        else None
    )
    worker_messages.inc(counters["messages_sent"])
    batches, routed_messages, routed_bytes = route_outbox(
        outbox, sizes, plan.partitioner, plan.combiner
    )
    counters["routed_messages"] = routed_messages
    counters["routed_bytes"] = routed_bytes
    counters["messages_cross"] = len(outbox) - routed_messages[worker.worker_id]
    if plan.combiner is not None:
        # Combining delivers fewer messages than were routed, so what
        # arrived can only be counted and sized here, on receipt.
        counters["messages_received"] = sum(map(len, inbox.values()))
        counters["bytes_received"] = sum(
            _estimate_size(message) for messages in inbox.values() for message in messages
        )
    aggregator_states = {
        name: copy.dump_state() for name, copy in aggregator_copies.items()
    }
    return batches, (counters, aggregator_states, span_dict)


def job_vertex_class(
    vertices: Iterable[Vertex], vertex_factory: Optional[VertexFactory]
) -> Type[Vertex]:
    """The class that runs a job's partitions.

    That is the one class of every initial vertex when the job's vertex
    factory (if any) builds that class too; otherwise the job mixes
    classes and :class:`Vertex`'s per-vertex loop runs each vertex's own
    ``compute``.
    """
    classes = set(map(type, vertices))
    if len(classes) == 1:
        (cls,) = classes
        if vertex_factory is None or vertex_factory.vertex_class is cls:
            return cls
    return Vertex


def _column_sums(rows: Iterable[List[int]]) -> List[int]:
    """Per-destination totals over every sender's per-destination list."""
    return [sum(column) for column in zip(*rows)]


class JobSession(ABC):
    """One job's workers on one runtime: the four things a backend implements.

    :meth:`ExecutionBackend.run` constructs the session (which must not
    acquire anything yet), then calls :meth:`launch` and everything
    after it inside one ``with`` block that ends in :meth:`close`.
    """

    @abstractmethod
    def launch(self) -> None:
        """Bring the workers up (fork processes, adopt partitions)."""

    @abstractmethod
    def step(
        self,
        superstep: int,
        previous_aggregates: Dict[str, Any],
        trace_ctx: Optional[TraceContext],
    ) -> List[WorkerReport]:
        """Run :func:`run_worker_superstep` on every worker and deliver
        the batches for the next superstep; reports in worker-id order."""

    @abstractmethod
    def collect(self) -> List[Dict[int, Vertex]]:
        """The final partitions, ``vertex_id -> vertex``, in worker-id order."""

    @abstractmethod
    def close(self) -> None:
        """Release everything :meth:`launch` acquired, however far it got
        and whether or not the job failed.  Must not raise."""


class ExecutionBackend(ABC):
    """Runs one Pregel job to termination on ``num_workers`` workers.

    This class owns partitioning (every backend places vertices with
    one :class:`~repro.pregel.partitioner.HashPartitioner`) and the BSP
    loop itself, so superstep counts, aggregate histories, per-superstep
    metrics and final vertex states cannot depend on which backend
    executed the job; a subclass only says how its :class:`JobSession`
    runs the workers.
    """

    #: Registry key; subclasses override and register via :func:`register_backend`.
    name: str = "abstract"

    def __init__(
        self, options: Optional[RuntimeOptions] = None, **overrides: Any
    ) -> None:
        self.options = replace(
            options or RuntimeOptions(), **{**overrides, "backend": self.name}
        )
        self.num_workers = self.options.num_workers
        self.partitioner = HashPartitioner(self.num_workers)

    @abstractmethod
    def _session(self, plan: WorkerPlan, workers: List[Worker]) -> JobSession:
        """A not-yet-launched session running ``workers`` under ``plan``."""

    def run(self, job: PregelJob) -> JobResult:
        """Execute ``job`` until global termination and return the result."""
        initial_vertices = list(job.vertices)
        vertex_class = job_vertex_class(initial_vertices, job.vertex_factory)
        workers = self.partition_into_workers(initial_vertices)
        # The flat list would otherwise pin every vertex in memory
        # regardless of what a spill plane evicts.
        del initial_vertices
        num_vertices = sum(len(worker) for worker in workers)
        if num_vertices == 0:
            raise InvalidJobError(f"job {job.name!r} has no vertices")
        active = sum(worker.active_count() for worker in workers)

        registry = AggregatorRegistry()
        for aggregator in job.aggregators:
            registry.register(aggregator)
        plan = WorkerPlan(
            job_name=job.name,
            options=self.options,
            num_vertices=num_vertices,
            partitioner=self.partitioner,
            combiner=job.combiner,
            vertex_factory=job.vertex_factory,
            vertex_class=vertex_class,
            aggregators=registry.current_copies(),
        )
        metrics = JobMetrics(job_name=job.name, num_workers=self.num_workers)
        aggregate_history: List[Dict[str, Any]] = []
        instruments = SuperstepInstruments(job.name)
        session = self._session(plan, workers)
        del workers
        pending = False
        superstep = 0
        # Without a combiner nothing merges messages between send and
        # delivery, so what superstep s routed to each worker is exactly
        # what the worker receives in superstep s + 1.
        routed_messages = [0] * self.num_workers
        routed_bytes = [0] * self.num_workers

        # ``close`` runs on every exit path, and the collector resumes
        # only once it has returned.
        with collector_paused(), closing(session):
            session.launch()
            while True:
                if superstep >= job.max_supersteps:
                    raise SuperstepLimitExceededError(job.max_supersteps)
                if active == 0 and not pending:
                    break

                step_started = time.perf_counter()
                with span(f"superstep-{superstep}") as step_span:
                    reports = session.step(
                        superstep, registry.previous_values(), remote_context()
                    )
                    step = SuperstepMetrics(superstep=superstep)
                    for counters, aggregator_states, span_dict in reports:
                        registry.merge_states(aggregator_states)
                        if span_dict is not None:
                            step_span.add_child(span_dict)
                        step.compute_calls += counters["compute_calls"]
                        step.compute_ops += counters["compute_ops"]
                        step.messages_sent += counters["messages_sent"]
                        step.bytes_sent += counters["bytes_sent"]
                        step.cross_worker_messages += counters["messages_cross"]
                        step.active_vertices += counters["active_vertices"]
                        step.worker_compute_ops.append(counters["compute_ops"])
                        step.worker_messages_sent.append(counters["messages_sent"])
                        step.worker_bytes_sent.append(counters["bytes_sent"])
                    all_counters = [report[0] for report in reports]
                    if job.combiner is None:
                        step.worker_messages_received = routed_messages
                        step.worker_bytes_received = routed_bytes
                        routed_messages = _column_sums(
                            counters["routed_messages"] for counters in all_counters
                        )
                        routed_bytes = _column_sums(
                            counters["routed_bytes"] for counters in all_counters
                        )
                    else:
                        step.worker_messages_received = [
                            counters["messages_received"] for counters in all_counters
                        ]
                        step.worker_bytes_received = [
                            counters["bytes_received"] for counters in all_counters
                        ]
                    step_span.set(
                        messages_sent=step.messages_sent,
                        bytes_sent=step.bytes_sent,
                        active_vertices=step.active_vertices,
                    )
                instruments.record_superstep(step, time.perf_counter() - step_started)
                metrics.add(step)

                snapshot = registry.finish_superstep()
                aggregate_history.append(snapshot)
                active = step.active_vertices
                pending = step.messages_sent > 0
                superstep += 1

                if job.halt_condition is not None and job.halt_condition(snapshot):
                    break

            # Worker-id order, so downstream iteration order does not
            # depend on the backend.
            vertices: Dict[int, Vertex] = {}
            for partition in session.collect():
                vertices.update(partition)
        return JobResult(
            job_name=job.name,
            vertices=vertices,
            metrics=metrics,
            aggregates=aggregate_history,
        )

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def partition_into_workers(self, vertices: Iterable[Vertex]) -> List[Worker]:
        """Assign vertices to per-worker partitions by hashed vertex ID."""
        worker_for = self.partitioner.worker_for
        workers = [Worker(worker_id) for worker_id in range(self.num_workers)]
        for vertex in vertices:
            workers[worker_for(vertex.vertex_id)].add_vertex(vertex)
        return workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_workers={self.num_workers})"


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator adding ``cls`` to the name registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"backend class {cls.__name__} must define a name")
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)


def ensure_backend(name: str) -> str:
    """Validate a backend name, raising :class:`UnknownBackendError`.

    Shared by every configuration layer that accepts a backend string
    (``AssemblyConfig``, the baselines, the CLI) so the error message
    and the set of accepted names never drift apart.
    """
    if name not in _REGISTRY:
        raise UnknownBackendError(str(name), available_backends())
    return name


def create_backend(
    options: Optional[RuntimeOptions] = None, **overrides: Any
) -> ExecutionBackend:
    """Instantiate the backend ``options`` (with ``overrides``) names.

    An :class:`ExecutionBackend` instance given as ``backend=`` passes
    through unchanged — how a caller supplies one built with arguments
    of its own (``MultiprocessBackend(start_method="spawn")``).
    """
    backend = overrides.get("backend")
    if isinstance(backend, ExecutionBackend):
        return backend
    options = replace(options or RuntimeOptions(), **overrides)
    return _REGISTRY[options.backend](options)
