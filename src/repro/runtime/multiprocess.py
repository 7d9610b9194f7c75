"""Multiprocess backend: shared-nothing worker processes.

This backend runs each Pregel worker as a real operating-system
process, the way the paper's Pregel+ substrate runs one worker per
cluster slot:

* every worker process owns its hash partition of vertices for the
  whole job (vertices never migrate);
* the per-destination batches of
  :func:`~repro.pregel.message.group_batches` (combined sender-side when
  the job has a combiner, so the bytes that cross the process boundary
  are the combined ones) are pickled through the destination worker's
  data queue as ``(target, message)`` lists;
* each worker's report (counters, aggregator partials as plain
  ``(value, touched)`` state pairs, its span) is shipped to the master
  at the superstep barrier, mirroring how Pregel ships partial
  aggregates to the master;
* the master side is a :class:`~repro.runtime.base.JobSession`: the
  shared driver in :meth:`ExecutionBackend.run
  <repro.runtime.base.ExecutionBackend.run>` asks it to broadcast a
  superstep command and gather the reports, and finally to stop the
  workers and take their partitions back.

Determinism: the superstep loop and the per-worker body are the same
code the :class:`~repro.runtime.serial.SerialBackend` runs, and batches
are merged at the receiver in sender-id order, so vertex values,
aggregate histories and metrics are identical on both (the parity tests
under ``tests/runtime/`` assert this for the PPA primitives and an
end-to-end assembly).

The default start method is ``fork`` where available: the job's vertex
objects, combiner and vertex factory are inherited by the children
without pickling, so jobs may use lambdas and closures.  Under
``spawn`` all job state must be picklable.
"""

from __future__ import annotations

import cProfile
import gc
import multiprocessing
import os
import pickle
import queue as queue_module
import time
import traceback
from typing import Any, Dict, List, Optional

from ..errors import BackendExecutionError
from ..pregel.message import group_batches, merge_batches
from ..pregel.partition import pack_partition, unpack_partition
from ..pregel.vertex import Vertex
from ..pregel.worker import Worker
from ..telemetry import (
    ResourceSampler,
    TimelineRecorder,
    TraceContext,
    get_profiler,
    get_registry,
    get_timeline,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.profiling import stats_state
from .base import (
    ExecutionBackend,
    JobSession,
    RuntimeOptions,
    WorkerPlan,
    WorkerReport,
    register_backend,
    run_worker_superstep,
    worker_messages_counter,
)

#: Commands on the master -> worker channel.
_STEP = "step"
_STOP = "stop"

#: Tags on the worker -> master control channel.
_OK = "ok"
_FAILED = "failed"

#: Seconds between liveness checks while waiting on a queue.
_POLL_SECONDS = 0.2

#: Give a straggler this long to exit before terminating it.
_JOIN_SECONDS = 5.0

#: After noticing a dead worker, wait this long for data it may have
#: flushed into the pipe just before dying, then give up.
_DEAD_GRACE_SECONDS = 2.0


# ----------------------------------------------------------------------
# worker-process side
# ----------------------------------------------------------------------
def _get_while_parent_lives(source_queue, parent_pid: int):
    """``source_queue.get()``, or ``None`` once the process ``parent_pid`` is gone.

    An orphan is re-parented, so its parent pid changes: a master that
    died without stopping its workers (``os._exit``, SIGKILL) leaves
    nothing to wait for.
    """
    while True:
        try:
            return source_queue.get(timeout=_POLL_SECONDS)
        except queue_module.Empty:
            if os.getppid() != parent_pid:
                return None


def _worker_main(
    worker: Worker,
    plan: WorkerPlan,
    metrics_enabled: bool,
    timeline_enabled: bool,
    profile_enabled: bool,
    command_queue,
    data_queues,
    control_queue,
    result_queue,
) -> None:
    """Superstep loop of one shared-nothing worker process."""
    # The master's pause (:func:`~repro.runtime.base.collector_paused`)
    # reaches a forked child but not a spawned one.  This process lives
    # for one job, so there is nothing to restore — and the helper's
    # lock may have been forked while another thread held it.
    gc.disable()
    # The master under ``fork`` and ``spawn``; the fork server (which
    # exits with the master) under ``forkserver``.
    parent_pid = os.getppid()
    worker_id, num_workers = worker.worker_id, plan.num_workers
    sampler = None
    try:
        own_queue = data_queues[worker_id]
        # Batches this worker sent to itself stay local (no pickling).
        local_batches: Dict[int, Any] = {}
        # Batches received early for a future superstep, keyed by superstep.
        staged: Dict[int, Dict[int, Any]] = {}
        # Telemetry is recorded into a registry local to this process
        # (never the fork-inherited global one — the master merges the
        # shipped deltas, so recording globally here would double-count)
        # and shipped to the master as a delta at each barrier.
        local_registry = MetricsRegistry() if metrics_enabled else None
        worker_messages = worker_messages_counter(
            local_registry or get_registry()
        ).labels(plan.job_name, worker_id)
        # Timeline events mirror the metric-delta transport: recorded
        # into a process-local buffer, drained at every barrier and
        # shipped to the master inside the counters dict.
        local_timeline = TimelineRecorder() if timeline_enabled else None
        if local_timeline is not None:
            sampler = ResourceSampler(
                local_timeline, source=f"worker-{worker_id}"
            ).start()

        while True:
            command = _get_while_parent_lives(command_queue, parent_pid)
            if command is None:
                return
            if command[0] == _STOP:
                if command[1]:  # collect: ship the final partition back
                    result_queue.put((worker_id, pack_partition(worker.vertices)))
                break
            _, superstep, previous_aggregates, trace_ctx = command

            # One profile per superstep: the raw pstats table ships at
            # the barrier and the master merges it, so per-worker CPU
            # time survives the process boundary (a profiler cannot
            # straddle a fork).
            step_profiler = cProfile.Profile() if profile_enabled else None
            if step_profiler is not None:
                try:
                    step_profiler.enable()
                except (ValueError, RuntimeError):
                    step_profiler = None

            if superstep == 0:
                inbox: Dict[int, List[Any]] = {}
            else:
                expected = set(range(num_workers)) - {worker_id}
                arrived = staged.setdefault(superstep, {})
                while set(arrived) != expected:
                    item = _get_while_parent_lives(own_queue, parent_pid)
                    if item is None:
                        return
                    for_superstep, sender, batch = item
                    staged.setdefault(for_superstep, {})[sender] = batch
                    arrived = staged.setdefault(superstep, {})
                batches = staged.pop(superstep)
                batches[worker_id] = local_batches.pop(superstep, [])
                inbox = merge_batches(batches, num_workers, plan.combiner)

            outbox, destinations, report = run_worker_superstep(
                worker, plan, superstep, inbox, previous_aggregates, trace_ctx,
                worker_messages,
            )
            batches = group_batches(outbox, destinations, plan.combiner)
            del outbox, destinations
            for destination in range(num_workers):
                batch = batches.get(destination, [])
                if destination == worker_id:
                    local_batches[superstep + 1] = batch
                else:
                    data_queues[destination].put((superstep + 1, worker_id, batch))
            # What only a process boundary needs rides the counters dict.
            counters = report[0]
            if step_profiler is not None:
                step_profiler.disable()
                counters["profile"] = stats_state(step_profiler)
            if local_timeline is not None:
                # Guarantee at least one sample per superstep even when
                # the step finishes inside the sampling interval.
                sampler.sample_once()
                counters["timeline"] = local_timeline.drain_events()
            if local_registry is not None:
                counters["metrics"] = local_registry.drain_state()
            control_queue.put((_OK, worker_id, report))
    except BaseException as exc:  # noqa: BLE001 - must reach the master
        try:
            # Full round-trip check: exceptions with multi-argument
            # constructors can pickle fine but explode on unpickling
            # (BaseException reduces to cls(str(...))), which would
            # crash the master's queue reader with an opaque TypeError.
            pickle.loads(pickle.dumps(exc))
            shipped: BaseException = exc
        except Exception:
            shipped = BackendExecutionError(repr(exc))
        control_queue.put((_FAILED, worker_id, shipped, traceback.format_exc()))
    finally:
        if sampler is not None:
            sampler.stop()
        # Undelivered final-superstep batches are intentionally discarded;
        # don't let their feeder threads block process exit.
        for data_queue in data_queues:
            data_queue.cancel_join_thread()
        if os.getppid() != parent_pid:
            # Nobody reads reports any more: do not wait on their feeders.
            control_queue.cancel_join_thread()
            result_queue.cancel_join_thread()


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class _MultiprocessSession(JobSession):
    """One job's worker processes and their queues.

    Worker processes live for exactly one job: forking at launch time
    is what lets children inherit the job's vertices, combiner and
    vertex factory without pickling (lambdas and closures included).
    A persistent pool would have to ship job state through queues
    instead, restricting jobs to picklable state — revisit if per-job
    start-up cost ever dominates a workload that can accept that
    restriction.
    """

    def __init__(
        self, backend: "MultiprocessBackend", plan: WorkerPlan, workers: List[Worker]
    ) -> None:
        self._backend = backend
        self._plan = plan
        self._workers: Optional[List[Worker]] = workers
        self._command_queues: list = []
        self._drain_queues: list = []
        self._control_queue = None
        self._result_queue = None
        #: Every process object, and the prefix of it that start()ed.
        self._processes: list = []
        self._started: list = []
        self._collected = False

    def launch(self) -> None:
        plan, context = self._plan, self._backend._context
        self._command_queues = [context.Queue() for _ in range(plan.num_workers)]
        data_queues = [context.Queue() for _ in range(plan.num_workers)]
        self._control_queue = context.Queue()
        self._result_queue = context.Queue()
        self._drain_queues = [self._control_queue, self._result_queue] + data_queues

        workers, self._workers = self._workers, None
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(
                    worker,
                    plan,
                    get_registry().enabled,
                    get_timeline().enabled,
                    get_profiler().enabled,
                    self._command_queues[worker.worker_id],
                    data_queues,
                    self._control_queue,
                    self._result_queue,
                ),
                daemon=True,
                name=f"pregel-worker-{worker.worker_id}",
            )
            for worker in workers
        ]
        for process in self._processes:
            process.start()
            self._started.append(process)

    def step(
        self,
        superstep: int,
        previous_aggregates: Dict[str, Any],
        trace_ctx: Optional[TraceContext],
    ) -> List[WorkerReport]:
        for command_queue in self._command_queues:
            command_queue.put((_STEP, superstep, previous_aggregates, trace_ctx))
        # One barrier: gather every worker's end-of-superstep report.
        reports: Dict[int, WorkerReport] = {}
        while len(reports) < self._plan.num_workers:
            message = self._get_checked(self._control_queue, reports)
            tag, worker_id = message[0], message[1]
            if tag == _FAILED:
                original = message[2]
                original.remote_traceback = message[3]  # type: ignore[attr-defined]
                raise original from None
            reports[worker_id] = message[2]

        metrics_registry, timeline, profiler = get_registry(), get_timeline(), get_profiler()
        ordered = [reports[worker_id] for worker_id in range(self._plan.num_workers)]
        for report in ordered:
            counters = report[0]
            metrics_state = counters.pop("metrics", None)
            if metrics_state is not None:
                metrics_registry.merge_state(metrics_state)
            timeline.merge_events(counters.pop("timeline", None))
            profiler.merge_state(counters.pop("profile", None))
        return ordered

    def collect(self) -> List[Dict[int, Vertex]]:
        """Stop all workers and take their partitions back."""
        for command_queue in self._command_queues:
            command_queue.put((_STOP, True))
        collected: Dict[int, Dict[int, Vertex]] = {}
        while len(collected) < self._plan.num_workers:
            worker_id, payload = self._get_checked(self._result_queue, collected)
            collected[worker_id] = unpack_partition(payload)
        self._collected = True
        return [collected[worker_id] for worker_id in range(self._plan.num_workers)]

    def close(self) -> None:
        """Best-effort teardown on every exit path: never raise from here."""
        if not self._collected:
            for command_queue in self._command_queues:
                try:
                    command_queue.put_nowait((_STOP, False))
                except Exception:
                    pass
        for source_queue in self._drain_queues:
            while True:
                try:
                    source_queue.get_nowait()
                except Exception:
                    break
        for process in self._started:
            process.join(timeout=_JOIN_SECONDS)
        for process in self._started:
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_SECONDS)
        for source_queue in self._command_queues + self._drain_queues:
            source_queue.cancel_join_thread()

    def _get_checked(self, source_queue, seen):
        """Blocking get that notices dead workers instead of hanging.

        ``seen`` holds the worker ids whose data has already arrived.
        A worker found dead while we still expect data from it gets a
        short grace period (its queue feeder may have flushed just
        before exit), after which the backend gives up loudly.
        """
        processes = self._processes
        deadline = None
        while True:
            try:
                return source_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                dead = [
                    w
                    for w in range(self._plan.num_workers)
                    if w not in seen and not processes[w].is_alive()
                ]
                if not dead:
                    deadline = None
                    continue
                now = time.monotonic()
                if deadline is None:
                    deadline = now + _DEAD_GRACE_SECONDS
                elif now > deadline:
                    exit_codes = {w: processes[w].exitcode for w in dead}
                    raise BackendExecutionError(
                        f"worker process(es) {sorted(dead)} exited "
                        f"(exit codes {exit_codes}) without delivering expected data"
                    ) from None


@register_backend
class MultiprocessBackend(ExecutionBackend):
    """Real parallel execution across shared-nothing worker processes."""

    name = "multiprocess"

    def __init__(
        self,
        options: Optional[RuntimeOptions] = None,
        start_method: Optional[str] = None,
        **overrides: Any,
    ) -> None:
        super().__init__(options, **overrides)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._context = multiprocessing.get_context(start_method)

    def _session(self, plan: WorkerPlan, workers: List[Worker]) -> JobSession:
        return _MultiprocessSession(self, plan, workers)
