"""The stage executor: shared plumbing every workflow stage runs on.

The paper's first extension to the Pregel+ API is in-memory job
chaining: job *j'* obtains its input directly from job *j*'s in-memory
output through a user-defined ``convert(v)`` function, instead of a
round-trip through HDFS (Section II).  :class:`StageExecutor` is the
execution substrate for that idea — it owns a single
:class:`~repro.pregel.engine.PregelEngine` so every stage sees the same
worker count and execution backend, runs the three primitive job
kinds (Pregel job, mini-MapReduce job, in-memory conversion), and
accumulates every stage's :class:`~repro.pregel.metrics.JobMetrics`
into one :class:`~repro.pregel.metrics.PipelineMetrics` so the cost
model can price the whole workflow (what Figure 12 measures).

Workflows (:mod:`repro.workflow.builder`) declare *which* stages run in
*what* order; the executor is the service their functions all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from ..pregel.engine import JobResult, PregelEngine, PregelJob
from ..pregel.mapreduce import MapReduceResult, MiniMapReduce
from ..pregel.metrics import JobMetrics, PipelineMetrics, SuperstepMetrics
from ..pregel.partitioner import HashPartitioner
from ..pregel.vertex import Vertex, _estimate_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import RuntimeOptions

ConvertFunction = Callable[[Vertex], Iterable[Any]]


@dataclass
class ConversionResult:
    """Output of an in-memory conversion stage."""

    outputs: List[Any]
    metrics: JobMetrics


class StageExecutor:
    """Runs Pregel / mini-MapReduce / convert jobs and meters them.

    Takes :class:`~repro.runtime.base.RuntimeOptions` and/or its fields
    as keywords; they configure the one engine the Pregel stages run
    on.  Mini-MapReduce and convert stages model the distributed data
    movement in-process on any backend, because their cost is charged
    through the metrics rather than measured.
    """

    def __init__(
        self, options: Optional["RuntimeOptions"] = None, **overrides: Any
    ) -> None:
        self.engine = PregelEngine(options, **overrides)
        self.options = self.engine.options
        self.num_workers = self.options.num_workers
        self.backend = self.options.backend
        self.pipeline_metrics = PipelineMetrics()

    @property
    def partitioner(self) -> HashPartitioner:
        """The engine's vertex placement, which every stage of this executor uses."""
        return self.engine.partitioner

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def run_pregel(self, job: PregelJob) -> JobResult:
        """Run a Pregel job and record its metrics."""
        result = self.engine.run(job)
        self.pipeline_metrics.add(result.metrics)
        return result

    def run_mapreduce(
        self,
        name: str,
        records: Iterable[Any],
        map_fn,
        reduce_fn,
    ) -> MapReduceResult:
        """Run a mini-MapReduce stage and record its metrics."""
        job = MiniMapReduce(num_workers=self.num_workers, name=name)
        result = job.run(records, map_fn, reduce_fn)
        self.pipeline_metrics.add(result.metrics)
        return result

    def convert(
        self,
        name: str,
        vertices: Iterable[Vertex],
        convert_fn: ConvertFunction,
    ) -> ConversionResult:
        """Apply ``convert_fn`` to each vertex and shuffle outputs by ID.

        The converted objects are expected to either be
        :class:`~repro.pregel.vertex.Vertex` instances or expose a
        ``vertex_id`` attribute; the shuffle volume charged to the cost
        model is the byte size of objects that change worker, exactly
        the traffic a distributed implementation would incur.
        """
        metrics = JobMetrics(job_name=name, num_workers=self.num_workers)
        step = SuperstepMetrics(superstep=0)
        step.worker_compute_ops = [0] * self.num_workers
        step.worker_bytes_sent = [0] * self.num_workers
        step.worker_bytes_received = [0] * self.num_workers

        outputs: List[Any] = []
        worker_for = self.partitioner.worker_for
        for vertex in vertices:
            source_worker = worker_for(vertex.vertex_id)
            produced = list(convert_fn(vertex))
            step.worker_compute_ops[source_worker] += 1 + len(produced)
            step.compute_ops += 1 + len(produced)
            for item in produced:
                outputs.append(item)
                target_id = getattr(item, "vertex_id", None)
                if target_id is None:
                    continue
                destination = worker_for(target_id)
                if destination != source_worker:
                    size = _estimate_size(getattr(item, "value", None)) + 16
                    step.worker_bytes_sent[source_worker] += size
                    step.worker_bytes_received[destination] += size
                    step.bytes_sent += size
                    step.messages_sent += 1

        metrics.add(step)
        metrics.loading_ops = step.compute_ops
        self.pipeline_metrics.add(metrics)
        return ConversionResult(outputs=outputs, metrics=metrics)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def add_metrics(self, metrics: JobMetrics) -> None:
        """Record a stage executed outside the executor's own runners.

        Used by batch-kernel stages (e.g. the vectorized DBG
        construction) that compute a whole mini-MapReduce round as
        array operations but still charge the cost model the exact
        per-worker counters the scalar runner would have produced.
        """
        self.pipeline_metrics.add(metrics)
