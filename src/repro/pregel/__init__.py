"""Pregel substrate: an in-process reproduction of the Pregel+ engine.

This package provides everything the paper's algorithms need from a
Pregel-like system:

* :class:`~repro.pregel.vertex.Vertex` and the ``compute``/vote-to-halt
  contract,
* :class:`~repro.pregel.engine.PregelEngine` — the BSP master loop over
  simulated workers with hash partitioning,
* aggregators, combiners and the request-respond idiom,
* the paper's two API extensions: mini-MapReduce loading
  (:class:`~repro.pregel.mapreduce.MiniMapReduce`) and in-memory job
  chaining, provided by
  :class:`~repro.workflow.executor.StageExecutor`,
* exact per-superstep metrics and a BSP cost model used to estimate
  cluster execution time (Figure 12 of the paper).

Multi-job computations are declared as ordered workflows in
:mod:`repro.workflow` and executed by its ``WorkflowRunner``.
"""

from .aggregator import (
    Aggregator,
    AggregatorRegistry,
    and_aggregator,
    count_aggregator,
    max_aggregator,
    min_aggregator,
    or_aggregator,
    sum_aggregator,
)
from .cost_model import ClusterProfile, CostModel, estimate_seconds
from .engine import DEFAULT_MAX_SUPERSTEPS, JobResult, PregelEngine, PregelJob
from .mapreduce import MapReduceResult, MiniMapReduce
from .message import Combiner, min_combiner, sum_combiner
from .metrics import JobMetrics, PipelineMetrics, SuperstepMetrics
from .partitioner import HashPartitioner
from .request_respond import Request, RequestRespondMixin, Response, split_responses
from .vertex import ComputeContext, Vertex, VertexFactory, vertices_from_pairs
from .worker import Worker

# Re-exported for callers that import it from here; must follow the
# imports above, which repro.workflow.executor itself needs.
from ..workflow.executor import ConversionResult

__all__ = [
    "Aggregator",
    "AggregatorRegistry",
    "and_aggregator",
    "count_aggregator",
    "max_aggregator",
    "min_aggregator",
    "or_aggregator",
    "sum_aggregator",
    "ClusterProfile",
    "CostModel",
    "estimate_seconds",
    "DEFAULT_MAX_SUPERSTEPS",
    "JobResult",
    "PregelEngine",
    "PregelJob",
    "ConversionResult",
    "MapReduceResult",
    "MiniMapReduce",
    "Combiner",
    "min_combiner",
    "sum_combiner",
    "JobMetrics",
    "PipelineMetrics",
    "SuperstepMetrics",
    "HashPartitioner",
    "Request",
    "RequestRespondMixin",
    "Response",
    "split_responses",
    "ComputeContext",
    "Vertex",
    "VertexFactory",
    "vertices_from_pairs",
    "Worker",
]
