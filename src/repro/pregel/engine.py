"""The BSP master facade: drives a Pregel job to termination.

Usage sketch (list ranking over a three-element list)::

    from repro.ppa.list_ranking import ListNode, build_vertices

    nodes = [ListNode(1, 1.0, None), ListNode(2, 1.0, 1), ListNode(3, 1.0, 2)]
    engine = PregelEngine(num_workers=16)
    result = engine.run(
        PregelJob(
            name="list-ranking",
            vertices=build_vertices(nodes),  # ListRankingVertex instances
            aggregators=[or_aggregator("changed")],
        )
    )
    result.vertices       # vertex_id -> Vertex after termination
    result.metrics        # JobMetrics (supersteps, messages, bytes, per-worker)
    result.aggregates     # list of per-superstep aggregate snapshots

Termination follows Pregel semantics: the job stops when every vertex
has voted to halt and no message is in flight.  A ``halt_condition``
callback lets a driver stop a job early based on aggregator values
(used by the simplified S-V algorithm and the labeling fallback logic).

The superstep loop itself lives in :mod:`repro.runtime`: the engine
delegates to an :class:`~repro.runtime.base.ExecutionBackend` chosen by
name (``"serial"`` for the exact in-process cluster simulation,
``"multiprocess"`` for shared-nothing worker processes).  Both produce
identical results; they differ in whether supersteps execute on real
parallel hardware or inside the calling process with exact counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence

from .aggregator import Aggregator
from .message import Combiner
from .metrics import JobMetrics
from .vertex import Vertex, VertexFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.base import ExecutionBackend, RuntimeOptions

#: Safety net: PPAs run in O(log n) supersteps, so any job that needs
#: more than this many supersteps is considered buggy.
DEFAULT_MAX_SUPERSTEPS = 10_000


@dataclass
class PregelJob:
    """Specification of one vertex-centric job.

    Parameters
    ----------
    name:
        Human-readable job name (appears in metrics and reports).
    vertices:
        The initial vertices.  Any iterable of :class:`Vertex`
        instances; ownership passes to the engine.
    combiner:
        Optional message combiner.
    aggregators:
        Aggregators available to ``compute`` and to ``halt_condition``.
    vertex_factory:
        If given, messages to unknown vertex IDs create vertices
        instead of raising.
    halt_condition:
        Called after every superstep with the aggregate snapshot; the
        job stops when it returns True.
    max_supersteps:
        Upper bound on supersteps before the engine raises
        :class:`~repro.errors.SuperstepLimitExceededError`.
    """

    name: str
    vertices: Iterable[Vertex]
    combiner: Optional[Combiner] = None
    aggregators: Sequence[Aggregator] = field(default_factory=tuple)
    vertex_factory: Optional[VertexFactory] = None
    halt_condition: Optional[Callable[[Dict[str, Any]], bool]] = None
    max_supersteps: int = DEFAULT_MAX_SUPERSTEPS


@dataclass
class JobResult:
    """Everything a caller gets back from :meth:`PregelEngine.run`."""

    job_name: str
    vertices: Dict[int, Vertex]
    metrics: JobMetrics
    aggregates: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def num_supersteps(self) -> int:
        return self.metrics.num_supersteps

    @property
    def total_messages(self) -> int:
        return self.metrics.total_messages

    def vertex_values(self) -> Dict[int, Any]:
        """Convenience: ``vertex_id -> vertex.value`` for assertions."""
        return {vertex_id: vertex.value for vertex_id, vertex in self.vertices.items()}


class PregelEngine:
    """Runs Pregel jobs on an execution backend.

    Takes :class:`~repro.runtime.base.RuntimeOptions` and/or its fields
    as keywords (``PregelEngine(num_workers=16, backend="multiprocess")``).
    ``backend`` may also be an already-constructed
    :class:`~repro.runtime.base.ExecutionBackend` instance, in which
    case that instance's options are the engine's.
    """

    def __init__(self, options: Optional["RuntimeOptions"] = None, **overrides: Any) -> None:
        # Deferred import: repro.runtime imports this module for the
        # PregelJob/JobResult dataclasses.
        from ..runtime import create_backend

        self._backend = create_backend(options, **overrides)
        #: The runtime options every job of this engine runs under.
        self.options: "RuntimeOptions" = self._backend.options
        self.num_workers = self._backend.num_workers
        self.partitioner = self._backend.partitioner

    @property
    def backend(self) -> "ExecutionBackend":
        """The execution backend running this engine's jobs."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, job: PregelJob) -> JobResult:
        """Execute ``job`` until global termination and return the result."""
        from ..telemetry import span

        with span(
            f"pregel:{job.name}",
            backend=self._backend.name,
            num_workers=self.num_workers,
        ) as job_span:
            result = self._backend.run(job)
            job_span.set(
                supersteps=result.metrics.num_supersteps,
                messages=result.metrics.total_messages,
            )
            return result
