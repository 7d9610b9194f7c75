"""A simulated Pregel worker.

Each worker owns the partition of vertices that the
:class:`~repro.pregel.partitioner.HashPartitioner` assigns to it and
runs its active vertices in every superstep.  The engine keeps one
:class:`Worker` per simulated machine slot so that per-worker load
(compute operations, messages, bytes) is tracked exactly — the cost
model turns the *maximum* per-worker load into the superstep time of
the simulated cluster.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from ..errors import VertexNotFoundError
from .vertex import ComputeContext, Vertex, VertexFactory


class Worker:
    """Holds one partition of vertices and runs it superstep by superstep."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.vertices: Dict[int, Vertex] = {}

    def add_vertex(self, vertex: Vertex) -> None:
        self.vertices[vertex.vertex_id] = vertex

    def __len__(self) -> int:
        return len(self.vertices)

    def active_count(self) -> int:
        return sum(1 for vertex in self.vertices.values() if not vertex.halted)

    def execute_superstep(
        self,
        superstep: int,
        inbox: Dict[int, List[Any]],
        aggregator_copies: Dict[str, Any],
        previous_aggregates: Dict[str, Any],
        num_vertices: int,
        vertex_factory: Optional[VertexFactory],
        vertex_class: Type[Vertex],
    ) -> Tuple[List[Tuple[int, Any]], List[int], Dict[str, int]]:
        """Run the partition for one superstep through ``vertex_class.compute_partition``.

        ``vertex_class`` is the job's vertex class (see
        :meth:`Vertex.compute_partition`).

        Returns the worker's outgoing messages, the cost-model size of
        each (same order), and a dictionary of per-worker counters for
        this superstep.  What the worker *received* is not among them:
        it is known from what was routed to it (see
        :func:`~repro.pregel.message.hash_destinations`).
        """
        outbox: List[Tuple[int, Any]] = []
        ctx = ComputeContext(
            superstep=superstep,
            outbox=outbox,
            aggregators=aggregator_copies,
            previous_aggregates=previous_aggregates,
            num_vertices=num_vertices,
        )
        vertices = self.vertices

        # Deliver messages: reactivate recipients, auto-create unknown targets
        # if the job provided a factory, otherwise fail loudly.
        for target_id in inbox:
            if target_id not in vertices:
                if vertex_factory is None:
                    raise VertexNotFoundError(target_id)
                vertices[target_id] = vertex_factory.create(target_id)
            vertices[target_id].reactivate()

        compute_calls, degrees, active = vertex_class.compute_partition(vertices, inbox, ctx)

        # Every vertex with messages ran, so the O(d(v)) style charge —
        # one unit per call, incoming message, adjacency entry and
        # outgoing message — sums over the whole inbox and outbox.
        delivered = sum(map(len, inbox.values()))
        return outbox, ctx.sizes, {
            "compute_calls": compute_calls,
            "compute_ops": compute_calls + delivered + degrees + ctx.messages_sent,
            "messages_sent": ctx.messages_sent,
            "bytes_sent": ctx.bytes_sent,
            # A vertex that did not run is halted, so only those that
            # ran can be active afterwards.
            "active_vertices": active,
        }
