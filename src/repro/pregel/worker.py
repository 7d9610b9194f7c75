"""A simulated Pregel worker.

Each worker owns the partition of vertices that the
:class:`~repro.pregel.partitioner.HashPartitioner` assigns to it and
executes ``compute`` for its active vertices in every superstep.  The
engine keeps one :class:`Worker` per simulated machine slot so that
per-worker load (compute operations, messages, bytes) is tracked
exactly — the cost model turns the *maximum* per-worker load into the
superstep time of the simulated cluster.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import VertexNotFoundError
from .aggregator import AggregatorRegistry
from .vertex import ComputeContext, Vertex, VertexFactory, _estimate_size


class Worker:
    """Holds one partition of vertices and runs their ``compute`` calls."""

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
    ) -> Tuple[List[Tuple[int, Any]], Dict[str, int]]:
        """Run ``compute`` for every vertex that is active or has messages.

        Returns the worker's outgoing messages and a dictionary of
        per-worker counters for this superstep.
        """
        outbox: List[Tuple[int, Any]] = []
        counters = {
            "compute_calls": 0,
            "compute_ops": 0,
            "messages_sent": 0,
            "bytes_sent": 0,
            "messages_received": 0,
            "bytes_received": 0,
        }

        # Deliver messages: reactivate recipients, auto-create unknown targets
        # if the job provided a factory, otherwise fail loudly.
        for target_id in inbox:
            if target_id not in self.vertices:
                if vertex_factory is None:
                    raise VertexNotFoundError(target_id)
                self.vertices[target_id] = vertex_factory.create(target_id)
            self.vertices[target_id].reactivate()

        for vertex_id, vertex in self.vertices.items():
            messages = inbox.get(vertex_id, [])
            if vertex.halted and not messages:
                continue
            ctx = ComputeContext(
                superstep=superstep,
                outbox=outbox,
                aggregators=aggregator_copies,
                previous_aggregates=previous_aggregates,
                num_vertices=num_vertices,
            )
            vertex.compute(messages, ctx)
            counters["compute_calls"] += 1
            # O(d(v)) style charge: one unit for the call plus one per
            # incoming message, adjacency entry and outgoing message.
            counters["compute_ops"] += 1 + len(messages) + vertex.degree + ctx.messages_sent
            counters["messages_sent"] += ctx.messages_sent
            counters["bytes_sent"] += ctx.bytes_sent
            counters["messages_received"] += len(messages)

        counters["bytes_received"] = sum(
            _messages_size(messages) for messages in inbox.values()
        )
        return outbox, counters


def _messages_size(messages: List[Any]) -> int:
    return sum(_estimate_size(message) for message in messages)
