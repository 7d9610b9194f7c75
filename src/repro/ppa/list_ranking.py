"""BPPA for list ranking (Section II of the paper, Figure 1).

Given a linked list where each vertex ``v`` stores a value ``val(v)``
and a predecessor pointer ``pred(v)`` (``None`` at the head), list
ranking computes for every vertex the sum of values from the head up to
and including ``v``.  The algorithm is the classic pointer-doubling
scheme: in every round each vertex adds its predecessor's running sum
to its own and replaces its predecessor pointer with the predecessor's
predecessor, so the distance covered doubles each round and the whole
list finishes in ``O(log n)`` rounds.

Because Pregel is push-based, each round takes two supersteps:

1. every vertex that still has a predecessor sends it a *request*;
2. the predecessor *responds* with its ``(sum, pred)`` pair, after
   which the requester folds the response into its own state.

This is a *balanced* PPA: every vertex sends/receives O(1) messages per
superstep, uses O(1) state, and the algorithm ends after O(log n)
supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..pregel import (
    ComputeContext,
    JobResult,
    PregelEngine,
    PregelJob,
    RequestRespondMixin,
    Vertex,
    split_responses,
)


@dataclass
class ListNode:
    """Input record for list ranking: one linked-list vertex."""

    node_id: int
    value: float
    predecessor: Optional[int]


class ListRankingVertex(RequestRespondMixin, Vertex):
    """Vertex state: ``value`` is a dict with ``sum`` and ``pred``."""

    def __init__(self, vertex_id: int, value=None, edges=None) -> None:
        super().__init__(vertex_id, value, edges)

    # -- request-respond payload ---------------------------------------
    def request_payload(self, tag) -> Tuple[float, Optional[int]]:
        return (self.value["sum"], self.value["pred"])

    # -- compute ---------------------------------------------------------
    def compute(self, messages: List, ctx: ComputeContext) -> None:
        """One of the two supersteps that make up a pointer-doubling round.

        Even supersteps ("jump"): fold the predecessor's response into
        our running sum, replace the predecessor pointer with the
        predecessor's predecessor, and — if the head has not been
        reached — ask the new predecessor for its state.

        Odd supersteps ("serve"): answer the requests received from
        successors with a consistent ``(sum, pred)`` snapshot.

        Requests are only emitted on even supersteps and responses only
        on odd ones, so every vertex folds in exactly one predecessor
        snapshot per round; this is what makes the distance covered
        double each round (Figure 1 of the paper).
        """
        if ctx.superstep % 2 == 1:
            self.respond_to_requests(messages, ctx)
            self.vote_to_halt()
            return

        responses, _ = split_responses(messages)
        for response in responses:
            predecessor_sum, predecessor_pred = response.payload
            self.value["sum"] += predecessor_sum
            self.value["pred"] = predecessor_pred

        if self.value["pred"] is None:
            # Reached the head: nothing more to do.  The vertex is
            # reactivated automatically if a successor still requests
            # its state in a later round.
            self.vote_to_halt()
            return

        # Ask the (possibly new) predecessor for its state.  The answer
        # arrives two supersteps later, at the next even superstep.
        self.send_request(ctx, self.value["pred"])


def build_vertices(nodes: Iterable[ListNode]) -> List[ListRankingVertex]:
    """Create Pregel vertices from plain :class:`ListNode` records."""
    vertices = []
    for node in nodes:
        vertices.append(
            ListRankingVertex(
                node.node_id,
                value={"sum": node.value, "pred": node.predecessor, "val": node.value},
            )
        )
    return vertices


def run_list_ranking(
    nodes: Iterable[ListNode],
    num_workers: int = 4,
    engine: Optional[PregelEngine] = None,
) -> JobResult:
    """Run the BPPA and return the :class:`~repro.pregel.engine.JobResult`.

    After the job finishes, ``result.vertices[v].value["sum"]`` holds
    the prefix sum of ``v`` (the value the paper calls ``sum(v)``).
    """
    vertices = build_vertices(nodes)
    job = PregelJob(name="list-ranking", vertices=vertices)
    if engine is None:
        engine = PregelEngine(num_workers=num_workers)
    return engine.run(job)


def ranks_from_result(result: JobResult) -> Dict[int, float]:
    """Extract ``node_id -> sum(v)`` from a finished job."""
    return {vertex_id: vertex.value["sum"] for vertex_id, vertex in result.vertices.items()}


def sequential_list_ranking(nodes: Iterable[ListNode]) -> Dict[int, float]:
    """Reference implementation used by tests: follow predecessors directly."""
    nodes = list(nodes)
    by_id = {node.node_id: node for node in nodes}
    ranks: Dict[int, float] = {}

    def rank(node: ListNode) -> float:
        if node.node_id in ranks:
            return ranks[node.node_id]
        # Iterative walk to avoid recursion limits on long chains.
        chain = []
        current: Optional[ListNode] = node
        while current is not None and current.node_id not in ranks:
            chain.append(current)
            current = by_id[current.predecessor] if current.predecessor is not None else None
        accumulated = ranks[current.node_id] if current is not None else 0.0
        for item in reversed(chain):
            accumulated += item.value
            ranks[item.node_id] = accumulated
        return ranks[node.node_id]

    for node in nodes:
        rank(node)
    return ranks
