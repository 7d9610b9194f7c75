"""Operation ② — contig labeling (Section IV-B).

The operation marks every vertex of a maximal unambiguous path with a
label that uniquely identifies the path, so that operation ③ can group
the vertices and merge them into a contig.  It runs as Pregel jobs:

1. **Contig-end recognition** (2 supersteps) — every ⟨m-n⟩-typed vertex
   broadcasts its ID to its neighbours and votes to halt forever; a
   ⟨1⟩-typed vertex, or a ⟨1-1⟩-typed vertex that hears from an
   ambiguous neighbour, recognises itself as a contig end and replaces
   the offending edge with a self-loop whose target is its own ID with
   the second-most-significant bit flipped (Figure 7).
2. **Path labeling** — either *bidirectional list ranking* (the paper's
   preferred method: pointer doubling over the ID pair, two supersteps
   per round) or the *simplified S-V* algorithm run over the
   unambiguous subgraph.  Bidirectional list ranking cannot make
   progress on cycles of ⟨1-1⟩ vertices, so when the number of active
   vertices stops decreasing the operation falls back to simplified S-V
   on the remaining active vertices — exactly the paper's cycle
   handling.

The resulting label of a non-cycle path is the smaller of its two
contig-end vertex IDs; vertices on cycles get the smallest vertex ID in
the cycle.  Either way, a label uniquely identifies one maximal
unambiguous path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dbg.graph import DeBruijnGraph
from ..dbg.kmer_vertex import TYPE_AMBIGUOUS
from ..dna.encoding import FLIP_BIT, flip_id, is_flipped, unflip_id
from ..pregel import (
    ComputeContext,
    JobMetrics,
    PregelJob,
    Vertex,
    sum_aggregator,
)
from ..pregel.vertex import _estimate_size
from ..workflow.executor import StageExecutor
from ..ppa.sv import GraphInput, components_from_result, run_simplified_sv
from .chain import ChainElement, build_chain_graph, chain_neighbors
from .config import (
    LABELING_LIST_RANKING,
    LABELING_SIMPLIFIED_SV,
    AssemblyConfig,
)

_REQUEST = "req"
_RESPONSE = "resp"
#: Cost-model sizes of the two LR messages.  Every ID is a plain int,
#: so every request and every response has the size of these.
_REQUEST_SIZE = _estimate_size((_REQUEST, 0))
_RESPONSE_SIZE = _estimate_size((_RESPONSE, 0, 0))


@dataclass
class LabelingResult:
    """Output of operation ②."""

    labels: Dict[int, int]
    chain: Dict[int, ChainElement]
    method: str
    metrics: List[JobMetrics] = field(default_factory=list)
    used_cycle_fallback: bool = False

    @property
    def num_supersteps(self) -> int:
        return sum(job.num_supersteps for job in self.metrics)

    @property
    def num_messages(self) -> int:
        return sum(job.total_messages for job in self.metrics)


# ----------------------------------------------------------------------
# contig-end recognition (two supersteps)
# ----------------------------------------------------------------------
class _EndRecognitionVertex(Vertex):
    """Vertex program for the two-superstep contig-end recognition job.

    ``value`` is a dict with ``kind`` (``"ambiguous"`` or ``"chain"``)
    and, for chain nodes, the pair of chain-neighbour IDs (``None``
    meaning "boundary").  Ambiguous vertices broadcast their ID in
    superstep 0 and never participate again; chain nodes finalise their
    ID pair in superstep 1 (replacing boundary sides with their own
    flipped ID).
    """

    def compute(self, messages: List, ctx: ComputeContext) -> None:
        if ctx.superstep == 0:
            if self.value["kind"] == "ambiguous":
                # Broadcast our ID so neighbouring unambiguous vertices
                # recognise themselves as contig ends; never wake again.
                for neighbor in self.edges:
                    ctx.send(neighbor, self.vertex_id)
            else:
                # The chain view already records which sides border an
                # ambiguous vertex or a dead end, so the pair can be
                # finalised immediately: boundary sides become the
                # vertex's own flipped ID (the self-loop of Figure 11).
                self.value["pair"] = tuple(
                    flip_id(self.vertex_id) if side is None else side
                    for side in self.value["pair"]
                )
            self.vote_to_halt()
            return
        # Superstep 1: chain nodes woken by an ambiguous neighbour's
        # broadcast simply absorb the message (their pair is already
        # final) and halt again.
        self.vote_to_halt()


def _run_end_recognition(
    graph: DeBruijnGraph,
    chain: Dict[int, ChainElement],
    job_chain: StageExecutor,
) -> Dict[int, Tuple[int, int]]:
    """Run the recognition job; returns the initial ID pair per chain node."""
    vertices: List[Vertex] = []

    for kmer_id, entries in graph.kmers.select((TYPE_AMBIGUOUS,)):
        # An ambiguous vertex notifies the chain element on the other
        # side of each of its adjacency entries (a k-mer, or the contig
        # materialising the edge).
        targets = []
        for neighbor_id, _, _, _, via_contig in entries:
            target = neighbor_id if via_contig is None else via_contig.contig_id
            if target in chain:
                targets.append(target)
        vertices.append(
            _EndRecognitionVertex(kmer_id, value={"kind": "ambiguous"}, edges=targets)
        )

    # The "ID pair" of Section IV-B: the neighbour on each side, or None
    # where the side is a contig end.
    for node_id, element in chain.items():
        pair = tuple(
            end.neighbor_id if end.neighbor_id in chain else None
            for end in (element.in_end, element.out_end)
        )
        vertices.append(
            _EndRecognitionVertex(node_id, value={"kind": "chain", "pair": pair}, edges=[])
        )

    if not vertices:
        return {}

    result = job_chain.run_pregel(
        PregelJob(name="contig-labeling/end-recognition", vertices=vertices)
    )
    pairs: Dict[int, Tuple[int, int]] = {}
    for node_id in chain:
        pairs[node_id] = tuple(result.vertices[node_id].value["pair"])
    return pairs


# ----------------------------------------------------------------------
# bidirectional list ranking
# ----------------------------------------------------------------------
class _BidirectionalLRVertex(Vertex):
    """Pointer-doubling over the ID pair (Figure 11).

    ``value`` is the ID pair ``[a, b]`` itself; a slot is done exactly
    when it holds a flipped contig-end ID (``pair[i] & FLIP_BIT``).  One
    round takes two supersteps: an even "ask" superstep in which every
    unfinished slot sends the vertex's own ID to the slot's current
    target, and an odd "answer" superstep in which each vertex answers
    every request with the pair element that is *not* the requester
    (tagged with its own ID so the requester knows which slot to
    update).

    The job has no other vertex class, so each worker runs its whole
    partition through :meth:`compute_partition` in one loop per
    superstep; there is no per-vertex ``compute``.
    """

    @classmethod
    def compute_partition(cls, vertices, inbox, ctx):
        get = inbox.get
        outgoing = []
        send = outgoing.append
        compute_calls = degrees = asking = 0
        if ctx.superstep % 2 == 1:
            # Answer: every vertex that ran votes to halt.
            for vertex_id, vertex in vertices.items():
                messages = get(vertex_id)
                if messages is None:
                    if vertex.halted:
                        continue
                    messages = ()
                compute_calls += 1
                degrees += len(vertex.edges)
                vertex.halted = True
                first, second = vertex.value
                # The element away from the requester.  When both
                # elements are the requester (only on a cycle), or
                # neither is (a cycle whose vertices advance at
                # different speeds), the first element keeps the cycle
                # spinning until the S-V fallback labels it.
                answered = set()
                for kind, sender in messages:
                    if kind != _REQUEST or sender in answered:
                        continue
                    answered.add(sender)
                    away = second if first == sender and second != sender else first
                    send((sender, (_RESPONSE, vertex_id, away)))
            ctx.send_batch(outgoing, _RESPONSE_SIZE)
            return compute_calls, degrees, 0

        # Apply the responses, then ask again for every unfinished slot.
        for vertex_id, vertex in vertices.items():
            messages = get(vertex_id)
            if messages is None:
                if vertex.halted:
                    continue
                messages = ()
            compute_calls += 1
            degrees += len(vertex.edges)
            pair = vertex.value
            for message in messages:
                if message[0] != _RESPONSE:
                    continue
                _, responder, away = message
                if not pair[0] & FLIP_BIT and pair[0] == responder:
                    pair[0] = away
                elif not pair[1] & FLIP_BIT and pair[1] == responder:
                    pair[1] = away
            first, second = pair
            first_open = not first & FLIP_BIT
            second_open = not second & FLIP_BIT
            if not (first_open or second_open):
                vertex.halted = True
                continue
            asking += 1
            # One request object per send: a shared one would pickle as a
            # back-reference wherever both land in one batch or inbox.
            if first_open:
                send((first, (_REQUEST, vertex_id)))
            if second_open:
                send((second, (_REQUEST, vertex_id)))
        if asking:
            ctx.aggregate("active", asking)
        ctx.send_batch(outgoing, _REQUEST_SIZE)
        return compute_calls, degrees, asking


class _RoundLimit:
    """Stops the LR job once cycles are the only possible survivors.

    Bidirectional list ranking finishes every non-cycle path within
    ``ceil(log2(n)) + 1`` rounds (distances double each round and no
    path has more than ``n`` vertices), so any vertex still active
    after that many rounds must lie on a cycle of ⟨1-1⟩ vertices.  The
    paper detects the same situation by watching whether the active
    count stops decreasing; the explicit round bound is equivalent for
    cycles but cannot mis-fire on long paths whose early rounds finish
    no vertex at all.
    """

    def __init__(self, num_nodes: int) -> None:
        rounds = max(1, num_nodes - 1).bit_length() + 1
        self._superstep_limit = 2 * rounds
        self._superstep = -1

    def __call__(self, snapshot: Dict[str, object]) -> bool:
        self._superstep += 1
        if (self._superstep + 1) < self._superstep_limit:
            return False
        active = int(snapshot.get("active") or 0)
        return active > 0


def _run_bidirectional_list_ranking(
    pairs: Dict[int, Tuple[int, int]],
    job_chain: StageExecutor,
) -> Tuple[Dict[int, int], List[int]]:
    """Run LR; returns (labels for finished nodes, node IDs still unfinished)."""
    vertices = [
        _BidirectionalLRVertex(node_id, value=list(pair)) for node_id, pair in pairs.items()
    ]
    if not vertices:
        return {}, []

    result = job_chain.run_pregel(
        PregelJob(
            name="contig-labeling/bidirectional-list-ranking",
            vertices=vertices,
            aggregators=[sum_aggregator("active")],
            halt_condition=_RoundLimit(len(vertices)),
        )
    )

    labels: Dict[int, int] = {}
    unfinished: List[int] = []
    for node_id, vertex in result.vertices.items():
        end_a, end_b = vertex.value
        if is_flipped(end_a) and is_flipped(end_b):
            labels[node_id] = min(unflip_id(end_a), unflip_id(end_b))
        else:
            unfinished.append(node_id)
    return labels, unfinished


# ----------------------------------------------------------------------
# simplified S-V over the chain graph
# ----------------------------------------------------------------------
def _chain_graph_input(
    chain: Dict[int, ChainElement], restrict_to: Optional[set] = None
) -> GraphInput:
    nodes = chain if restrict_to is None else restrict_to
    return GraphInput(
        {
            node_id: chain_neighbors(nodes, element)
            for node_id, element in chain.items()
            if node_id in nodes
        }
    )


def _run_sv_labeling(
    chain: Dict[int, ChainElement],
    job_chain: StageExecutor,
    restrict_to: Optional[set] = None,
    job_suffix: str = "",
) -> Dict[int, int]:
    graph_input = _chain_graph_input(chain, restrict_to)
    if not graph_input.adjacency:
        return {}
    result = run_simplified_sv(graph_input, engine=job_chain.engine)
    result.metrics.job_name = f"contig-labeling/simplified-sv{job_suffix}"
    job_chain.pipeline_metrics.add(result.metrics)
    return components_from_result(result)


# ----------------------------------------------------------------------
# the operation
# ----------------------------------------------------------------------
def _label_by_list_ranking(
    pairs: Dict[int, Tuple[int, int]],
    chain: Dict[int, ChainElement],
    job_chain: StageExecutor,
) -> Tuple[Dict[int, int], bool]:
    """Label paths by list ranking and cycles by S-V; returns (labels, used fallback)."""
    labels, unfinished = _run_bidirectional_list_ranking(pairs, job_chain)
    if not unfinished:
        return labels, False
    # Cycles of ⟨1-1⟩ vertices: label them with simplified S-V
    # restricted to the still-active vertices.
    labels.update(
        _run_sv_labeling(
            chain, job_chain, restrict_to=set(unfinished), job_suffix="-cycle-fallback"
        )
    )
    return labels, True


def label_contigs(
    graph: DeBruijnGraph,
    config: AssemblyConfig,
    job_chain: StageExecutor,
    include_contigs: bool = False,
) -> LabelingResult:
    """Run operation ② and return per-node contig labels.

    ``include_contigs`` selects the second-round behaviour (arrow ⑥ of
    Figure 10) where existing contigs take part in the chains.
    """
    chain = build_chain_graph(graph, include_contigs=include_contigs)
    metrics_before = len(job_chain.pipeline_metrics.jobs)

    labels: Dict[int, int] = {}
    used_fallback = False

    if not chain:
        return LabelingResult(labels={}, chain=chain, method=config.labeling_method)

    pairs = _run_end_recognition(graph, chain, job_chain)

    if config.labeling_method == LABELING_LIST_RANKING:
        labels, used_fallback = _label_by_list_ranking(pairs, chain, job_chain)
    elif config.labeling_method == LABELING_SIMPLIFIED_SV:
        labels = _run_sv_labeling(chain, job_chain)
    else:  # pragma: no cover - config validation prevents this
        raise ValueError(f"unknown labeling method {config.labeling_method!r}")

    new_metrics = job_chain.pipeline_metrics.jobs[metrics_before:]
    return LabelingResult(
        labels=labels,
        chain=chain,
        method=config.labeling_method,
        metrics=list(new_metrics),
        used_cycle_fallback=used_fallback,
    )
