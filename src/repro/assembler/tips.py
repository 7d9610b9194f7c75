"""Operation ⑤ — tip removing (Section IV-B).

A tip is a short dangling path: it starts at a dead end (a ⟨1⟩-typed
vertex) and runs through ⟨1-1⟩-typed vertices until it meets an
ambiguous vertex (or another dead end).  Short tips are almost always
the product of a read error near the end of a read (Figure 5), so they
are removed; long dangling paths are kept because they are most likely
genuine contigs whose continuation simply was not covered by any read.

The paper implements the operation as a vertex-centric message-passing
procedure: ⟨1⟩-typed vertices send a REQUEST carrying the cumulative
sequence length, ⟨1-1⟩-typed vertices relay it (adding their own base
plus the length of any contig on the traversed edge), and the
⟨m-n⟩-typed (or opposite ⟨1⟩-typed) vertex at the far end decides
whether the accumulated length is below the tip threshold, in which
case a DELETE message walks back and removes the path.  Removing a tip
can turn an ⟨m-n⟩ vertex into a new ⟨1⟩ vertex, so the procedure runs
in *phases* until no new dead end appears.

This module performs the same computation as a direct traversal over
the post-merging graph (ambiguous k-mers connected directly or through
contig-labelled edges): each phase finds the current dead ends, walks
each dangling path accumulating exactly the length the REQUEST message
would accumulate, and applies the same deletion decision.  The phase
and message counts the vertex-centric version would incur are recorded
in a synthetic :class:`~repro.pregel.metrics.JobMetrics` so the
Figure 12 cost model can charge for the operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..dbg.graph import DeBruijnGraph
from ..dbg.kmer_vertex import (
    TYPE_AMBIGUOUS,
    TYPE_DEAD_END,
    KmerAdjacency,
)
from ..workflow.executor import StageExecutor
from ..pregel.metrics import JobMetrics, SuperstepMetrics
from ..pregel.partitioner import HashPartitioner
from .config import AssemblyConfig


@dataclass
class TipRemovalResult:
    """Output of operation ⑤."""

    phases: int
    tips_removed: int
    kmers_deleted: int
    contigs_deleted: int


@dataclass
class _WalkOutcome:
    """One dangling path walked from a dead-end vertex."""

    path_kmers: List[int]
    traversed_contigs: List[int]
    cumulative_length: int
    terminal_kmer: Optional[int]
    terminal_is_junction: bool
    hops: int


def _path_length_contribution(adjacency: KmerAdjacency, k: int) -> int:
    """Length added when a walk traverses one edge (Section IV-B, op ⑤).

    A plain k-mer → k-mer edge adds one base (the k-mers overlap by
    k-1); an edge that carries a contig adds the contig length minus
    the (k-1)-base overlap on top of that.
    """
    contribution = 1
    if adjacency.via_contig is not None:
        contribution += max(adjacency.via_contig.length - (k - 1), 0)
    return contribution


def _walk_dangling_path(
    graph: DeBruijnGraph,
    start_kmer: int,
    tip_threshold: int,
) -> Optional[_WalkOutcome]:
    """Walk from a ⟨1⟩-typed k-mer until a junction, a dead end or a cycle."""
    start = graph.kmers.get(start_kmer)
    if start is None or start.vertex_type() != TYPE_DEAD_END:
        return None
    if not start.adjacencies:
        # Fully isolated vertex: treat as a zero-neighbour tip of length k.
        return _WalkOutcome(
            path_kmers=[start_kmer],
            traversed_contigs=[],
            cumulative_length=graph.k,
            terminal_kmer=None,
            terminal_is_junction=False,
            hops=0,
        )

    cumulative = graph.k
    path = [start_kmer]
    contigs: List[int] = []
    visited: Set[int] = {start_kmer}
    hops = 0

    current = start
    incoming_from: Optional[int] = None
    adjacency = start.adjacencies[0]

    while True:
        cumulative += _path_length_contribution(adjacency, graph.k)
        if adjacency.via_contig is not None:
            contigs.append(adjacency.via_contig.contig_id)
        hops += 1
        next_id = adjacency.neighbor_id

        if adjacency.is_dead_end():
            # The path runs into NULL: it dangles on both sides.
            return _WalkOutcome(path, contigs, cumulative, None, False, hops)

        next_vertex = graph.kmers.get(next_id)
        if next_vertex is None:
            return _WalkOutcome(path, contigs, cumulative, None, False, hops)
        if next_id in visited:
            # A cycle is not a tip.
            return None

        next_type = next_vertex.vertex_type()
        if next_type == TYPE_AMBIGUOUS:
            return _WalkOutcome(path, contigs, cumulative, next_id, True, hops)
        if next_type == TYPE_DEAD_END:
            # The whole component is one dangling path with two dead ends.
            path.append(next_id)
            return _WalkOutcome(path, contigs, cumulative, None, False, hops)

        # ⟨1-1⟩: relay through it.
        visited.add(next_id)
        path.append(next_id)
        onward = next_vertex.other_adjacency(excluding_neighbor=current.kmer_id)
        if onward is None:
            return _WalkOutcome(path, contigs, cumulative, None, False, hops)
        incoming_from = current.kmer_id
        current = next_vertex
        adjacency = onward


def _delete_tip(graph: DeBruijnGraph, outcome: _WalkOutcome) -> Tuple[int, int]:
    """Remove the walked path; returns (k-mers deleted, contigs deleted)."""
    contigs_deleted = 0
    for contig_id in outcome.traversed_contigs:
        if contig_id in graph.contigs:
            graph.remove_contig(contig_id)
            contigs_deleted += 1
    # Also drop contigs that dangle off the deleted k-mers (their contig
    # neighbours die with them).
    for kmer_id in outcome.path_kmers:
        vertex = graph.kmers.get(kmer_id)
        if vertex is None:
            continue
        for adjacency in list(vertex.adjacencies):
            if adjacency.via_contig is not None and adjacency.via_contig.contig_id in graph.contigs:
                graph.remove_contig(adjacency.via_contig.contig_id)
                contigs_deleted += 1

    kmers_deleted = 0
    for kmer_id in outcome.path_kmers:
        if kmer_id in graph.kmers:
            graph.remove_kmer(kmer_id)
            kmers_deleted += 1
    return kmers_deleted, contigs_deleted


def _synthetic_phase_metrics(
    phase_index: int,
    walk_outcomes: List[_WalkOutcome],
    partitioner: HashPartitioner,
) -> JobMetrics:
    """Estimate what the vertex-centric phase would have cost.

    One phase of the paper's procedure needs roughly two supersteps per
    hop of the longest dangling path (REQUEST out, DELETE back); every
    hop of every walked path is one message in each direction.
    """
    num_workers = partitioner.num_workers
    metrics = JobMetrics(job_name=f"tip-removing/phase-{phase_index}", num_workers=num_workers)
    longest = max((outcome.hops for outcome in walk_outcomes), default=0)
    supersteps = max(2, 2 * max(longest, 1))
    total_hops = sum(outcome.hops for outcome in walk_outcomes)

    for step_index in range(supersteps):
        step = SuperstepMetrics(superstep=step_index)
        step.worker_compute_ops = [0] * num_workers
        step.worker_bytes_sent = [0] * num_workers
        step.worker_bytes_received = [0] * num_workers
        step.worker_messages_sent = [0] * num_workers
        step.worker_messages_received = [0] * num_workers
        metrics.add(step)

    # Spread the message volume over the walked vertices' workers.
    per_step_messages = (2 * total_hops) // max(supersteps, 1)
    for outcome in walk_outcomes:
        for kmer_id in outcome.path_kmers:
            worker = partitioner.worker_for(kmer_id)
            for step in metrics.supersteps:
                step.worker_compute_ops[worker] += 1
    for step in metrics.supersteps:
        step.compute_ops = sum(step.worker_compute_ops)
        step.messages_sent = per_step_messages
        step.bytes_sent = per_step_messages * 24
        for worker in range(num_workers):
            share = step.worker_compute_ops[worker]
            step.worker_messages_sent[worker] = share
            step.worker_bytes_sent[worker] = share * 24
            step.worker_bytes_received[worker] = share * 24
    return metrics


def _remove_dangling_contig_tips(graph: DeBruijnGraph, threshold: int) -> int:
    """Delete short contigs that dangle (≤ threshold, at least one NULL end).

    A dangling contig is a ⟨1⟩-typed vertex in the paper's terminology
    ("a contig vertex is of type ⟨1⟩ iff at least one of its two
    neighbours is NULL ... and will be regarded as a tip unless it is
    long").  Removing one may turn its bordering ambiguous k-mer into a
    new dead end, which the phase loop then follows up on.
    """
    removed = 0
    for contig_id, contig in list(graph.contigs.items()):
        if contig.vertex_type() != TYPE_DEAD_END:
            continue
        if contig.length > threshold:
            continue
        graph.remove_contig(contig_id)
        removed += 1
    return removed


def remove_tips(
    graph: DeBruijnGraph,
    config: AssemblyConfig,
    job_chain: StageExecutor,
) -> TipRemovalResult:
    """Run operation ⑤ until no new dead-end vertex appears."""
    partitioner = job_chain.partitioner
    phases = 0
    tips_removed = 0
    kmers_deleted = 0
    contigs_deleted = 0

    while True:
        dangling_contigs_removed = _remove_dangling_contig_tips(
            graph, config.tip_length_threshold
        )
        contigs_deleted += dangling_contigs_removed
        tips_removed += dangling_contigs_removed

        dead_ends = graph.vertices_of_type(TYPE_DEAD_END)
        if not dead_ends:
            if dangling_contigs_removed:
                phases += 1
                job_chain.pipeline_metrics.add(
                    _synthetic_phase_metrics(phases, [], partitioner)
                )
                continue
            if phases == 0:
                # The operation always runs at least one (possibly empty)
                # phase; record it so the cost model charges for the scan.
                phases = 1
                job_chain.pipeline_metrics.add(
                    _synthetic_phase_metrics(phases, [], partitioner)
                )
            break

        phase_outcomes: List[_WalkOutcome] = []
        removed_this_phase = 0
        already_deleted: Set[int] = set()

        for kmer_id in sorted(dead_ends):
            if kmer_id in already_deleted or kmer_id not in graph.kmers:
                continue
            outcome = _walk_dangling_path(graph, kmer_id, config.tip_length_threshold)
            if outcome is None:
                continue
            phase_outcomes.append(outcome)
            if outcome.cumulative_length <= config.tip_length_threshold:
                deleted_kmers, deleted_contigs = _delete_tip(graph, outcome)
                kmers_deleted += deleted_kmers
                contigs_deleted += deleted_contigs
                already_deleted.update(outcome.path_kmers)
                removed_this_phase += 1

        phases += 1
        tips_removed += removed_this_phase
        job_chain.pipeline_metrics.add(
            _synthetic_phase_metrics(phases, phase_outcomes, partitioner)
        )
        if removed_this_phase == 0:
            break

    return TipRemovalResult(
        phases=phases,
        tips_removed=tips_removed,
        kmers_deleted=kmers_deleted,
        contigs_deleted=contigs_deleted,
    )
