"""Operation ④ — bubble filtering (Section IV-B).

A bubble is a pair (or small set) of alternative paths between the same
two ambiguous vertices, typically created by a read error in the middle
of an otherwise well-covered region (Figure 5).  After contig merging
every such alternative path is a single contig, so bubble detection
becomes a mini-MapReduce grouping:

* **map** — every contig whose two ends attach to ambiguous vertices
  ``nb1 < nb2`` keys itself by ``(nb1, nb2)``;
* **reduce** — contigs sharing both endpoints are compared pairwise;
  when two sequences are within the user-defined edit distance (taking
  orientation into account), the one with lower coverage is pruned.

Pruned contigs are removed from the graph together with the adjacency
entries of their bordering ambiguous k-mers, which may in turn change
those vertices' types and enable further contig growth in the second
labeling round (arrow ⑥ of Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..dbg.contig_vertex import ContigVertexData
from ..dbg.graph import DeBruijnGraph
from ..dna.sequence import edit_distance, reverse_complement
from ..workflow.executor import StageExecutor
from .config import AssemblyConfig


@dataclass
class BubbleResult:
    """Output of operation ④."""

    bubbles_examined: int
    contigs_pruned: List[int]

    @property
    def num_pruned(self) -> int:
        return len(self.contigs_pruned)


def _same_orientation(left: ContigVertexData, right: ContigVertexData) -> bool:
    """True if the two contigs run between their shared endpoints the same way.

    Both contigs attach to the same pair of ambiguous vertices; they
    are directly comparable when their ``in`` ends attach to the same
    vertex, otherwise one must be reverse-complemented first.
    """
    return left.in_end.neighbor_id == right.in_end.neighbor_id


def _prunable(
    left: ContigVertexData,
    right: ContigVertexData,
    max_edit_distance: int,
) -> Optional[int]:
    """Return the contig ID to prune when the two form a bubble, else None."""
    right_sequence = (
        right.sequence if _same_orientation(left, right) else reverse_complement(right.sequence)
    )
    distance = edit_distance(left.sequence, right_sequence, upper_bound=max_edit_distance)
    if distance >= max_edit_distance:
        return None
    # Prune the lower-coverage side; ties keep the longer contig so the
    # decision is deterministic.
    if left.coverage < right.coverage:
        return left.contig_id
    if right.coverage < left.coverage:
        return right.contig_id
    return left.contig_id if left.length < right.length else right.contig_id


def filter_bubbles(
    graph: DeBruijnGraph,
    config: AssemblyConfig,
    job_chain: StageExecutor,
) -> BubbleResult:
    """Run operation ④ and remove pruned contigs from ``graph``."""

    def map_contig(contig_id: int) -> Iterable[Tuple[Tuple[int, int], int]]:
        contig = graph.contigs.get(contig_id)
        if contig is None:
            return
        endpoints = contig.ordered_neighbor_pair()
        if endpoints is None:
            return
        yield endpoints, contig_id

    pruned: List[int] = []
    groups_with_candidates = 0

    def reduce_group(
        endpoints: Tuple[int, int], contig_ids: List[int]
    ) -> Iterable[int]:
        nonlocal groups_with_candidates
        if len(contig_ids) < 2:
            return
        groups_with_candidates += 1
        contigs = [graph.contigs[contig_id] for contig_id in sorted(contig_ids)]
        already_pruned = set()
        for index, left in enumerate(contigs):
            if left.contig_id in already_pruned:
                continue
            for right in contigs[index + 1 :]:
                if right.contig_id in already_pruned:
                    continue
                victim = _prunable(left, right, config.bubble_edit_distance)
                if victim is not None:
                    already_pruned.add(victim)
                    yield victim
                    if victim == left.contig_id:
                        break
        return

    mapreduce = job_chain.run_mapreduce(
        name="bubble-filtering/group-by-endpoints",
        records=list(graph.contigs),
        map_fn=map_contig,
        reduce_fn=reduce_group,
    )
    pruned = list(mapreduce.outputs)

    for contig_id in pruned:
        graph.remove_contig(contig_id)

    return BubbleResult(bubbles_examined=groups_with_candidates, contigs_pruned=pruned)
