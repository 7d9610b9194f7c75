"""The scaffolding stage: contig-link graph → ordered, gap-padded scaffolds.

:func:`scaffold_contigs` is the body of the assembly workflow's
``scaffolding`` stage: straight-line code whose jobs all run on the
:class:`~repro.workflow.executor.StageExecutor` it is handed, so they
are metered by the same cost model as the assembly operations:

1. **map pairs** — both mates of every pair are placed on the contigs
   (:class:`~repro.scaffold.mapping.ContigSeedIndex`); same-contig
   pairs calibrate the insert size, cross-contig pairs become link
   observations;
2. **bundle links** — a mini-MapReduce keyed by contig-end pair
   aggregates observations into :class:`~repro.scaffold.links.LinkBundle`
   records, then :func:`~repro.scaffold.links.select_links` keeps at
   most one well-supported link per contig end (no link left: every
   contig becomes its own scaffold, and steps 3–5 are skipped);
3. **scaffold components** — a Pregel job reusing
   :class:`~repro.ppa.hash_min.HashMinVertex` floods component labels
   over the link graph: every contig learns which scaffold it belongs
   to;
4. **scaffold ordering** — a Pregel job reusing the list-ranking PPA
   (:mod:`repro.ppa.list_ranking`): each contig's predecessor pointer
   is its left neighbour in the scaffold path, and the computed rank
   is its 1-based position in the scaffold;
5. **emission** — contigs are stitched in rank order, reverse
   complemented where the link orientation demands it, with runs of
   ``N`` sized by the bundles' gap estimates between them.

Steps 3 and 4 are deliberately the paper's PPAs run unchanged on a new
graph type (vertices are contigs, not k-mers): connected components is
an O(δ) flood over the tiny link graph, and list ranking keeps the
O(log n) superstep bound even for very long scaffold paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dna.io_fastq import FastaRecord, ReadPair, write_fasta
from ..dna.sequence import reverse_complement
from ..errors import PipelineConfigError
from ..pregel import PregelJob, min_combiner
from ..ppa.hash_min import HashMinVertex
from ..ppa.list_ranking import ListNode, build_vertices, ranks_from_result
from .links import (
    END_HEAD,
    END_TAIL,
    EndId,
    LinkBundle,
    PairLinkObservation,
    estimate_insert_size,
    observe_pair,
    observed_insert_size,
    select_links,
)
from .mapping import ContigSeedIndex, ReadMapping

#: Gap estimate used when no insert size is configured and no
#: same-contig pair could calibrate one (matches the default library of
#: :class:`~repro.dna.simulator.PairedReadSimulationConfig`).
DEFAULT_INSERT_SIZE = 500.0

#: Emitted gaps are at least this many ``N`` bases, so a scaffold join
#: is always visible in the sequence even when contigs abut or the gap
#: estimate dips negative.
MIN_GAP_RUN = 1


@dataclass(frozen=True)
class ScaffoldMember:
    """One contig placed inside a scaffold."""

    contig: int  # index into the scaffolder's deterministic contig order
    forward: bool
    gap_before: int  # N-run separating this member from the previous one
    position: int  # 1-based rank inside the scaffold (from list ranking)


@dataclass
class Scaffold:
    """An ordered, oriented chain of contigs with gap estimates."""

    members: List[ScaffoldMember]
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass
class ScaffoldingResult:
    """Everything produced by the scaffolding stage."""

    contigs: List[str]  # the deterministic contig order the members index
    scaffolds: List[Scaffold]
    insert_size: float
    num_pairs: int
    num_pairs_mapped: int
    num_cross_links: int  # cross-contig observations before bundling
    num_links_selected: int  # bundles surviving select_links
    num_links_used: int = 0  # joins actually walked (differs on broken cycles)
    used_cycle_break: bool = False

    @property
    def sequences(self) -> List[str]:
        """All scaffold sequences, longest first."""
        return sorted(
            (scaffold.sequence for scaffold in self.scaffolds), key=len, reverse=True
        )

    def num_joined(self) -> int:
        """Scaffolds made of more than one contig."""
        return sum(1 for scaffold in self.scaffolds if len(scaffold.members) > 1)

    def write_fasta(self, path) -> int:
        """Write the scaffolds to a FASTA file; returns the record count."""
        records = [
            FastaRecord(name=f"scaffold_{index}_len_{len(sequence)}", sequence=sequence)
            for index, sequence in enumerate(self.sequences)
        ]
        return write_fasta(records, path)


# ----------------------------------------------------------------------
# link construction
# ----------------------------------------------------------------------
def _map_pairs(
    pairs: Sequence[ReadPair],
    index: ContigSeedIndex,
) -> List[Tuple[ReadMapping, ReadMapping, int, int]]:
    """Both-mates-mapped pairs as (mapping1, mapping2, len1, len2)."""
    mapped = []
    for pair in pairs:
        mapping1 = index.map_read(pair.read1.sequence)
        if mapping1 is None:
            continue
        mapping2 = index.map_read(pair.read2.sequence)
        if mapping2 is None:
            continue
        mapped.append((mapping1, mapping2, len(pair.read1), len(pair.read2)))
    return mapped


def _map_observation(observation: PairLinkObservation):
    yield observation.key, observation.gap


def _reduce_bundle(key, gaps: List[float]):
    contig_a, end_a, contig_b, end_b = key
    yield LinkBundle(
        contig_a=contig_a,
        end_a=end_a,
        contig_b=contig_b,
        end_b=end_b,
        count=len(gaps),
        mean_gap=sum(gaps) / len(gaps),
    )


# ----------------------------------------------------------------------
# path orientation
# ----------------------------------------------------------------------
def _orient_paths(
    num_contigs: int,
    links: List[LinkBundle],
) -> Tuple[Dict[int, Optional[int]], Dict[int, bool], Dict[int, int], int, bool]:
    """Walk every link path, fixing orientation and predecessor pointers.

    Returns ``(predecessor, forward, gap_before, links_used,
    used_cycle_break)``.  A path is walked from its deterministically
    chosen head (the endpoint contig with the smaller index); the head
    is oriented so that its linked end faces right, and each subsequent
    contig so that its linked end faces left — reverse complementing
    whenever the link attaches to the "wrong" physical end.  Pure
    cycles (every end linked) are broken at their smallest contig's
    head-side link so they degrade to a path instead of failing.
    """
    partner: Dict[EndId, Tuple[int, int, float]] = {}
    for bundle in links:
        partner[(bundle.contig_a, bundle.end_a)] = (
            bundle.contig_b, bundle.end_b, bundle.mean_gap,
        )
        partner[(bundle.contig_b, bundle.end_b)] = (
            bundle.contig_a, bundle.end_a, bundle.mean_gap,
        )

    degree = [0] * num_contigs
    for bundle in links:
        degree[bundle.contig_a] += 1
        degree[bundle.contig_b] += 1

    predecessor: Dict[int, Optional[int]] = {}
    forward: Dict[int, bool] = {}
    gap_before: Dict[int, int] = {}
    links_used = 0
    used_cycle_break = False
    visited = [False] * num_contigs

    def walk(head: int, entry_end: int) -> None:
        """Lay out one path left to right starting at ``head``.

        ``entry_end`` is the head's end facing left (unlinked for true
        path heads, the broken side for cycle breaks).
        """
        nonlocal links_used
        current, current_entry = head, entry_end
        predecessor[head] = None
        previous: Optional[int] = None
        while True:
            visited[current] = True
            forward[current] = current_entry == END_HEAD
            if previous is not None:
                predecessor[current] = previous
            exit_end = END_TAIL if current_entry == END_HEAD else END_HEAD
            hop = partner.get((current, exit_end))
            if hop is None:
                return
            next_contig, next_end, gap = hop
            if visited[next_contig]:
                return
            links_used += 1
            gap_before[next_contig] = max(MIN_GAP_RUN, int(round(gap)))
            previous, current, current_entry = current, next_contig, next_end

    # Path heads first: a head's single linked end faces right, so the
    # unlinked end is its entry side.
    for contig in range(num_contigs):
        if visited[contig] or degree[contig] != 1:
            continue
        linked_end = END_TAIL if (contig, END_TAIL) in partner else END_HEAD
        entry_end = END_HEAD if linked_end == END_TAIL else END_TAIL
        # Walk only from the smaller-index endpoint: if the far endpoint
        # has a smaller index the path is (or will be) walked from there.
        other_endpoint = _far_endpoint(contig, entry_end, partner)
        if other_endpoint < contig:
            continue
        walk(contig, entry_end)

    # Remaining unvisited linked contigs sit on pure cycles: break each
    # at its smallest contig by ignoring that contig's head-side link.
    for contig in range(num_contigs):
        if visited[contig] or degree[contig] == 0:
            continue
        used_cycle_break = True
        walk(contig, END_HEAD)

    # Singletons (no links at all).
    for contig in range(num_contigs):
        if degree[contig] == 0:
            predecessor[contig] = None
            forward[contig] = True

    return predecessor, forward, gap_before, links_used, used_cycle_break


def _far_endpoint(
    head: int,
    entry_end: int,
    partner: Dict[EndId, Tuple[int, int, float]],
) -> int:
    """Index of the contig at the other end of ``head``'s path."""
    current, current_entry = head, entry_end
    seen = {head}
    while True:
        exit_end = END_TAIL if current_entry == END_HEAD else END_HEAD
        hop = partner.get((current, exit_end))
        if hop is None:
            return current
        next_contig, next_end, _gap = hop
        if next_contig in seen:
            return current
        seen.add(next_contig)
        current, current_entry = next_contig, next_end


# ----------------------------------------------------------------------
# the stage body
#
# Each step is a plain call; the three metered jobs run on the executor
# the caller hands in, so they land in the caller's pipeline metrics.
# ----------------------------------------------------------------------
def _calibrate_insert_size(
    mapped: List[Tuple[ReadMapping, ReadMapping, int, int]],
) -> float:
    """Median fragment length of same-contig pairs, or the default."""
    estimates = []
    for mapping1, mapping2, length1, length2 in mapped:
        observed = observed_insert_size(mapping1, mapping2, length1, length2)
        if observed is not None:
            estimates.append(observed)
    return estimate_insert_size(estimates) or DEFAULT_INSERT_SIZE


def _components(executor, num_contigs: int, links: List[LinkBundle]) -> Dict[int, int]:
    """Scaffold membership via Hash-Min over the contig-link graph.

    The link graph's diameter is the longest scaffold path, so the
    O(δ)-superstep Hash-Min flood is acceptable here (unlike on the de
    Bruijn graph, whose paths are millions of vertices long — the
    reason operation ② never uses it).
    """
    adjacency: Dict[int, List[int]] = {contig: [] for contig in range(num_contigs)}
    for bundle in links:
        adjacency[bundle.contig_a].append(bundle.contig_b)
        adjacency[bundle.contig_b].append(bundle.contig_a)
    vertices = [
        HashMinVertex(contig, value=contig, edges=sorted(set(neighbors)))
        for contig, neighbors in adjacency.items()
    ]
    result = executor.run_pregel(
        PregelJob(
            name="scaffolding/components-hash-min",
            vertices=vertices,
            combiner=min_combiner(),
        )
    )
    return {contig: vertex.value for contig, vertex in result.vertices.items()}


def _ranks(executor, predecessor: Dict[int, Optional[int]]) -> Dict[int, int]:
    """Position of every contig in its scaffold path via list ranking.

    Each contig's value is 1 and its predecessor pointer is its left
    neighbour, so the prefix sum computed by the list-ranking PPA is
    exactly the 1-based position — in O(log n) supersteps even for
    scaffolds spanning a whole chromosome arm.
    """
    nodes = [
        ListNode(node_id=contig, value=1.0, predecessor=pred)
        for contig, pred in predecessor.items()
    ]
    result = executor.run_pregel(
        PregelJob(
            name="scaffolding/ordering-list-ranking", vertices=build_vertices(nodes)
        )
    )
    return {contig: int(rank) for contig, rank in ranks_from_result(result).items()}


def _stitch(
    ordered: List[str],
    components: Dict[int, int],
    ranks: Dict[int, int],
    forward: Dict[int, bool],
    gap_before: Dict[int, int],
) -> List[Scaffold]:
    """Stitch contigs in rank order with N-gap runs between them."""
    grouped: Dict[int, List[int]] = {}
    for contig in range(len(ordered)):
        grouped.setdefault(components[contig], []).append(contig)

    scaffolds: List[Scaffold] = []
    for label in sorted(grouped):
        members_by_rank = sorted(grouped[label], key=lambda contig: ranks[contig])
        members: List[ScaffoldMember] = []
        parts: List[str] = []
        for position_index, contig in enumerate(members_by_rank):
            gap = 0 if position_index == 0 else gap_before.get(contig, MIN_GAP_RUN)
            members.append(
                ScaffoldMember(
                    contig=contig,
                    forward=forward[contig],
                    gap_before=gap,
                    position=ranks[contig],
                )
            )
            oriented = ordered[contig] if forward[contig] else reverse_complement(ordered[contig])
            if gap:
                parts.append("N" * gap)
            parts.append(oriented)
        scaffolds.append(Scaffold(members=members, sequence="".join(parts)))
    return scaffolds


def scaffold_contigs(
    contigs: Iterable[str],
    pairs: Iterable[ReadPair],
    executor,
    seed_k: int = 21,
    min_links: int = 2,
    insert_size: Optional[float] = None,
) -> ScaffoldingResult:
    """Scaffold assembled contigs with paired-end reads.

    Parameters
    ----------
    contigs:
        The assembled contig sequences (any order; they are re-sorted
        into a deterministic content-based order internally).
    pairs:
        The paired-end reads the contigs were assembled from.
    executor:
        The :class:`~repro.workflow.executor.StageExecutor` the Pregel /
        mini-MapReduce jobs run on — passing the assembly's
        ``ctx.executor`` makes them show up in the same pipeline
        metrics and run on the same execution backend.
    seed_k:
        Seed length for read-to-contig mapping (the assembly k is a
        natural choice).
    min_links:
        Minimum number of supporting pairs before a contig link is
        trusted.
    insert_size:
        The library's insert size; when None it is estimated as the
        median fragment length over pairs whose mates map to the same
        contig, falling back to :data:`DEFAULT_INSERT_SIZE` when no
        such pair exists.  A given size must be finite and positive
        (:class:`~repro.errors.PipelineConfigError` otherwise).
    """
    if insert_size is not None and not (math.isfinite(insert_size) and insert_size > 0):
        raise PipelineConfigError(
            f"insert_size must be finite and positive, got {insert_size}"
        )
    ordered = sorted(contigs, key=lambda sequence: (-len(sequence), sequence))
    pair_list = list(pairs)
    contig_lengths = [len(sequence) for sequence in ordered]

    # 1. map pairs; calibrate the insert size.
    mapped: List[Tuple[ReadMapping, ReadMapping, int, int]] = []
    if ordered:
        mapped = _map_pairs(pair_list, ContigSeedIndex(ordered, seed_k=seed_k))
    if insert_size is None:
        insert_size = _calibrate_insert_size(mapped)
    observations: List[PairLinkObservation] = []
    for mapping1, mapping2, length1, length2 in mapped:
        observation = observe_pair(
            mapping1, mapping2, length1, length2, contig_lengths, insert_size
        )
        if observation is not None:
            observations.append(observation)

    # 2. bundle the observations; keep one well-supported link per end.
    links: List[LinkBundle] = []
    if observations:
        bundles = executor.run_mapreduce(
            "scaffolding/link-bundling", observations, _map_observation, _reduce_bundle
        )
        links = select_links(list(bundles.outputs), min_support=min_links)

    if not links:
        # No trusted links: every contig is its own single-member scaffold.
        return ScaffoldingResult(
            contigs=ordered,
            scaffolds=[
                Scaffold(
                    members=[
                        ScaffoldMember(contig=i, forward=True, gap_before=0, position=1)
                    ],
                    sequence=sequence,
                )
                for i, sequence in enumerate(ordered)
            ],
            insert_size=insert_size,
            num_pairs=len(pair_list),
            num_pairs_mapped=len(mapped),
            num_cross_links=len(observations),
            num_links_selected=0,
        )

    # 3.-5. components, orientation, order, emission.
    components = _components(executor, len(ordered), links)
    predecessor, forward, gap_before, links_used, used_cycle_break = _orient_paths(
        len(ordered), links
    )
    ranks = _ranks(executor, predecessor)
    return ScaffoldingResult(
        contigs=ordered,
        scaffolds=_stitch(ordered, components, ranks, forward, gap_before),
        insert_size=insert_size,
        num_pairs=len(pair_list),
        num_pairs_mapped=len(mapped),
        num_cross_links=len(observations),
        num_links_selected=len(links),
        num_links_used=links_used,
        used_cycle_break=used_cycle_break,
    )
