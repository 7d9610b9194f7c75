"""Operation ③ — contig merging (Section IV-B).

Takes the labelled unambiguous vertices (chain nodes) and merges each
label group into one contig through a mini-MapReduce procedure: the
map side keys every chain node by its contig label, the reduce side
builds a hash table over the group, orders the vertices by walking from
a contig end, and stitches their sequences (respecting orientation and
the (k-1)-character overlap between consecutive elements).

The reduce side also implements the paper's merge-time tip check: if
the path dangles (one of its ends is a dead end) and its total length
is not above the tip-length threshold, the contig is discarded
instead of emitted.

After the groups are merged the operation rewires the de Bruijn graph:
merged chain nodes disappear, the new contig vertices are added, and
every ambiguous k-mer that used to border a merged path now stores a
"via contig" adjacency pointing at the ambiguous k-mer on the other end
of the new contig (Section IV-A's contig-neighbour triplet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..dbg.contig_vertex import ContigEnd, ContigVertexData
from ..dbg.graph import DeBruijnGraph
from ..dbg.ids import ContigIdAllocator
from ..dbg.kmer_vertex import ContigLink, KmerVertexData
from ..dbg.polarity import PORT_IN, PORT_OUT, other_port
from ..dna.encoding import NULL_ID
from ..dna.sequence import reverse_complement
from ..errors import GraphFormatError
from ..workflow.executor import StageExecutor
from ..pregel.partitioner import HashPartitioner
from .chain import ChainElement
from .config import AssemblyConfig
from .labeling import LabelingResult


@dataclass
class MergedContig:
    """One stitched contig before it is written back into the graph.

    ``start`` and ``end`` are the contig's in and out ends; their
    terminal chain nodes are ``member_nodes[0]`` and ``member_nodes[-1]``.
    """

    sequence: str
    coverage: int
    member_nodes: List[int]
    start: ContigEnd
    end: ContigEnd
    is_cycle: bool = False


@dataclass
class MergingResult:
    """Output of operation ③."""

    contigs_created: List[int]
    tips_dropped: int
    cycles_merged: int


# ----------------------------------------------------------------------
# stitching one group
# ----------------------------------------------------------------------
def _oriented_sequence(node: ChainElement, entry_port: int) -> str:
    """Node sequence read in the direction of the walk.

    Entering through the node's 5' side (``PORT_IN``) means the walk
    reads the stored sequence forward; entering through the 3' side
    means the walk reads its reverse complement.
    """
    if entry_port == PORT_IN:
        return node.sequence
    return reverse_complement(node.sequence)


def _end_on(node: ChainElement, port: int) -> ContigEnd:
    return node.in_end if port == PORT_IN else node.out_end


def _boundary(chain: Dict[int, ChainElement], end: ContigEnd) -> ContigEnd:
    """The end a merged contig keeps: a chain node outside the group dangles."""
    if end.neighbor_id in chain:
        return ContigEnd(NULL_ID, 0, end.edge_coverage)
    return end


def _stitch_group(
    chain: Dict[int, ChainElement],
    node_ids: List[int],
    k: int,
) -> Tuple[Optional[MergedContig], Optional[str]]:
    """Order and stitch one label group of ``chain``.

    Returns ``(merged contig, error)``; ``error`` is a description when
    the group is structurally inconsistent (which indicates a labeling
    bug and is surfaced loudly by the caller).
    """
    by_id = {node_id: chain[node_id] for node_id in node_ids}

    # Pick the starting vertex: a path end if one exists, otherwise the
    # group is a cycle and any vertex will do (paper: "we start
    # stitching from an arbitrary vertex").
    start_node = None
    start_entry_port = None
    for node_id in sorted(by_id):
        node = by_id[node_id]
        for port in (PORT_IN, PORT_OUT):
            if _end_on(node, port).neighbor_id not in by_id:
                start_node = node
                start_entry_port = port
                break
        if start_node is not None:
            break

    # No external entry anywhere means the group is a pure cycle; the
    # distinction matters again when the walk revisits a node below.
    pure_cycle = start_node is None
    is_cycle = pure_cycle
    if pure_cycle:
        start_node = by_id[min(by_id)]
        start_entry_port = PORT_IN

    # Walk the path, collecting oriented sequences.
    sequence_parts: List[str] = []
    member_nodes: List[int] = []
    coverages: List[int] = []
    visited = set()

    current = start_node
    entry_port = start_entry_port

    while True:
        if current.node_id in visited:
            # Returned to an already stitched vertex.  For a pure cycle
            # this closes the loop; a walk that *started* at an external
            # boundary can only get here through a self-loop (a hairpin
            # whose far port links back to itself), which terminates the
            # contig like a dead end — it must stay a path so the start
            # boundary is still rewired, otherwise the bordering
            # ambiguous k-mer keeps a dangling edge into the merged
            # (and deleted) node.
            is_cycle = pure_cycle
            exit_end = ContigEnd()
            break
        visited.add(current.node_id)
        member_nodes.append(current.node_id)
        coverages.append(current.coverage)
        sequence_parts.append(_oriented_sequence(current, entry_port))

        exit_end = _end_on(current, other_port(entry_port))
        if exit_end.neighbor_id not in by_id:
            break

        coverages.append(exit_end.edge_coverage)
        next_node = by_id[exit_end.neighbor_id]
        if next_node.in_end.neighbor_id == current.node_id:
            entry_port = PORT_IN
        elif next_node.out_end.neighbor_id == current.node_id:
            entry_port = PORT_OUT
        else:
            return None, (
                f"chain node {exit_end.neighbor_id:#x} has no link back to "
                f"{current.node_id:#x}"
            )
        current = next_node

    if len(member_nodes) != len(by_id) and not is_cycle:
        return None, (
            f"walk visited {len(member_nodes)} of {len(by_id)} nodes in the group"
        )

    # Stitch the oriented sequences; consecutive elements overlap by k-1.
    overlap = k - 1
    stitched = sequence_parts[0]
    for part in sequence_parts[1:]:
        if overlap and stitched[-overlap:] != part[:overlap]:
            return None, "consecutive chain elements do not overlap by k-1 characters"
        stitched += part[overlap:]

    if is_cycle:
        start = end = ContigEnd()
    else:
        start = _boundary(chain, _end_on(start_node, start_entry_port))
        end = _boundary(chain, exit_end)
    return (
        MergedContig(
            sequence=stitched,
            coverage=min(coverages),
            member_nodes=member_nodes,
            start=start,
            end=end,
            is_cycle=is_cycle,
        ),
        None,
    )


# ----------------------------------------------------------------------
# the operation
# ----------------------------------------------------------------------
def merge_contigs(
    graph: DeBruijnGraph,
    labeling: LabelingResult,
    config: AssemblyConfig,
    job_chain: StageExecutor,
    allocator: Optional[ContigIdAllocator] = None,
) -> MergingResult:
    """Run operation ③: group by label, stitch, and rewire the graph."""
    allocator = allocator or ContigIdAllocator()
    chain = labeling.chain

    def map_node(node_id: int) -> Iterable[Tuple[int, int]]:
        label = labeling.labels.get(node_id)
        if label is None:
            return
        yield label, node_id

    dropped: List[MergedContig] = []
    errors: List[str] = []

    def reduce_group(label: int, node_ids: List[int]) -> Iterable[MergedContig]:
        merged, error = _stitch_group(chain, node_ids, graph.k)
        if error is not None:
            errors.append(f"label {label:#x}: {error}")
            return
        # Merge-time tip check (Section IV-B, op ③): a dangling short
        # path is a tip and is not emitted as a contig.
        dangles = merged.start.is_dead_end() or merged.end.is_dead_end()
        if (
            not merged.is_cycle
            and dangles
            and len(merged.sequence) <= config.tip_length_threshold
        ):
            dropped.append(merged)
            return
        yield merged

    mapreduce = job_chain.run_mapreduce(
        name="contig-merging/group-and-stitch",
        records=list(chain),
        map_fn=map_node,
        reduce_fn=reduce_group,
    )
    stitched_groups = list(mapreduce.outputs)

    if errors:
        raise GraphFormatError(
            "contig merging found inconsistent label groups: " + "; ".join(errors[:5])
        )

    created_ids = _apply_to_graph(
        graph, stitched_groups, dropped, allocator, job_chain.partitioner
    )
    return MergingResult(
        contigs_created=created_ids,
        tips_dropped=len(dropped),
        cycles_merged=sum(1 for merged in stitched_groups if merged.is_cycle),
    )


def _apply_to_graph(
    graph: DeBruijnGraph,
    merged_contigs: List[MergedContig],
    dropped: List[MergedContig],
    allocator: ContigIdAllocator,
    partitioner: HashPartitioner,
) -> List[int]:
    """Write merged contigs into the graph and clean up merged/dropped nodes."""
    created: List[int] = []

    for merged in merged_contigs:
        worker = partitioner.worker_for(merged.member_nodes[0])
        contig_id = allocator.allocate(worker)
        created.append(contig_id)

        contig = ContigVertexData(
            contig_id=contig_id,
            sequence=merged.sequence,
            coverage=merged.coverage,
            in_end=merged.start,
            out_end=merged.end,
            member_kmers=list(merged.member_nodes),
        )

        _remove_members(graph, merged.member_nodes)
        graph.add_contig(contig)

        # Rewire the two bordering ambiguous k-mers (if any) so they see
        # the new contig as a labelled edge to the k-mer on its far end.
        link = ContigLink(contig_id=contig_id, length=contig.length, coverage=contig.coverage)
        _attach_boundary(graph, merged.start, merged.member_nodes[0], merged.end, link)
        _attach_boundary(graph, merged.end, merged.member_nodes[-1], merged.start, link)

    for tip in dropped:
        _remove_members(graph, tip.member_nodes)
        _detach_boundary(graph, tip.start, tip.member_nodes[0])
        _detach_boundary(graph, tip.end, tip.member_nodes[-1])

    return created


def _remove_members(graph: DeBruijnGraph, member_nodes: List[int]) -> None:
    """Delete merged chain nodes (k-mers or earlier contigs) from the graph."""
    for node_id in member_nodes:
        if node_id in graph.kmers:
            del graph.kmers[node_id]
        elif node_id in graph.contigs:
            del graph.contigs[node_id]


def _detach_boundary(
    graph: DeBruijnGraph, boundary: ContigEnd, terminal_node: int
) -> Optional[KmerVertexData]:
    """Drop the edges the bordering ambiguous k-mer has into ``terminal_node``.

    Returns that k-mer, or None when the end dangles.  The terminal node
    is a k-mer in the first round (direct adjacency) and may be an
    earlier contig in later rounds (via-contig adjacency).
    """
    ambiguous = graph.kmers.get(boundary.neighbor_id)
    if ambiguous is None:
        return None
    ambiguous.remove_adjacency(terminal_node)
    ambiguous.remove_contig_adjacency(terminal_node)
    return ambiguous


def _attach_boundary(
    graph: DeBruijnGraph,
    boundary: ContigEnd,
    terminal_node: int,
    far_boundary: ContigEnd,
    link: ContigLink,
) -> None:
    """Give a bordering ambiguous k-mer its via-contig adjacency entry."""
    ambiguous = _detach_boundary(graph, boundary, terminal_node)
    if ambiguous is None:
        return
    ambiguous.add_adjacency(
        neighbor_id=far_boundary.neighbor_id,
        my_port=boundary.neighbor_port,
        neighbor_port=far_boundary.neighbor_port,
        coverage=boundary.edge_coverage,
        via_contig=link,
    )
