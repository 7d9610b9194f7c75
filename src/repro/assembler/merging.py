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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..dbg.contig_vertex import ContigEnd, ContigVertexData
from ..dbg.graph import DeBruijnGraph
from ..dbg.ids import ContigIdAllocator
from ..dbg.kmer_vertex import ContigLink
from ..dbg.polarity import PORT_IN, PORT_OUT, other_port
from ..dna.encoding import NULL_ID
from ..dna.sequence import reverse_complement
from ..errors import GraphFormatError
from ..workflow.executor import StageExecutor
from ..pregel.partitioner import HashPartitioner
from .chain import ChainGraph, ChainLink, ChainNode, KIND_CONTIG
from .config import AssemblyConfig
from .labeling import LabelingResult


@dataclass
class MergeBoundary:
    """How one end of a freshly merged contig attaches to the graph."""

    ambiguous_kmer: Optional[int]  # None for a dead end
    ambiguous_port: Optional[int]
    edge_coverage: int
    terminal_node: int  # the chain node at this end of the path


@dataclass
class MergedContig:
    """One stitched contig before it is written back into the graph."""

    sequence: str
    coverage: int
    member_nodes: List[int]
    start: MergeBoundary
    end: MergeBoundary
    is_cycle: bool = False


@dataclass
class DroppedTip:
    """A dangling path that the merge-time tip check discarded."""

    member_nodes: List[int]
    length: int
    boundaries: List[MergeBoundary] = field(default_factory=list)


@dataclass
class MergingResult:
    """Output of operation ③."""

    contigs_created: List[int]
    tips_dropped: int
    cycles_merged: int


# ----------------------------------------------------------------------
# stitching one group
# ----------------------------------------------------------------------
def _oriented_sequence(node: ChainNode, entry_port: int) -> str:
    """Node sequence read in the direction of the walk.

    Entering through the node's 5' side (``PORT_IN``) means the walk
    reads the stored sequence forward; entering through the 3' side
    means the walk reads its reverse complement.
    """
    if entry_port == PORT_IN:
        return node.sequence
    return reverse_complement(node.sequence)


def _boundary_from_link(link: Optional[ChainLink], terminal_node: int) -> MergeBoundary:
    if link is None:
        return MergeBoundary(
            ambiguous_kmer=None, ambiguous_port=None, edge_coverage=0, terminal_node=terminal_node
        )
    return MergeBoundary(
        ambiguous_kmer=link.boundary_kmer,
        ambiguous_port=link.boundary_port,
        edge_coverage=link.edge_coverage,
        terminal_node=terminal_node,
    )


def _stitch_group(
    group_nodes: List[ChainNode],
    k: int,
) -> Tuple[Optional[MergedContig], Optional[str]]:
    """Order and stitch one label group.

    Returns ``(merged contig, error)``; ``error`` is a description when
    the group is structurally inconsistent (which indicates a labeling
    bug and is surfaced loudly by the caller).
    """
    by_id = {node.node_id: node for node in group_nodes}

    # Pick the starting vertex: a path end if one exists, otherwise the
    # group is a cycle and any vertex will do (paper: "we start
    # stitching from an arbitrary vertex").
    start_node = None
    start_entry_port = None
    for node in sorted(group_nodes, key=lambda item: item.node_id):
        for port in (PORT_IN, PORT_OUT):
            link = node.link(port)
            is_external = (
                link is None
                or link.is_boundary
                or link.neighbor_id not in by_id
            )
            if is_external:
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
        start_node = min(group_nodes, key=lambda item: item.node_id)
        start_entry_port = PORT_IN

    # Walk the path, collecting oriented sequences.
    sequence_parts: List[str] = []
    member_nodes: List[int] = []
    coverages: List[int] = []
    visited = set()

    current = start_node
    entry_port = start_entry_port
    previous_node: Optional[ChainNode] = None
    final_exit_link: Optional[ChainLink] = None

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
            break
        visited.add(current.node_id)
        member_nodes.append(current.node_id)
        coverages.append(current.coverage)
        sequence_parts.append(_oriented_sequence(current, entry_port))

        exit_port = other_port(entry_port)
        exit_link = current.link(exit_port)
        leaves_group = (
            exit_link is None
            or exit_link.is_boundary
            or exit_link.neighbor_id not in by_id
        )
        if leaves_group:
            final_exit_link = exit_link
            break

        coverages.append(exit_link.edge_coverage)
        next_node = by_id[exit_link.neighbor_id]
        next_entry = next_node.port_towards(current.node_id)
        if next_entry is None:
            return None, (
                f"chain node {exit_link.neighbor_id:#x} has no link back to "
                f"{current.node_id:#x}"
            )
        previous_node = current
        current = next_node
        entry_port = next_entry

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

    coverage = min(coverages) if coverages else 0
    start_link = start_node.link(start_entry_port)
    start_boundary = _boundary_from_link(
        None if is_cycle else start_link, start_node.node_id
    )
    end_boundary = _boundary_from_link(
        None if is_cycle else final_exit_link, member_nodes[-1]
    )

    return (
        MergedContig(
            sequence=stitched,
            coverage=coverage,
            member_nodes=member_nodes,
            start=start_boundary,
            end=end_boundary,
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

    stitched_groups: List[MergedContig] = []
    dropped: List[DroppedTip] = []
    errors: List[str] = []

    def reduce_group(label: int, node_ids: List[int]) -> Iterable[MergedContig]:
        nodes = [chain.nodes[node_id] for node_id in node_ids if node_id in chain.nodes]
        if not nodes:
            return
        merged, error = _stitch_group(nodes, graph.k)
        if error is not None:
            errors.append(f"label {label:#x}: {error}")
            return
        # Merge-time tip check (Section IV-B, op ③): a dangling short
        # path is a tip and is not emitted as a contig.
        dangles = merged.start.ambiguous_kmer is None or merged.end.ambiguous_kmer is None
        if (
            not merged.is_cycle
            and dangles
            and len(merged.sequence) <= config.tip_length_threshold
        ):
            dropped.append(
                DroppedTip(
                    member_nodes=merged.member_nodes,
                    length=len(merged.sequence),
                    boundaries=[merged.start, merged.end],
                )
            )
            return
        yield merged

    mapreduce = job_chain.run_mapreduce(
        name="contig-merging/group-and-stitch",
        records=list(chain.nodes),
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
    dropped: List[DroppedTip],
    allocator: ContigIdAllocator,
    partitioner: HashPartitioner,
) -> List[int]:
    """Write merged contigs into the graph and clean up merged/dropped nodes."""
    created: List[int] = []

    for merged in merged_contigs:
        worker = partitioner.worker_for(merged.member_nodes[0])
        contig_id = allocator.allocate(worker)
        created.append(contig_id)

        in_end = _contig_end(merged.start)
        out_end = _contig_end(merged.end)
        contig = ContigVertexData(
            contig_id=contig_id,
            sequence=merged.sequence,
            coverage=merged.coverage,
            in_end=in_end,
            out_end=out_end,
            member_kmers=list(merged.member_nodes),
        )

        _remove_members(graph, merged.member_nodes)
        graph.add_contig(contig)

        # Rewire the two bordering ambiguous k-mers (if any) so they see
        # the new contig as a labelled edge to the k-mer on its far end.
        _attach_boundary(
            graph,
            boundary=merged.start,
            far_boundary=merged.end,
            contig=contig,
        )
        _attach_boundary(
            graph,
            boundary=merged.end,
            far_boundary=merged.start,
            contig=contig,
        )

    for tip in dropped:
        _remove_members(graph, tip.member_nodes)
        for boundary in tip.boundaries:
            _detach_boundary(graph, boundary)

    return created


def _contig_end(boundary: MergeBoundary) -> ContigEnd:
    if boundary.ambiguous_kmer is None:
        return ContigEnd(neighbor_id=NULL_ID, neighbor_port=0, edge_coverage=boundary.edge_coverage)
    return ContigEnd(
        neighbor_id=boundary.ambiguous_kmer,
        neighbor_port=boundary.ambiguous_port if boundary.ambiguous_port is not None else 0,
        edge_coverage=boundary.edge_coverage,
    )


def _remove_members(graph: DeBruijnGraph, member_nodes: List[int]) -> None:
    """Delete merged chain nodes (k-mers or earlier contigs) from the graph."""
    for node_id in member_nodes:
        if node_id in graph.kmers:
            del graph.kmers[node_id]
        elif node_id in graph.contigs:
            del graph.contigs[node_id]


def _attach_boundary(
    graph: DeBruijnGraph,
    boundary: MergeBoundary,
    far_boundary: MergeBoundary,
    contig: ContigVertexData,
) -> None:
    """Give a bordering ambiguous k-mer its via-contig adjacency entry."""
    if boundary.ambiguous_kmer is None:
        return
    ambiguous = graph.kmers.get(boundary.ambiguous_kmer)
    if ambiguous is None:
        return
    # Drop the old adjacency entry that pointed into the merged path.
    # The terminal node is a k-mer in the first round (direct adjacency)
    # and may be an earlier contig in later rounds (via-contig adjacency).
    ambiguous.remove_adjacency(boundary.terminal_node)
    ambiguous.remove_contig_adjacency(boundary.terminal_node)
    far_kmer = far_boundary.ambiguous_kmer if far_boundary.ambiguous_kmer is not None else NULL_ID
    far_port = far_boundary.ambiguous_port if far_boundary.ambiguous_port is not None else 0
    my_port = boundary.ambiguous_port if boundary.ambiguous_port is not None else 0
    ambiguous.add_adjacency(
        neighbor_id=far_kmer,
        my_port=my_port,
        neighbor_port=far_port,
        coverage=boundary.edge_coverage,
        via_contig=ContigLink(
            contig_id=contig.contig_id,
            length=contig.length,
            coverage=contig.coverage,
        ),
    )


def _detach_boundary(graph: DeBruijnGraph, boundary: MergeBoundary) -> None:
    """Remove the edge a dropped tip used to have into an ambiguous k-mer."""
    if boundary.ambiguous_kmer is None:
        return
    ambiguous = graph.kmers.get(boundary.ambiguous_kmer)
    if ambiguous is None:
        return
    ambiguous.remove_adjacency(boundary.terminal_node)
    ambiguous.remove_contig_adjacency(boundary.terminal_node)
