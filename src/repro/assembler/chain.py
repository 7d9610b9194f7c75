"""The chain-graph view used by contig labeling and contig merging.

Both labeling rounds of the paper's workflow operate on the same
abstract structure: a graph whose nodes are the *unambiguous* elements
(⟨1⟩- and ⟨1-1⟩-typed k-mers in the first round; now-unambiguous k-mers
plus existing contigs in the second round) and whose edges connect
elements that are adjacent in the de Bruijn graph.  Every node has at
most one neighbour on each of its two sides, so connected components of
this graph are simple paths (or cycles), each of which becomes one
contig.

:func:`build_chain_graph` derives this view from a
:class:`~repro.dbg.graph.DeBruijnGraph`; the labeling operation runs a
Pregel job over it and the merging operation stitches each labelled
group back into a contig sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dbg.contig_vertex import ContigVertexData, END_IN, END_OUT
from ..dbg.graph import DeBruijnGraph
from ..dbg.kmer_vertex import KmerVertexData, TYPE_AMBIGUOUS
from ..dbg.polarity import PORT_IN, PORT_OUT, other_port
from ..errors import GraphFormatError

KIND_KMER = "kmer"
KIND_CONTIG = "contig"


@dataclass(frozen=True)
class ChainLink:
    """What lies on one side of a chain node.

    ``neighbor_id`` is another chain node when the path continues, or
    ``None`` when this side is a path boundary.  Boundaries remember
    the ambiguous k-mer (or ``None`` for a dead end) they attach to —
    merging needs it to wire the finished contig's ends — plus the port
    of that ambiguous k-mer and the coverage of the connecting edge.
    """

    neighbor_id: Optional[int]
    neighbor_port: Optional[int] = None
    edge_coverage: int = 0
    boundary_kmer: Optional[int] = None
    boundary_port: Optional[int] = None
    via_contig: Optional[int] = None

    @property
    def is_boundary(self) -> bool:
        return self.neighbor_id is None


@dataclass
class ChainNode:
    """One node of the chain graph (an unambiguous k-mer or a contig)."""

    node_id: int
    kind: str
    sequence: str
    coverage: int
    links: Dict[int, Optional[ChainLink]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.links.setdefault(PORT_IN, None)
        self.links.setdefault(PORT_OUT, None)

    def link(self, port: int) -> Optional[ChainLink]:
        return self.links.get(port)

    def set_link(self, port: int, link: ChainLink) -> None:
        if port not in (PORT_IN, PORT_OUT):
            raise GraphFormatError(f"invalid chain port {port}")
        self.links[port] = link

    def neighbor_ids(self) -> List[int]:
        """Chain-internal neighbours (excludes boundaries)."""
        return [
            link.neighbor_id
            for link in self.links.values()
            if link is not None and link.neighbor_id is not None
        ]

    def port_towards(self, neighbor_id: int) -> Optional[int]:
        """Which of our ports points at ``neighbor_id`` (None if neither)."""
        for port, link in self.links.items():
            if link is not None and link.neighbor_id == neighbor_id:
                return port
        return None

    def boundary_ports(self) -> List[int]:
        """Ports whose link is a boundary (or missing entirely)."""
        ports = []
        for port in (PORT_IN, PORT_OUT):
            link = self.links.get(port)
            if link is None or link.is_boundary:
                ports.append(port)
        return ports


class ChainGraph:
    """Container for chain nodes with a few convenience queries."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.nodes: Dict[int, ChainNode] = {}

    def add(self, node: ChainNode) -> None:
        self.nodes[node.node_id] = node

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def get(self, node_id: int) -> Optional[ChainNode]:
        return self.nodes.get(node_id)

    def pair_view(self) -> Dict[int, Tuple[Optional[int], Optional[int]]]:
        """``node_id -> (neighbor-or-None on PORT_IN, on PORT_OUT)``.

        This is the "ID pair" the labeling job initialises from
        (Section IV-B, op ②); ``None`` marks a contig-end side.
        """
        pairs: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        for node_id, node in self.nodes.items():
            in_link = node.link(PORT_IN)
            out_link = node.link(PORT_OUT)
            pairs[node_id] = (
                in_link.neighbor_id if in_link is not None else None,
                out_link.neighbor_id if out_link is not None else None,
            )
        return pairs


def _kmer_chain_node(graph: DeBruijnGraph, vertex: KmerVertexData) -> ChainNode:
    """Chain node for an unambiguous k-mer vertex."""
    node = ChainNode(
        node_id=vertex.kmer_id,
        kind=KIND_KMER,
        sequence=vertex.sequence(),
        coverage=vertex.min_coverage(),
    )
    for adjacency in vertex.adjacencies:
        neighbor_id = adjacency.neighbor_id
        link: ChainLink
        if adjacency.via_contig is not None:
            # Second-round case: the adjacency is materialised by a
            # contig; the chain neighbour is that contig vertex.  This
            # takes priority over the dead-end check because the
            # entry's ``neighbor_id`` describes what lies *beyond* the
            # contig (possibly NULL), not the immediate neighbour.
            link = ChainLink(
                neighbor_id=adjacency.via_contig.contig_id,
                neighbor_port=None,
                edge_coverage=adjacency.coverage,
                via_contig=adjacency.via_contig.contig_id,
            )
        elif adjacency.is_dead_end():
            link = ChainLink(neighbor_id=None, edge_coverage=adjacency.coverage)
        else:
            neighbor = graph.kmers.get(neighbor_id)
            if neighbor is not None and neighbor.vertex_type() == TYPE_AMBIGUOUS:
                # Boundary: the path stops against an ambiguous k-mer.
                link = ChainLink(
                    neighbor_id=None,
                    edge_coverage=adjacency.coverage,
                    boundary_kmer=neighbor_id,
                    boundary_port=adjacency.neighbor_port,
                )
            else:
                link = ChainLink(
                    neighbor_id=neighbor_id,
                    neighbor_port=adjacency.neighbor_port,
                    edge_coverage=adjacency.coverage,
                )
        node.set_link(adjacency.my_port, link)
    return node


def _contig_chain_node(graph: DeBruijnGraph, contig: ContigVertexData) -> ChainNode:
    """Chain node for an existing contig vertex (second labeling round)."""
    node = ChainNode(
        node_id=contig.contig_id,
        kind=KIND_CONTIG,
        sequence=contig.sequence,
        coverage=contig.coverage,
    )
    for port, end in ((PORT_IN, contig.in_end), (PORT_OUT, contig.out_end)):
        if end.is_dead_end():
            node.set_link(port, ChainLink(neighbor_id=None, edge_coverage=end.edge_coverage))
            continue
        neighbor = graph.kmers.get(end.neighbor_id)
        if neighbor is None or neighbor.vertex_type() == TYPE_AMBIGUOUS:
            node.set_link(
                port,
                ChainLink(
                    neighbor_id=None,
                    edge_coverage=end.edge_coverage,
                    boundary_kmer=end.neighbor_id,
                    boundary_port=end.neighbor_port,
                ),
            )
        else:
            node.set_link(
                port,
                ChainLink(
                    neighbor_id=end.neighbor_id,
                    neighbor_port=end.neighbor_port,
                    edge_coverage=end.edge_coverage,
                ),
            )
    return node


def build_chain_graph(graph: DeBruijnGraph, include_contigs: bool = False) -> ChainGraph:
    """Derive the chain graph of unambiguous elements from ``graph``.

    ``include_contigs`` should be False for the first labeling round
    (all vertices are k-mers) and True after error correction, when the
    chain mixes contigs and formerly-ambiguous k-mers (arrow ⑥ of
    Figure 10).
    """
    chain = ChainGraph(graph.k)
    for vertex in graph.kmers.values():
        if vertex.vertex_type() == TYPE_AMBIGUOUS:
            continue
        chain.add(_kmer_chain_node(graph, vertex))
    if include_contigs:
        for contig in graph.contigs.values():
            chain.add(_contig_chain_node(graph, contig))
    _fix_dangling_references(chain)
    return chain


def _fix_dangling_references(chain: ChainGraph) -> None:
    """Turn links that point outside the chain graph into boundaries.

    A k-mer link can name a neighbour that is not itself part of the
    chain (e.g. it was deleted by error correction); labeling must treat
    such a side as a path boundary rather than chase a missing node.
    """
    for node in chain.nodes.values():
        for port in (PORT_IN, PORT_OUT):
            link = node.link(port)
            if link is None or link.is_boundary:
                continue
            if link.neighbor_id not in chain.nodes:
                node.set_link(
                    port,
                    ChainLink(
                        neighbor_id=None,
                        edge_coverage=link.edge_coverage,
                        boundary_kmer=link.neighbor_id,
                        boundary_port=link.neighbor_port,
                    ),
                )
