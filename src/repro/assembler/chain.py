"""The chain-graph view used by contig labeling and contig merging.

Both labeling rounds of the paper's workflow operate on the same
abstract structure: a graph whose nodes are the *unambiguous* elements
(⟨1⟩- and ⟨1-1⟩-typed k-mers in the first round; now-unambiguous k-mers
plus existing contigs in the second round) and whose edges connect
elements that are adjacent in the de Bruijn graph.  Every node has at
most one neighbour on each of its two sides, so connected components of
this graph are simple paths (or cycles), each of which becomes one
contig.

Each side of an element is a :class:`~repro.dbg.contig_vertex.ContigEnd`
— the neighbour triplet a contig vertex keeps per end (Section IV-A).
A side continues the path exactly when its neighbour is itself a chain
element (``end.neighbor_id in chain``); otherwise it is a path boundary,
and the end is what the merged contig stores.

:func:`build_chain_graph` derives this view from a
:class:`~repro.dbg.graph.DeBruijnGraph`; the labeling operation runs a
Pregel job over it and the merging operation stitches each labelled
group back into a contig sequence.
"""

from __future__ import annotations

from typing import Container, Dict, List, NamedTuple

from ..dbg.contig_vertex import ContigEnd
from ..dbg.graph import DeBruijnGraph
from ..dbg.kmer_vertex import TYPE_DEAD_END, TYPE_UNAMBIGUOUS
from ..dbg.polarity import PORT_IN, PORT_OUT
from ..dna.encoding import NULL_ID, is_null
from ..dna.vectorized import decode_ids


class ChainElement(NamedTuple):
    """One node of the chain graph (an unambiguous k-mer or a contig)."""

    node_id: int
    sequence: str
    coverage: int
    in_end: ContigEnd
    out_end: ContigEnd


#: The end of a k-mer port with no adjacency entry.
_NO_ADJACENCY = ContigEnd()


def chain_neighbors(nodes: Container[int], element: ChainElement) -> List[int]:
    """The neighbours of ``element`` that are in ``nodes``, ``PORT_IN`` side first."""
    return [
        end.neighbor_id for end in (element.in_end, element.out_end) if end.neighbor_id in nodes
    ]


def build_chain_graph(
    graph: DeBruijnGraph, include_contigs: bool = False
) -> Dict[int, ChainElement]:
    """Derive the chain graph of unambiguous elements from ``graph``.

    ``include_contigs`` should be False for the first labeling round
    (all vertices are k-mers) and True after error correction, when the
    chain mixes contigs and formerly-ambiguous k-mers (arrow ⑥ of
    Figure 10).
    """
    chain: Dict[int, ChainElement] = {}
    # Column k-mers are read as entry tuples; none is materialised.
    unambiguous = list(graph.kmers.select((TYPE_DEAD_END, TYPE_UNAMBIGUOUS)))
    sequences = decode_ids([kmer_id for kmer_id, _ in unambiguous], graph.k)
    for (kmer_id, entries), sequence in zip(unambiguous, sequences):
        ends = [_NO_ADJACENCY, _NO_ADJACENCY]  # indexed by port
        for neighbor_id, my_port, neighbor_port, coverage, via_contig in entries:
            if via_contig is not None:
                # Second-round case: the adjacency is materialised by a
                # contig, which is the immediate neighbour; the entry's
                # ``neighbor_id`` is what lies beyond it.
                end = ContigEnd(via_contig.contig_id, 0, coverage)
            elif is_null(neighbor_id):
                end = ContigEnd(NULL_ID, 0, coverage)
            else:
                end = ContigEnd(neighbor_id, neighbor_port, coverage)
            ends[my_port] = end
        min_coverage = min((entry[3] for entry in entries), default=0)
        chain[kmer_id] = ChainElement(
            kmer_id, sequence, min_coverage, ends[PORT_IN], ends[PORT_OUT]
        )
    if include_contigs:
        for contig in graph.contigs.values():
            chain[contig.contig_id] = ChainElement(
                contig.contig_id, contig.sequence, contig.coverage, contig.in_end, contig.out_end
            )
    return chain
