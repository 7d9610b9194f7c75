"""De Bruijn graph data structures (Section IV-A of the paper).

Vertex-ID formats (Figure 7), compact adjacency bitmaps (Figure 8),
edge polarity and Property 1, k-mer and contig vertex records, and the
graph container with validation.
"""

from .bitmap import (
    DIRECTION_IN,
    DIRECTION_OUT,
    NULL_ITEM,
    POLARITY_CLASSES,
    AdjacencyBitmap,
    bit_position,
    decode_item,
    encode_item,
    expand_bitmap,
    is_null_item,
    neighbor_kmer_id,
    split_bit_position,
)
from .contig_vertex import END_IN, END_OUT, ContigEnd, ContigVertexData
from .graph import DeBruijnGraph, GraphStatistics
from .ids import ContigIdAllocator, describe_id
from .kmer_table import KmerTable
from .kmer_vertex import (
    TYPE_AMBIGUOUS,
    TYPE_DEAD_END,
    TYPE_UNAMBIGUOUS,
    ContigLink,
    KmerAdjacency,
    KmerVertexData,
)
from .polarity import (
    LABEL_H,
    LABEL_L,
    PORT_IN,
    PORT_OUT,
    PolarizedEdge,
    complement_label,
    label_for_source_port,
    label_for_target_port,
    other_port,
    reverse_polarity,
    source_port,
    target_port,
)

__all__ = [
    "DIRECTION_IN",
    "DIRECTION_OUT",
    "NULL_ITEM",
    "POLARITY_CLASSES",
    "AdjacencyBitmap",
    "bit_position",
    "decode_item",
    "encode_item",
    "expand_bitmap",
    "is_null_item",
    "neighbor_kmer_id",
    "split_bit_position",
    "END_IN",
    "END_OUT",
    "ContigEnd",
    "ContigVertexData",
    "DeBruijnGraph",
    "GraphStatistics",
    "ContigIdAllocator",
    "describe_id",
    "TYPE_AMBIGUOUS",
    "TYPE_DEAD_END",
    "TYPE_UNAMBIGUOUS",
    "ContigLink",
    "KmerAdjacency",
    "KmerTable",
    "KmerVertexData",
    "LABEL_H",
    "LABEL_L",
    "PORT_IN",
    "PORT_OUT",
    "PolarizedEdge",
    "complement_label",
    "label_for_source_port",
    "label_for_target_port",
    "other_port",
    "reverse_polarity",
    "source_port",
    "target_port",
]
