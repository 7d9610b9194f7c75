"""The de Bruijn graph container.

:class:`DeBruijnGraph` holds the canonical k-mer vertices and (after
contig merging) the contig vertices, and provides the validation and
statistics helpers that tests and benchmarks rely on.  The assembly
operations in :mod:`repro.assembler` read and write this structure;
inside a Pregel job the same information is carried in vertex values,
and the graph object is what the in-memory ``convert`` steps pass from
one job to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..errors import GraphFormatError
from .contig_vertex import ContigVertexData
from .kmer_vertex import (
    TYPE_AMBIGUOUS,
    TYPE_DEAD_END,
    TYPE_UNAMBIGUOUS,
    KmerVertexData,
)


@dataclass
class GraphStatistics:
    """Headline numbers about a de Bruijn graph."""

    k: int
    num_kmer_vertices: int
    num_contig_vertices: int
    num_edges: int
    vertices_by_type: Dict[str, int]
    total_contig_length: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "kmer_vertices": self.num_kmer_vertices,
            "contig_vertices": self.num_contig_vertices,
            "edges": self.num_edges,
            "type_1": self.vertices_by_type.get(TYPE_DEAD_END, 0),
            "type_1_1": self.vertices_by_type.get(TYPE_UNAMBIGUOUS, 0),
            "type_m_n": self.vertices_by_type.get(TYPE_AMBIGUOUS, 0),
            "total_contig_length": self.total_contig_length,
        }


class DeBruijnGraph:
    """Canonical-k-mer de Bruijn graph plus merged contigs."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphFormatError(f"k must be positive, got {k}")
        self.k = k
        self.kmers: Dict[int, KmerVertexData] = {}
        self.contigs: Dict[int, ContigVertexData] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def get_or_create_kmer(self, kmer_id: int) -> KmerVertexData:
        vertex = self.kmers.get(kmer_id)
        if vertex is None:
            vertex = KmerVertexData(kmer_id=kmer_id, k=self.k)
            self.kmers[kmer_id] = vertex
        return vertex

    def add_edge(
        self,
        source_id: int,
        source_port: int,
        target_id: int,
        target_port: int,
        coverage: int = 1,
    ) -> None:
        """Add a bidirected edge between two k-mer vertices (both directions)."""
        source = self.get_or_create_kmer(source_id)
        source.add_adjacency(target_id, source_port, target_port, coverage)
        if source_id == target_id and source_port == target_port:
            # A true self-loop on one port needs only a single entry.
            return
        target = self.get_or_create_kmer(target_id)
        target.add_adjacency(source_id, target_port, source_port, coverage)

    def add_contig(self, contig: ContigVertexData) -> None:
        if contig.contig_id in self.contigs:
            raise GraphFormatError(f"duplicate contig ID {contig.contig_id:#x}")
        self.contigs[contig.contig_id] = contig

    def remove_kmer(self, kmer_id: int) -> None:
        """Delete a k-mer vertex and every adjacency entry pointing at it."""
        self.kmers.pop(kmer_id, None)
        for vertex in self.kmers.values():
            vertex.remove_adjacency(kmer_id)

    def remove_contig(self, contig_id: int) -> None:
        """Delete a contig vertex and the k-mer adjacency entries through it."""
        contig = self.contigs.pop(contig_id, None)
        if contig is None:
            return
        for end in (contig.in_end, contig.out_end):
            if not end.is_dead_end():
                neighbor = self.kmers.get(end.neighbor_id)
                if neighbor is not None:
                    neighbor.remove_contig_adjacency(contig_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, kmer_id: int) -> bool:
        return kmer_id in self.kmers

    def kmer_count(self) -> int:
        return len(self.kmers)

    def contig_count(self) -> int:
        return len(self.contigs)

    def edge_count(self) -> int:
        """Number of distinct bidirected k-mer/k-mer edges."""
        # Each edge appears once in each endpoint's adjacency list
        # (except one-entry self-loops), so halve the directed total.
        directed = 0
        self_loops = 0
        for vertex in self.kmers.values():
            for adjacency in vertex.adjacencies:
                if adjacency.is_dead_end():
                    continue
                if adjacency.neighbor_id == vertex.kmer_id:
                    self_loops += 1
                else:
                    directed += 1
        return directed // 2 + self_loops

    def vertices_of_type(self, vertex_type: str) -> List[int]:
        return [
            kmer_id
            for kmer_id, vertex in self.kmers.items()
            if vertex.vertex_type() == vertex_type
        ]

    def ambiguous_vertices(self) -> List[int]:
        return self.vertices_of_type(TYPE_AMBIGUOUS)

    def unambiguous_vertices(self) -> List[int]:
        return [
            kmer_id
            for kmer_id, vertex in self.kmers.items()
            if vertex.vertex_type() != TYPE_AMBIGUOUS
        ]

    def statistics(self) -> GraphStatistics:
        by_type: Dict[str, int] = {TYPE_DEAD_END: 0, TYPE_UNAMBIGUOUS: 0, TYPE_AMBIGUOUS: 0}
        for vertex in self.kmers.values():
            by_type[vertex.vertex_type()] += 1
        return GraphStatistics(
            k=self.k,
            num_kmer_vertices=len(self.kmers),
            num_contig_vertices=len(self.contigs),
            num_edges=self.edge_count(),
            vertices_by_type=by_type,
            total_contig_length=sum(contig.length for contig in self.contigs.values()),
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphFormatError`.

        Invariants checked:

        * every k-mer adjacency that names another k-mer is mirrored by
          a matching entry on that k-mer (same ports, same coverage);
        * contig ends that name a k-mer point at an existing vertex;
        * contig sequences are at least k long (a contig merges one or
          more k-mers, so it can never be shorter than a single k-mer).
        """
        for kmer_id, vertex in self.kmers.items():
            for adjacency in vertex.adjacencies:
                if adjacency.is_dead_end() or adjacency.via_contig is not None:
                    continue
                neighbor = self.kmers.get(adjacency.neighbor_id)
                if neighbor is None:
                    raise GraphFormatError(
                        f"vertex {kmer_id:#x} references missing neighbour "
                        f"{adjacency.neighbor_id:#x}"
                    )
                mirrored = [
                    other
                    for other in neighbor.adjacencies
                    if other.neighbor_id == kmer_id
                    and other.my_port == adjacency.neighbor_port
                    and other.neighbor_port == adjacency.my_port
                ]
                if not mirrored:
                    raise GraphFormatError(
                        f"edge {kmer_id:#x}->{adjacency.neighbor_id:#x} is not mirrored"
                    )
                if mirrored[0].coverage != adjacency.coverage:
                    raise GraphFormatError(
                        f"edge {kmer_id:#x}<->{adjacency.neighbor_id:#x} has asymmetric "
                        f"coverage {adjacency.coverage} vs {mirrored[0].coverage}"
                    )

        for contig_id, contig in self.contigs.items():
            if contig.length < self.k:
                raise GraphFormatError(
                    f"contig {contig_id:#x} is shorter ({contig.length}) than k={self.k}"
                )
            for end in (contig.in_end, contig.out_end):
                if not end.is_dead_end() and end.neighbor_id not in self.kmers:
                    raise GraphFormatError(
                        f"contig {contig_id:#x} references missing k-mer "
                        f"{end.neighbor_id:#x}"
                    )

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[KmerVertexData]:
        return iter(self.kmers.values())

    def contig_sequences(self) -> List[str]:
        """All contig sequences (unordered)."""
        return [contig.sequence for contig in self.contigs.values()]
