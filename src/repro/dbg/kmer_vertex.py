"""The k-mer vertex: the work-horse record of the de Bruijn graph.

Section IV-A of the paper distinguishes three vertex types:

* ``⟨1⟩`` — one neighbour only (a dead-end, tip candidate),
* ``⟨1-1⟩`` — exactly two neighbours, one on each side of the k-mer
  after polarity labels are normalised with Property 1 (unambiguous),
* ``⟨m-n⟩`` — anything else with two or more neighbours (ambiguous).

Adjacency entries are stored in the *port* view (see
:mod:`repro.dbg.polarity`): each entry records which side of this
canonical k-mer the edge attaches to (``my_port``), which side of the
neighbour it attaches to (``neighbor_port``), the edge coverage, and —
after contig merging — an optional :class:`ContigLink` describing the
contig that now materialises the connection ("treat it as a label on
the edge connecting the two ambiguous k-mers", Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dna.encoding import decode_kmer, is_null
from .bitmap import AdjacencyBitmap, expand_bitmap
from .polarity import (
    PORT_IN,
    PORT_OUT,
    source_port,
    target_port,
)

#: Vertex type constants (paper notation).
TYPE_DEAD_END = "1"
TYPE_UNAMBIGUOUS = "1-1"
TYPE_AMBIGUOUS = "m-n"


@dataclass(frozen=True)
class ContigLink:
    """Information a k-mer vertex keeps about an adjacent contig."""

    contig_id: int
    length: int
    coverage: int


@dataclass(frozen=True)
class KmerAdjacency:
    """One bidirected adjacency entry of a k-mer vertex."""

    neighbor_id: int
    my_port: int
    neighbor_port: int
    coverage: int = 1
    via_contig: Optional[ContigLink] = None

    def key(self) -> Tuple[int, int, int, Optional[int]]:
        """Deduplication key for edge observations.

        The two strand observations of one (k+1)-mer edge collide here
        and have their coverage summed.  Adjacencies that run through a
        contig keep the contig identity in the key so that parallel
        contigs between the same pair of ambiguous vertices (bubbles)
        remain distinct entries.
        """
        contig_id = self.via_contig.contig_id if self.via_contig is not None else None
        return (self.neighbor_id, self.my_port, self.neighbor_port, contig_id)

    def is_dead_end(self) -> bool:
        return is_null(self.neighbor_id)


@dataclass
class KmerVertexData:
    """Mutable state of one canonical k-mer vertex."""

    kmer_id: int
    k: int
    adjacencies: List[KmerAdjacency] = field(default_factory=list)

    # -- construction ------------------------------------------------------
    def add_adjacency(
        self,
        neighbor_id: int,
        my_port: int,
        neighbor_port: int,
        coverage: int = 1,
        via_contig: Optional[ContigLink] = None,
    ) -> None:
        """Add an edge observation, merging duplicates by summing coverage."""
        key = (
            neighbor_id,
            my_port,
            neighbor_port,
            via_contig.contig_id if via_contig is not None else None,
        )
        for index, existing in enumerate(self.adjacencies):
            if existing.key() == key:
                merged = KmerAdjacency(
                    neighbor_id=neighbor_id,
                    my_port=my_port,
                    neighbor_port=neighbor_port,
                    coverage=existing.coverage + coverage,
                    via_contig=via_contig if via_contig is not None else existing.via_contig,
                )
                self.adjacencies[index] = merged
                return
        self.adjacencies.append(
            KmerAdjacency(
                neighbor_id=neighbor_id,
                my_port=my_port,
                neighbor_port=neighbor_port,
                coverage=coverage,
                via_contig=via_contig,
            )
        )

    def remove_adjacency(self, neighbor_id: int, my_port: Optional[int] = None) -> int:
        """Remove adjacency entries to ``neighbor_id`` (optionally on one port).

        Returns the number of entries removed.  Used by tip removal and
        bubble filtering when an edge (or the contig it carries) is
        deleted.
        """
        kept: List[KmerAdjacency] = []
        removed = 0
        for adjacency in self.adjacencies:
            matches = adjacency.neighbor_id == neighbor_id and (
                my_port is None or adjacency.my_port == my_port
            )
            if matches:
                removed += 1
            else:
                kept.append(adjacency)
        self.adjacencies = kept
        return removed

    def remove_contig_adjacency(self, contig_id: int) -> int:
        """Remove the adjacency entries that go through ``contig_id``."""
        kept = []
        removed = 0
        for adjacency in self.adjacencies:
            if adjacency.via_contig is not None and adjacency.via_contig.contig_id == contig_id:
                removed += 1
            else:
                kept.append(adjacency)
        self.adjacencies = kept
        return removed

    @classmethod
    def from_bitmap(cls, kmer_id: int, k: int, bitmap: AdjacencyBitmap) -> "KmerVertexData":
        """Expand a construction-time 32-bit bitmap into the port view."""
        vertex = cls(kmer_id=kmer_id, k=k)
        for neighbor_id, polarity, direction, _base_bits, coverage in expand_bitmap(
            kmer_id, k, bitmap
        ):
            if direction == "out":
                my_port = source_port(polarity[0])
                neighbor_port = target_port(polarity[1])
            else:
                my_port = target_port(polarity[1])
                neighbor_port = source_port(polarity[0])
            vertex.add_adjacency(neighbor_id, my_port, neighbor_port, coverage)
        return vertex

    # -- queries -------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Number of distinct bidirected adjacency entries."""
        return len(self.adjacencies)

    def entries_on_port(self, port: int) -> List[KmerAdjacency]:
        return [adjacency for adjacency in self.adjacencies if adjacency.my_port == port]

    def vertex_type(self) -> str:
        """Classify as ⟨1⟩, ⟨1-1⟩ or ⟨m-n⟩ (Section IV-A, "Vertex Types")."""
        degree = self.degree
        if degree <= 1:
            return TYPE_DEAD_END
        if degree == 2:
            ports = {adjacency.my_port for adjacency in self.adjacencies}
            if ports == {PORT_OUT, PORT_IN}:
                return TYPE_UNAMBIGUOUS
        return TYPE_AMBIGUOUS

    def is_ambiguous(self) -> bool:
        return self.vertex_type() == TYPE_AMBIGUOUS

    def is_unambiguous(self) -> bool:
        return self.vertex_type() in (TYPE_DEAD_END, TYPE_UNAMBIGUOUS)

    def neighbor_ids(self, include_null: bool = False) -> List[int]:
        """IDs of all neighbours (k-mers on the other end of each adjacency)."""
        ids = []
        for adjacency in self.adjacencies:
            if include_null or not adjacency.is_dead_end():
                ids.append(adjacency.neighbor_id)
        return ids

    def adjacency_to(self, neighbor_id: int) -> Optional[KmerAdjacency]:
        """First adjacency entry towards ``neighbor_id`` (None if absent)."""
        for adjacency in self.adjacencies:
            if adjacency.neighbor_id == neighbor_id:
                return adjacency
        return None

    def other_adjacency(self, excluding_neighbor: int) -> Optional[KmerAdjacency]:
        """The adjacency entry *not* pointing at ``excluding_neighbor``.

        Only meaningful for ⟨1-1⟩ vertices; used when relaying a walk
        through an unambiguous vertex.
        """
        for adjacency in self.adjacencies:
            if adjacency.neighbor_id != excluding_neighbor:
                return adjacency
        return None

    def min_coverage(self) -> int:
        """Smallest edge coverage among the adjacency entries (0 if none)."""
        if not self.adjacencies:
            return 0
        return min(adjacency.coverage for adjacency in self.adjacencies)

    def sequence(self) -> str:
        """The canonical k-mer as a string (decoded from the packed ID)."""
        return decode_kmer(self.kmer_id, self.k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KmerVertexData {self.sequence()} type={self.vertex_type()} "
            f"degree={self.degree}>"
        )
