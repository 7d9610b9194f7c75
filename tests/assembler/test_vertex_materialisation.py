"""Array expansion of bitmap slots against the scalar oracle.

The vectorized construction path computes neighbour IDs and ports for
every ``(k-mer, bitmap slot)`` at once and keeps them as the columns of
a :class:`~repro.dbg.kmer_table.KmerTable`; ``KmerVertexData.from_bitmap``
(``expand_bitmap`` → ``neighbor_kmer_id`` → ``add_adjacency``) is the
scalar path's expansion and the reference for every k-mer the table
materialises, and for the vertex type its column records.  Adjacency
lists are compared *in order*: downstream jobs iterate them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbg.bitmap import AdjacencyBitmap
from repro.dbg.kmer_table import KmerTable
from repro.dbg.kmer_vertex import TYPE_AMBIGUOUS, TYPE_DEAD_END, TYPE_UNAMBIGUOUS, KmerVertexData
from repro.dna.encoding import canonical_encoded, encode_kmer, reverse_complement_encoded

KS = (3, 4, 15, 21, 31)


def _oracle(kmer_id, k, positions, coverages):
    bitmap = AdjacencyBitmap.from_positions(positions, coverages)
    return KmerVertexData.from_bitmap(kmer_id, k, bitmap)


def _table(k, slots):
    """``slots``: ``{kmer_id: {position: coverage}}`` → a table, ascending."""
    rows = [
        (kmer_id, position, coverage)
        for kmer_id in sorted(slots)
        for position, coverage in sorted(slots[kmer_id].items())
    ]
    keys, positions, coverage = (list(column) for column in zip(*rows))
    return KmerTable.from_slots(
        k,
        np.array(keys, dtype=np.uint64),
        np.array(positions, dtype=np.int64),
        np.array(coverage, dtype=np.int64),
        np.arange(len(slots)),
    )


def _materialise(k, slots):
    """The table's k-mers as vertices, ascending, plus the column types."""
    table = _table(k, slots)
    types = {
        kmer_id: vertex_type
        for vertex_type in (TYPE_DEAD_END, TYPE_UNAMBIGUOUS, TYPE_AMBIGUOUS)
        for kmer_id in table.ids_of_type((vertex_type,))
    }
    return [table[kmer_id] for kmer_id in table], types


def _assert_equal_to_oracle(k, slots):
    vertices, types = _materialise(k, slots)
    assert [vertex.kmer_id for vertex in vertices] == sorted(slots)
    for vertex in vertices:
        occupied = slots[vertex.kmer_id]
        positions = sorted(occupied)
        expected = _oracle(vertex.kmer_id, k, positions, [occupied[p] for p in positions])
        assert vertex == expected
        assert vertex.adjacencies == expected.adjacencies  # same order
        assert types[vertex.kmer_id] == expected.vertex_type()
        assert type(vertex.kmer_id) is int
        for adjacency in vertex.adjacencies:
            assert {type(field) for field in (
                adjacency.neighbor_id, adjacency.my_port,
                adjacency.neighbor_port, adjacency.coverage,
            )} == {int}
    return vertices


@st.composite
def kmers(draw, k):
    """Canonical k-mer IDs: random, palindromic (even k), and low-complexity
    ones whose neighbours are themselves."""
    kind = draw(st.sampled_from(("random", "palindrome", "homopolymer", "top-bits")))
    if kind == "palindrome" and k % 2 == 0:
        half = draw(st.integers(0, 4 ** (k // 2) - 1))
        return (half << k) | reverse_complement_encoded(half, k // 2)
    if kind == "homopolymer":
        base = draw(st.sampled_from("AC"))
        return encode_kmer(base * k)
    if kind == "top-bits":
        # The largest canonical IDs: every shift reaches bit 2k - 1.
        return canonical_encoded(4**k - 1 - draw(st.integers(0, 4 ** (k // 2))), k)[0]
    return canonical_encoded(draw(st.integers(0, 4**k - 1)), k)[0]


@st.composite
def slot_tables(draw):
    k = draw(st.sampled_from(KS))
    occupied = st.dictionaries(
        st.integers(0, 31), st.integers(1, 10**6), min_size=1, max_size=32
    )
    return k, draw(st.dictionaries(kmers(k), occupied, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(slot_tables())
def test_array_expansion_equals_from_bitmap(table):
    k, slots = table
    _assert_equal_to_oracle(k, slots)


ALL_SLOTS = {position: position + 1 for position in range(32)}


@pytest.mark.parametrize(
    "k, sequence",
    [
        (4, "ACGT"),  # palindrome: both strands read the same
        (4, "AAAA"),  # self-loop through the appended/prepended A
        (3, "AAA"),
        (15, "A" * 15),
        (31, "A" * 31),
        (21, "AC" * 10 + "A"),
    ],
)
def test_colliding_slots_sum_their_coverage(k, sequence):
    """The fallback path: slots naming the same (neighbour, ports)."""
    kmer_id = canonical_encoded(encode_kmer(sequence), k)[0]
    plain = canonical_encoded(encode_kmer(("ACCGTTGCA" * 4)[:k]), k)[0]
    vertices = _assert_equal_to_oracle(k, {kmer_id: ALL_SLOTS, plain: ALL_SLOTS})
    collided = next(vertex for vertex in vertices if vertex.kmer_id == kmer_id)
    assert len(collided.adjacencies) < 32
    assert sum(adjacency.coverage for adjacency in collided.adjacencies) == sum(
        ALL_SLOTS.values()
    )


def test_k31_uses_the_top_bits():
    kmer_id = canonical_encoded(encode_kmer("T" * 15 + "G" + "A" * 15), 31)[0]
    vertices = _assert_equal_to_oracle(31, {kmer_id: ALL_SLOTS})
    assert max(a.neighbor_id for a in vertices[0].adjacencies) >= 1 << 60


def test_no_slots_no_vertices():
    empty = np.zeros(0, dtype=np.uint64)
    table = KmerTable.from_slots(
        21, empty, empty.astype(np.int64), empty.astype(np.int64), empty.astype(np.int64)
    )
    assert len(table) == 0 and list(table) == [] and table.get(0) is None
