"""The columnar k-mer table honours the mapping contract of a plain dict.

Vectorized construction leaves its k-mers as NumPy columns inside a
:class:`~repro.dbg.kmer_table.KmerTable`; the scalar path fills the same
table one vertex at a time.  Whatever reads went in — palindromic
(k+1)-mers and homopolymers included, whose bitmap slots collide on one
self-loop entry — the two graphs must hold the same k-mers in the same
iteration order with the same adjacency lists, and the table must answer
``get`` / ``[]`` / ``del`` / ``in`` / ``len`` exactly as a dict holding
those vertices does, keep mutations made through a fetched vertex, and
survive a pickle round-trip (stage checkpoints pickle the graph).
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembler import AssemblyConfig
from repro.assembler.construction import build_dbg
from repro.assembler.labeling import label_contigs
from repro.assembler.merging import merge_contigs
from repro.dbg.kmer_vertex import (
    TYPE_AMBIGUOUS,
    TYPE_DEAD_END,
    TYPE_UNAMBIGUOUS,
    ContigLink,
    KmerVertexData,
)
from repro.dbg.polarity import PORT_OUT
from repro.dna.encoding import NULL_ID
from repro.dna.io_fastq import reads_from_strings
from repro.dna.sequence import reverse_complement
from repro.dna.simulator import simulate_dataset
from repro.workflow import StageExecutor

KS = (3, 5, 7, 11)
BASES = "ACGT"


@st.composite
def read_sets(draw):
    """``(k, reads)``: random reads plus palindromic and self-loop ones."""
    k = draw(st.sampled_from(KS))
    half = (k + 1) // 2
    pieces = st.text(BASES, min_size=half, max_size=half)
    random_reads = st.text(BASES + "N", min_size=0, max_size=40)
    reads = draw(st.lists(random_reads, max_size=12))
    # A palindromic (k+1)-mer joins one k-mer to itself.
    reads += [piece + reverse_complement(piece) for piece in draw(st.lists(pieces, max_size=3))]
    reads += [
        draw(st.sampled_from(("A", "C", "AC", "AG", "ACG"))) * draw(st.integers(k, 3 * k))
        for _ in range(draw(st.integers(0, 3)))
    ]
    reads.append(draw(st.text(BASES, min_size=k + 1, max_size=60)))  # at least one edge
    return k, draw(st.permutations(reads))


def _build(k, reads, vectorized):
    config = AssemblyConfig(k=k, coverage_threshold=0, use_vectorized=vectorized)
    return build_dbg(reads_from_strings(reads), config, StageExecutor(num_workers=3)).graph


def _types(graph):
    return {
        vertex_type: graph.vertices_of_type(vertex_type)
        for vertex_type in (TYPE_DEAD_END, TYPE_UNAMBIGUOUS, TYPE_AMBIGUOUS)
    }


@settings(max_examples=150, deadline=None)
@given(read_sets())
def test_columns_equal_the_scalar_dict_kmer_for_kmer(case):
    k, reads = case
    fast, reference = _build(k, reads, True), _build(k, reads, False)
    # Read from the columns before anything is materialised.
    assert _types(fast) == _types(reference)
    assert fast.statistics() == reference.statistics()
    assert fast.kmer_count() == len(reference.kmers)
    assert not fast.kmers._fetched
    assert list(fast.kmers) == list(reference.kmers)
    for kmer_id in reference.kmers:
        assert fast.kmers[kmer_id].adjacencies == reference.kmers[kmer_id].adjacencies
    assert fast.kmers == reference.kmers


@st.composite
def operation_lists(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("get", "getitem", "in", "del", "discard", "set", "mutate", "pickle")
                ),
                st.integers(0, 10**6),
            ),
            max_size=40,
        )
    )


@settings(max_examples=100, deadline=None)
@given(read_sets(), operation_lists())
def test_table_behaves_like_a_dict(case, operations):
    k, reads = case
    graph = _build(k, reads, True)
    table = graph.kmers
    plain = dict(_build(k, reads, False).kmers.items())
    # Keys present, and absent ones: another k-mer, NULL, a contig ID.
    keys = list(plain) + [4**k - 1, NULL_ID, (1 << 63) | 5, -1]
    for name, pick in operations:
        key = keys[pick % len(keys)]
        if name == "get":
            assert table.get(key) == plain.get(key)
        elif name == "getitem":
            if key in plain:
                assert table[key] == plain[key]
            else:
                try:
                    table[key]
                except KeyError:
                    pass
                else:
                    raise AssertionError(f"{key} fetched from the table only")
        elif name == "in":
            assert (key in table) == (key in plain)
        elif name == "del":
            if key in plain:
                del table[key], plain[key]
            else:
                assert key not in table
        elif name == "discard":
            # Every other node ID from ``pick`` on: enough to compact the columns.
            chosen = [key for key in keys[pick % len(keys) :: 2] if key >= 0]
            missing = [key for key in chosen if key not in plain]
            assert table.discard(chosen) == missing
            for key in chosen:
                plain.pop(key, None)
        elif name == "set" and key >= 0:
            table[key] = plain[key] = KmerVertexData(key, k)
        elif name == "mutate" and key in plain:
            # A mutation through a fetched vertex persists.
            table.get(key).add_adjacency(NULL_ID, PORT_OUT, 0, 1, ContigLink((1 << 63) | 9, 8, 1))
            plain[key].add_adjacency(NULL_ID, PORT_OUT, 0, 1, ContigLink((1 << 63) | 9, 8, 1))
            assert table[key] is table.get(key)
        elif name == "pickle":
            graph = pickle.loads(pickle.dumps(graph))
            table = graph.kmers
        assert len(table) == len(plain)
        assert list(table) == list(plain)
    assert dict(table.items()) == plain
    assert _types(graph) == {
        vertex_type: [key for key, vertex in plain.items() if vertex.vertex_type() == vertex_type]
        for vertex_type in (TYPE_DEAD_END, TYPE_UNAMBIGUOUS, TYPE_AMBIGUOUS)
    }


def test_pickled_columns_stay_columns():
    graph = _build(5, ["ACGTTGCAAGTCCGATAGGC" * 3, "TTTTTTTTTT"], True)
    first = next(iter(graph.kmers))
    del graph.kmers[first]
    copied = pickle.loads(pickle.dumps(graph))
    assert not copied.kmers._fetched
    assert first not in copied.kmers
    assert list(copied.kmers) == list(graph.kmers)
    assert copied.kmers == graph.kmers


# ----------------------------------------------------------------------
# remove_kmer touches only the neighbours the k-mer names
# ----------------------------------------------------------------------
def _remove_by_full_scan(graph, kmer_id):
    """What ``remove_kmer`` did before: ask every k-mer to drop the entries."""
    graph.kmers.pop(kmer_id, None)
    for vertex in graph.kmers.values():
        vertex.remove_adjacency(kmer_id)


def _merged_graph(k):
    _genome, reads = simulate_dataset(
        genome_length=3000, coverage=20.0, error_rate=0.005, seed=2018
    )
    config = AssemblyConfig(k=k, num_workers=4)
    chain = StageExecutor(num_workers=4)
    graph = build_dbg(reads, config, chain).graph
    constructed = copy.deepcopy(graph)
    merge_contigs(graph, label_contigs(graph, config, chain), config, chain)
    return constructed, graph


def test_remove_kmer_equals_the_full_scan():
    constructed, merged = _merged_graph(11)
    via_contig = [
        adjacency
        for vertex in copy.deepcopy(merged).kmers.values()
        for adjacency in vertex.adjacencies
        if adjacency.via_contig is not None
    ]
    assert via_contig, "no via-contig entry survived merging at k=11"
    for graph, stride in ((merged, 1), (constructed, 37)):
        for kmer_id in list(graph.kmers)[::stride]:
            fast, reference = copy.deepcopy(graph), copy.deepcopy(graph)
            fast.remove_kmer(kmer_id)
            _remove_by_full_scan(reference, kmer_id)
            assert list(fast.kmers) == list(reference.kmers)
            assert fast.kmers == reference.kmers
