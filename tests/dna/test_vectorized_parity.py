"""Property-style parity tests: NumPy kernels vs the scalar oracle.

The vectorized module must be bit-identical to the scalar encoders on
arbitrary reads — round-trips, canonical forms, polarity labels and
N-splitting — and the vectorized construction path must leave
contigs, aggregate histories and metrics unchanged.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.assembler import AssemblyConfig
from repro.assembler.construction import build_dbg
from repro.assembler.pipeline import assemble_reads
from repro.dna import vectorized
from repro.dna.encoding import (
    canonical_encoded,
    decode_kmer,
    iter_encoded_kmers,
    reverse_complement_encoded,
)
from repro.dna.kmer import extract_kplus1mers
from repro.dna.sequence import split_on_ambiguous
from repro.dna.simulator import simulate_dataset
from repro.workflow import StageExecutor


def random_reads(seed: int, count: int = 60, with_ns: bool = True):
    """Random reads of mixed lengths, optionally peppered with Ns."""
    rng = random.Random(seed)
    alphabet = "ACGT" + ("N" if with_ns else "")
    reads = []
    for _ in range(count):
        length = rng.randint(0, 120)
        reads.append("".join(rng.choice(alphabet) for _ in range(length)))
    # Edge cases the generators might miss.
    reads += ["", "ACGT", "A" * 64]
    if with_ns:
        reads += ["N", "N" * 40, "ACGTN" * 20]
    return reads


def scalar_window_ids(sequences, window):
    """The scalar pipeline's observed window IDs and per-read counts."""
    ids, counts = [], []
    for sequence in sequences:
        emitted = 0
        for fragment in split_on_ambiguous(sequence):
            if len(fragment) < window:
                continue
            for encoded in iter_encoded_kmers(fragment, window):
                ids.append(encoded)
                emitted += 1
        counts.append(emitted)
    return ids, counts


@pytest.mark.parametrize("k", [1, 5, 21, 31])
def test_window_extraction_matches_scalar(k):
    sequences = random_reads(seed=k)
    ids, counts = vectorized.extract_window_ids(sequences, k)
    want_ids, want_counts = scalar_window_ids(sequences, k)
    assert ids.tolist() == want_ids
    assert counts.tolist() == want_counts
    assert int(counts.sum()) == len(want_ids)


@pytest.mark.parametrize("k", [1, 2, 7, 16, 31, 32])
def test_reverse_complement_matches_scalar(k):
    rng = random.Random(100 + k)
    ids = np.array([rng.randrange(1 << (2 * k)) for _ in range(500)], dtype=np.uint64)
    got = vectorized.reverse_complement_ids(ids, k)
    want = [reverse_complement_encoded(int(encoded), k) for encoded in ids.tolist()]
    assert got.tolist() == want
    # rc is an involution
    assert vectorized.reverse_complement_ids(got, k).tolist() == ids.tolist()


@pytest.mark.parametrize("k", [3, 15, 21, 31])
def test_canonical_and_polarity_match_scalar(k):
    rng = random.Random(200 + k)
    ids = np.array([rng.randrange(1 << (2 * k)) for _ in range(500)], dtype=np.uint64)
    canonical, was_rc = vectorized.canonical_ids(ids, k)
    for observed, got_id, got_rc in zip(ids.tolist(), canonical.tolist(), was_rc.tolist()):
        want_id, want_rc = canonical_encoded(observed, k)
        assert got_id == want_id
        assert got_rc == want_rc


@pytest.mark.parametrize("k", [5, 21])
def test_round_trip_through_decode(k):
    sequences = [s for s in random_reads(seed=300 + k, with_ns=False) if len(s) >= k]
    ids, counts = vectorized.extract_window_ids(sequences, k)
    decoded = iter(ids.tolist())
    for sequence, count in zip(sequences, counts.tolist()):
        assert count == len(sequence) - k + 1
        for start in range(count):
            assert decode_kmer(next(decoded), k) == sequence[start : start + k]


@pytest.mark.parametrize("k", [5, 15, 21])
def test_edge_fields_match_kplus1mer_extraction(k):
    sequences = random_reads(seed=400 + k)
    edges, _counts = vectorized.extract_window_ids(sequences, k + 1)
    fields = vectorized.edge_vertex_fields(edges, k)
    scalar = [
        kp1 for sequence in sequences for kp1 in extract_kplus1mers(sequence, k)
    ]
    assert edges.size == len(scalar)
    for index, kp1 in enumerate(scalar):
        assert int(edges[index]) == kp1.edge_id
        assert int(fields["prefix_id"][index]) == kp1.prefix.kmer_id
        assert int(fields["suffix_id"][index]) == kp1.suffix.kmer_id
        polarity = ("H" if fields["prefix_rc"][index] else "L") + (
            "H" if fields["suffix_rc"][index] else "L"
        )
        assert polarity == kp1.polarity()


def test_invalid_base_raises_like_scalar():
    from repro.errors import InvalidKmerError

    with pytest.raises(InvalidKmerError):
        vectorized.extract_window_ids(["ACGTXACGT"], 3)


def test_empty_batch():
    ids, counts = vectorized.extract_window_ids([], 5)
    assert ids.size == 0
    assert counts.size == 0


# ----------------------------------------------------------------------
# end-to-end parity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def simulated_reads():
    _genome, reads = simulate_dataset(genome_length=5000, seed=11)
    return reads


def test_construction_parity(simulated_reads):
    config_fast = AssemblyConfig(k=15, use_vectorized=True)
    config_reference = AssemblyConfig(k=15, use_vectorized=False)
    chain_fast = StageExecutor(num_workers=4)
    chain_reference = StageExecutor(num_workers=4)

    fast = build_dbg(simulated_reads, config_fast, chain_fast)
    reference = build_dbg(simulated_reads, config_reference, chain_reference)

    assert fast.total_kplus1mers == reference.total_kplus1mers
    assert fast.distinct_kplus1mers == reference.distinct_kplus1mers
    assert fast.surviving_kplus1mers == reference.surviving_kplus1mers
    assert fast.filtered_kplus1mers == reference.filtered_kplus1mers
    # Same vertices, same insertion order, same adjacency data.
    assert list(fast.graph.kmers) == list(reference.graph.kmers)
    assert fast.graph.kmers == reference.graph.kmers
    # Shuffle volumes and per-worker loads feed Figure 12: bit-identical.
    assert chain_fast.pipeline_metrics == chain_reference.pipeline_metrics


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_end_to_end_contig_parity(simulated_reads, backend):
    fast = assemble_reads(
        simulated_reads,
        AssemblyConfig(k=15, backend=backend, use_vectorized=True),
    )
    reference = assemble_reads(
        simulated_reads,
        AssemblyConfig(k=15, backend=backend, use_vectorized=False),
    )
    assert fast.contigs == reference.contigs
    assert fast.metrics == reference.metrics
    assert [(stage.name, stage.detail) for stage in fast.stages] == [
        (stage.name, stage.detail) for stage in reference.stages
    ]
