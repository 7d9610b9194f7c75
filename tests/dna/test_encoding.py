"""Tests for 2-bit k-mer packing and the Figure 7 ID formats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.dna.encoding import (
    FLIP_BIT,
    MAX_K,
    NULL_ID,
    canonical_encoded,
    decode_kmer,
    encode_kmer,
    flip_id,
    is_contig_id,
    is_flipped,
    is_kmer_id,
    is_null,
    iter_encoded_kmers,
    make_contig_id,
    reverse_complement_encoded,
    split_contig_id,
    unflip_id,
)
from repro.dna.sequence import canonical, reverse_complement
from repro.errors import InvalidKmerError

kmer_strings = st.text(alphabet="ACGT", min_size=1, max_size=MAX_K)


def test_paper_example_attgc():
    """Figure 7(a): "ATTGC" packs into ...00 0011111001."""
    assert encode_kmer("ATTGC") == 0b0011111001


def test_encode_decode_round_trip_examples():
    for kmer in ("A", "C", "G", "T", "ACGT", "TTTTTTTTTT", "ACGTACGTACGTACGTACGTACGTACGTACG"):
        assert decode_kmer(encode_kmer(kmer), len(kmer)) == kmer


@given(kmer_strings)
def test_property_encode_decode_round_trip(kmer):
    assert decode_kmer(encode_kmer(kmer), len(kmer)) == kmer


@given(kmer_strings)
def test_property_encoded_rc_matches_string_rc(kmer):
    encoded = encode_kmer(kmer)
    assert decode_kmer(reverse_complement_encoded(encoded, len(kmer)), len(kmer)) == reverse_complement(kmer)


@given(kmer_strings)
def test_property_rc_is_involution(kmer):
    encoded = encode_kmer(kmer)
    twice = reverse_complement_encoded(
        reverse_complement_encoded(encoded, len(kmer)), len(kmer)
    )
    assert twice == encoded


@given(kmer_strings)
def test_property_canonical_matches_string_canonical(kmer):
    encoded = encode_kmer(kmer)
    canonical_id, was_rc = canonical_encoded(encoded, len(kmer))
    assert decode_kmer(canonical_id, len(kmer)) == canonical(kmer)
    assert was_rc == (canonical(kmer) != kmer)


@given(kmer_strings)
def test_property_canonical_ids_never_use_special_bits(kmer):
    canonical_id, _ = canonical_encoded(encode_kmer(kmer), len(kmer))
    assert is_kmer_id(canonical_id)


def test_encode_rejects_bad_input():
    with pytest.raises(InvalidKmerError):
        encode_kmer("")
    with pytest.raises(InvalidKmerError):
        encode_kmer("A" * (MAX_K + 1))
    with pytest.raises(InvalidKmerError):
        encode_kmer("ACGN")


def test_decode_rejects_special_ids():
    with pytest.raises(InvalidKmerError):
        decode_kmer(NULL_ID, 5)
    with pytest.raises(InvalidKmerError):
        decode_kmer(encode_kmer("ACGTA"), 0)


def test_iter_encoded_kmers_matches_slicing():
    sequence = "ACGTTGCAAC"
    k = 4
    expected = [encode_kmer(sequence[i : i + k]) for i in range(len(sequence) - k + 1)]
    assert list(iter_encoded_kmers(sequence, k)) == expected


def test_iter_encoded_kmers_short_sequence_empty():
    assert list(iter_encoded_kmers("ACG", 5)) == []


# ----------------------------------------------------------------------
# special IDs
# ----------------------------------------------------------------------
def test_null_id_classification():
    assert is_null(NULL_ID)
    assert not is_kmer_id(NULL_ID)
    assert not is_contig_id(NULL_ID)


def test_contig_id_round_trip():
    contig_id = make_contig_id(worker_id=3, contig_order=17)
    assert is_contig_id(contig_id)
    assert not is_kmer_id(contig_id)
    assert split_contig_id(contig_id) == (3, 17)


def test_contig_id_avoids_null_collision():
    with pytest.raises(ValueError):
        make_contig_id(0, 0)
    assert make_contig_id(0, 1) != NULL_ID


def test_contig_id_range_checks():
    with pytest.raises(ValueError):
        make_contig_id(-1, 1)
    with pytest.raises(ValueError):
        make_contig_id(1 << 31, 1)
    with pytest.raises(ValueError):
        make_contig_id(1, 1 << 32)


def test_flip_id_round_trip():
    kmer_id = encode_kmer("ACGTAC")
    flipped = flip_id(kmer_id)
    assert is_flipped(flipped)
    assert not is_flipped(kmer_id)
    assert unflip_id(flipped) == kmer_id
    assert flipped & FLIP_BIT


def test_kmer_ids_distinct_from_contig_ids():
    kmer_id = encode_kmer("A" * 31)
    contig_id = make_contig_id(0, 1)
    assert is_kmer_id(kmer_id) and not is_kmer_id(contig_id)
    assert is_contig_id(contig_id) and not is_contig_id(kmer_id)
