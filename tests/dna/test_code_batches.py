"""``FastqReads.code_batches`` against ``encode_batch`` over the parsed reads.

Each FASTQ block reaches DBG construction as one code array encoded
from its newline-joined sequence lines.  Whatever the text looks like —
lowercase bases, ``N``, blank lines between records, CRLF line endings,
records cut by a block boundary — the batches must hold exactly what
``encode_batch`` makes of the same reads' sequences, at most
``chunk_reads`` reads each, and a base outside ``ACGTN`` that only
``validate=False`` lets through must fail as ``encode_batch`` fails.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest

from repro.dna import io_fastq, vectorized
from repro.dna.io_fastq import parse_fastq
from repro.errors import InvalidKmerError

RECORDS = [
    ("plain", "ACGTACGTAC"),
    ("lower", "acgtnACGTacgt"),
    ("with-n", "NNACGTNNNNTTGCAN"),
    ("empty", ""),
    ("one", "g"),
    ("long", "ACGGTCATTGCA" * 9),
    ("mixed", "tTgGcCaAnN" * 3),
]


def fastq_text(records, blank_every=0, newline="\n"):
    lines = []
    for index, (name, sequence) in enumerate(records):
        if blank_every and index % blank_every == 0:
            lines.append("")
        lines += [f"@{name}", sequence, "+", "I" * len(sequence)]
    return newline.join(lines) + newline


TEXTS = {
    "plain": fastq_text(RECORDS),
    "blank-lines": fastq_text(RECORDS, blank_every=2),
    "no-final-newline": fastq_text(RECORDS).rstrip("\n"),
}


def assert_batches_match_reads(batches, reads, chunk_reads):
    delivered = 0
    for batch in batches:
        codes, starts, lengths = batch
        assert 0 < lengths.size <= chunk_reads
        sequences = [read.sequence for read in reads[delivered : delivered + lengths.size]]
        for got, want in zip(batch, vectorized.encode_batch(sequences)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        delivered += lengths.size
    assert delivered == len(reads)


@pytest.mark.parametrize("name", sorted(TEXTS))
@pytest.mark.parametrize("block_chars", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("chunk_reads", [1, 2, 3, 100])
def test_code_batches_equal_encode_batch_of_the_reads(name, block_chars, chunk_reads):
    text = TEXTS[name]
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars):
        reads = list(parse_fastq(io.StringIO(text)))
        batches = list(parse_fastq(io.StringIO(text)).code_batches(chunk_reads))
    assert len(reads) == len(RECORDS)
    assert_batches_match_reads(batches, reads, chunk_reads)


@pytest.mark.parametrize("block_chars", [5, 1 << 20])
def test_crlf_file_batches_equal_encode_batch(tmp_path, block_chars):
    path = tmp_path / "crlf.fastq"
    path.write_bytes(fastq_text(RECORDS, blank_every=3, newline="\r\n").encode("ascii"))
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars):
        reads = list(parse_fastq(path))
        batches = list(parse_fastq(path).code_batches(2))
    assert [read.sequence for read in reads] == [seq.upper() for _, seq in RECORDS]
    assert_batches_match_reads(batches, reads, 2)


def test_window_ids_of_code_batches_equal_extract_window_ids():
    text = TEXTS["blank-lines"]
    sequences = [read.sequence for read in parse_fastq(io.StringIO(text))]
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", 64):
        batches = list(parse_fastq(io.StringIO(text)).code_batches(3))
    for window in (1, 4, 11):
        pieces = [vectorized.window_ids(*batch, window) for batch in batches]
        ids, counts = vectorized.extract_window_ids(sequences, window)
        assert np.concatenate([piece[0] for piece in pieces]).tolist() == ids.tolist()
        assert np.concatenate([piece[1] for piece in pieces]).tolist() == counts.tolist()


@pytest.mark.parametrize("bad", ["X", "x", "*", "é"])
@pytest.mark.parametrize("block_chars", [3, 1 << 20])
def test_unvalidated_invalid_base_fails_as_encode_batch(bad, block_chars):
    records = RECORDS[:2] + [("bad", f"ACG{bad}T")] + RECORDS[2:]
    text = fastq_text(records)
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars):
        reads = list(parse_fastq(io.StringIO(text), validate=False))
        with pytest.raises(InvalidKmerError) as expected:
            vectorized.encode_batch([read.sequence for read in reads])
        with pytest.raises(InvalidKmerError) as got:
            list(parse_fastq(io.StringIO(text), validate=False).code_batches(2))
    assert str(got.value) == str(expected.value)


def test_nonpositive_chunk_size_is_rejected():
    with pytest.raises(ValueError):
        next(parse_fastq(io.StringIO(TEXTS["plain"])).code_batches(0))
