"""``FastqReads.code_batches`` against ``encode_batch`` over the parsed reads.

Each FASTQ block reaches DBG construction as one code array gathered
from its sequence lines by the block scanner.  Whatever the text looks
like — lowercase bases, ``N``, blank lines between records, CRLF line
endings, records cut by a block boundary — the batches must hold
exactly what ``encode_batch`` makes of the same reads' sequences, at
most ``chunk_reads`` reads each, and a base outside ``ACGTN`` that only
``validate=False`` lets through must fail as ``encode_batch`` fails.
A clean file never reaches the record-by-record parser, and a damaged
block fails there with the error and line number of a line-by-line
parse.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest

from repro.dna import io_fastq, vectorized
from repro.dna.io_fastq import parse_fastq
from repro.errors import FastqFormatError, InvalidKmerError

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
    "many-records": fastq_text(RECORDS * 40),
    "many-no-final-newline": fastq_text(RECORDS * 40).rstrip("\n"),
}
#: How many times each text repeats ``RECORDS``.
REPEATS = {"many-records": 40, "many-no-final-newline": 40}


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
    assert [read.sequence for read in reads] == [
        sequence.upper() for _, sequence in RECORDS * REPEATS.get(name, 1)
    ]
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


@pytest.mark.parametrize("block_chars", [200, 1 << 20])
def test_crlf_file_of_whole_records_batches_equal_encode_batch(tmp_path, block_chars):
    path = tmp_path / "crlf.fastq"
    path.write_bytes(fastq_text(RECORDS * 40, newline="\r\n").encode("ascii"))
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars):
        reads = list(parse_fastq(path))
        batches = list(parse_fastq(path).code_batches(5))
    assert [read.sequence for read in reads] == [seq.upper() for _, seq in RECORDS * 40]
    assert_batches_match_reads(batches, reads, 5)


class CountingParser:
    """Wraps ``io_fastq._parse_records`` and counts the blocks it gets."""

    def __init__(self):
        self.calls = 0
        self._parse = io_fastq._parse_records

    def __call__(self, *args):
        self.calls += 1
        return self._parse(*args)


@pytest.mark.parametrize("name", ["many-records", "many-no-final-newline"])
@pytest.mark.parametrize("block_chars", [100, 1000])
def test_a_clean_file_never_reaches_the_record_parser(name, block_chars):
    text = TEXTS[name]
    assert len(text) > 10 * block_chars  # many blocks, many cut records
    parser = CountingParser()
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars), mock.patch.object(
        io_fastq, "_parse_records", parser
    ):
        reads = list(parse_fastq(io.StringIO(text)))
        batches = list(parse_fastq(io.StringIO(text)).code_batches(16))
    assert parser.calls == 0
    assert len(reads) == len(RECORDS) * REPEATS[name]
    assert_batches_match_reads(batches, reads, 16)
    # The counter does count: a blank line sends its block to the parser.
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars), mock.patch.object(
        io_fastq, "_parse_records", parser
    ):
        assert list(parse_fastq(io.StringIO("\n" + text))) == reads
    assert parser.calls > 0


#: 60 records of 70 characters; with 500-character blocks the third
#: block holds records 14 to 21.
DAMAGE_RECORDS = [(f"r{index:03d}", "ACGTTGCAAC" * 3) for index in range(60)]
DAMAGED = 17


@pytest.mark.parametrize(
    "damage, message, line_number",
    [
        (
            lambda lines: lines.__setitem__(1, "ACGTXGCAAC" * 3),
            "invalid sequence character 'X' at column 4",
            4 * DAMAGED + 2,
        ),
        (
            lambda lines: lines.__setitem__(2, "-"),
            "missing '+' separator line",
            4 * DAMAGED + 3,
        ),
        (
            lambda lines: lines.__setitem__(3, "I" * 29),
            "quality length 29 != sequence length 30",
            4 * DAMAGED + 4,
        ),
        (
            lambda lines: lines.__setitem__(0, "r017"),
            "expected '@' header, found 'r017'",
            4 * DAMAGED + 1,
        ),
    ],
)
def test_a_damaged_third_block_fails_as_a_line_by_line_parse(damage, message, line_number):
    lines = fastq_text(DAMAGE_RECORDS).split("\n")
    record = lines[4 * DAMAGED : 4 * DAMAGED + 4]
    damage(record)
    lines[4 * DAMAGED : 4 * DAMAGED + 4] = record
    text = "\n".join(lines)
    assert 1000 <= text.index(record[0]) < 1500
    for block_chars in (500, 1 << 20):
        with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars):
            reads = parse_fastq(io.StringIO(text))
            names = []
            with pytest.raises(FastqFormatError) as caught:
                names.extend(read.name for read in reads)
            with pytest.raises(FastqFormatError) as caught_batches:
                list(parse_fastq(io.StringIO(text)).code_batches(4))
        for error in (caught.value, caught_batches.value):
            assert (error.message, error.line_number) == (message, line_number)
        assert names == [name for name, _ in DAMAGE_RECORDS[:DAMAGED]]


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
