"""The block parser with blocks so small that records straddle them.

``parse_fastq`` reads its input in blocks of ``_BLOCK_CHARS``
characters and carries a record the block boundary cuts over to the
next block.  With blocks of 1, 7 and 64 characters every boundary case
occurs; the reads yielded and the error that ends the parse must still
be those of the record-by-record reference in
``test_fastq_differential.py``, through ``Read`` iteration and through
``sequence_chunks`` alike.
"""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna import io_fastq
from repro.dna.io_fastq import parse_fastq
from repro.errors import FastqFormatError

from test_fastq_differential import DAMAGE, RECORDS, damaged_text, outcome, reference_parse

CHUNK_READS = 3


def chunk_outcome(reads):
    """Every sequence chunk yielded, then how the parse ended."""
    chunks = []
    try:
        for chunk in reads.sequence_chunks(CHUNK_READS):
            chunks.append(chunk)
    except FastqFormatError as error:
        return chunks, (error.message, error.line_number, str(error))
    return chunks, None


@pytest.fixture(scope="module")
def fastq_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "reads.fastq"


@pytest.mark.parametrize("block_chars", [1, 7, 64])
@settings(max_examples=150, deadline=None)
@given(records=RECORDS, damage=DAMAGE, validate=st.booleans())
def test_records_straddling_blocks_parse_unchanged(
    fastq_path, block_chars, records, damage, validate
):
    text = damaged_text(records, damage)
    fastq_path.write_text(text, encoding="ascii")
    reads, error = outcome(reference_parse(io.StringIO(text), validate))
    sequences = [read.sequence for read in reads]
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", block_chars):
        for source in (io.StringIO(text), fastq_path):
            assert outcome(parse_fastq(source, validate=validate)) == (reads, error)
        chunks, chunk_error = chunk_outcome(parse_fastq(io.StringIO(text), validate))
    assert chunk_error == error
    # Whole chunks only: an error drops the chunk it interrupts, as
    # read_chunks over the same reads would.
    assert all(len(chunk) == CHUNK_READS for chunk in chunks[:-1])
    flat = [sequence for chunk in chunks for sequence in chunk]
    kept = len(sequences) if error is None else len(sequences) // CHUNK_READS * CHUNK_READS
    assert flat == sequences[:kept]


def test_a_handle_is_read_lazily_and_left_open():
    handle = io.StringIO("@r\nACGT\n+\nIIII\n")
    reads = parse_fastq(handle)
    assert handle.tell() == 0
    assert [read.name for read in reads] == ["r"]
    assert not handle.closed
