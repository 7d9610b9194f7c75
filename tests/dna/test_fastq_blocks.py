"""The block parser with blocks so small that records straddle them.

``parse_fastq`` reads its input in blocks of ``_BLOCK_CHARS``
characters and carries a record the block boundary cuts over to the
next block.  With blocks of 1, 7 and 64 characters every boundary case
occurs; the reads yielded and the error that ends the parse must still
be those of the record-by-record reference in
``test_fastq_differential.py``, through ``Read`` iteration and through
``code_batches`` alike.  Under ``validate=False`` a read with a base
outside ``ACGTN`` reaches the code batches, which then fail as
``encode_batch`` fails on that read.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna import io_fastq
from repro.dna.alphabet import VALID_CHARACTERS
from repro.dna.io_fastq import parse_fastq
from repro.dna.vectorized import encode_batch
from repro.errors import FastqFormatError, InvalidKmerError

from test_fastq_differential import DAMAGE, RECORDS, damaged_text, outcome, reference_parse

CHUNK_READS = 3


def batch_outcome(reads):
    """Every code batch yielded, then how the parse ended."""
    batches = []
    try:
        for batch in reads.code_batches(CHUNK_READS):
            batches.append(batch)
    except FastqFormatError as error:
        return batches, (error.message, error.line_number, str(error))
    except InvalidKmerError as error:
        return batches, str(error)
    return batches, None


def encode_error(sequence):
    with pytest.raises(InvalidKmerError) as error:
        encode_batch([sequence])
    return str(error.value)


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
        batches, batch_error = batch_outcome(parse_fastq(io.StringIO(text), validate))
    # A batch never spans two blocks, so every read before the error
    # arrives; a read the encoder rejects fails first, as encode_batch.
    bad = next((seq for seq in sequences if set(seq) - VALID_CHARACTERS), None)
    if bad is None:
        assert batch_error == error
    else:
        assert batch_error == encode_error(bad)
    assert all(lengths.size <= CHUNK_READS for _, _, lengths in batches)
    delivered = 0
    for batch in batches:
        expected = encode_batch(sequences[delivered : delivered + batch[2].size])
        assert all(np.array_equal(got, want) for got, want in zip(batch, expected))
        delivered += batch[2].size
    assert delivered == len(sequences) or bad is not None


def test_a_handle_is_read_lazily_and_left_open():
    handle = io.StringIO("@r\nACGT\n+\nIIII\n")
    reads = parse_fastq(handle)
    assert handle.tell() == 0
    assert [read.name for read in reads] == ["r"]
    assert not handle.closed
