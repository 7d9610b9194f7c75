"""Chunked FASTQ ingest: bounded batches, same records, lazy draining."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.dna.io_fastq import (
    parse_fastq,
    read_chunks,
    reads_from_strings,
    write_fastq,
)
from repro.dna.vectorized import encode_batch


def _fastq_text(reads):
    buffer = io.StringIO()
    write_fastq(reads, buffer)
    return buffer.getvalue()


def test_read_chunks_preserves_order_and_content():
    reads = reads_from_strings(["ACGT"] * 10)
    chunks = list(read_chunks(reads, 3))
    assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
    assert [read for chunk in chunks for read in chunk] == reads


def test_read_chunks_exact_multiple_has_no_empty_tail():
    reads = reads_from_strings(["ACGT"] * 6)
    chunks = list(read_chunks(reads, 3))
    assert [len(chunk) for chunk in chunks] == [3, 3]


def test_read_chunks_of_empty_input():
    assert list(read_chunks([], 4)) == []


def test_read_chunks_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        list(read_chunks(reads_from_strings(["ACGT"]), 0))


def test_read_chunks_drains_generators_lazily():
    pulled = []

    def source():
        for read in reads_from_strings(["ACGT"] * 9):
            pulled.append(read.name)
            yield read

    iterator = read_chunks(source(), 4)
    first = next(iterator)
    assert len(first) == 4
    # Only one chunk's worth (plus nothing extra) has been pulled.
    assert len(pulled) == 4


def test_code_batches_match_parse_fastq():
    reads = reads_from_strings(["ACGTACGT", "TTTTCCCC", "GGGGAAAA"])
    text = _fastq_text(reads)
    whole = list(parse_fastq(io.StringIO(text)))
    batches = list(parse_fastq(io.StringIO(text)).code_batches(2))
    assert [lengths.size for _, _, lengths in batches] == [2, 1]
    for batch, first in zip(batches, (0, 2)):
        expected = encode_batch([read.sequence for read in whole[first : first + 2]])
        for got, want in zip(batch, expected):
            assert np.array_equal(got, want)
