"""FASTQ and FASTA parsing and writing.

The paper's datasets are FASTQ files ("All the datasets are in FASTQ
format, which includes the sequence of each DNA read").  The read
simulator writes FASTQ so the full pipeline — file on disk, parse,
assemble — matches what a user of the original toolkit would do;
assembled contigs are written as FASTA, which is what QUAST consumes.

FASTQ is parsed a block of text at a time.  One NumPy scanner works on
a block's ASCII bytes: the newline offsets give every line, the ``@``
and ``+`` lines and the sequence/quality lengths are checked by
indexing, and the sequence lines are gathered through the base lookup
table with the newline as the break code.  That yields the block's
sequences as one uint8 code array, which DBG construction takes
(:meth:`FastqReads.code_batches`) without building a :class:`Read`, a
per-line string or a ``str.split``; the text is split into lines only
when ``Read`` records are asked for.  A block the scanner does not
accept (blank lines, a bad record, a byte that is not ASCII) goes to
the record-by-record parser, so errors and their line numbers are those
of a plain line-by-line parse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, TextIO, Tuple, TypeVar, Union

import numpy as np

from ..errors import FastqFormatError
from . import vectorized
from .alphabet import VALID_CHARACTERS

PathOrHandle = Union[str, os.PathLike, TextIO]
T = TypeVar("T")


@dataclass(frozen=True)
class Read:
    """One sequencing read."""

    name: str
    sequence: str
    quality: Optional[str] = None

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class ReadPair:
    """One paired-end read: the two mates of a sequenced fragment.

    ``read1`` is the fragment's 5' mate (sequenced forward), ``read2``
    the 3' mate (sequenced as the reverse complement of the fragment's
    far end), so the two mates point *towards each other* — the
    standard Illumina FR ("innie") orientation that scaffolding relies
    on.
    """

    read1: Read
    read2: Read

    def __iter__(self) -> Iterator[Read]:
        yield self.read1
        yield self.read2


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record (used for references and assembled contigs)."""

    name: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


def _open_for_reading(source: PathOrHandle) -> tuple[TextIO, bool]:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="ascii"), True
    return source, False


def _open_for_writing(target: PathOrHandle) -> tuple[TextIO, bool]:
    if isinstance(target, (str, os.PathLike)):
        return open(target, "w", encoding="ascii"), True
    return target, False


# ----------------------------------------------------------------------
# FASTQ
# ----------------------------------------------------------------------
#: Characters read from the handle per block.  A record the block
#: boundary cuts waits for the next one.
_BLOCK_CHARS = 1 << 20

_VALID_BASES = "".join(sorted(VALID_CHARACTERS))
#: ``sequence.translate`` with this table deletes every valid base, so
#: whatever is left of a sequence line is invalid (one C call per record).
_DELETE_VALID = str.maketrans("", "", _VALID_BASES)

_NEWLINE, _HEADER, _SEPARATOR = b"\n@+"
#: Which of a record's four lines is its sequence.
_SEQUENCE_LINE = np.array([False, True, False, False])


class _ScannedRecords(NamedTuple):
    """Whole records the block scanner accepted.

    ``text`` is the records' text, four newline-terminated lines each;
    ``codes`` their sequence lines as one code array, the newline
    between two lines being the break code.  ``text`` is split into
    lines only when :class:`Read` records are asked for.
    """

    text: str
    codes: np.ndarray
    lengths: np.ndarray

    def reads(self) -> Iterator[Read]:
        lines = self.text.split("\n")
        names = [header[1:] for header in lines[0:-1:4]]
        sequences = "\n".join(lines[1::4]).upper().split("\n")
        return map(Read, names, sequences, lines[3::4])

    def code_batches(self, chunk_reads: int) -> Iterator[Tuple[np.ndarray, ...]]:
        return vectorized.line_batches(self.codes, self.lengths, chunk_reads)


class _ParsedRecords(NamedTuple):
    """Records the record-by-record parser collected: header lines
    (``@`` included), upper-cased sequences and quality lines."""

    headers: List[str]
    sequences: List[str]
    qualities: List[str]

    def reads(self) -> Iterator[Read]:
        names = [header[1:] for header in self.headers]
        return map(Read, names, self.sequences, self.qualities)

    def code_batches(self, chunk_reads: int) -> Iterator[Tuple[np.ndarray, ...]]:
        codes, _, lengths = vectorized.encode_batch(self.sequences)
        return vectorized.line_batches(codes, lengths, chunk_reads)


_NO_RECORDS = _ScannedRecords("", np.zeros(0, np.uint8), np.zeros(0, np.int64))


def _rejected_record(
    sequence: str, separator: str, quality: str, truncated: bool, line_number: int
) -> FastqFormatError:
    """Why the record whose quality line is ``line_number`` was rejected."""
    if truncated:  # the file ends inside the record
        return FastqFormatError(
            "truncated record: file ends inside the record starting at line "
            f"{line_number - 3}",
            line_number - 3,
        )
    if not separator.startswith("+"):
        return FastqFormatError("missing '+' separator line", line_number - 1)
    if len(quality) != len(sequence):
        return FastqFormatError(
            f"quality length {len(quality)} != sequence length {len(sequence)}",
            line_number,
        )
    position, character = next(
        (position, character)
        for position, character in enumerate(sequence)
        if character not in VALID_CHARACTERS
    )
    return FastqFormatError(
        f"invalid sequence character {character!r} at column {position}",
        line_number - 2,
    )


def _read_block(handle: TextIO, first: bool) -> str:
    """The next block of text; a byte the encoding rejects fails typed."""
    try:
        return handle.read(_BLOCK_CHARS)
    except UnicodeDecodeError as error:
        if first and error.object[:2] == b"\x1f\x8b":
            message = (
                "input is gzip-compressed (starts with bytes 1f 8b); decompress it first"
            )
        else:
            message = f"non-ASCII byte 0x{error.object[error.start]:02x} in FASTQ input"
        raise FastqFormatError(message) from None


def _scan_block(text: str) -> Optional[_ScannedRecords]:
    """The whole records ``text`` starts with, or None if any is irregular.

    One NumPy pass over the text's ASCII bytes: the newline offsets
    give every line; each header must start with ``@`` and each
    separator with ``+``, each quality line must be as long as its
    sequence line, and the sequence lines, gathered with their
    newlines through the sequence-line LUT, must hold only bases of
    either case and ``N``.  A blank line, a byte that is not ASCII, any
    other base and any damage return None: the parser rejects the
    record, or keeps it under ``validate=False``.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    array = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(array == _NEWLINE)
    ends = ends[: ends.size - ends.size % 4]
    if not ends.size:
        return _NO_RECORDS
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if not (
        np.all(array[starts[0::4]] == _HEADER)
        and np.all(array[starts[2::4]] == _SEPARATOR)
        and np.array_equal(lengths[1::4], lengths[3::4])
    ):
        return None
    end = int(ends[-1]) + 1
    sequence_bytes = np.repeat(np.tile(_SEQUENCE_LINE, ends.size // 4), lengths + 1)
    codes = vectorized.line_codes(array[:end][sequence_bytes][:-1].tobytes())
    if codes.size and codes.max() == vectorized.INVALID_CODE:
        return None
    return _ScannedRecords(text[:end], codes, lengths[1::4])


def _parse_records(
    lines: List[str],
    index: int,
    line_number: int,
    validate: bool,
    at_eof: bool,
    records: _ParsedRecords,
) -> Tuple[int, int]:
    """Parse ``lines[index:]`` record by record into ``records``.

    The error path of the block scanner, and the reference it must
    agree with: blank lines between records are skipped, and the first
    bad record raises with its line number.  Returns ``(index,
    line_number)`` of the first line left unparsed: before the end of
    the file, a record whose four lines are not all in ``lines`` waits
    for the next block.  At the end of the file a missing line reads as
    ``""``, as ``readline`` returns there.
    """
    headers, sequences, qualities = records
    end = len(lines)

    def line(position: int) -> str:
        return lines[position] if position < end else ""

    while index < end:
        header = lines[index]
        if header and not at_eof and end - index < 4:
            break
        index += 1
        line_number += 1
        if not header:
            continue
        if not header.startswith("@"):
            raise FastqFormatError(
                f"expected '@' header, found {header[:20]!r}", line_number
            )
        sequence = line(index).upper()
        separator = line(index + 1)
        quality = line(index + 2)
        truncated = index + 2 >= end
        index += 3
        line_number += 3
        if (
            not separator.startswith("+")
            or len(quality) != len(sequence)
            or (validate and sequence.translate(_DELETE_VALID))
        ):
            raise _rejected_record(sequence, separator, quality, truncated, line_number)
        headers.append(header)
        sequences.append(sequence)
        qualities.append(quality)
    return index, line_number


_Records = Union[_ScannedRecords, _ParsedRecords]


def _fastq_batches(source: PathOrHandle, validate: bool) -> Iterator[_Records]:
    """Parse a FASTQ source a block at a time, one batch per block.

    The block's whole records go through :func:`_scan_block`; a block
    the scanner rejects, and the lines the file ends with, go through
    :func:`_parse_records`, so the records yielded before an error and
    the error itself are those of a record-by-record parse.
    """
    handle, owns_handle = _open_for_reading(source)
    try:
        line_number = 0
        carry = ""  # the unparsed text the previous block ended with
        at_eof = False
        while not at_eof:
            block = _read_block(handle, first=line_number == 0 and not carry)
            at_eof = not block
            text = carry + block
            if at_eof and text and not text.endswith("\n"):
                text += "\n"  # the last line has no newline
            scanned = _scan_block(text)
            if scanned is not None:
                if scanned.lengths.size:
                    yield scanned
                line_number += 4 * scanned.lengths.size
                text = text[len(scanned.text) :]
                if not (at_eof and text):  # what is left waits for the next block
                    carry = text
                    continue
            lines = text.split("\n")
            carry = lines.pop()  # a line the block cut ("" after a newline)
            records = _ParsedRecords([], [], [])
            try:
                index, line_number = _parse_records(
                    lines, 0, line_number, validate, at_eof, records
                )
            except FastqFormatError:
                if records.headers:
                    yield records
                raise
            if records.headers:
                yield records
            carry = "\n".join(lines[index:] + [carry])
    finally:
        if owns_handle:
            handle.close()


class FastqReads:
    """The records of one FASTQ file, parsed a block at a time.

    A single-pass iterator of :class:`Read`.  :meth:`code_batches` hands
    out the same records as 2-bit code arrays instead, and builds no
    ``Read`` at all; both draw from one pass over the file, so use one
    or the other.  Nothing is opened until the first record is asked
    for, and a handle passed in is never closed.
    """

    def __init__(self, source: PathOrHandle, validate: bool = True) -> None:
        self._batches = _fastq_batches(source, validate)
        self._reads = chain.from_iterable(batch.reads() for batch in self._batches)

    def __iter__(self) -> FastqReads:
        return self

    def __next__(self) -> Read:
        return next(self._reads)

    def code_batches(self, chunk_reads: int) -> Iterator[Tuple[np.ndarray, ...]]:
        """Yield the sequences as ``(codes, starts, lengths)`` code batches.

        Each batch is what :func:`~repro.dna.vectorized.encode_batch`
        returns for the same reads, and holds at most ``chunk_reads`` of
        them; a batch never spans two blocks.  A character outside
        ``ACGTN`` (possible only with ``validate=False``) raises
        :class:`~repro.errors.InvalidKmerError` as ``encode_batch`` does.
        """
        if chunk_reads <= 0:
            raise ValueError(f"chunk_reads must be positive, got {chunk_reads}")
        for batch in self._batches:
            yield from batch.code_batches(chunk_reads)


def parse_fastq(source: PathOrHandle, validate: bool = True) -> FastqReads:
    """The :class:`Read` records of a FASTQ file or handle, lazily.

    The parser is strict about the four-line record structure but
    tolerant about quality strings (any printable ASCII); sequence
    characters are validated against A/C/G/T/N unless ``validate`` is
    False.  A file that ends inside a record is reported as truncated,
    with the line its last record starts at; a byte that is not ASCII
    (a gzip-compressed file, say) fails as :class:`FastqFormatError`.

    The file is read in blocks of about a megabyte, and a block of
    well-formed records is checked and encoded by one NumPy scan of its
    bytes.  The returned :class:`FastqReads` can also hand out each block's
    sequences as one code array without building a ``Read`` per record,
    which is how DBG construction takes them.
    """
    return FastqReads(source, validate)


def read_chunks(reads: Iterable[T], chunk_reads: int) -> Iterator[List[T]]:
    """Yield ``reads`` in bounded batches of at most ``chunk_reads``.

    The streaming-ingest entry point: consumers that can process reads
    batch by batch (the vectorized k-mer kernels) iterate chunks rather
    than materialising the whole dataset, so peak memory is bounded by
    the chunk size instead of the input size.  Works on any iterable —
    lists pass through in order, generators are drained lazily.
    """
    if chunk_reads <= 0:
        raise ValueError(f"chunk_reads must be positive, got {chunk_reads}")
    iterator = iter(reads)
    while chunk := list(islice(iterator, chunk_reads)):
        yield chunk


def write_fastq(reads: Iterable[Read], target: PathOrHandle) -> int:
    """Write reads in FASTQ format; returns the number of records written."""
    handle, owns_handle = _open_for_writing(target)
    count = 0
    try:
        for read in reads:
            quality = read.quality if read.quality is not None else "I" * len(read.sequence)
            handle.write(f"@{read.name}\n{read.sequence}\n+\n{quality}\n")
            count += 1
        return count
    finally:
        if owns_handle:
            handle.close()


def _mate_base_name(name: str) -> str:
    """Strip a trailing ``/1`` / ``/2`` mate suffix from a read name."""
    if len(name) >= 2 and name[-2] == "/" and name[-1] in "12":
        return name[:-2]
    return name


def parse_paired_fastq(
    source1: PathOrHandle,
    source2: PathOrHandle,
    validate: bool = True,
) -> Iterator[ReadPair]:
    """Yield :class:`ReadPair` records from two parallel FASTQ files.

    The two files must hold the mates in the same order (the universal
    ``_1.fastq`` / ``_2.fastq`` convention).  Mate names may carry the
    ``/1`` and ``/2`` suffixes; when both do, the base names must agree
    record by record.  A length mismatch between the files is an error
    — truncated pair files silently corrupt scaffolding evidence.
    """
    iterator1 = parse_fastq(source1, validate=validate)
    iterator2 = parse_fastq(source2, validate=validate)
    index = 0
    while True:
        read1 = next(iterator1, None)
        read2 = next(iterator2, None)
        if read1 is None and read2 is None:
            return
        if read1 is None or read2 is None:
            longer = "second" if read1 is None else "first"
            raise FastqFormatError(
                f"paired FASTQ files are out of sync: the {longer} file has "
                f"more records (pair {index} has no mate)"
            )
        base1 = _mate_base_name(read1.name)
        base2 = _mate_base_name(read2.name)
        if base1 != base2:
            raise FastqFormatError(
                f"mate names disagree at pair {index}: {read1.name!r} vs {read2.name!r}"
            )
        yield ReadPair(read1=read1, read2=read2)
        index += 1


def write_paired_fastq(
    pairs: Iterable[ReadPair],
    target1: PathOrHandle,
    target2: PathOrHandle,
) -> int:
    """Write mates to two parallel FASTQ files; returns the pair count.

    Mate names are written exactly as stored; simulators already attach
    the ``/1`` / ``/2`` suffixes.
    """
    handle1, owns1 = _open_for_writing(target1)
    try:
        handle2, owns2 = _open_for_writing(target2)
        try:
            count = 0
            for pair in pairs:
                write_fastq([pair.read1], handle1)
                write_fastq([pair.read2], handle2)
                count += 1
            return count
        finally:
            if owns2:
                handle2.close()
    finally:
        if owns1:
            handle1.close()


# ----------------------------------------------------------------------
# FASTA
# ----------------------------------------------------------------------
def parse_fasta(source: PathOrHandle) -> Iterator[FastaRecord]:
    """Yield :class:`FastaRecord` items from a FASTA file or handle."""
    handle, owns_handle = _open_for_reading(source)
    try:
        name: Optional[str] = None
        chunks: List[str] = []
        for raw_line in handle:
            line = raw_line.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield FastaRecord(name=name, sequence="".join(chunks).upper())
                name = line[1:].strip()
                chunks = []
            else:
                if name is None:
                    raise FastqFormatError("FASTA data before the first '>' header")
                chunks.append(line.strip())
        if name is not None:
            yield FastaRecord(name=name, sequence="".join(chunks).upper())
    finally:
        if owns_handle:
            handle.close()


def write_fasta(
    records: Iterable[FastaRecord],
    target: PathOrHandle,
    line_width: int = 80,
) -> int:
    """Write FASTA records wrapped at ``line_width``; returns record count."""
    if line_width <= 0:
        raise ValueError(f"line_width must be positive, got {line_width}")
    handle, owns_handle = _open_for_writing(target)
    count = 0
    try:
        for record in records:
            handle.write(f">{record.name}\n")
            sequence = record.sequence
            for start in range(0, len(sequence), line_width):
                handle.write(sequence[start : start + line_width] + "\n")
            count += 1
        return count
    finally:
        if owns_handle:
            handle.close()


def reads_from_strings(sequences: Iterable[str], prefix: str = "read") -> List[Read]:
    """Wrap raw sequence strings into :class:`Read` records (test helper)."""
    return [
        Read(name=f"{prefix}-{index}", sequence=sequence.upper())
        for index, sequence in enumerate(sequences)
    ]


def reads_from_pairs(pairs: Iterable[ReadPair]) -> List[Read]:
    """Flatten read pairs into the mate list the DBG stages consume.

    Mates stay adjacent in pair order — the layout every consumer
    (pipeline, CLI, bench harness) relies on.
    """
    return [read for pair in pairs for read in pair]
