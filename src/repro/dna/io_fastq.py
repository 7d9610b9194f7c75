"""FASTQ and FASTA parsing and writing.

The paper's datasets are FASTQ files ("All the datasets are in FASTQ
format, which includes the sequence of each DNA read").  The read
simulator writes FASTQ so the full pipeline — file on disk, parse,
assemble — matches what a user of the original toolkit would do;
assembled contigs are written as FASTA, which is what QUAST consumes.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, List, Optional, TextIO, TypeVar, Union

from ..errors import FastqFormatError
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
#: ``sequence.translate`` with this table deletes every valid base, so
#: whatever is left of a sequence line is invalid (one C call per record).
_DELETE_VALID = str.maketrans("", "", "".join(sorted(VALID_CHARACTERS)))


def _rejected_record(
    sequence: str, separator: str, quality_line: str, line_number: int
) -> FastqFormatError:
    """Why the record whose quality line is ``line_number`` was rejected."""
    if not quality_line:  # readline() hit the end of file inside the record
        return FastqFormatError(
            "truncated record: file ends inside the record starting at line "
            f"{line_number - 3}",
            line_number - 3,
        )
    quality = quality_line.rstrip("\n")
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


def parse_fastq(source: PathOrHandle, validate: bool = True) -> Iterator[Read]:
    """Yield :class:`Read` records from a FASTQ file or handle.

    The parser is strict about the four-line record structure but
    tolerant about quality strings (any printable ASCII); sequence
    characters are validated against A/C/G/T/N unless ``validate`` is
    False.  A file that ends inside a record is reported as truncated,
    with the line its last record starts at.
    """
    handle, owns_handle = _open_for_reading(source)
    try:
        readline = handle.readline
        line_number = 0
        while True:
            header = readline()
            if not header:
                return
            line_number += 1
            header = header.rstrip("\n")
            if not header:
                continue
            if not header.startswith("@"):
                raise FastqFormatError(
                    f"expected '@' header, found {header[:20]!r}", line_number
                )
            sequence = readline().rstrip("\n").upper()
            separator = readline()
            quality_line = readline()
            quality = quality_line.rstrip("\n")
            line_number += 3
            if (
                not separator.startswith("+")
                or len(quality) != len(sequence)
                or (validate and sequence.translate(_DELETE_VALID))
            ):
                raise _rejected_record(sequence, separator, quality_line, line_number)
            yield Read(name=header[1:], sequence=sequence, quality=quality)
    finally:
        if owns_handle:
            handle.close()


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


def parse_fastq_chunks(
    source: PathOrHandle,
    chunk_reads: int,
    validate: bool = True,
) -> Iterator[List[Read]]:
    """Parse a FASTQ file in bounded batches of at most ``chunk_reads``.

    Equivalent to ``read_chunks(parse_fastq(source), chunk_reads)`` —
    the file is read incrementally, never holding more than one chunk
    of records in memory.
    """
    return read_chunks(parse_fastq(source, validate=validate), chunk_reads)


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
