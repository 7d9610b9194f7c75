"""``parse_fastq`` against the per-base loop it replaced, on hostile files.

The reference below is the parser as it stood before validation moved
into one ``str.translate`` call per record — written out here, with the
one intended difference (a file that ends inside a rejected record is
reported as truncated, at the line that record starts on).  Hypothesis
builds well-formed FASTQ text, damages it, and requires the two parsers
to agree on every read yielded and on the error that ends the parse,
from a path and from a handle.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.alphabet import VALID_CHARACTERS
from repro.dna.io_fastq import Read, parse_fastq
from repro.errors import FastqFormatError


def reference_parse(handle, validate=True):
    line_number = 0
    while True:
        header = handle.readline()
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
        sequence = handle.readline().rstrip("\n").upper()
        separator = handle.readline().rstrip("\n")
        quality_line = handle.readline()
        quality = quality_line.rstrip("\n")
        line_number += 3
        truncated = FastqFormatError(
            "truncated record: file ends inside the record starting at line "
            f"{line_number - 3}",
            line_number - 3,
        )
        if not separator.startswith("+"):
            if not quality_line:
                raise truncated
            raise FastqFormatError("missing '+' separator line", line_number - 1)
        if len(quality) != len(sequence):
            if not quality_line:
                raise truncated
            raise FastqFormatError(
                f"quality length {len(quality)} != sequence length {len(sequence)}",
                line_number,
            )
        if validate:
            for position, character in enumerate(sequence):
                if character not in VALID_CHARACTERS:
                    raise FastqFormatError(
                        f"invalid sequence character {character!r} at column {position}",
                        line_number - 2,
                    )
        yield Read(name=header[1:], sequence=sequence, quality=quality)


def outcome(reads):
    """Every read yielded, then how the parse ended."""
    yielded = []
    try:
        for read in reads:
            yielded.append(read)
    except FastqFormatError as error:
        return yielded, (error.message, error.line_number, str(error))
    return yielded, None


PRINTABLE = st.characters(min_codepoint=33, max_codepoint=126)
RECORDS = st.lists(
    st.tuples(
        st.text(PRINTABLE, max_size=12),
        st.text(st.sampled_from("ACGTN"), max_size=30),
    ),
    max_size=6,
)
DAMAGE = st.lists(
    st.tuples(
        st.sampled_from(
            ["blank", "lower", "bad_base", "separator", "quality", "cut", "no_newline"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        PRINTABLE,
    ),
    max_size=3,
)


def damaged_text(records, damage) -> str:
    lines = []  # one [header, sequence, separator, quality] per record
    for name, sequence in records:
        lines.append(["@" + name, sequence, "+", "I" * len(sequence)])
    blank_before = {}
    cut = None
    strip_newline = False
    for kind, first, second, character in damage:
        if kind == "cut":
            cut = first
        elif kind == "no_newline":
            strip_newline = True
        if not lines:
            continue
        record = lines[first % len(lines)]
        if kind == "blank":
            blank_before[first % len(lines)] = 1 + second % 2
        elif kind == "lower":
            record[1] = record[1].lower()
        elif kind == "bad_base":
            column = second % (len(record[1]) + 1)
            record[1] = record[1][:column] + character + record[1][column + 1 :]
            record[3] = "I" * len(record[1])
        elif kind == "separator":
            record[2] = character + record[2][1:] if second % 2 else ""
        elif kind == "quality":
            record[3] = record[3][: second % (len(record[3]) + 1)] + "I" * (second % 3)
    text = ""
    for index, record in enumerate(lines):
        text += "\n" * blank_before.get(index, 0)
        text += "".join(line + "\n" for line in record)
    if cut is not None:
        text = text[: cut % (len(text) + 1)]
    if strip_newline and text.endswith("\n"):
        text = text[:-1]
    return text


@pytest.fixture(scope="module")
def fastq_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "reads.fastq"


@settings(max_examples=400, deadline=None)
@given(records=RECORDS, damage=DAMAGE, validate=st.booleans())
def test_parser_agrees_with_the_per_base_loop(fastq_path, records, damage, validate):
    text = damaged_text(records, damage)
    expected = outcome(reference_parse(io.StringIO(text), validate))
    assert outcome(parse_fastq(io.StringIO(text), validate=validate)) == expected
    fastq_path.write_text(text, encoding="ascii")
    assert outcome(parse_fastq(fastq_path, validate=validate)) == expected


@settings(max_examples=200, deadline=None)
@given(records=RECORDS.filter(bool), cut=st.integers(min_value=0, max_value=10_000))
def test_every_truncation_point_agrees(records, cut):
    whole = damaged_text(records, [])
    text = whole[: cut % len(whole)]
    expected = outcome(reference_parse(io.StringIO(text)))
    assert outcome(parse_fastq(io.StringIO(text))) == expected
    # Cutting can only drop reads from the end, never invent or alter one.
    assert expected[0] == outcome(parse_fastq(io.StringIO(whole)))[0][: len(expected[0])]


@pytest.mark.parametrize(
    "text, message, line_number",
    [
        ("@r\n", "truncated record: file ends inside the record starting at line 1", 1),
        ("@r\nACGT", "truncated record: file ends inside the record starting at line 1", 1),
        ("@r\nACGT\n+\n", "truncated record: file ends inside the record starting at line 1", 1),
        (
            "@a\nAC\n+\nII\n\n@r\nACGT\n+",
            "truncated record: file ends inside the record starting at line 6",
            6,
        ),
        # The quality line exists, so this is a mismatch and not a truncation.
        ("@r\nACGT\n+\nII", "quality length 2 != sequence length 4", 4),
        ("@r\nACGT\n-\nIIII\n", "missing '+' separator line", 3),
        ("@r\nACXT\n+\nIIII\n", "invalid sequence character 'X' at column 2", 2),
    ],
)
def test_rejections_are_typed_and_located(text, message, line_number):
    with pytest.raises(FastqFormatError) as caught:
        list(parse_fastq(io.StringIO(text)))
    assert caught.value.message == message
    assert caught.value.line_number == line_number
    assert str(caught.value) == f"{message} (line {line_number})"


@pytest.mark.parametrize(
    "text, reads",
    [
        ("@r\nACGT\n+\nIIII", [Read("r", "ACGT", "IIII")]),  # no final newline
        ("@r\n\n+\n", [Read("r", "", "")]),  # an empty read
        ("@r\n\n+", [Read("r", "", "")]),  # ... whose quality line is the end of file
        ("\n\n@r\nacgtn\n+r\n!!!!!\n\n", [Read("r", "ACGTN", "!!!!!")]),
        ("", []),
    ],
)
def test_accepted_files_are_unchanged(text, reads):
    assert list(parse_fastq(io.StringIO(text))) == reads
