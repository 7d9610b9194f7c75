"""String-level DNA sequence operations.

These helpers operate on plain Python strings (``"ACGT..."``).  The
packed 2-bit representation used inside the de Bruijn graph lives in
:mod:`repro.dna.encoding`; this module is the human-readable side used
by IO, the read simulator and quality assessment.
"""

from __future__ import annotations

from typing import Iterator, List

from ..errors import InvalidNucleotideError
from .alphabet import AMBIGUOUS, complement_translation_table

_COMPLEMENT_TABLE = complement_translation_table()


def reverse_complement(sequence: str) -> str:
    """Reverse complement ``rc(s)`` as defined in Section III.

    ``rc(x1 x2 ... xl) = x̄l x̄(l-1) ... x̄1``; reading the opposite strand
    in the 5'→3' direction yields exactly this sequence.
    """
    return sequence.translate(_COMPLEMENT_TABLE)[::-1]


def canonical(sequence: str) -> str:
    """Lexicographically smaller of ``sequence`` and its reverse complement.

    The paper uses canonical k-mers as DBG vertex identities so that a
    k-mer and its reverse complement map to the same vertex.
    """
    rc = reverse_complement(sequence)
    return sequence if sequence <= rc else rc


def gc_content(sequence: str) -> float:
    """Fraction of G/C bases (ignoring ``N``); 0.0 for empty input.

    Uses ``str.count`` (a C-level scan) instead of per-character
    generator passes; on benchmark-sized genomes this is ~30x faster.
    """
    if not sequence:
        return 0.0
    gc = sequence.count("G") + sequence.count("C")
    informative = len(sequence) - sequence.count(AMBIGUOUS)
    if informative == 0:
        return 0.0
    return gc / informative


def split_on_ambiguous(sequence: str) -> List[str]:
    """Split a read on ``N`` characters (op ① of the paper).

    Returns the maximal N-free fragments, dropping empty pieces, e.g.
    ``"ACNNGT"`` → ``["AC", "GT"]``.
    """
    return [fragment for fragment in sequence.split(AMBIGUOUS) if fragment]


def kmerize(sequence: str, k: int) -> Iterator[str]:
    """Yield every length-``k`` substring (sliding window, step 1)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    for start in range(len(sequence) - k + 1):
        yield sequence[start : start + k]


def overlap_concatenate(left: str, right: str, overlap: int) -> str:
    """Stitch two sequences that share ``overlap`` characters.

    Used by contig merging: consecutive k-mers on an unambiguous path
    overlap by ``k - 1`` characters, so only the non-overlapping suffix
    of ``right`` is appended.
    """
    if overlap < 0:
        raise ValueError(f"overlap must be non-negative, got {overlap}")
    if overlap > len(right):
        raise ValueError(
            f"overlap {overlap} exceeds right-hand sequence length {len(right)}"
        )
    if overlap and left[-overlap:] != right[:overlap]:
        raise ValueError(
            f"sequences do not overlap by {overlap} characters: "
            f"{left[-overlap:]!r} vs {right[:overlap]!r}"
        )
    return left + right[overlap:]


def hamming_distance(left: str, right: str) -> int:
    """Number of mismatching positions between equal-length sequences."""
    if len(left) != len(right):
        raise ValueError("hamming_distance requires equal-length sequences")
    return sum(1 for a, b in zip(left, right) if a != b)


def edit_distance(left: str, right: str, upper_bound: int | None = None) -> int:
    """Levenshtein distance between two sequences.

    Bubble filtering only needs to know whether the distance is below a
    small threshold, so ``upper_bound`` enables the standard band
    optimisation: as soon as every entry of a DP row exceeds the bound
    the function returns ``upper_bound + 1`` ("too different"), which
    keeps the comparison linear in practice.
    """
    if left == right:
        return 0
    if upper_bound is not None and abs(len(left) - len(right)) > upper_bound:
        return upper_bound + 1
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for row, base_left in enumerate(left, start=1):
        current = [row] + [0] * len(right)
        best = row
        for column, base_right in enumerate(right, start=1):
            cost = 0 if base_left == base_right else 1
            current[column] = min(
                previous[column] + 1,        # deletion
                current[column - 1] + 1,     # insertion
                previous[column - 1] + cost,  # substitution / match
            )
            if current[column] < best:
                best = current[column]
        if upper_bound is not None and best > upper_bound:
            return upper_bound + 1
        previous = current
    return previous[-1]
