"""Canonical k-mers and (k+1)-mer extraction from reads.

Section III of the paper: every read is cut into consecutive
``(k+1)``-mers; the prefix and suffix k-mers of each ``(k+1)``-mer
become DBG vertices and the ``(k+1)``-mer itself becomes the edge
between them.  Because reads come from either strand, a k-mer and its
reverse complement identify the same position, so DBG vertices are
*canonical* k-mers and every edge endpoint carries a polarity label
(L if the k-mer was already canonical, H if it had to be
reverse-complemented) — see :mod:`repro.dbg.polarity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..errors import InvalidKmerError
from .encoding import MAX_K, canonical_encoded, iter_encoded_kmers
from .sequence import split_on_ambiguous


@dataclass(frozen=True)
class CanonicalKmer:
    """A canonical k-mer plus the orientation of the observation.

    Attributes
    ----------
    kmer_id:
        Packed 64-bit ID of the canonical form.
    was_reverse_complemented:
        True if the observed k-mer had to be reverse-complemented to
        obtain the canonical form — this is what determines the H/L
        polarity label of the corresponding edge endpoint.
    """

    kmer_id: int
    was_reverse_complemented: bool

    def polarity_label(self) -> str:
        """``"H"`` if the observation was the reverse complement, else ``"L"``."""
        return "H" if self.was_reverse_complemented else "L"


@dataclass(frozen=True)
class KPlusOneMer:
    """One observed (k+1)-mer: a DBG edge from its prefix to its suffix."""

    prefix: CanonicalKmer
    suffix: CanonicalKmer
    edge_id: int  # packed (k+1)-mer, as observed (not canonicalised)

    def polarity(self) -> str:
        """Edge polarity string, e.g. ``"LH"`` (⟨L:H⟩ in the paper)."""
        return self.prefix.polarity_label() + self.suffix.polarity_label()


def validate_k(k: int) -> None:
    """Raise unless ``1 <= k <= MAX_K`` (the 64-bit ID limit of Figure 7)."""
    if k < 1 or k > MAX_K:
        raise InvalidKmerError(f"k must be in [1, {MAX_K}], got {k}")


def extract_kplus1mers(read_sequence: str, k: int) -> Iterator[KPlusOneMer]:
    """Yield every (k+1)-mer of a read as prefix/suffix canonical k-mers.

    The read is first split on ``N`` (undetermined bases); fragments
    shorter than ``k + 1`` are skipped, matching the paper's remark that
    reads shorter than ``k + 1`` are ignored.
    """
    validate_k(k)
    window = k + 1
    kmer_mask = (1 << (2 * k)) - 1
    for fragment in split_on_ambiguous(read_sequence):
        if len(fragment) < window:
            continue
        for edge_id in iter_encoded_kmers(fragment, window):
            prefix_id = edge_id >> 2
            suffix_id = edge_id & kmer_mask
            prefix_canonical, prefix_rc = canonical_encoded(prefix_id, k)
            suffix_canonical, suffix_rc = canonical_encoded(suffix_id, k)
            yield KPlusOneMer(
                prefix=CanonicalKmer(prefix_canonical, prefix_rc),
                suffix=CanonicalKmer(suffix_canonical, suffix_rc),
                edge_id=edge_id,
            )


def extract_canonical_kmer_ids(read_sequence: str, k: int) -> List[int]:
    """Canonical IDs of every k-mer in a read (fragments split on ``N``)."""
    validate_k(k)
    ids: List[int] = []
    for fragment in split_on_ambiguous(read_sequence):
        if len(fragment) < k:
            continue
        for encoded in iter_encoded_kmers(fragment, k):
            canonical_id, _ = canonical_encoded(encoded, k)
            ids.append(canonical_id)
    return ids
