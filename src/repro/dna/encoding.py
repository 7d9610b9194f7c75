"""Packed k-mer representation and the vertex-ID formats of Figure 7.

The paper encodes every k-mer (k ≤ 31) directly into a 64-bit integer
vertex ID: each base takes two bits (A=00, C=01, G=10, T=11), the
packed bits are right-aligned, and the remaining high bits are zero.
Special IDs reuse the two most significant bits:

* ``NULL`` (Figure 7(b)) — MSB set, everything else zero; marks a
  dead-end neighbour.
* contig IDs (Figure 7(c)) — MSB set, upper 31 bits hold the worker
  index and the lower 32 bits the per-worker contig counter.
* "flipped" IDs — during contig labeling, a contig-end vertex replaces
  its edge to an ambiguous neighbour with a self-loop whose target has
  the *second* most significant bit set (Section IV-B, op ②).

Working on packed integers keeps the memory footprint close to the
paper's C++ implementation and lets reverse complementation run as a
handful of bit operations.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..errors import InvalidKmerError
from .alphabet import BASE_TO_BITS, BITS_TO_BASE

#: Maximum k for which a k-mer fits the 62 payload bits of a 64-bit ID.
MAX_K = 31

_UINT64_MASK = (1 << 64) - 1

#: Figure 7(b): the NULL neighbour marker.
NULL_ID = 1 << 63

#: Mask of the "this is not a plain k-mer" bit (MSB).
SPECIAL_BIT = 1 << 63

#: The contig-end marker bit used during labeling (second MSB).
FLIP_BIT = 1 << 62


# ----------------------------------------------------------------------
# k-mer packing
# ----------------------------------------------------------------------
def encode_kmer(sequence: str) -> int:
    """Pack a k-mer string into its 64-bit integer ID (Figure 7(a))."""
    k = len(sequence)
    if k == 0 or k > MAX_K:
        raise InvalidKmerError(f"k must be in [1, {MAX_K}], got {k}")
    encoded = 0
    for base in sequence:
        try:
            bits = BASE_TO_BITS[base]
        except KeyError:
            raise InvalidKmerError(f"invalid base {base!r} in k-mer {sequence!r}") from None
        encoded = (encoded << 2) | bits
    return encoded


def decode_kmer(encoded: int, k: int) -> str:
    """Unpack a 64-bit k-mer ID back into its string form."""
    if k <= 0 or k > MAX_K:
        raise InvalidKmerError(f"k must be in [1, {MAX_K}], got {k}")
    if encoded & SPECIAL_BIT:
        raise InvalidKmerError("cannot decode a NULL/contig ID as a k-mer")
    bases: List[str] = []
    for shift in range(2 * (k - 1), -2, -2):
        bases.append(BITS_TO_BASE[(encoded >> shift) & 0b11])
    return "".join(bases)


def reverse_complement_encoded(encoded: int, k: int) -> int:
    """Reverse complement of a packed k-mer without decoding it.

    Complementation is a bitwise NOT under the paper's base-to-bit
    assignment; the reversal swaps 2-bit groups end to end.
    """
    complemented = (~encoded) & ((1 << (2 * k)) - 1)
    reversed_bits = 0
    for _ in range(k):
        reversed_bits = (reversed_bits << 2) | (complemented & 0b11)
        complemented >>= 2
    return reversed_bits


def canonical_encoded(encoded: int, k: int) -> Tuple[int, bool]:
    """Canonical form of a packed k-mer.

    Returns ``(canonical_id, was_reverse_complemented)``.  The paper
    defines the canonical k-mer as the lexicographically smaller of the
    k-mer and its reverse complement; under the 2-bit code the
    lexicographic order of strings coincides with the numeric order of
    the packed integers, so a plain integer comparison suffices.
    """
    rc = reverse_complement_encoded(encoded, k)
    if rc < encoded:
        return rc, True
    return encoded, False


def iter_encoded_kmers(sequence: str, k: int) -> Iterator[int]:
    """Yield the packed IDs of every k-mer in ``sequence`` (rolling encode)."""
    if len(sequence) < k:
        return
    mask = (1 << (2 * k)) - 1
    encoded = encode_kmer(sequence[:k])
    yield encoded
    for base in sequence[k:]:
        try:
            bits = BASE_TO_BITS[base]
        except KeyError:
            raise InvalidKmerError(f"invalid base {base!r} in sequence") from None
        encoded = ((encoded << 2) | bits) & mask
        yield encoded


# ----------------------------------------------------------------------
# special IDs (Figure 7(b) and 7(c))
# ----------------------------------------------------------------------
def is_null(vertex_id: int) -> bool:
    """True if ``vertex_id`` is the NULL dead-end marker."""
    return vertex_id == NULL_ID


def make_contig_id(worker_id: int, contig_order: int) -> int:
    """Contig vertex ID: MSB set, then 31 bits of worker, 32 bits of order."""
    if worker_id < 0 or worker_id >= (1 << 31):
        raise ValueError(f"worker_id must fit in 31 bits, got {worker_id}")
    if contig_order < 0 or contig_order >= (1 << 32):
        raise ValueError(f"contig_order must fit in 32 bits, got {contig_order}")
    if worker_id == 0 and contig_order == 0:
        # Would collide with NULL_ID; shift the numbering by one.
        raise ValueError("contig_order 0 on worker 0 is reserved for NULL")
    return SPECIAL_BIT | (worker_id << 32) | contig_order


def is_contig_id(vertex_id: int) -> bool:
    """True if ``vertex_id`` identifies a contig vertex (not NULL, not k-mer)."""
    return bool(vertex_id & SPECIAL_BIT) and vertex_id != NULL_ID and not (vertex_id & FLIP_BIT)


def split_contig_id(vertex_id: int) -> Tuple[int, int]:
    """Recover ``(worker_id, contig_order)`` from a contig vertex ID."""
    if not is_contig_id(vertex_id):
        raise ValueError(f"{vertex_id} is not a contig ID")
    payload = vertex_id & ~SPECIAL_BIT
    return payload >> 32, payload & 0xFFFFFFFF


def is_kmer_id(vertex_id: int) -> bool:
    """True for plain packed k-mer IDs (no special bits set)."""
    return not (vertex_id & (SPECIAL_BIT | FLIP_BIT))


def flip_id(vertex_id: int) -> int:
    """Set the contig-end marker bit (op ② uses this for self-loop targets)."""
    return vertex_id | FLIP_BIT


def unflip_id(vertex_id: int) -> int:
    """Clear the contig-end marker bit."""
    return vertex_id & ~FLIP_BIT


def is_flipped(vertex_id: int) -> bool:
    """True if the contig-end marker bit is set."""
    return bool(vertex_id & FLIP_BIT)
