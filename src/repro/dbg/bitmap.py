"""Compact adjacency formats of Figure 8.

During DBG construction every vertex is a k-mer and almost all of its
neighbours are k-mers too, so PPA-assembler stores the adjacency list
of a k-mer vertex as a 32-bit bitmap: one bit per combination of

* edge polarity class — ⟨L:L⟩, ⟨L:H⟩, ⟨H:L⟩, ⟨H:H⟩,
* direction — in-neighbour or out-neighbour,
* the nucleotide that is prepended/appended to form the neighbour.

(4 × 2 × 4 = 32 combinations.)  A parallel list of varint coverage
counts stores one count per set bit.  The neighbour's packed ID is
never stored: it is *recomputed* from the vertex's own ID plus the bit
position, which is what makes the format so small.

The module also implements the uncompressed 8-bit adjacency item of
Figure 8(b) (``000 XX Y ZZ``) and the ``10000000`` NULL item.

Base order within each group is A, C, G, T (the 2-bit code order used
throughout the library); the figure displays A/T/G/C, which only
permutes bit positions and does not change the information content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..dna.encoding import reverse_complement_encoded
from .polarity import LABEL_H, LABEL_L

#: Polarity classes in bit order.
POLARITY_CLASSES: Tuple[str, ...] = ("LL", "LH", "HL", "HH")
_CLASS_INDEX = {polarity: index for index, polarity in enumerate(POLARITY_CLASSES)}

DIRECTION_IN = "in"
DIRECTION_OUT = "out"

#: The 8-bit NULL adjacency item (Figure 8(b), dead-end marker).
NULL_ITEM = 0b1000_0000


def bit_position(polarity: str, direction: str, base_bits: int) -> int:
    """Bit index in the 32-bit bitmap for one neighbour combination."""
    try:
        class_index = _CLASS_INDEX[polarity]
    except KeyError:
        raise ValueError(f"unknown polarity class {polarity!r}") from None
    if direction not in (DIRECTION_IN, DIRECTION_OUT):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    if not 0 <= base_bits <= 3:
        raise ValueError(f"base_bits must be in [0, 3], got {base_bits}")
    direction_offset = 0 if direction == DIRECTION_IN else 4
    return class_index * 8 + direction_offset + base_bits


def split_bit_position(position: int) -> Tuple[str, str, int]:
    """Inverse of :func:`bit_position`: ``(polarity, direction, base_bits)``."""
    if not 0 <= position < 32:
        raise ValueError(f"bit position must be in [0, 32), got {position}")
    class_index, remainder = divmod(position, 8)
    direction = DIRECTION_IN if remainder < 4 else DIRECTION_OUT
    return POLARITY_CLASSES[class_index], direction, remainder % 4


@dataclass
class AdjacencyBitmap:
    """The 32-bit neighbour bitmap plus per-edge coverage counts."""

    bits: int = 0
    _coverage: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._coverage is None:
            self._coverage = {}

    # -- mutation ---------------------------------------------------------
    def add(self, polarity: str, direction: str, base_bits: int, coverage: int = 1) -> None:
        """Record one observed edge (incrementing coverage if already present)."""
        position = bit_position(polarity, direction, base_bits)
        self.bits |= 1 << position
        self._coverage[position] = self._coverage.get(position, 0) + coverage

    def merge(self, other: "AdjacencyBitmap") -> None:
        """Union with another partial bitmap, summing coverage (reduce step)."""
        self.bits |= other.bits
        for position, coverage in other._coverage.items():
            self._coverage[position] = self._coverage.get(position, 0) + coverage

    # -- queries ----------------------------------------------------------
    def has(self, polarity: str, direction: str, base_bits: int) -> bool:
        return bool(self.bits & (1 << bit_position(polarity, direction, base_bits)))

    def coverage_at(self, polarity: str, direction: str, base_bits: int) -> int:
        return self._coverage.get(bit_position(polarity, direction, base_bits), 0)

    def degree(self) -> int:
        """Number of set bits (distinct neighbour combinations)."""
        return bin(self.bits).count("1")

    def entries(self) -> Iterator[Tuple[str, str, int, int]]:
        """Yield ``(polarity, direction, base_bits, coverage)`` per set bit."""
        bits = self.bits
        position = 0
        while bits:
            if bits & 1:
                polarity, direction, base_bits = split_bit_position(position)
                yield polarity, direction, base_bits, self._coverage.get(position, 0)
            bits >>= 1
            position += 1

    def coverage_list(self) -> List[int]:
        """Coverage counts in bit order (the paper stores them as varints)."""
        return [self._coverage.get(position, 0) for position in sorted(self._coverage)]

    def copy(self) -> "AdjacencyBitmap":
        clone = AdjacencyBitmap(bits=self.bits)
        clone._coverage = dict(self._coverage)
        return clone

    @classmethod
    def from_positions(cls, positions, coverages) -> "AdjacencyBitmap":
        """Build a bitmap from parallel bit-position / coverage sequences.

        ``positions`` must be distinct (pre-aggregated) bit indices,
        as the vectorized construction path's segment-reduce produces
        them; its parity tests build the oracle's bitmaps with this.
        """
        bitmap = cls()
        bits = 0
        for position, coverage in zip(positions, coverages):
            bits |= 1 << position
            bitmap._coverage[position] = coverage
        bitmap.bits = bits
        return bitmap


# ----------------------------------------------------------------------
# neighbour reconstruction
# ----------------------------------------------------------------------
def neighbor_kmer_id(vertex_id: int, k: int, polarity: str, direction: str, base_bits: int) -> int:
    """Recompute a neighbour's canonical packed ID from a bitmap entry.

    Follows the recipe in Section IV-A: orient the current k-mer
    according to the polarity label on *our* side of the edge, prepend
    or append the recorded base to obtain the neighbour's observed
    sequence, then reverse-complement if the label on the *neighbour's*
    side is H.
    """
    if len(polarity) != 2:
        raise ValueError(f"polarity must be two characters, got {polarity!r}")
    source_label, target_label = polarity[0], polarity[1]
    k_mask = (1 << (2 * k)) - 1
    tail_mask = (1 << (2 * (k - 1))) - 1

    if direction == DIRECTION_OUT:
        # We are the edge source (prefix); our label is the source label.
        my_label, neighbor_label = source_label, target_label
        observed = vertex_id if my_label == LABEL_L else reverse_complement_encoded(vertex_id, k)
        neighbor_observed = ((observed & tail_mask) << 2) | base_bits
    elif direction == DIRECTION_IN:
        # We are the edge target (suffix); our label is the target label.
        my_label, neighbor_label = target_label, source_label
        observed = vertex_id if my_label == LABEL_L else reverse_complement_encoded(vertex_id, k)
        neighbor_observed = (base_bits << (2 * (k - 1))) | (observed >> 2)
    else:
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")

    neighbor_observed &= k_mask
    if neighbor_label == LABEL_H:
        return reverse_complement_encoded(neighbor_observed, k)
    return neighbor_observed


def expand_bitmap(vertex_id: int, k: int, bitmap: AdjacencyBitmap) -> List[Tuple[int, str, str, int, int]]:
    """Expand a bitmap into ``(neighbor_id, polarity, direction, base_bits, coverage)``."""
    expanded = []
    for polarity, direction, base_bits, coverage in bitmap.entries():
        neighbor = neighbor_kmer_id(vertex_id, k, polarity, direction, base_bits)
        expanded.append((neighbor, polarity, direction, base_bits, coverage))
    return expanded


# ----------------------------------------------------------------------
# 8-bit adjacency items (Figure 8(b))
# ----------------------------------------------------------------------
def encode_item(base_bits: int, direction: str, polarity: str) -> int:
    """Pack one uncompressed adjacency item into the 8-bit format."""
    if not 0 <= base_bits <= 3:
        raise ValueError(f"base_bits must be in [0, 3], got {base_bits}")
    direction_bit = 0 if direction == DIRECTION_IN else 1
    try:
        class_index = _CLASS_INDEX[polarity]
    except KeyError:
        raise ValueError(f"unknown polarity class {polarity!r}") from None
    return (base_bits << 3) | (direction_bit << 2) | class_index


def decode_item(item: int) -> Tuple[int, str, str]:
    """Unpack an 8-bit adjacency item into ``(base_bits, direction, polarity)``."""
    if item == NULL_ITEM:
        raise ValueError("cannot decode the NULL adjacency item")
    if item & 0b1110_0000:
        raise ValueError(f"invalid adjacency item {item:#010b}")
    base_bits = (item >> 3) & 0b11
    direction = DIRECTION_OUT if item & 0b100 else DIRECTION_IN
    polarity = POLARITY_CLASSES[item & 0b11]
    return base_bits, direction, polarity


def is_null_item(item: int) -> bool:
    """True for the dead-end marker item."""
    return item == NULL_ITEM
