"""NumPy batch kernels for the k-mer pipeline.

The scalar encoders in :mod:`repro.dna.encoding` process one base per
Python bytecode loop iteration; at benchmark scale the DBG-construction
phase spends almost all of its time there.  This module provides the
same operations as array kernels over whole *batches* of reads: bases
are mapped to the paper's 2-bit code with a 256-entry lookup table in
one ``bytes.translate`` pass (a FASTQ block's sequence lines are
encoded whole, the newline breaking windows as ``N`` does),
(k+1)-mer windows are packed from two overlapping pieces (pieces of 1,
2, 4, ... P bases are built by doubling in ``uint8``/``uint16``/
``uint32`` lanes up to the largest power of two P <= window, and a
window is the piece at its start widened to ``uint64`` OR the masked
tail of the piece ending where it ends), and reverse complementation
is the classic 2-bit-group reversal bit-twiddle — no per-base Python
loops anywhere.

Every kernel is bit-identical to its scalar counterpart (the property
tests in ``tests/dna/test_vectorized_parity.py`` assert this on random
reads), so callers may switch between the two freely; the scalar
implementations remain the reference oracle.

``AssemblyConfig.use_vectorized`` selects these kernels (on by
default); off pins the scalar reference path.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import InvalidKmerError

#: Largest window that fits a 64-bit lane.  Construction canonicalises
#: (k+1)-mers, so with MAX_K = 31 windows go up to 32 bases.
MAX_WINDOW = 32

#: Code assigned to ``N`` (and to the newline between the reads of a
#: FASTQ block) by the base LUT: any code >= 4 breaks a sliding window,
#: mirroring the scalar path's split-on-N semantics.
_BREAK_CODE = 4

#: LUT slot for characters that are invalid even as separators.
INVALID_CODE = 255

#: Narrowest unsigned lane holding a packed piece of that many bases.
_PIECE_LANES = {2: "uint8", 4: "uint8", 8: "uint16", 16: "uint32", 32: "uint64"}


def _lut(bases: str, breaks: str) -> bytes:
    """256-entry ASCII -> 2-bit-code table: the i-th character of
    ``bases`` gets code ``i % 4``, and ``breaks`` break windows."""
    table = bytearray([INVALID_CODE]) * 256
    for bits, base in enumerate(bases):
        table[ord(base)] = bits % 4
    for character in breaks:
        table[ord(character)] = _BREAK_CODE
    return bytes(table)


#: The LUT of :func:`encode_batch` (upper-case reads joined with ``N``)
#: and the one of FASTQ sequence lines (either case, the newline
#: breaking windows).
_BASE_LUT = _lut("ACGT", "N")
_LINES_LUT = _lut("ACGTacgt", "Nn\n")


def _encode(text: str, lut: bytes):
    """``text`` as a uint8 code array, in one ``bytes.translate`` pass.

    Raises :class:`~repro.errors.InvalidKmerError` naming the first
    character ``lut`` has no code for.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvalidKmerError(
            f"invalid non-ASCII base {exc.object[exc.start]!r} in read batch"
        ) from None
    codes = np.frombuffer(raw.translate(lut), dtype=np.uint8)
    if codes.size and codes.max() == INVALID_CODE:
        bad = text[int(np.argmax(codes == INVALID_CODE))]
        raise InvalidKmerError(f"invalid base {bad!r} in read batch")
    return codes


def _starts(lengths):
    """Offset of each read in a code array with one separator between reads."""
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1] + 1, out=starts[1:])
    return starts


def encode_batch(sequences: Sequence[str]):
    """Encode a batch of reads into one contiguous code array.

    Reads are joined with an ``N`` separator (which breaks sliding
    windows exactly like a real undetermined base, so windows never
    span reads).  Returns ``(codes, starts, lengths)`` where ``codes``
    is the uint8 code array of the joined text, ``starts[i]`` is the
    offset of read ``i`` inside it, and ``lengths[i]`` its length.

    Raises :class:`~repro.errors.InvalidKmerError` on any character
    outside ``ACGTN``, matching the scalar encoders.
    """
    codes = _encode("N".join(sequences), _BASE_LUT)
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    return codes, _starts(lengths), lengths


def line_codes(raw: bytes):
    """ASCII FASTQ text as a uint8 array under the sequence-line LUT.

    Bases of either case get their 2-bit code, ``N`` and the newline
    the break code, and every other byte :data:`INVALID_CODE`; one
    ``bytes.translate`` pass.
    """
    return np.frombuffer(raw.translate(_LINES_LUT), dtype=np.uint8)


def line_batches(codes, lengths, chunk_reads: int):
    """Consecutive ``(codes, starts, lengths)`` batches of reads given as
    one code array with a break code between reads.

    ``codes`` holds ``len(lengths)`` reads of the given lengths, as
    :func:`line_codes` makes of a FASTQ block's sequence lines and
    :func:`encode_batch` of a list of reads.  Each batch holds at most
    ``chunk_reads`` reads and is a view of ``codes``, equal to what
    :func:`encode_batch` returns for the same reads.
    """
    starts = _starts(lengths)
    for first in range(0, lengths.size, chunk_reads):
        batch = slice(first, first + chunk_reads)
        offset = starts[first]
        end = starts[batch][-1] + lengths[batch][-1]
        yield codes[offset:end], starts[batch] - offset, lengths[batch]


def sliding_window_ids(codes, window: int):
    """Packed IDs of every length-``window`` window of a code array.

    Returns ``(ids, valid)``: ``ids[i]`` packs the 2-bit codes of
    ``codes[i : i + window]`` (garbage where the window contains a
    break/N — always check ``valid``), and ``valid[i]`` is True when
    the window contains only A/C/G/T codes.
    """
    if not 1 <= window <= MAX_WINDOW:
        raise InvalidKmerError(f"window must be in [1, {MAX_WINDOW}], got {window}")
    num_windows = codes.size - window + 1
    if num_windows <= 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
    # Pieces of 1, 2, 4, ... P bases are built by doubling, each in the
    # narrowest lane that holds it, up to the largest power of two
    # P <= window; ``broken`` doubles alongside: does a piece contain a
    # break code?  A window is then two overlapping pieces: the one at
    # its start, widened to 64 bits, and the last ``window - P`` bases
    # of the one ending where it ends.  Shifts are multiplications by
    # powers of four, which NumPy vectorises where it does not shift
    # narrow lanes.
    piece = codes & np.uint8(3)
    broken = codes >= _BREAK_CODE
    span = 1
    while 2 * span <= window:
        lane = np.dtype(_PIECE_LANES[2 * span])
        if piece.dtype != lane:
            piece = piece.astype(lane)
        doubled = piece[:-span] * lane.type(1 << (2 * span))
        doubled |= piece[span:]
        piece = doubled
        broken = broken[:-span] | broken[span:]
        span *= 2
    rest = window - span
    ids = piece[:num_windows].astype(np.uint64)
    invalid = broken[:num_windows]
    if rest:
        ids *= np.uint64(1 << (2 * rest))
        tail = piece[rest : rest + num_windows]  # ``piece`` is ours to overwrite
        tail &= piece.dtype.type((1 << (2 * rest)) - 1)
        ids |= tail
        invalid = invalid | broken[rest : rest + num_windows]
    return ids, ~invalid


def window_ids(codes, starts, lengths, window: int):
    """Observed packed window IDs of a code batch, plus per-read counts.

    ``(codes, starts, lengths)`` is a batch as :func:`encode_batch` or
    :func:`line_batches` returns it.  Windows containing a break code
    are dropped, and the IDs are emitted in read order, then position
    order.  Returns ``(ids, counts)`` with ``counts[i] == number of
    windows emitted by read i``.
    """
    ids, valid = sliding_window_ids(codes, window)
    # Read i owns the windows starting in [starts[i], starts[i] + windows[i]);
    # the broken ones among them are counted by bisecting the sorted
    # positions of the broken windows, not by a cumsum over every window.
    windows = np.maximum(lengths - (window - 1), 0)
    broken = np.flatnonzero(~valid)
    counts = windows - (
        np.searchsorted(broken, starts + windows) - np.searchsorted(broken, starts)
    )
    return ids[valid], counts


def extract_window_ids(sequences: Sequence[str], window: int):
    """Observed packed window IDs of every read, plus per-read counts.

    Mirrors the scalar pipeline ``split_on_ambiguous`` +
    :func:`~repro.dna.encoding.iter_encoded_kmers` exactly: windows
    containing ``N`` are dropped, fragments shorter than ``window``
    contribute nothing, and the IDs are emitted in read order, then
    position order.  Returns ``(ids, counts)`` with
    ``counts[i] == number of windows emitted by read i``.
    """
    return window_ids(*encode_batch(sequences), window)


def reverse_complement_ids(ids, k: int):
    """Vectorized :func:`~repro.dna.encoding.reverse_complement_encoded`.

    Complementation is a bitwise NOT under the paper's base code; the
    reversal swaps 2-bit groups with five mask-and-shift rounds over
    the full 64-bit lane, then right-aligns the result.
    """
    if not 1 <= k <= MAX_WINDOW:
        raise InvalidKmerError(f"k must be in [1, {MAX_WINDOW}], got {k}")
    ids = ids.astype(np.uint64, copy=False)
    payload_mask = np.uint64(((1 << (2 * k)) - 1) & 0xFFFFFFFFFFFFFFFF)
    x = (~ids) & payload_mask
    pairs = np.uint64(0x3333333333333333)
    x = ((x >> np.uint64(2)) & pairs) | ((x & pairs) << np.uint64(2))
    nibbles = np.uint64(0x0F0F0F0F0F0F0F0F)
    x = ((x >> np.uint64(4)) & nibbles) | ((x & nibbles) << np.uint64(4))
    bytes_ = np.uint64(0x00FF00FF00FF00FF)
    x = ((x >> np.uint64(8)) & bytes_) | ((x & bytes_) << np.uint64(8))
    shorts = np.uint64(0x0000FFFF0000FFFF)
    x = ((x >> np.uint64(16)) & shorts) | ((x & shorts) << np.uint64(16))
    x = (x >> np.uint64(32)) | (x << np.uint64(32))
    return x >> np.uint64(64 - 2 * k)


#: 2-bit code -> ASCII base, the inverse of :data:`_BASE_LUT`.
_CODE_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)

#: IDs decoded per array pass: bounds the ``len x k`` uint64 code
#: temporary (≈2 MB at k = 31) whatever the number of IDs.
DECODE_BLOCK = 8192


def decode_ids(ids, k: int) -> List[str]:
    """Vectorized :func:`~repro.dna.encoding.decode_kmer` over many IDs.

    Every 2-bit group of a block of :data:`DECODE_BLOCK` IDs is shifted
    down, masked and looked up in one array pass; the strings are
    slices of the block's decoded text.
    """
    if not 1 <= k <= MAX_WINDOW:
        raise InvalidKmerError(f"k must be in [1, {MAX_WINDOW}], got {k}")
    ids = np.asarray(ids, dtype=np.uint64)
    shifts = np.arange(2 * (k - 1), -1, -2, dtype=np.uint64)
    sequences: List[str] = []
    for start in range(0, len(ids), DECODE_BLOCK):
        codes = (ids[start : start + DECODE_BLOCK, None] >> shifts) & np.uint64(3)
        text = _CODE_BASES[codes].tobytes().decode("ascii")
        sequences.extend(text[offset : offset + k] for offset in range(0, len(text), k))
    return sequences


def canonical_ids(ids, k: int):
    """Vectorized :func:`~repro.dna.encoding.canonical_encoded`.

    Returns ``(canonical, was_reverse_complemented)``; the boolean
    array carries the H/L polarity information of each observation.
    """
    rc = reverse_complement_ids(ids, k)
    was_rc = rc < ids
    return np.where(was_rc, rc, ids), was_rc


def extract_canonical_window_ids(sequences: Sequence[str], window: int):
    """Canonical window IDs per read batch: ``(canonical_ids, counts)``."""
    observed, counts = extract_window_ids(sequences, window)
    canonical, _ = canonical_ids(observed, window)
    return canonical, counts


def edge_vertex_fields(edge_ids, k: int):
    """Decompose packed (k+1)-mer edges into phase-(ii) vertex fields.

    For each edge this computes everything the scalar phase-(ii) map
    UDF derives per record: the canonical prefix/suffix k-mer IDs,
    their reverse-complement flags (the polarity labels), and the
    appended/prepended bases.  Returns a dict of parallel arrays.
    """
    edge_ids = edge_ids.astype(np.uint64, copy=False)
    kmer_mask = np.uint64((1 << (2 * k)) - 1)
    prefix_observed = edge_ids >> np.uint64(2)
    suffix_observed = edge_ids & kmer_mask
    prefix_id, prefix_rc = canonical_ids(prefix_observed, k)
    suffix_id, suffix_rc = canonical_ids(suffix_observed, k)
    return {
        "prefix_id": prefix_id,
        "suffix_id": suffix_id,
        "prefix_rc": prefix_rc,
        "suffix_rc": suffix_rc,
        "appended_base": (edge_ids & np.uint64(3)).astype(np.int64),
        "prepended_base": ((edge_ids >> np.uint64(2 * k)) & np.uint64(3)).astype(np.int64),
    }


def expand_slots(kmer_ids, positions, k: int):
    """Neighbour and ports of every ``(k-mer, bitmap slot)`` pair.

    Vectorized :func:`~repro.dbg.bitmap.neighbor_kmer_id` plus the port
    mapping of :meth:`KmerVertexData.from_bitmap
    <repro.dbg.kmer_vertex.KmerVertexData.from_bitmap>`: ``positions``
    are bit indices of the Figure 8 bitmap (source label, target label,
    direction, two base bits, high to low).  Returns ``(neighbor_ids,
    my_ports, neighbor_ports)`` with ports in the 0 = out / 1 = in
    coding of :mod:`repro.dbg.polarity`.
    """
    kmer_ids = kmer_ids.astype(np.uint64, copy=False)
    positions = positions.astype(np.uint64, copy=False)
    one = np.uint64(1)
    source_h = (positions >> np.uint64(4)) & one
    target_h = (positions >> np.uint64(3)) & one
    outward = ((positions >> np.uint64(2)) & one).astype(bool)
    base = positions & np.uint64(3)
    # Our label is the source's on an out-edge, the target's on an in-edge.
    my_h = np.where(outward, source_h, target_h)
    neighbor_h = np.where(outward, target_h, source_h)

    observed = np.where(my_h.astype(bool), reverse_complement_ids(kmer_ids, k), kmer_ids)
    tail_mask = np.uint64((1 << (2 * (k - 1))) - 1)
    k_mask = np.uint64((1 << (2 * k)) - 1)
    appended = ((observed & tail_mask) << np.uint64(2)) | base
    prepended = (base << np.uint64(2 * (k - 1))) | (observed >> np.uint64(2))
    neighbor_observed = np.where(outward, appended, prepended) & k_mask
    neighbor_ids = np.where(
        neighbor_h.astype(bool), reverse_complement_ids(neighbor_observed, k), neighbor_observed
    )
    # source_port(label) is the label's H bit, target_port(label) its complement.
    my_ports = np.where(outward, my_h, my_h ^ one).astype(np.int64)
    neighbor_ports = np.where(outward, neighbor_h ^ one, neighbor_h).astype(np.int64)
    return neighbor_ids, my_ports, neighbor_ports
