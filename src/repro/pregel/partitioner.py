"""Vertex-to-worker partitioning.

Pregel+ distributes vertices to workers by hashing the vertex ID; the
paper relies on this both for Pregel jobs and for the shuffle phases of
the mini-MapReduce extension (Section II, "Our Extensions to Pregel
API").  The partitioner is deliberately simple and deterministic so
that per-worker load, message and byte counts are reproducible.

Two strategies are available by name:

``hash``
    :class:`HashPartitioner` — the original multiplicative hash.
    Spreads load evenly but scatters adjacent k-mers across workers,
    so almost every DBG edge crosses a worker boundary.
``prefix_range``
    :class:`PrefixRangePartitioner` — contiguous ranges of the k-mer
    ID space (the ID's high bits are the k-mer's base prefix, so a
    range of IDs is a range of k-mer prefixes).  Neighbouring k-mers
    share long prefixes far more often than random pairs do, which
    keeps a measurable fraction of messages worker-local; the
    ``cross_worker_messages`` metric quantifies the cut.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from ..errors import InvalidJobError


class HashPartitioner:
    """Assigns vertex IDs (or shuffle keys) to workers by hashing.

    A multiplicative hash is used instead of Python's built-in ``hash``
    because consecutive k-mer IDs would otherwise map to consecutive
    workers, producing artificially perfect balance that a real cluster
    would not see.  The constant is the 64-bit golden-ratio multiplier
    commonly used by Fibonacci hashing.
    """

    _GOLDEN = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers

    def worker_for(self, key: Hashable) -> int:
        """Return the worker index in ``[0, num_workers)`` owning ``key``."""
        if isinstance(key, int):
            mixed = ((key & self._MASK) * self._GOLDEN) & self._MASK
            mixed ^= mixed >> 29
            return mixed % self.num_workers
        return hash(key) % self.num_workers

    def worker_for_array(self, keys):
        """Vectorized :meth:`worker_for` over a ``uint64`` NumPy array.

        Bit-identical to the scalar method for integer keys: the uint64
        multiply wraps modulo 2**64 exactly like the masked Python
        multiply.  Returns an ``int64`` array of worker indices.
        """
        import numpy as np

        mixed = keys.astype(np.uint64, copy=False) * np.uint64(self._GOLDEN)
        mixed = mixed ^ (mixed >> np.uint64(29))
        return (mixed % np.uint64(self.num_workers)).astype(np.int64)

    def for_job(self, vertex_ids: Iterable[int]) -> "HashPartitioner":
        """Return the partitioner to use for a job with these initial IDs.

        Hash partitioning is population-independent, so the instance is
        returned unchanged.  Range partitioning overrides this to
        calibrate its ID-space width (see
        :meth:`PrefixRangePartitioner.for_job`).
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner(num_workers={self.num_workers})"


class PrefixRangePartitioner:
    """Assigns k-mer IDs to workers by contiguous ID ranges.

    A plain k-mer ID packs the bases most-significant-first (see
    :mod:`repro.dna.encoding`), so the ID's numeric order *is* the
    lexicographic order of the k-mers and a contiguous ID range is a
    k-mer-prefix range.  Worker ``w`` owns range
    ``[w * 2**id_bits / W, (w+1) * 2**id_bits / W)``; because DBG
    neighbours overlap in k-1 bases, neighbouring vertices frequently
    land in the same range, cutting ``cross_worker_messages``.

    ``id_bits`` is the width of the plain ID space.  It is calibrated
    per job from the largest initial vertex ID (:meth:`for_job`) — the
    calibration is a deterministic function of the job's vertices, so
    the serial and multiprocess backends always agree on it.  Keys
    outside the calibrated space — contig IDs carrying the SPECIAL
    (bit 63) or FLIP (bit 62) markers, or IDs minted after calibration
    — fall back to the same multiplicative hash
    :class:`HashPartitioner` uses, so special traffic stays balanced.
    """

    _GOLDEN = HashPartitioner._GOLDEN
    _MASK = HashPartitioner._MASK
    #: Plain k-mer IDs use at most 62 bits (k <= 31, 2 bits per base);
    #: bits 62/63 are the FLIP/SPECIAL markers.
    _MAX_ID_BITS = 62
    #: Keep the vectorized ``key * num_workers`` inside the uint64 lane:
    #: keys wider than this are pre-shifted down (supports up to
    #: 2**(64-57) = 128 workers with no overflow).
    _PRODUCT_BITS = 57

    def __init__(self, num_workers: int, id_bits: Optional[int] = None) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if id_bits is None:
            id_bits = self._MAX_ID_BITS
        if not 1 <= id_bits <= self._MAX_ID_BITS:
            raise ValueError(
                f"id_bits must be in [1, {self._MAX_ID_BITS}], got {id_bits}"
            )
        self.num_workers = num_workers
        self.id_bits = id_bits
        # Down-shift applied before the multiply so key * num_workers
        # cannot wrap 64 bits; the scalar path applies the identical
        # shift to stay bit-compatible with the vectorized path.
        self._shift = max(0, id_bits - self._PRODUCT_BITS)

    def for_job(self, vertex_ids: Iterable[int]) -> "PrefixRangePartitioner":
        """Calibrate the ID-space width to a job's initial vertices.

        Uses the widest plain (non-special) initial ID; with no plain
        IDs the full 62-bit space is kept, which routes everything via
        the hash fallback — identical to :class:`HashPartitioner`.
        """
        bits = 0
        for vertex_id in vertex_ids:
            if not isinstance(vertex_id, int) or vertex_id < 0:
                continue
            if vertex_id >> self._MAX_ID_BITS:
                continue  # SPECIAL/FLIP marker: not part of the plain space
            bits = max(bits, vertex_id.bit_length())
        if bits == 0:
            bits = self._MAX_ID_BITS
        return PrefixRangePartitioner(self.num_workers, id_bits=max(1, bits))

    def _hash_fallback(self, key: int) -> int:
        mixed = ((key & self._MASK) * self._GOLDEN) & self._MASK
        mixed ^= mixed >> 29
        return mixed % self.num_workers

    def worker_for(self, key: Hashable) -> int:
        """Return the worker index in ``[0, num_workers)`` owning ``key``."""
        if isinstance(key, int):
            key &= self._MASK
            if key >> self.id_bits:
                return self._hash_fallback(key)
            return ((key >> self._shift) * self.num_workers) >> (
                self.id_bits - self._shift
            )
        return hash(key) % self.num_workers

    def worker_for_array(self, keys):
        """Vectorized :meth:`worker_for`, bit-identical for integer keys."""
        import numpy as np

        keys = keys.astype(np.uint64, copy=False)
        workers = np.empty(keys.shape, dtype=np.int64)
        special = (keys >> np.uint64(self.id_bits)) != 0
        if special.any():
            mixed = keys[special] * np.uint64(self._GOLDEN)
            mixed = mixed ^ (mixed >> np.uint64(29))
            workers[special] = (mixed % np.uint64(self.num_workers)).astype(np.int64)
        plain = ~special
        if plain.any():
            scaled = (keys[plain] >> np.uint64(self._shift)) * np.uint64(
                self.num_workers
            )
            workers[plain] = (
                scaled >> np.uint64(self.id_bits - self._shift)
            ).astype(np.int64)
        return workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrefixRangePartitioner(num_workers={self.num_workers}, "
            f"id_bits={self.id_bits})"
        )


#: Partitioner strategy names accepted by the configuration layers.
PARTITIONER_NAMES = ("hash", "prefix_range")


def ensure_partitioner(name: str) -> str:
    """Validate a partitioner name (shared by every config layer)."""
    if name not in PARTITIONER_NAMES:
        raise InvalidJobError(
            f"unknown partitioner {name!r}; choose from {', '.join(PARTITIONER_NAMES)}"
        )
    return name


def make_partitioner(name: str, num_workers: int):
    """Instantiate a partitioner strategy by name."""
    ensure_partitioner(name)
    if name == "prefix_range":
        return PrefixRangePartitioner(num_workers)
    return HashPartitioner(num_workers)
