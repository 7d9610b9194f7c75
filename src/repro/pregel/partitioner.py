"""Vertex-to-worker partitioning.

Pregel+ distributes vertices to workers by hashing the vertex ID; the
paper relies on this both for Pregel jobs and for the shuffle phases of
the mini-MapReduce extension (Section II, "Our Extensions to Pregel
API").  The partitioner is deliberately simple and deterministic so
that per-worker load, message and byte counts are reproducible.

There is one vertex placement: each
:class:`~repro.runtime.base.ExecutionBackend` builds one
:class:`HashPartitioner`, and every layer that needs to know which
worker owns a vertex (Pregel routing, DBG construction, the stage
executor's conversions, the merging and tip-removal cost accounting)
asks that instance.  Mini-MapReduce shuffles hash their keys with the
same function.
"""

from __future__ import annotations

from typing import Hashable


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner(num_workers={self.num_workers})"
