"""Memory accounting: who holds how many live bytes, and when to spill.

:class:`MemoryLedger` is the accounting layer of the out-of-core plane.
The serial spill plane (:mod:`repro.runtime.spilling`) registers named
entries (a worker's partition, a delivered inbox) with an estimated
byte size; the ledger tracks the live total against a budget,
remembers the peak, and says when its owner is over budget.  *Which*
entries go to disk is the owner's call, because only the owner knows
when each is needed again: the plane knows its schedule exactly and
evicts by next use.

Sizes come from :func:`estimate_nbytes`, a deterministic heuristic —
exact for the numpy arrays that dominate the columnar pipeline
(``.nbytes`` plus object header), sampled for containers.  It is an
*estimate*: the point is relative ordering and a stable trigger
threshold, not byte-perfect accounting, and determinism matters more
than precision because the parity suite requires identical spill
decisions on every run.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional

from ..telemetry.metrics import get_registry

#: Flat per-object overhead charged when nothing better is known.
_DEFAULT_NBYTES = 128

#: How many elements of a container the estimator inspects before
#: extrapolating.  Containers in this codebase are homogeneous
#: (lists of reads, dicts of vertices), so a small sample is accurate.
_SAMPLE_LIMIT = 16

#: Recursion depth cap for objects holding objects.
_MAX_DEPTH = 3


def budget_mb_to_bytes(memory_budget_mb: Optional[float]) -> Optional[int]:
    """``memory_budget_mb`` in bytes, or None for unlimited."""
    if memory_budget_mb is None:
        return None
    return int(memory_budget_mb * 1024 * 1024)


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Deterministic estimate of ``obj``'s resident size in bytes.

    numpy arrays report their exact buffer size; builtin scalars and
    byte/str payloads use fixed CPython header costs; containers sample
    the first :data:`_SAMPLE_LIMIT` elements and scale by length.
    Unknown objects with a ``__dict__`` recurse (to a shallow depth);
    everything else is charged a flat default.  The result only needs
    to be *stable* and *proportional* — eviction order and the budget
    trigger depend on it, byte-exactness does not.
    """
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):  # numpy arrays and scalars
        return _DEFAULT_NBYTES + nbytes
    if obj is None or isinstance(obj, bool):
        return 32
    if isinstance(obj, (int, float)):
        return 32
    if isinstance(obj, bytes):
        return 64 + len(obj)
    if isinstance(obj, str):
        return 56 + len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        length = len(obj)
        if length == 0:
            return 64
        if _depth >= _MAX_DEPTH:
            return 64 + 8 * length
        sample = []
        for index, item in enumerate(obj):
            if index >= _SAMPLE_LIMIT:
                break
            sample.append(estimate_nbytes(item, _depth + 1))
        per_item = sum(sample) / len(sample)
        return int(64 + length * (8 + per_item))
    if isinstance(obj, dict):
        length = len(obj)
        if length == 0:
            return 64
        if _depth >= _MAX_DEPTH:
            return 64 + 16 * length
        sample = []
        for index, (key, value) in enumerate(obj.items()):
            if index >= _SAMPLE_LIMIT:
                break
            sample.append(
                estimate_nbytes(key, _depth + 1) + estimate_nbytes(value, _depth + 1)
            )
        per_item = sum(sample) / len(sample)
        return int(64 + length * (16 + per_item))
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None and _depth < _MAX_DEPTH:
        return 64 + estimate_nbytes(attrs, _depth + 1)
    slots = getattr(obj, "__slots__", None)
    if slots is not None and _depth < _MAX_DEPTH:
        total = 64
        for name in slots:
            total += estimate_nbytes(getattr(obj, name, None), _depth + 1)
        return total
    try:
        return max(_DEFAULT_NBYTES, sys.getsizeof(obj))
    except TypeError:
        return _DEFAULT_NBYTES


class MemoryLedger:
    """Tracks live bytes per named entry against an optional budget.

    ``budget_bytes=None`` means unlimited: the ledger still accounts
    (the peak gauge is useful on its own) but :attr:`over_budget` is
    always False.
    """

    def __init__(self, budget_bytes: Optional[int] = None, name: str = "ledger") -> None:
        self.budget_bytes = budget_bytes
        self.name = name
        self._entries: Dict[str, int] = {}
        self._live = 0
        self._peak = 0
        registry = get_registry()
        self._live_gauge = registry.gauge(
            "repro_memory_ledger_bytes",
            "Live bytes currently tracked by a memory ledger.",
            labelnames=("ledger",),
        ).labels(name)
        self._peak_gauge = registry.gauge(
            "repro_memory_ledger_peak_bytes",
            "High-water mark of bytes tracked by a memory ledger.",
            labelnames=("ledger",),
        ).labels(name)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def track(self, name: str, nbytes: int) -> None:
        """Register (or re-register) an entry as live."""
        self._live += nbytes - self._entries.get(name, 0)
        self._entries[name] = nbytes
        if self._live > self._peak:
            self._peak = self._live
            self._peak_gauge.set(self._peak)
        self._live_gauge.set(self._live)

    def release(self, name: str) -> int:
        """Drop an entry (spilled or freed); returns its tracked bytes."""
        nbytes = self._entries.pop(name, 0)
        self._live -= nbytes
        self._live_gauge.set(self._live)
        return nbytes

    def tracked(self, name: str) -> bool:
        return name in self._entries

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        return self._live

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def over_budget(self) -> bool:
        return self.budget_bytes is not None and self._live > self.budget_bytes
