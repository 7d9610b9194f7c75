"""Spilling objects to a content store, and counting every byte of it.

:class:`SpillManager` is the mechanism half of the out-of-core plane
(the policy half is :class:`~repro.store.ledger.MemoryLedger`): given a
name and a picklable object it serializes the object into a
:class:`~repro.store.content.ContentStore` blob, pins it, and hands
back the memory; :meth:`~SpillManager.load` reverses the trip.  The
content addressing means identical spilled payloads — empty inboxes,
repeated batches — share one file.

Observability is double-booked on purpose:

* telemetry counters ``repro_spill_events_total`` /
  ``repro_spill_bytes_total`` (labeled ``direction=spill|load``) and a
  ``spill:write`` / ``spill:load`` span per trip, for scrape/trace
  consumers when a real registry is installed;
* a process-wide :class:`SpillStats` (:func:`process_spill_stats`)
  that counts unconditionally, so the CLI's ``--metrics-json`` can
  report spill activity without enabling the telemetry plane, and the
  multiprocess master can fold worker-side deltas into one total.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from shutil import rmtree
from typing import Any, Dict, Optional, Set, Union

from ..telemetry import peak_rss_bytes, span
from ..telemetry.metrics import get_registry
from .content import ContentStore


@dataclass
class SpillStats:
    """Monotonic spill/load totals, safe to update from any thread."""

    spill_events: int = 0
    spill_bytes: int = 0
    load_events: int = 0
    load_bytes: int = 0
    ledger_peak_bytes: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record_spill(self, nbytes: int) -> None:
        with self._lock:
            self.spill_events += 1
            self.spill_bytes += nbytes

    def record_load(self, nbytes: int) -> None:
        with self._lock:
            self.load_events += 1
            self.load_bytes += nbytes

    def record_ledger_peak(self, nbytes: int) -> None:
        with self._lock:
            if nbytes > self.ledger_peak_bytes:
                self.ledger_peak_bytes = nbytes

    def merge(self, delta: Dict[str, int]) -> None:
        """Fold another process's counter deltas into these totals."""
        with self._lock:
            self.spill_events += int(delta.get("spill_events", 0))
            self.spill_bytes += int(delta.get("spill_bytes", 0))
            self.load_events += int(delta.get("load_events", 0))
            self.load_bytes += int(delta.get("load_bytes", 0))
            peak = int(delta.get("ledger_peak_bytes", 0))
            if peak > self.ledger_peak_bytes:
                self.ledger_peak_bytes = peak

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "spill_events": self.spill_events,
                "spill_bytes": self.spill_bytes,
                "load_events": self.load_events,
                "load_bytes": self.load_bytes,
                "ledger_peak_bytes": self.ledger_peak_bytes,
            }

    def delta_since(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counter growth since an earlier :meth:`snapshot` (peak is max)."""
        now = self.snapshot()
        return {
            "spill_events": now["spill_events"] - earlier.get("spill_events", 0),
            "spill_bytes": now["spill_bytes"] - earlier.get("spill_bytes", 0),
            "load_events": now["load_events"] - earlier.get("load_events", 0),
            "load_bytes": now["load_bytes"] - earlier.get("load_bytes", 0),
            "ledger_peak_bytes": max(
                now["ledger_peak_bytes"], earlier.get("ledger_peak_bytes", 0)
            ),
        }


_PROCESS_STATS = SpillStats()


def process_spill_stats() -> SpillStats:
    """This process's cumulative spill totals (all managers combined)."""
    return _PROCESS_STATS


def memory_payload(
    memory_budget_mb: Optional[float], spill_base: Dict[str, int]
) -> Dict[str, Any]:
    """The ``"memory"`` block of a run's metrics JSON.

    The budget the run was given, this process's spill/load growth since
    the ``spill_base`` snapshot, and its peak RSS.
    """
    spill = _PROCESS_STATS.delta_since(spill_base)
    return {
        "memory_budget_mb": memory_budget_mb,
        "spill_events_total": spill["spill_events"],
        "spill_bytes_total": spill["spill_bytes"],
        "load_events_total": spill["load_events"],
        "load_bytes_total": spill["load_bytes"],
        "ledger_peak_bytes": spill["ledger_peak_bytes"],
        "peak_rss_bytes": peak_rss_bytes(),
    }


class SpillManager:
    """Moves named objects between memory and a content store.

    Pass an existing ``store`` to share blobs with other components, or
    a ``directory`` to root a private store there; with neither, a
    temporary directory is created lazily on first spill and removed by
    :meth:`close`.  Blobs are pinned under this manager's ``owner``
    slug so :meth:`close` can release exactly its own refs and GC.

    An object that fails to pickle is *pinned in memory*: the failure
    is remembered and the entry silently skipped on future spill
    attempts — spilling is an optimisation, never a correctness gate.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        store: Optional[ContentStore] = None,
        owner: str = "spill",
        stats: Optional[SpillStats] = None,
        protocol: int = pickle.HIGHEST_PROTOCOL,
        registry=None,
    ) -> None:
        self.owner = owner
        self.stats = stats if stats is not None else process_spill_stats()
        self.protocol = protocol
        self._store = store
        self._directory = Path(directory) if directory is not None else None
        self._owns_tempdir = False
        self._tickets: Dict[str, str] = {}  # name -> content key
        self._unpicklable: Set[str] = set()
        # Worker processes pass their local registry so the master can
        # merge shipped deltas; None means the process-wide one.
        if registry is None:
            registry = get_registry()
        self._events = registry.counter(
            "repro_spill_events_total",
            "Objects moved between memory and the spill store.",
            labelnames=("direction",),
        )
        self._bytes = registry.counter(
            "repro_spill_bytes_total",
            "Serialized bytes moved between memory and the spill store.",
            labelnames=("direction",),
        )

    # ------------------------------------------------------------------
    # lazy store
    # ------------------------------------------------------------------
    @property
    def store(self) -> ContentStore:
        if self._store is None:
            if self._directory is None:
                self._directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
                self._owns_tempdir = True
            self._store = ContentStore(self._directory)
        return self._store

    # ------------------------------------------------------------------
    # spill / load
    # ------------------------------------------------------------------
    def spill(self, name: str, obj: Any) -> bool:
        """Serialize ``obj`` to disk under ``name``; True on success.

        False means the object could not be pickled; the entry is then
        pinned (future spills of the same name are skipped cheaply) and
        the caller must keep the object in memory.
        """
        if name in self._unpicklable:
            return False
        try:
            payload = pickle.dumps(obj, protocol=self.protocol)
        except Exception:
            self._unpicklable.add(name)
            return False
        with span("spill:write", entry=name, nbytes=len(payload)):
            key = self.store.put(payload)
            self.store.add_ref(key, self._ref_owner(name))
        previous = self._tickets.get(name)
        self._tickets[name] = key
        if previous is not None and previous != key:
            self.store.drop_ref(previous, self._ref_owner(name))
        self._events.labels("spill").inc()
        self._bytes.labels("spill").inc(len(payload))
        self.stats.record_spill(len(payload))
        return True

    def load(self, name: str, drop: bool = True) -> Any:
        """Deserialize ``name``'s spilled object back into memory.

        ``drop=True`` (the default) releases the blob ref afterwards —
        the object now lives in memory again and may be re-spilled
        later (possibly with different content).  Raises ``KeyError``
        if ``name`` was never spilled or already dropped, and
        :class:`~repro.errors.CorruptBlobError` — before anything is
        unpickled — if the spill file was damaged on disk.
        """
        key = self._tickets[name]
        with span("spill:load", entry=name):
            payload = self.store.get(key)
            obj = pickle.loads(payload)
        self._events.labels("load").inc()
        self._bytes.labels("load").inc(len(payload))
        self.stats.record_load(len(payload))
        if drop:
            del self._tickets[name]
            self.store.drop_ref(key, self._ref_owner(name))
        return obj

    def has(self, name: str) -> bool:
        """Whether ``name`` currently lives on disk."""
        return name in self._tickets

    def spilled_names(self) -> Set[str]:
        return set(self._tickets)

    def _ref_owner(self, name: str) -> str:
        return f"{self.owner}:{name}"

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this manager's refs, GC, and remove an owned tempdir."""
        if self._store is not None:
            for name, key in list(self._tickets.items()):
                self._store.drop_ref(key, self._ref_owner(name))
            self._tickets.clear()
            try:
                self._store.gc()
            except OSError:
                pass
        if self._owns_tempdir and self._directory is not None:
            rmtree(self._directory, ignore_errors=True)
            self._owns_tempdir = False
            self._store = None
            self._directory = None
