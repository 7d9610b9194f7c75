"""Spilling objects to private files, and counting every byte of it.

:class:`SpillManager` is the mechanism half of the out-of-core plane
(the policy half is :class:`~repro.store.ledger.MemoryLedger`): given a
name and a picklable object it pickles the object into a file of its
own and hands back the memory; :meth:`~SpillManager.load` reverses the
trip and deletes the file.  One process writes, reads back and deletes
its own files, so there is nothing to share, pin or collect.

Observability is double-booked on purpose:

* telemetry counters ``repro_spill_events_total`` /
  ``repro_spill_bytes_total`` (labeled ``direction=spill|load``) and a
  ``spill:write`` / ``spill:load`` span per trip, for scrape/trace
  consumers when a real registry is installed;
* a process-wide :class:`SpillStats` (:func:`process_spill_stats`)
  that counts unconditionally, so the CLI's ``--metrics-json`` can
  report spill activity without enabling the telemetry plane.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from shutil import rmtree
from typing import Any, Dict, Optional, Set, Tuple, Union

from ..errors import CorruptBlobError
from ..telemetry import peak_rss_bytes, span
from ..telemetry.metrics import get_registry


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
    """Moves named objects between memory and private spill files.

    Each spilled entry is one file, named by a per-manager counter, in
    ``directory`` — or, without one, in a temporary directory created
    on the first spill and removed by :meth:`close`.  The manager keeps
    each file's sha256 and checks it on load, so a file damaged on disk
    raises :class:`~repro.errors.CorruptBlobError` instead of
    unpickling garbage.  ``owner`` names the component that spills.

    An object that fails to pickle is *pinned in memory*: the failure
    is remembered and the entry silently skipped on future spill
    attempts — spilling is an optimisation, never a correctness gate.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        owner: str = "spill",
        stats: Optional[SpillStats] = None,
    ) -> None:
        self.owner = owner
        self.stats = stats if stats is not None else process_spill_stats()
        self._directory = Path(directory) if directory is not None else None
        self._owns_tempdir = False
        self._tickets: Dict[str, Tuple[Path, str]] = {}  # name -> (file, sha256)
        self._file_ids = itertools.count()
        self._unpicklable: Set[str] = set()
        registry = get_registry()
        self._events = registry.counter(
            "repro_spill_events_total",
            "Objects moved between memory and spill files.",
            labelnames=("direction",),
        )
        self._bytes = registry.counter(
            "repro_spill_bytes_total",
            "Serialized bytes moved between memory and spill files.",
            labelnames=("direction",),
        )

    def _new_file(self) -> Path:
        """A path no spill of this manager has used yet."""
        if self._directory is None:
            self._directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._owns_tempdir = True
        else:
            self._directory.mkdir(parents=True, exist_ok=True)
        return self._directory / f"{next(self._file_ids)}.spill"

    # ------------------------------------------------------------------
    # spill / load
    # ------------------------------------------------------------------
    def spill(self, name: str, obj: Any) -> bool:
        """Serialize ``obj`` to disk under ``name``; True on success.

        False means the object could not be pickled; the entry is then
        pinned (future spills of the same name are skipped cheaply) and
        the caller must keep the object in memory.  Re-spilling a name
        deletes the file it superseded.
        """
        if name in self._unpicklable:
            return False
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._unpicklable.add(name)
            return False
        with span("spill:write", entry=name, nbytes=len(payload)):
            path = self._new_file()
            path.write_bytes(payload)
        previous = self._tickets.get(name)
        self._tickets[name] = (path, hashlib.sha256(payload).hexdigest())
        if previous is not None:
            previous[0].unlink()
        self._events.labels("spill").inc()
        self._bytes.labels("spill").inc(len(payload))
        self.stats.record_spill(len(payload))
        return True

    def load(self, name: str, drop: bool = True) -> Any:
        """Deserialize ``name``'s spilled object back into memory.

        ``drop=True`` (the default) deletes the file afterwards — the
        object now lives in memory again and may be re-spilled later
        (possibly with different content).  Raises ``KeyError`` if
        ``name`` was never spilled or already dropped, and
        :class:`~repro.errors.CorruptBlobError` — before anything is
        unpickled — if the spill file was damaged on disk.
        """
        path, digest = self._tickets[name]
        with span("spill:load", entry=name):
            payload = path.read_bytes()
            if hashlib.sha256(payload).hexdigest() != digest:
                raise CorruptBlobError(digest)
            obj = pickle.loads(payload)
        self._events.labels("load").inc()
        self._bytes.labels("load").inc(len(payload))
        self.stats.record_load(len(payload))
        if drop:
            del self._tickets[name]
            path.unlink()
        return obj

    def has(self, name: str) -> bool:
        """Whether ``name`` currently lives on disk."""
        return name in self._tickets

    def spilled_names(self) -> Set[str]:
        return set(self._tickets)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Delete every remaining spill file, and an owned tempdir."""
        for path, _ in self._tickets.values():
            try:
                path.unlink()
            except OSError:
                pass
        self._tickets.clear()
        if self._owns_tempdir:
            rmtree(self._directory, ignore_errors=True)
            self._owns_tempdir = False
            self._directory = None
