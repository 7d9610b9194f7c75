"""Bounded-memory storage plane: atomic files, blobs, ledger, spills.

The out-of-core machinery lives here, one concern per module:

* :mod:`repro.store.atomic` — the temp-file + ``os.replace`` publication
  discipline every durable artifact of this repo uses (workflow
  checkpoints, content-store blobs), extracted so there is exactly one
  copy of the ``.tmp``-sweep logic;
* :mod:`repro.store.content` — :class:`ContentStore`, a sha256-keyed
  content-addressed blob store with atomic publish and named aliases
  as GC roots.  It backs the bench harness's dataset cache;
* :mod:`repro.store.ledger` — :class:`MemoryLedger`, the accounting
  layer that tracks live columnar-array bytes against a budget and
  decides eviction order;
* :mod:`repro.store.spill` — :class:`SpillManager`, which pickles
  evicted objects into private, hash-checked files and loads them back,
  with spill activity observable through telemetry counters
  (``repro_spill_bytes_total`` / ``repro_spill_events_total``) and a
  process-wide :class:`SpillStats` snapshot the CLI's
  ``--metrics-json`` reports.

The budget knob rides :class:`~repro.assembler.config.AssemblyConfig.memory_budget_mb`
→ CLI ``--memory-budget-mb`` → service ``JobSpec`` end to end; see
``docs/out_of_core.md``.
"""

from ..errors import CorruptBlobError
from .atomic import (
    ORPHAN_TMP_AGE_SECONDS,
    atomic_write_bytes,
    atomic_writer,
    sweep_orphan_tmps,
)
from .content import ContentStore, GCResult
from .ledger import MemoryLedger, budget_mb_to_bytes, estimate_nbytes
from .spill import SpillManager, SpillStats, process_spill_stats

__all__ = [
    "ORPHAN_TMP_AGE_SECONDS",
    "atomic_write_bytes",
    "atomic_writer",
    "sweep_orphan_tmps",
    "ContentStore",
    "CorruptBlobError",
    "GCResult",
    "MemoryLedger",
    "budget_mb_to_bytes",
    "estimate_nbytes",
    "SpillManager",
    "SpillStats",
    "process_spill_stats",
]
