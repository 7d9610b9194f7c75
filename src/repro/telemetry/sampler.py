"""Resource sampling and structured run timelines.

The third leg of the telemetry plane (spans answer *where in the call
tree*, metrics answer *how much in total*): a **timeline** answers
*when* — an append-only sequence of timestamped events that can be laid
against wall-clock time.  Two producers feed it:

* boundary events — both runtime backends record one ``superstep``
  event per BSP superstep (index, message/cross-worker counts, active
  vertices, spill/ledger bytes) and the workflow runner records
  ``stage-start`` / ``stage-end`` pairs;
* :class:`ResourceSampler` — a daemon thread recording periodic
  ``sample`` events (resident set size, CPU seconds, thread count,
  cyclic-collector passes so far) at a fixed low frequency.

Like the tracer, the metrics registry and the profile collector, the
timeline lives in one process-wide slot and follows the
zero-cost-when-disabled contract: :func:`get_timeline` returns a shared
inert :class:`NullTimeline` until something installs a real
:class:`TimelineRecorder` (a run with a run directory —
``repro-assemble --run-dir`` and every service job attempt — or the
``use_timeline`` context manager), so an uninstrumented run pays one
attribute lookup per would-be event.

Cross-process transport mirrors metric deltas: multiprocess workers
record into a local recorder and :meth:`TimelineRecorder.drain_events`
ships the per-superstep delta over the barrier counter channel, where
the master folds it back in with :meth:`TimelineRecorder.merge_events`
— one coherent timeline per run regardless of backend.  :func:`write_timeline` persists it as JSONL,
one event object per line, ordered by timestamp.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union


# ----------------------------------------------------------------------
# process memory helpers
# ----------------------------------------------------------------------
def peak_rss_bytes() -> int:
    """This process's peak resident set size in **bytes** (0 if unknown).

    ``getrusage(...).ru_maxrss`` is kibibytes on Linux but bytes on
    macOS; normalising here keeps the metrics' ``memory`` block
    comparable across platforms.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS
        return int(raw)
    return int(raw) * 1024


def current_rss_bytes() -> int:
    """This process's *current* resident set size in bytes.

    Reads ``/proc/self/statm`` (second field, in pages) where procfs
    exists; falls back to the peak from ``getrusage`` elsewhere, so the
    sampler still produces a monotone-envelope series off Linux.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGESIZE") or 4096)
    except (OSError, IndexError, ValueError):
        return peak_rss_bytes()


def process_cpu_seconds() -> float:
    """CPU seconds (user + system) consumed by this process."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return time.process_time()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return float(usage.ru_utime + usage.ru_stime)


# ----------------------------------------------------------------------
# the timeline recorder
# ----------------------------------------------------------------------
class TimelineRecorder:
    """Thread-safe append-only buffer of timestamped event dicts.

    Every event carries ``ts`` (wall-clock epoch seconds) and ``kind``;
    everything else is free-form.  The drain/merge pair mirrors
    :meth:`~repro.telemetry.metrics.MetricsRegistry.drain_state` /
    ``merge_state`` so worker-process deltas travel the same barrier
    channel metric deltas already use.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event (timestamped now unless ``ts`` is given)."""
        event = {"ts": fields.pop("ts", None), "kind": kind}
        if event["ts"] is None:
            event["ts"] = time.time()
        event.update(fields)
        with self._lock:
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the buffered events, in recorded order."""
        with self._lock:
            return list(self._events)

    def drain_events(self) -> List[Dict[str, Any]]:
        """Atomically snapshot **and clear** the buffer (worker-side)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def merge_events(self, events: Optional[Sequence[Dict[str, Any]]]) -> None:
        """Fold another recorder's drained events in (master-side)."""
        if not events:
            return
        with self._lock:
            self._events.extend(dict(event) for event in events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullTimeline:
    """Inert stand-in: recording costs one no-op call, stores nothing."""

    enabled = False

    def record(self, kind: str, **fields: Any) -> None:
        pass

    def events(self) -> List[Dict[str, Any]]:
        return []

    def drain_events(self) -> List[Dict[str, Any]]:
        return []

    def merge_events(self, events: Optional[Sequence[Dict[str, Any]]]) -> None:
        pass

    def __len__(self) -> int:
        return 0


_NULL_TIMELINE = NullTimeline()
_TIMELINE: Union[TimelineRecorder, NullTimeline] = _NULL_TIMELINE


def get_timeline() -> Union[TimelineRecorder, NullTimeline]:
    """The process-wide active timeline (the null timeline by default)."""
    return _TIMELINE


def set_timeline(timeline: Optional[Union[TimelineRecorder, NullTimeline]]):
    """Install ``timeline`` globally (None restores the null default).

    Returns the previously installed timeline so callers can restore it.
    """
    global _TIMELINE
    previous = _TIMELINE
    _TIMELINE = timeline if timeline is not None else _NULL_TIMELINE
    return previous


@contextmanager
def use_timeline(
    timeline: Union[TimelineRecorder, NullTimeline]
) -> Iterator[Union[TimelineRecorder, NullTimeline]]:
    """Scoped :func:`set_timeline`: restores the previous one on exit."""
    previous = set_timeline(timeline)
    try:
        yield timeline
    finally:
        set_timeline(previous)


# ----------------------------------------------------------------------
# the background resource sampler
# ----------------------------------------------------------------------
class ResourceSampler:
    """Daemon thread appending periodic ``sample`` events to a timeline.

    Each sample records ``rss_bytes`` (current resident set),
    ``peak_rss_bytes``, ``cpu_seconds`` (user+system), ``threads`` and
    ``gc_collections`` — the cumulative number of cyclic-collector
    passes of this process, all generations: flat through a Pregel job
    (the collector is paused there), a staircase elsewhere.
    The default 250 ms interval keeps the series dense enough to plot
    while staying far inside the telemetry plane's <3% overhead budget;
    one final sample is always taken at :meth:`stop` so even sub-interval
    runs get a data point.
    """

    def __init__(
        self,
        timeline: Optional[Union[TimelineRecorder, NullTimeline]] = None,
        interval: float = 0.25,
        source: str = "main",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._timeline = timeline
        self.interval = interval
        self.source = source
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def timeline(self) -> Union[TimelineRecorder, NullTimeline]:
        return self._timeline if self._timeline is not None else get_timeline()

    def sample_once(self) -> None:
        """Record one sample event immediately (usable without start())."""
        self.timeline.record(
            "sample",
            source=self.source,
            pid=os.getpid(),
            rss_bytes=current_rss_bytes(),
            peak_rss_bytes=peak_rss_bytes(),
            cpu_seconds=round(process_cpu_seconds(), 6),
            threads=threading.active_count(),
            gc_collections=sum(stats["collections"] for stats in gc.get_stats()),
        )

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-sampler-{self.source}", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        self.sample_once()
        while not self._stop.wait(self.interval):
            self.sample_once()

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def write_timeline(
    events_or_timeline: Union[
        TimelineRecorder, NullTimeline, Sequence[Dict[str, Any]]
    ],
    path: Union[str, Path],
) -> Path:
    """Write a timeline as JSONL, one event per line, ordered by ``ts``.

    Accepts a recorder or a plain event sequence.  Events are sorted by
    timestamp (stable, so same-timestamp events keep recorded order) —
    worker deltas merged at barriers land in wall-clock position.
    """
    if isinstance(events_or_timeline, (TimelineRecorder, NullTimeline)):
        events = events_or_timeline.events()
    else:
        events = list(events_or_timeline)
    events.sort(key=lambda event: float(event.get("ts", 0.0)))
    destination = Path(path)
    if destination.parent != Path(""):
        destination.parent.mkdir(parents=True, exist_ok=True)
    with open(destination, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
    return destination


def read_timeline(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a JSONL timeline back into a list of event dicts.

    Blank lines are skipped; a torn final line (crash mid-write) is
    dropped rather than failing the whole read.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events
