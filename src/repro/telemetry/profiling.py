"""Cross-process CPU profiling for assembly runs.

``cProfile`` answers the question the timeline can't: *which functions*
burned the CPU seconds.  The catch in this codebase is that the
interesting work happens in several processes at once — the master
coordinating the workflow plus N multiprocess Pregel workers — and a
profiler cannot straddle a ``fork``.  So profiles travel exactly the
way metric deltas already do: each worker profiles its own superstep
compute, serialises the raw ``pstats`` table (a plain picklable dict),
and ships it over the barrier counter channel; the master folds every
delta into one :class:`ProfileCollector`, keyed by stage.

The collector renders two artefacts:

* :meth:`ProfileCollector.hotspots` — a deterministic top-N table
  (self seconds, cumulative seconds, call counts) that the CLI injects
  into ``metrics_payload()`` under a ``"profile"`` key;
* :meth:`ProfileCollector.folded` — collapsed call stacks
  (``stage;caller;callee <microseconds>``), the input format of
  ``flamegraph.pl`` and speedscope, written into the run directory.

Zero-cost contract: :func:`get_profiler` returns a shared inert
:class:`NullProfileCollector` until ``--profile`` (or
:func:`use_profiler`) installs a real one; the workflow runner and the
runtime backends only ever pay an attribute lookup when profiling is
off.
"""

from __future__ import annotations

import cProfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Stage label under which Pregel worker-process profiles are merged.
WORKER_STAGE = "pregel-workers"

#: One function's row in the raw pstats table:
#: ``(file, line, func) -> [calls, primitive_calls, self_seconds,
#: cumulative_seconds, {caller_key: (cc, nc, tt, ct)}]``.
ProfileState = Dict[Tuple[str, int, str], Any]


def stats_state(profiler: cProfile.Profile) -> ProfileState:
    """Extract a profiler's raw ``pstats`` table as a picklable dict.

    The shape is exactly what :class:`pstats.Stats` builds internally
    (``stats.stats``): plain tuples, ints, floats and dicts — safe to
    pickle across a process boundary and to merge additively.
    """
    profiler.create_stats()
    state: ProfileState = {}
    for key, (cc, nc, tt, ct, callers) in profiler.stats.items():  # type: ignore[attr-defined]
        state[key] = (cc, nc, tt, ct, dict(callers))
    return state


def _format_frame(key: Tuple[str, int, str]) -> str:
    """One stack frame as ``file.py:line:function`` (separator-safe)."""
    filename, line, func = key
    func = str(func).replace(";", ":")
    if filename in ("~", ""):
        return func
    name = Path(str(filename)).name.replace(";", ":")
    return f"{name}:{int(line)}:{func}"


class ProfileCollector:
    """Accumulates pstats tables from any number of processes/stages.

    Merging is additive per function row (call counts and seconds sum;
    caller edges sum per caller), so folding the same set of worker
    deltas in any arrival order produces the same tables — asserted by
    ``tests/telemetry/test_profiling.py``.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: Dict[str, ProfileState] = {}
        self._active = threading.local()

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    @contextmanager
    def profile_block(self, stage: str) -> Iterator[None]:
        """Profile the enclosed block and merge it under ``stage``.

        Re-entrant use (a stage nested inside a profiled stage, or an
        external tool already holding ``sys.setprofile``) degrades to
        not profiling the inner block instead of raising.
        """
        if getattr(self._active, "on", False):
            yield
            return
        profiler = cProfile.Profile()
        self._active.on = True
        try:
            profiler.enable()
        except (ValueError, RuntimeError):
            self._active.on = False
            yield
            return
        try:
            yield
        finally:
            profiler.disable()
            self._active.on = False
            self.merge_state(stats_state(profiler), stage=stage)

    def merge_state(self, state: Optional[ProfileState], stage: str = WORKER_STAGE) -> None:
        """Fold one raw pstats table in under ``stage`` (additive)."""
        if not state:
            return
        with self._lock:
            table = self._stages.setdefault(stage, {})
            for key, value in state.items():
                key = (str(key[0]), int(key[1]), str(key[2]))
                cc, nc, tt, ct, callers = value
                row = table.get(key)
                if row is None:
                    table[key] = [cc, nc, tt, ct, dict(callers)]
                    continue
                row[0] += cc
                row[1] += nc
                row[2] += tt
                row[3] += ct
                edges = row[4]
                for caller, edge in callers.items():
                    if caller in edges:
                        prior = edges[caller]
                        edges[caller] = tuple(a + b for a, b in zip(prior, edge))
                    else:
                        edges[caller] = tuple(edge)

    def dump_stages(self) -> Dict[str, ProfileState]:
        """A deep-enough copy of everything collected (for shipping)."""
        with self._lock:
            return {
                stage: {key: [row[0], row[1], row[2], row[3], dict(row[4])] for key, row in table.items()}
                for stage, table in self._stages.items()
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(table) for table in self._stages.values())

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def hotspots(self, top_n: int = 15) -> List[Dict[str, Any]]:
        """The top-N functions by self time, aggregated over all stages.

        Deterministic: ties broken by the frame name, values rounded to
        microsecond precision.
        """
        merged: Dict[Tuple[str, int, str], List[float]] = {}
        with self._lock:
            for table in self._stages.values():
                for key, row in table.items():
                    entry = merged.setdefault(key, [0, 0, 0.0, 0.0])
                    entry[0] += row[0]
                    entry[1] += row[1]
                    entry[2] += row[2]
                    entry[3] += row[3]
        ranked = sorted(
            merged.items(),
            key=lambda item: (-item[1][2], _format_frame(item[0])),
        )
        return [
            {
                "function": _format_frame(key),
                "calls": int(entry[0]),
                "self_seconds": round(entry[2], 6),
                "cumulative_seconds": round(entry[3], 6),
            }
            for key, entry in ranked[: max(0, top_n)]
        ]

    def payload(self, top_n: int = 15) -> Dict[str, Any]:
        """The ``"profile"`` block for ``metrics_payload()`` consumers."""
        spots = self.hotspots(top_n)
        return {
            "stages": sorted(self._stages),
            "functions_profiled": len(self),
            "self_seconds_total": round(
                sum(spot["self_seconds"] for spot in self.hotspots(top_n=len(self) or 1)), 6
            ),
            "hotspots": spots,
        }

    def folded(self) -> str:
        """Collapsed call stacks, flamegraph.pl / speedscope compatible.

        One line per stack, ``frame;frame;... <value>`` with values in
        integer microseconds of *self* time.  pstats keeps caller →
        callee edges rather than full stacks, so stacks are rendered
        two frames deep under their stage root — enough to see which
        callers feed each hotspot.  Lines are sorted for determinism.
        """
        lines: List[str] = []
        with self._lock:
            for stage in sorted(self._stages):
                root = stage.replace(";", ":")
                for key, row in self._stages[stage].items():
                    frame = _format_frame(key)
                    callers = row[4]
                    if not callers:
                        value = int(round(row[2] * 1e6))
                        if value > 0:
                            lines.append(f"{root};{frame} {value}")
                        continue
                    for caller, edge in callers.items():
                        # edge = (cc, nc, tt, ct) attributed to this caller
                        value = int(round(float(edge[2]) * 1e6))
                        if value > 0:
                            lines.append(f"{root};{_format_frame(caller)};{frame} {value}")
        lines.sort()
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: Union[str, Path]) -> Path:
        destination = Path(path)
        if destination.parent != Path(""):
            destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(self.folded(), encoding="utf-8")
        return destination


class NullProfileCollector:
    """Inert stand-in: profiling off, every operation a no-op."""

    enabled = False

    @contextmanager
    def profile_block(self, stage: str) -> Iterator[None]:
        yield

    def merge_state(self, state: Optional[ProfileState], stage: str = WORKER_STAGE) -> None:
        pass

    def dump_stages(self) -> Dict[str, ProfileState]:
        return {}

    def hotspots(self, top_n: int = 15) -> List[Dict[str, Any]]:
        return []

    def payload(self, top_n: int = 15) -> Dict[str, Any]:
        return {"stages": [], "functions_profiled": 0, "self_seconds_total": 0.0, "hotspots": []}

    def folded(self) -> str:
        return ""

    def write_folded(self, path: Union[str, Path]) -> Path:
        destination = Path(path)
        destination.write_text("", encoding="utf-8")
        return destination

    def __len__(self) -> int:
        return 0


_NULL_PROFILER = NullProfileCollector()
_PROFILER: Union[ProfileCollector, NullProfileCollector] = _NULL_PROFILER


def get_profiler() -> Union[ProfileCollector, NullProfileCollector]:
    """The process-wide active profile collector (null by default)."""
    return _PROFILER


def set_profiler(profiler: Optional[Union[ProfileCollector, NullProfileCollector]]):
    """Install ``profiler`` globally (None restores the null default).

    Returns the previously installed collector so callers can restore it.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler if profiler is not None else _NULL_PROFILER
    return previous


@contextmanager
def use_profiler(
    profiler: Union[ProfileCollector, NullProfileCollector]
) -> Iterator[Union[ProfileCollector, NullProfileCollector]]:
    """Scoped :func:`set_profiler`: restores the previous one on exit."""
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)
