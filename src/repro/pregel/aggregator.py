"""Aggregators: Pregel's mechanism for global communication.

Each vertex can contribute a value to a named aggregator during
``compute``; the engine combines the contributions and makes the
combined value available to every vertex in the *next* superstep, and
to the job driver for termination checks (the simplified S-V algorithm
stops when a "did any D[v] change this round?" aggregator stays
``False``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


class Aggregator:
    """A single named aggregator.

    Parameters
    ----------
    initial:
        The neutral element the aggregator resets to at the start of
        every superstep (e.g. ``0`` for a sum, ``False`` for an "or").
    combine:
        Binary function combining the running value with a new
        contribution.  Must be associative and commutative because the
        order in which workers flush contributions is unspecified.
    """

    __slots__ = ("name", "_initial", "_combine", "_value", "_touched")

    def __init__(self, name: str, initial: Any, combine: Callable[[Any, Any], Any]) -> None:
        self.name = name
        self._initial = initial
        self._combine = combine
        self._value = initial
        self._touched = False

    def accumulate(self, value: Any) -> None:
        """Fold ``value`` into the running aggregate."""
        self._value = self._combine(self._value, value)
        self._touched = True

    def merge(self, other: "Aggregator") -> None:
        """Fold another aggregator's running value into this one.

        Used by the engine to combine per-worker partial aggregates,
        mirroring how a distributed Pregel implementation ships partial
        aggregates to the master.
        """
        if other._touched:
            self._value = self._combine(self._value, other._value)
            self._touched = True

    @property
    def value(self) -> Any:
        return self._value

    def reset(self) -> None:
        """Reset to the neutral element (called between supersteps)."""
        self._value = self._initial
        self._touched = False

    def fresh_copy(self) -> "Aggregator":
        """Create an identical but empty aggregator (for per-worker partials)."""
        return Aggregator(self.name, self._initial, self._combine)

    def dump_state(self) -> tuple:
        """``(value, touched)`` pair describing the running partial.

        The pair contains only plain data, so distributed backends can
        ship per-worker partials between processes without having to
        pickle the combine callable (which may be a lambda).
        """
        return (self._value, self._touched)

    def load_state(self, value: Any, touched: bool) -> None:
        """Restore a partial previously captured with :meth:`dump_state`."""
        self._value = value
        self._touched = touched


# The built-in combine functions are module-level (not lambdas) so that
# aggregators remain picklable — required by multiprocess execution
# backends under the ``spawn`` start method.
def _combine_sum(accumulated: Any, value: Any) -> Any:
    return accumulated + value


def _combine_max(accumulated: Any, value: Any) -> Any:
    return value if accumulated is None else max(accumulated, value)


def _combine_min(accumulated: Any, value: Any) -> Any:
    return value if accumulated is None else min(accumulated, value)


def _combine_or(accumulated: Any, value: Any) -> bool:
    return bool(accumulated) or bool(value)


def _combine_and(accumulated: Any, value: Any) -> bool:
    return bool(accumulated) and bool(value)


def _combine_count(accumulated: Any, _value: Any) -> int:
    return accumulated + 1


def sum_aggregator(name: str) -> Aggregator:
    """Aggregator summing integer/float contributions."""
    return Aggregator(name, 0, _combine_sum)


def max_aggregator(name: str) -> Aggregator:
    """Aggregator keeping the maximum contribution."""
    return Aggregator(name, None, _combine_max)


def min_aggregator(name: str) -> Aggregator:
    """Aggregator keeping the minimum contribution."""
    return Aggregator(name, None, _combine_min)


def or_aggregator(name: str) -> Aggregator:
    """Boolean "or" aggregator (used for convergence checks)."""
    return Aggregator(name, False, _combine_or)


def and_aggregator(name: str) -> Aggregator:
    """Boolean "and" aggregator."""
    return Aggregator(name, True, _combine_and)


def count_aggregator(name: str) -> Aggregator:
    """Counts how many vertices contributed (each contribution adds one)."""
    return Aggregator(name, 0, _combine_count)


class AggregatorRegistry:
    """The set of aggregators attached to one Pregel job.

    The registry owns the authoritative aggregators; workers get fresh
    per-superstep copies and the registry merges them back, then
    snapshots the merged values so vertices can read them in the next
    superstep via :meth:`previous_values`.
    """

    def __init__(self) -> None:
        self._aggregators: Dict[str, Aggregator] = {}
        self._previous: Dict[str, Any] = {}

    def register(self, aggregator: Aggregator) -> None:
        self._aggregators[aggregator.name] = aggregator

    def __contains__(self, name: str) -> bool:
        return name in self._aggregators

    def get(self, name: str) -> Optional[Aggregator]:
        return self._aggregators.get(name)

    def current_copies(self) -> Dict[str, Aggregator]:
        """Fresh per-superstep aggregator copies keyed by name."""
        return {name: agg.fresh_copy() for name, agg in self._aggregators.items()}

    def merge_states(self, states: Dict[str, tuple]) -> None:
        """Merge one worker's ``name -> (value, touched)`` partials.

        Workers report :meth:`Aggregator.dump_state` pairs rather than
        aggregator objects, so the same report crosses a process
        boundary unchanged.
        """
        for name, (value, touched) in states.items():
            partial = self._aggregators[name].fresh_copy()
            partial.load_state(value, touched)
            self._aggregators[name].merge(partial)

    def finish_superstep(self) -> Dict[str, Any]:
        """Snapshot aggregated values and reset for the next superstep."""
        self._previous = {name: agg.value for name, agg in self._aggregators.items()}
        for aggregator in self._aggregators.values():
            aggregator.reset()
        return dict(self._previous)

    def previous_values(self) -> Dict[str, Any]:
        """Values aggregated during the previous superstep."""
        return dict(self._previous)
