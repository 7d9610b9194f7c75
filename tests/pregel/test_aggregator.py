"""Tests for aggregators."""

from __future__ import annotations

import pytest

from repro.pregel.aggregator import (
    Aggregator,
    AggregatorRegistry,
    and_aggregator,
    count_aggregator,
    max_aggregator,
    min_aggregator,
    or_aggregator,
    sum_aggregator,
)


def test_sum_aggregator_accumulates():
    agg = sum_aggregator("total")
    for value in (1, 2, 3):
        agg.accumulate(value)
    assert agg.value == 6


def test_min_max_aggregators():
    low, high = min_aggregator("low"), max_aggregator("high")
    for value in (5, 1, 9):
        low.accumulate(value)
        high.accumulate(value)
    assert low.value == 1
    assert high.value == 9


def test_min_aggregator_starts_empty():
    agg = min_aggregator("low")
    assert agg.value is None


def test_or_and_aggregators():
    any_agg, all_agg = or_aggregator("any"), and_aggregator("all")
    for value in (True, False, True):
        any_agg.accumulate(value)
        all_agg.accumulate(value)
    assert any_agg.value is True
    assert all_agg.value is False


def test_count_aggregator_counts_contributions():
    agg = count_aggregator("n")
    for _ in range(7):
        agg.accumulate("anything")
    assert agg.value == 7


def test_reset_restores_neutral_element():
    agg = sum_aggregator("total")
    agg.accumulate(5)
    agg.reset()
    assert agg.value == 0


def test_merge_combines_partial_aggregates():
    main = sum_aggregator("total")
    partial = main.fresh_copy()
    partial.accumulate(4)
    other = main.fresh_copy()
    other.accumulate(6)
    main.merge(partial)
    main.merge(other)
    assert main.value == 10


def test_merge_ignores_untouched_partials():
    main = min_aggregator("low")
    main.accumulate(3)
    untouched = main.fresh_copy()
    main.merge(untouched)
    assert main.value == 3


def test_registry_superstep_cycle():
    registry = AggregatorRegistry()
    registry.register(sum_aggregator("total"))
    copies = registry.current_copies()
    copies["total"].accumulate(5)
    registry.merge_states({name: copy.dump_state() for name, copy in copies.items()})
    snapshot = registry.finish_superstep()
    assert snapshot == {"total": 5}
    # After finishing the superstep the aggregator resets but the value
    # stays readable as the "previous" value.
    assert registry.previous_values() == {"total": 5}
    second = registry.finish_superstep()
    assert second == {"total": 0}


def test_registry_contains_and_get():
    registry = AggregatorRegistry()
    agg = or_aggregator("changed")
    registry.register(agg)
    assert "changed" in registry
    assert "missing" not in registry
    assert registry.get("changed") is agg
    assert registry.get("missing") is None


def test_custom_aggregator_combine_function():
    concat = Aggregator("strings", initial="", combine=lambda a, b: a + b)
    concat.accumulate("a")
    concat.accumulate("b")
    assert concat.value == "ab"
