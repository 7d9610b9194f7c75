"""Tests for message routing, combiners and hash partitioning."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.pregel.message import (
    Combiner,
    group_batches,
    hash_destinations,
    merge_batches,
    min_combiner,
    sum_combiner,
)
from repro.pregel.partitioner import HashPartitioner
from repro.pregel.vertex import _estimate_size


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
def test_partitioner_rejects_non_positive_workers():
    with pytest.raises(ValueError):
        HashPartitioner(0)


def test_partitioner_is_deterministic():
    partitioner = HashPartitioner(8)
    assert all(partitioner.worker_for(i) == partitioner.worker_for(i) for i in range(1000))


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
def test_partitioner_in_range(key, workers):
    partitioner = HashPartitioner(workers)
    assert 0 <= partitioner.worker_for(key) < workers


def test_partitioner_balances_sequential_ids():
    partitioner = HashPartitioner(8)
    counts = [0] * 8
    for key in range(10_000):
        counts[partitioner.worker_for(key)] += 1
    assert max(counts) < 2 * min(counts)


def test_partitioner_handles_non_integer_keys():
    partitioner = HashPartitioner(4)
    assert 0 <= partitioner.worker_for(("a", 1)) < 4
    assert 0 <= partitioner.worker_for("string-key") < 4


# ----------------------------------------------------------------------
# combiners
# ----------------------------------------------------------------------
def test_min_combiner():
    combiner = min_combiner()
    assert combiner.combine(3, 5) == 3


def test_sum_combiner():
    combiner = sum_combiner()
    assert combiner.combine(3, 5) == 8


def test_custom_combiner():
    combiner = Combiner(lambda a, b: a + "," + b)
    assert combiner.combine("x", "y") == "x,y"


# ----------------------------------------------------------------------
# the routing pair
# ----------------------------------------------------------------------
def _route(outbox, partitioner, combiner):
    """The batches of one outbox."""
    sizes = [_estimate_size(message) for _, message in outbox]
    destinations = hash_destinations(outbox, sizes, partitioner)[0]
    return group_batches(outbox, destinations, combiner)


def _deliver(outboxes, partitioner, combiner=None):
    """One outbox per sender through group_batches, then merge_batches."""
    received = {}
    for sender, outbox in enumerate(outboxes):
        batches = _route(outbox, partitioner, combiner)
        for destination, batch in batches.items():
            received.setdefault(destination, {})[sender] = batch
    return {
        destination: merge_batches(batches, len(outboxes), combiner)
        for destination, batches in received.items()
    }


def test_router_delivery_groups_by_vertex():
    inboxes = _deliver([[(1, "a"), (2, "b"), (1, "c")]], HashPartitioner(1))
    assert inboxes == {0: {1: ["a", "c"], 2: ["b"]}}


def test_router_with_combiner_collapses_per_vertex():
    combiner = min_combiner()
    outbox = [(7, 5), (7, 3), (7, 9)]
    # Combined sender-side: one message per target is all that leaves.
    batches = _route(outbox, HashPartitioner(1), combiner)
    assert batches == {0: [(7, 3)]}
    assert _deliver([outbox], HashPartitioner(1), combiner) == {0: {7: [3]}}


def test_router_post_time_combining_matches_deliver_time_fold():
    """Each sender folds its own outbox, the receiver folds senders in id order."""
    seen = []

    def record_first(left, right):
        seen.append((left, right))
        return min(left, right)

    outboxes = [[(1, 5)], [(1, 3), (1, 9)]]
    partitioner = HashPartitioner(2)
    inboxes = _deliver(outboxes, partitioner, Combiner(record_first))
    assert inboxes == {partitioner.worker_for(1): {1: [3]}}
    assert seen == [(3, 9), (5, 3)]


@pytest.mark.parametrize("size", [3, 100], ids=["per-message-hash", "array-hash"])
def test_min_and_sum_combiners_fold_in_sender_order(size):
    """Sender id first, then posting order, whichever way targets were hashed."""
    partitioner = HashPartitioner(3)
    posted = [
        [(index % 5, f"{sender}.{index};") for index in range(size)] for sender in range(3)
    ]
    in_order = {}
    for outbox in posted:
        for target, text in outbox:
            in_order[target] = in_order.get(target, "") + text
    # ``sum_combiner`` is ``+``: on strings the result spells the fold order.
    delivered = _deliver(posted, partitioner, sum_combiner())
    assert {
        target: messages for inbox in delivered.values() for target, messages in inbox.items()
    } == {target: [text] for target, text in in_order.items()}
    # ``min`` keeps its left operand on a tie: 1.0, 1 and True are all
    # equal, so the survivor's type names the first message folded.
    ties = [[(index % 5, (1.0, 1, True)[(sender + index) % 3]) for index in range(size)]
            for sender in range(3)]
    delivered = _deliver(ties, partitioner, min_combiner())
    first = {}
    for outbox in ties:
        for target, value in outbox:
            first.setdefault(target, value)
    assert {
        target: type(messages[0]) for inbox in delivered.values() for target, messages in inbox.items()
    } == {target: type(value) for target, value in first.items()}
