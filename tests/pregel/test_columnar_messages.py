"""Parity tests for the target column of ``hash_destinations``.

An outbox of at least ``ARRAY_HASH_MIN_BATCH`` messages whose targets
all fit uint64 has its destination workers hashed as one column by
``worker_for_array``; every other outbox is hashed message by message.
Either way the receiver must get what the reference fold delivers: the
same inboxes (keys, ordering, value types), the same routed counts and
bytes, and the same job-level results.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.pregel import message
from repro.pregel.engine import PregelEngine, PregelJob
from repro.pregel.message import (
    ARRAY_HASH_MIN_BATCH,
    group_batches,
    hash_destinations,
    merge_batches,
    min_combiner,
    sum_combiner,
)
from repro.pregel.partitioner import HashPartitioner
from repro.pregel.vertex import Vertex, _estimate_size
from repro.ppa.hash_min import run_hash_min
from repro.ppa.sv import GraphInput


class _CountingPartitioner(HashPartitioner):
    """Counts how many outboxes were hashed as one column."""

    array_calls = 0

    def worker_for_array(self, keys):
        self.array_calls += 1
        return super().worker_for_array(keys)


def _dict_fold(outboxes, partitioner, combiner):
    """The reference: every message folded at delivery, in sender then post order."""
    inboxes = {}
    for outbox in outboxes:
        for target, payload in outbox:
            inbox = inboxes.setdefault(partitioner.worker_for(target), {})
            if combiner is not None and target in inbox:
                inbox[target] = [combiner.combine(inbox[target][0], payload)]
            else:
                inbox.setdefault(target, []).append(payload)
    return inboxes


def _route_and_merge(outboxes, partitioner, combiner):
    """One outbox per sender through the pair; also checks the routed totals."""
    received = {}
    workers = range(len(outboxes))
    for sender, outbox in enumerate(outboxes):
        sizes = [_estimate_size(payload) for _, payload in outbox]
        hashed, routed_messages, routed_bytes = hash_destinations(outbox, sizes, partitioner)
        batches = group_batches(outbox, hashed, combiner)
        # Raw (pre-combine) totals per destination; everything not routed
        # to the sender itself is the cross-worker count.
        destinations = [partitioner.worker_for(target) for target, _ in outbox]
        assert hashed == destinations
        assert routed_messages == [destinations.count(worker) for worker in workers]
        assert routed_bytes == [
            sum(size for size, destination in zip(sizes, destinations) if destination == worker)
            for worker in workers
        ]
        for destination, batch in batches.items():
            received.setdefault(destination, {})[sender] = batch
    return {
        destination: merge_batches(batches, len(outboxes), combiner)
        for destination, batches in received.items()
    }


def _route(outbox, partitioner, combiner=None):
    """The batches of one outbox."""
    sizes = [_estimate_size(payload) for _, payload in outbox]
    destinations = hash_destinations(outbox, sizes, partitioner)[0]
    return group_batches(outbox, destinations, combiner)


def _per_message_batches(outbox, partitioner):
    """The batches ``worker_for`` gives each message, keyed in first-routed order."""
    batches = {}
    for pair in outbox:
        batches.setdefault(partitioner.worker_for(pair[0]), []).append(pair)
    return batches


def _assert_matches_fold(outboxes, combiner_factory=None):
    combiner = combiner_factory() if combiner_factory else None
    partitioner = HashPartitioner(len(outboxes))
    want = _dict_fold(outboxes, partitioner, combiner)
    got = _route_and_merge(outboxes, partitioner, combiner)
    assert got == want
    # dict ordering (insertion order) must match too — downstream
    # vertex auto-creation iterates inboxes in this order.
    for worker in want:
        assert list(got[worker]) == list(want[worker])
        for messages in got[worker].values():
            assert all(type(value) is int for value in messages)
    return want


#: name -> (target space, value range); sizes straddle ARRAY_HASH_MIN_BATCH
#: so one draw mixes column-hashed and per-message-hashed senders.
_SHAPES = {
    "wide": (2**62, (0, 2**40)),
    "duplicate-heavy": (20, (0, 2**62)),
    "sum-overflow": (3, (2**61, 2**63 + 12)),
    "negative": (2**62, (-(2**40), 2**40)),
}


def _outboxes(seed, senders, shape):
    rng = random.Random(seed)
    target_space, value_range = _SHAPES[shape]
    return [
        [
            (rng.randrange(target_space), rng.randrange(*value_range))
            for _ in range(rng.choice((0, 5, ARRAY_HASH_MIN_BATCH - 1, ARRAY_HASH_MIN_BATCH, 400)))
        ]
        for _ in range(senders)
    ]


@pytest.mark.parametrize(
    "combiner_factory", [None, min_combiner, sum_combiner], ids=["none", "min", "sum"]
)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    senders=st.integers(1, 5),
    shape=st.sampled_from(sorted(_SHAPES)),
)
def test_columnar_deliver_matches_scalar(combiner_factory, seed, senders, shape):
    _assert_matches_fold(_outboxes(seed, senders, shape), combiner_factory)


# The named behaviours below are pinned inputs of the same property, so
# each runs on every invocation whatever hypothesis happens to draw.
def test_duplicate_heavy_batches_match():
    rng = random.Random(7)
    batch = [(rng.randrange(0, 20), rng.randrange(0, 2**62)) for _ in range(2000)]
    _assert_matches_fold([batch, batch[::-1], batch[:100]], min_combiner)


def test_mixed_columnar_and_scalar_senders_fold_in_sender_order():
    """A column-hashed sender and a per-message one fold in sender-id order."""
    big = [(index % 50, index) for index in range(ARRAY_HASH_MIN_BATCH * 2)]
    mixed = [(1, "not-an-int"), (2, 5)]
    partitioner = _CountingPartitioner(2)
    want = _dict_fold([big, mixed], partitioner, None)
    assert _route_and_merge([big, mixed], partitioner, None) == want
    assert partitioner.array_calls == 1
    assert want[partitioner.worker_for(1)][1][-1] == "not-an-int"


def test_int_targets_with_other_payloads_hash_in_one_batch_and_bucket_like_the_scalar_path():
    """Tuple payloads: each message lands where ``worker_for`` puts it."""
    rng = random.Random(11)
    special = 1 << 63  # the SPECIAL marker contig IDs carry
    outboxes = [
        [
            (rng.randrange(2**40) | rng.choice((0, special)), ("resp", rng.randrange(2**62), index))
            for index in range(size)
        ]
        for size in (400, ARRAY_HASH_MIN_BATCH, 5)
    ]
    partitioner = _CountingPartitioner(len(outboxes))
    want = _dict_fold(outboxes, partitioner, None)
    assert _route_and_merge(outboxes, partitioner, None) == want
    for outbox in outboxes:
        expected = _per_message_batches(outbox, partitioner)
        batches = _route(outbox, partitioner)
        assert batches == expected
        # Keyed in first-routed order, as `group_batches` documents.
        assert list(batches) == list(expected)
    # Only the two outboxes of at least ARRAY_HASH_MIN_BATCH were one column
    # (each routed twice above).
    assert partitioner.array_calls == 4


def test_small_batches_stay_scalar():
    """Below ARRAY_HASH_MIN_BATCH messages every destination is hashed alone."""
    partitioner = _CountingPartitioner(2)
    short = [(index, index) for index in range(ARRAY_HASH_MIN_BATCH - 1)]
    assert _route(short, partitioner) == _per_message_batches(short, partitioner)
    assert partitioner.array_calls == 0
    _route(short + [(7, 7)], partitioner)
    assert partitioner.array_calls == 1
    _assert_matches_fold([[(1, 2), (3, 4)], []])


def test_sum_overflow_falls_back_to_python_ints():
    """Sums past the uint64 range stay exact Python ints, on either side."""
    huge = (1 << 63) + 11
    sender_side = [(5, huge), (5, huge), (6, 1)] * ARRAY_HASH_MIN_BATCH
    want = _assert_matches_fold([sender_side], sum_combiner)
    assert want[0][5] == [2 * ARRAY_HASH_MIN_BATCH * huge]
    # Each sender's own sum stays below 2**63; only the receiver's fold reaches it.
    receiver_side = [[(5, 1 << 55)] * ARRAY_HASH_MIN_BATCH] * 4
    want = _assert_matches_fold(receiver_side, sum_combiner)
    assert [m for inbox in want.values() for m in inbox[5]] == [4 * ARRAY_HASH_MIN_BATCH << 55]


def test_negative_values_fall_back():
    """A target outside the uint64 lane sends the whole outbox to ``worker_for``."""
    for first_target in (-7, 2**64):
        outbox = [(first_target + index, -index) for index in range(ARRAY_HASH_MIN_BATCH * 2)]
        partitioner = _CountingPartitioner(3)
        batches = _route(outbox, partitioner)
        assert partitioner.array_calls == 0
        expected = _per_message_batches(outbox, partitioner)
        assert batches == expected and list(batches) == list(expected)
        _assert_matches_fold([outbox, outbox], None)


class FloodVertex(Vertex):
    """Sends enough messages per superstep to hash whole target columns."""

    def compute(self, messages, ctx):
        if ctx.superstep >= 3:
            self.vote_to_halt()
            return
        for neighbor in self.edges:
            ctx.send(neighbor, (self.vertex_id * 31 + ctx.superstep) % 1000)


def _flood_job():
    count = 120
    vertices = [
        FloodVertex(index, value=index, edges=[(index + stride) % count for stride in (1, 3, 7)])
        for index in range(count)
    ]
    return PregelJob(name="flood", vertices=vertices)


def test_engine_results_identical_with_and_without_columnar(monkeypatch):
    """Hashing each outbox as a column or message by message: the same job."""
    columnar = PregelEngine(num_workers=4, backend="serial").run(_flood_job())
    monkeypatch.setattr(message, "ARRAY_HASH_MIN_BATCH", float("inf"))
    scalar = PregelEngine(num_workers=4, backend="serial").run(_flood_job())
    assert columnar.vertex_values() == scalar.vertex_values()
    assert columnar.metrics == scalar.metrics
    assert columnar.aggregates == scalar.aggregates


def test_hash_min_parity_across_message_paths_and_backends(monkeypatch):
    rng = random.Random(3)
    adjacency = {}
    count = 400
    for index in range(count):
        neighbors = {(index + 1) % count, rng.randrange(count)}
        neighbors.discard(index)
        adjacency[index] = sorted(neighbors)
    # Symmetrise so components are well-defined.
    for index, neighbors in list(adjacency.items()):
        for neighbor in neighbors:
            if index not in adjacency[neighbor]:
                adjacency[neighbor] = sorted(set(adjacency[neighbor]) | {index})
    graph = GraphInput(adjacency=adjacency)

    serial = run_hash_min(graph, engine=PregelEngine(num_workers=4, backend="serial"))
    multiprocess = run_hash_min(graph, engine=PregelEngine(num_workers=4, backend="multiprocess"))
    with monkeypatch.context() as patch:
        patch.setattr(message, "ARRAY_HASH_MIN_BATCH", float("inf"))
        per_message = run_hash_min(graph, engine=PregelEngine(num_workers=4, backend="serial"))

    assert serial.vertex_values() == per_message.vertex_values()
    assert serial.metrics == per_message.metrics
    assert serial.aggregates == per_message.aggregates
    assert serial.vertex_values() == multiprocess.vertex_values()
    assert serial.metrics.summary() == multiprocess.metrics.summary()
    assert serial.metrics.supersteps == multiprocess.metrics.supersteps
    assert serial.aggregates == multiprocess.aggregates
