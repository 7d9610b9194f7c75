"""Tests for the Vertex base class and compute context."""

from __future__ import annotations

import enum
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AggregatorError
from repro.pregel.aggregator import AggregatorRegistry, sum_aggregator
from repro.pregel.vertex import ComputeContext, Vertex, VertexFactory, vertices_from_pairs, _estimate_size


class PlainVertex(Vertex):
    def compute(self, messages, ctx):
        self.vote_to_halt()


def _context(**overrides):
    defaults = dict(
        superstep=0,
        outbox=[],
        aggregators={},
        previous_aggregates={},
        num_vertices=10,
    )
    defaults.update(overrides)
    return ComputeContext(**defaults)


def test_base_vertex_compute_is_abstract():
    vertex = Vertex(1)
    with pytest.raises(NotImplementedError):
        vertex.compute([], _context())


def test_vote_to_halt_and_reactivate():
    vertex = PlainVertex(1)
    assert not vertex.halted
    vertex.vote_to_halt()
    assert vertex.halted
    vertex.reactivate()
    assert not vertex.halted


def test_degree_counts_edges():
    assert PlainVertex(1, edges=[2, 3, 4]).degree == 3
    assert PlainVertex(1).degree == 0
    assert PlainVertex(1, edges=123).degree == 0  # opaque edges -> 0


def test_context_send_records_messages_and_bytes():
    outbox = []
    ctx = _context(outbox=outbox)
    ctx.send(5, "hello")
    ctx.send(6, 42)
    assert outbox == [(5, "hello"), (6, 42)]
    assert ctx.messages_sent == 2
    assert ctx.bytes_sent >= len("hello") + 8


def test_context_aggregate_unknown_name_raises():
    ctx = _context()
    with pytest.raises(AggregatorError):
        ctx.aggregate("missing", 1)
    with pytest.raises(AggregatorError):
        ctx.aggregated_value("missing")


def test_context_aggregate_known_name():
    registry = AggregatorRegistry()
    registry.register(sum_aggregator("total"))
    copies = registry.current_copies()
    ctx = _context(aggregators=copies, previous_aggregates={"total": 7})
    ctx.aggregate("total", 3)
    assert copies["total"].value == 3
    assert ctx.aggregated_value("total") == 7


def test_vertex_factory_creates_with_defaults():
    factory = VertexFactory(PlainVertex, default_value="x", default_edges=[1, 2])
    vertex = factory.create(99)
    assert vertex.vertex_id == 99
    assert vertex.value == "x"
    assert vertex.edges == [1, 2]
    # Each created vertex gets its own edges list.
    other = factory.create(100)
    vertex.edges.append(3)
    assert other.edges == [1, 2]


def test_vertices_from_pairs():
    vertices = vertices_from_pairs(PlainVertex, [(1, "a"), (2, "b", [3, 4])])
    assert vertices[0].vertex_id == 1 and vertices[0].edges == []
    assert vertices[1].edges == [3, 4]


def test_estimate_size_covers_common_types():
    assert _estimate_size(None) == 1
    assert _estimate_size(True) == 1
    assert _estimate_size(3) == 8
    assert _estimate_size(2.5) == 8
    assert _estimate_size("abc") == 3
    assert _estimate_size(b"abcd") == 4
    assert _estimate_size((1, "ab")) == 4 + 8 + 2
    assert _estimate_size({"a": 1}) == 4 + 1 + 8
    assert _estimate_size(object()) == 16

    class Sized:
        def message_size(self):
            return 123

    assert _estimate_size(Sized()) == 123


# ----------------------------------------------------------------------
# one estimator, one answer: the fast prefix must agree with the chain
# ----------------------------------------------------------------------
def _reference_size(message):
    """The estimator as a plain ``isinstance`` chain, with no shortcuts."""
    if message is None:
        return 1
    if isinstance(message, bool):
        return 1
    if isinstance(message, int):
        return 8
    if isinstance(message, float):
        return 8
    if isinstance(message, (str, bytes)):
        return len(message)
    if isinstance(message, (tuple, list)):
        return 4 + sum(_reference_size(item) for item in message)
    if isinstance(message, dict):
        return 4 + sum(
            _reference_size(key) + _reference_size(value) for key, value in message.items()
        )
    if hasattr(message, "message_size"):
        return int(message.message_size())
    return 16


class _Kind(enum.IntEnum):
    ASK = 1
    ANSWER = 2


class _Sized:
    def __init__(self, size):
        self.size = size

    def message_size(self):
        return self.size


_Pair = namedtuple("_Pair", "left right")

_HASHABLE_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from(list(_Kind)),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
_LEAVES = st.one_of(
    _HASHABLE_LEAVES,
    st.integers(0, 2**62).map(np.uint64),
    st.integers(-(2**31), 2**31).map(np.int64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(0, 10**6).map(_Sized),
    st.builds(object),
)
_MESSAGES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.tuples(children, children).map(lambda pair: _Pair(*pair)),
        st.dictionaries(_HASHABLE_LEAVES, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(message=_MESSAGES)
def test_estimate_size_equals_the_isinstance_chain(message):
    assert _estimate_size(message) == _reference_size(message)
