"""The partition codec round-trips to what pickling the worker would give.

Both places that serialise a partition — the serial spill plane and the
multiprocess collect path — ship :func:`pack_partition` payloads, so the
reference is ``pickle.loads(pickle.dumps(worker))``: same classes, same
four slots, same instance dicts, and the same *dict order*, whichever
of the two shapes the vertices allowed.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.ppa.hash_min import HashMinVertex
from repro.pregel import Vertex
from repro.pregel.partition import pack_partition, unpack_partition
from repro.pregel.vertex import VertexFactory
from repro.pregel.worker import Worker


class _Plain(Vertex):
    pass


class _Other(Vertex):
    pass


class _Slotted(Vertex):
    __slots__ = ("extra",)


_MISSING = object()


def _state(vertices):
    return [
        (
            key,
            type(vertex),
            vertex.vertex_id,
            vertex.value,
            vertex.edges,
            vertex.halted,
            dict(getattr(vertex, "__dict__", {})),
            getattr(vertex, "extra", _MISSING),
        )
        for key, vertex in vertices.items()
    ]


def _round_trip(worker):
    """(shape, state through the codec, state through a pickle of the worker)."""
    payload = pack_partition(worker.vertices)
    rebuilt = unpack_partition(pickle.loads(pickle.dumps(payload)))
    reference = pickle.loads(pickle.dumps(worker)).vertices
    return payload[0], _state(rebuilt), _state(reference)


IDS = st.integers(min_value=0, max_value=2**64 - 1) | st.integers(
    min_value=2**63, max_value=2**63 + 64
)
SCALARS = st.none() | st.integers(min_value=-(2**70), max_value=2**70) | st.booleans()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["pair", "done", "kind"]), inner, max_size=3),
    max_leaves=6,
)
VERTEX_STATE = st.tuples(VALUES, st.lists(IDS, max_size=3), st.booleans())
MAKEUPS = ["one-class", "mixed", "instance-attribute", "extra-slot", "factory"]


@settings(max_examples=120, deadline=None)
@given(
    makeup=st.sampled_from(MAKEUPS),
    states=st.dictionaries(IDS, VERTEX_STATE, max_size=12),
    odd_one=st.integers(min_value=0, max_value=11),
)
def test_codec_round_trip_equals_pickling_the_worker(makeup, states, odd_one):
    worker = Worker(3)
    factory = VertexFactory(_Plain, default_value={"pair": [1, 2]}, default_edges=[7])
    for index, (vertex_id, (value, edges, halted)) in enumerate(states.items()):
        odd = index == odd_one % len(states)
        if makeup == "factory" and index % 2:
            vertex = factory.create(vertex_id)
        elif makeup == "extra-slot":
            vertex = _Slotted(vertex_id, value, edges)
            if odd:
                vertex.extra = ("slot", index)
        elif makeup == "mixed" and odd:
            vertex = _Other(vertex_id, value, edges)
        else:
            vertex = _Plain(vertex_id, value, edges)
            if makeup == "instance-attribute" and odd:
                vertex.note = "kept"
        vertex.halted = halted
        worker.add_vertex(vertex)

    shape, rebuilt, reference = _round_trip(worker)
    assert rebuilt == reference
    if not states:
        return
    # A lone vertex of another class is still a one-class partition.
    columns = makeup in ("one-class", "factory") or (makeup == "mixed" and len(states) == 1)
    assert shape == ("lcols" if columns else "objs")


@settings(max_examples=60, deadline=None)
@given(
    states=st.dictionaries(
        IDS,
        st.tuples(IDS, st.lists(IDS, max_size=3), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    odd_value=st.sampled_from(["unchanged", -1, 2**64, "label", None]),
)
def test_hash_min_partitions_take_the_list_column_shape(states, odd_value):
    """Whatever the labels hold, a Hash-Min partition ships as list columns."""
    worker = Worker(0)
    for vertex_id, (value, edges, halted) in states.items():
        vertex = HashMinVertex(vertex_id, value, edges)
        vertex.halted = halted
        worker.add_vertex(vertex)
    if odd_value != "unchanged":
        next(iter(worker.vertices.values())).value = odd_value
    payload = pack_partition(worker.vertices)
    assert payload[0] == "lcols" and payload[1] is HashMinVertex
    assert payload[2] == list(states)  # dict order, not sorted
    _shape, rebuilt, reference = _round_trip(worker)
    assert rebuilt == reference


def test_shared_state_stays_shared_and_an_empty_partition_round_trips():
    assert unpack_partition(pack_partition({})) == {}
    worker = Worker(0)
    shared = {"pair": [1, 2]}
    worker.add_vertex(_Plain(1, shared, [2]))
    worker.add_vertex(_Plain(2, shared, [1]))
    rebuilt = unpack_partition(pickle.loads(pickle.dumps(pack_partition(worker.vertices))))
    assert rebuilt[1].value is rebuilt[2].value
