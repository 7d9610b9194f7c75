"""The partition codec: one worker's vertices as a payload that pickles cheaply.

A partition leaves its process in two places — a multiprocess worker
ships its final partition back to the master, and the serial spill
plane writes idle partitions to disk and reads them back — and both
serialise what :func:`pack_partition` returns rather than the
:class:`~repro.pregel.vertex.Vertex` objects themselves, because a
pickled object drags a slot-state dict per vertex where a column costs
one list.  The shape is chosen per partition from what the vertices
are:

``"vcols"``
    ndarray columns (IDs, values, halted flags, CSR adjacency) for a
    class that opted into ``columnar_state`` and whose state is
    uniformly non-negative integers;
``"lcols"``
    list columns (IDs, values, edges, halted flags as four Python
    lists) when every vertex is exactly one class whose instances are
    the four base slots and nothing else — no instance ``__dict__``
    content, no further slots, no pickling hooks;
``"objs"``
    the plain object list otherwise.

Every shape round-trips to what pickling the vertices would give, in
the original dict order: ``compute_partition`` iterates
``vertices.items()``, so order is part of bit-identity.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .vertex import Vertex

#: Anything here in a subclass body says its state is more than the slots.
_PICKLE_HOOKS = frozenset(
    ("__new__", "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
     "__getnewargs__", "__getnewargs_ex__")
)


def pack_partition(vertices: Dict[int, Vertex]) -> tuple:
    """Pack a partition into the cheapest shape its vertices allow."""
    members = list(vertices.values())
    if not members:
        return ("objs", members)
    cls = type(members[0])
    for vertex in members:
        if type(vertex) is not cls:
            return ("objs", members)
    packed = None
    if getattr(cls, "columnar_state", False):
        packed = _pack_arrays(cls, members)
    if packed is None and _only_base_slots(cls, members):
        packed = (
            "lcols",
            cls,
            [vertex.vertex_id for vertex in members],
            [vertex.value for vertex in members],
            [vertex.edges for vertex in members],
            [vertex.halted for vertex in members],
        )
    return packed or ("objs", members)


def unpack_partition(payload: tuple) -> Dict[int, Vertex]:
    """Reverse :func:`pack_partition`, preserving vertex order."""
    shape = payload[0]
    if shape == "objs":
        return {vertex.vertex_id: vertex for vertex in payload[1]}
    vertices: Dict[int, Vertex] = {}
    if shape == "lcols":
        _shape, cls, ids, values, edges, halted = payload
        new = cls.__new__
        for vertex_id, value, edge, halt in zip(ids, values, edges, halted):
            vertex = new(cls)
            vertex.vertex_id = vertex_id
            vertex.value = value
            vertex.edges = edge
            vertex.halted = halt
            vertices[vertex_id] = vertex
        return vertices
    _shape, cls, ids, values, halted, offsets, edge_ids = payload
    edge_list = edge_ids.tolist()
    bounds = offsets.tolist()
    halted_list = halted.tolist()
    for index, (vertex_id, value) in enumerate(zip(ids.tolist(), values.tolist())):
        vertex = cls(vertex_id, value, edge_list[bounds[index] : bounds[index + 1]])
        vertex.halted = halted_list[index]
        vertices[vertex_id] = vertex
    return vertices


def _only_base_slots(cls, members: List[Vertex]) -> bool:
    """Whether four slot assignments on ``cls.__new__(cls)`` rebuild each member."""
    for klass in cls.__mro__:
        if klass is Vertex or klass is object:
            continue
        namespace = vars(klass)
        if namespace.get("__slots__") or not _PICKLE_HOOKS.isdisjoint(namespace):
            return False
    if cls.__dictoffset__:
        for vertex in members:
            if vertex.__dict__:
                return False
    return True


def _pack_arrays(cls, members: List[Vertex]):
    """The ndarray shape, or None if any vertex is not small non-negative ints.

    Opting into ``columnar_state`` is a promise that ``cls(vertex_id,
    value, edges)`` reconstructs the vertex; one that does not conform
    drops the whole partition to the next shape, so this is purely an
    optimisation.
    """
    ids: List[int] = []
    values: List[int] = []
    halted: List[bool] = []
    offsets: List[int] = [0]
    edge_ids: List[int] = []
    for vertex in members:
        value = vertex.value
        edges = vertex.edges
        if (
            type(vertex.vertex_id) is not int
            or type(value) is not int
            or vertex.vertex_id < 0
            or value < 0
            or type(edges) is not list
        ):
            return None
        for edge in edges:
            if type(edge) is not int or edge < 0:
                return None
        ids.append(vertex.vertex_id)
        values.append(value)
        halted.append(vertex.halted)
        edge_ids.extend(edges)
        offsets.append(len(edge_ids))
    try:
        return (
            "vcols",
            cls,
            np.array(ids, dtype=np.uint64),
            np.array(values, dtype=np.uint64),
            np.array(halted, dtype=bool),
            np.array(offsets, dtype=np.int64),
            np.array(edge_ids, dtype=np.uint64),
        )
    except (OverflowError, ValueError):
        return None
