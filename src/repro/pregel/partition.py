"""The partition codec: one worker's vertices as a payload that pickles cheaply.

A partition leaves its process in two places — a multiprocess worker
ships its final partition back to the master, and the serial spill
plane writes idle partitions to disk and reads them back — and both
serialise what :func:`pack_partition` returns rather than the
:class:`~repro.pregel.vertex.Vertex` objects themselves, because a
pickled object drags a slot-state dict per vertex where a column costs
one list.  The shape is chosen per partition from what the vertices
are:

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
    if not _only_base_slots(cls, members):
        return ("objs", members)
    return (
        "lcols",
        cls,
        [vertex.vertex_id for vertex in members],
        [vertex.value for vertex in members],
        [vertex.edges for vertex in members],
        [vertex.halted for vertex in members],
    )


def unpack_partition(payload: tuple) -> Dict[int, Vertex]:
    """Reverse :func:`pack_partition`, preserving vertex order."""
    if payload[0] == "objs":
        return {vertex.vertex_id: vertex for vertex in payload[1]}
    _shape, cls, ids, values, edges, halted = payload
    new = cls.__new__
    vertices: Dict[int, Vertex] = {}
    for vertex_id, value, edge, halt in zip(ids, values, edges, halted):
        vertex = new(cls)
        vertex.vertex_id = vertex_id
        vertex.value = value
        vertex.edges = edge
        vertex.halted = halt
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

