"""Vertex abstraction for the Pregel computation model.

A Pregel program is written from the perspective of a single vertex:
in every superstep each *active* vertex receives the messages sent to
it in the previous superstep, may mutate its own value, send messages
to other vertices, and finally vote to halt.  The engine in
:mod:`repro.pregel.engine` drives instances of :class:`Vertex`
subclasses through this loop.

The design follows the description in Section II of the paper
(Malewicz et al.'s Pregel as exposed by Pregel+), including the
``vote_to_halt`` / reactivation-on-message semantics and access to the
current superstep number and aggregators through a per-superstep
:class:`ComputeContext`.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Iterable, List, Tuple, TypeVar

MessageT = TypeVar("MessageT")
ValueT = TypeVar("ValueT")


class ComputeContext:
    """Everything a vertex may touch during one ``compute`` call.

    The context is created by the worker that owns the vertex and gives
    the vertex controlled access to:

    * the current superstep number (``superstep``),
    * message sending (``send``, or ``send_batch`` from a partition
      kernel),
    * aggregators (``aggregate`` / ``aggregated_value``),
    * global graph statistics (``num_vertices``).

    Keeping this state out of the :class:`Vertex` instances themselves
    keeps vertices cheap (they are created in the millions) and makes
    the message accounting used by the cost model exact.  Nothing in a
    context is per-vertex, so a worker builds one per superstep and
    hands it to every vertex it runs.
    """

    __slots__ = ("superstep", "_outbox", "sizes", "_aggregators", "_previous_aggregates",
                 "num_vertices")

    def __init__(
        self,
        superstep: int,
        outbox: List[tuple],
        aggregators: Dict[str, Any],
        previous_aggregates: Dict[str, Any],
        num_vertices: int,
    ) -> None:
        self.superstep = superstep
        self._outbox = outbox
        #: Cost-model size of every message sent through this context, in
        #: send order.  This is the only place a message is sized: routing
        #: totals these per destination worker.
        self.sizes: List[int] = []
        self._aggregators = aggregators
        self._previous_aggregates = previous_aggregates
        self.num_vertices = num_vertices

    @property
    def messages_sent(self) -> int:
        return len(self.sizes)

    @property
    def bytes_sent(self) -> int:
        return sum(self.sizes)

    def send(self, target_id: int, message: Any) -> None:
        """Send ``message`` to the vertex identified by ``target_id``.

        The message is delivered at the start of the next superstep.
        Sending to a non-existent vertex raises
        :class:`~repro.errors.VertexNotFoundError` at delivery time
        unless the job opted into auto-creating vertices (mirroring the
        behaviour of Pregel+ with a vertex-factory).
        """
        self._outbox.append((target_id, message))
        self.sizes.append(_estimate_size(message))

    def send_batch(self, messages: List[Tuple[int, Any]], size: int) -> None:
        """Send ``(target_id, message)`` pairs whose messages all have cost-model size ``size``.

        The bulk form of :meth:`send` for a partition kernel (see
        :meth:`Vertex.compute_partition`): the caller sizes one
        representative message with :func:`_estimate_size` and vouches
        that every message in the batch has that size, so the counters
        are the ones ``send`` would have produced.
        """
        self._outbox.extend(messages)
        self.sizes.extend([size] * len(messages))

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the aggregator called ``name``."""
        aggregator = self._aggregators.get(name)
        if aggregator is None:
            from ..errors import AggregatorError

            raise AggregatorError(f"unknown aggregator {name!r}")
        aggregator.accumulate(value)

    def aggregated_value(self, name: str) -> Any:
        """Return the value aggregated under ``name`` in the previous superstep."""
        if name not in self._previous_aggregates:
            from ..errors import AggregatorError

            raise AggregatorError(f"aggregator {name!r} has no value from the previous superstep")
        return self._previous_aggregates[name]


def _estimate_size(message: Any) -> int:
    """Rough byte-size estimate of a message for the cost model.

    The estimate intentionally stays cheap: integers count as 8 bytes,
    strings and bytes as their length, and containers as the sum of
    their elements plus a small header.  The absolute numbers only need
    to be consistent across algorithms, because the cost model compares
    algorithms against each other rather than against real hardware.

    Almost every message is an int or a flat tuple of ints and strs, so
    those exact types are answered first, without recursion; the
    ``isinstance`` chain below gives the same answer for them and
    decides everything else (subclasses, bools, nested containers).
    """
    kind = type(message)
    if kind is int or kind is float:
        return 8
    if kind is str:
        return len(message)
    if kind is tuple or kind is list:
        size = 4
        for item in message:
            kind = type(item)
            if kind is int or kind is float:
                size += 8
            elif kind is str:
                size += len(item)
            else:
                size += _estimate_size(item)
        return size
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
        return 4 + sum(_estimate_size(item) for item in message)
    if isinstance(message, dict):
        return 4 + sum(
            _estimate_size(key) + _estimate_size(value) for key, value in message.items()
        )
    if hasattr(message, "message_size"):
        return int(message.message_size())
    return 16


class Vertex(Generic[ValueT, MessageT]):
    """Base class for user-defined Pregel vertices.

    Subclasses implement :meth:`compute` (or, see below,
    :meth:`compute_partition`).  A vertex owns

    * ``vertex_id`` — the unique 64-bit integer identifier used for
      message routing and hash partitioning,
    * ``value`` — an arbitrary mutable attribute ``a(v)``,
    * ``edges`` — the adjacency list; the engine treats it as opaque
      (assembly jobs store compact bitmaps here, PPA primitives store
      plain lists of neighbour IDs).

    ``halted`` implements vote-to-halt: a halted vertex is skipped by
    the engine until a message arrives for it, which reactivates it.

    A worker runs its whole partition for a superstep through one
    :meth:`compute_partition` call on the job's vertex class — the one
    class every initial vertex has (and the vertex factory builds), or
    ``Vertex`` when there is none.  The default calls :meth:`compute`
    for each vertex that is active or has messages; a class may
    override it with a partition-level kernel that runs the same
    program in one loop, without a method call per vertex or a size
    estimate per message (see :meth:`ComputeContext.send_batch`).
    """

    __slots__ = ("vertex_id", "value", "edges", "halted")

    def __init__(self, vertex_id: int, value: ValueT = None, edges: Any = None) -> None:
        self.vertex_id = vertex_id
        self.value = value
        self.edges = edges if edges is not None else []
        self.halted = False

    def compute(self, messages: List[MessageT], ctx: ComputeContext) -> None:
        """Process incoming ``messages`` for one superstep.

        Subclasses must override this.  The default implementation
        raises ``NotImplementedError`` so that forgetting to override
        it fails loudly.

        Automatic cyclic garbage collection is paused while a job runs
        (see :func:`~repro.runtime.base.collector_paused`): what a
        ``compute()`` drops is freed at once by reference count, but a
        reference *cycle* it creates is reclaimed after the job, not
        during it.
        """
        raise NotImplementedError("Vertex subclasses must implement compute()")

    @classmethod
    def compute_partition(
        cls,
        vertices: Dict[int, "Vertex"],
        inbox: Dict[int, List[MessageT]],
        ctx: ComputeContext,
    ) -> Tuple[int, int, int]:
        """Run one superstep over a worker's partition.

        ``vertices`` is the partition (``vertex_id -> vertex``, recipients
        of ``inbox`` already reactivated) and ``inbox`` the messages
        delivered to it.  Every vertex that has messages or is still
        active runs once, in partition order.  Returns ``(compute_calls,
        degrees, active)``: how many vertices ran, the sum of their
        :attr:`degree`, and how many of them did not vote to halt — the
        counters the cost model charges, so an override must return
        exactly what this loop would.
        """
        compute_calls = degrees = active = 0
        for vertex_id, vertex in vertices.items():
            messages = inbox.get(vertex_id)
            if messages is None:
                if vertex.halted:
                    continue
                messages = []
            vertex.compute(messages, ctx)
            compute_calls += 1
            degrees += vertex.degree
            if not vertex.halted:
                active += 1
        return compute_calls, degrees, active

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message reactivates it."""
        self.halted = True

    def reactivate(self) -> None:
        """Mark the vertex active again (used by the engine on message delivery)."""
        self.halted = False

    @property
    def degree(self) -> int:
        """Number of adjacency-list entries (``d(v)`` in the paper)."""
        try:
            return len(self.edges)
        except TypeError:
            return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "halted" if self.halted else "active"
        return f"<{type(self).__name__} id={self.vertex_id} value={self.value!r} {state}>"


class VertexFactory:
    """Creates vertices on demand when a message targets an unknown ID.

    Google's Pregel creates missing vertices automatically; Pregel+
    lets the application decide.  Jobs that want auto-creation pass a
    factory; jobs that consider an unknown target a bug pass ``None``
    and get :class:`~repro.errors.VertexNotFoundError` instead.
    """

    def __init__(self, vertex_class, default_value=None, default_edges=None) -> None:
        #: The class of every vertex this factory creates.
        self.vertex_class = vertex_class
        self._default_value = default_value
        self._default_edges = default_edges

    def create(self, vertex_id: int) -> Vertex:
        edges = list(self._default_edges) if self._default_edges is not None else None
        return self.vertex_class(vertex_id, self._default_value, edges)


def vertices_from_pairs(
    vertex_class,
    pairs: Iterable[tuple],
) -> List[Vertex]:
    """Build vertices from ``(vertex_id, value, edges)`` tuples.

    Convenience constructor used by tests and examples.  ``pairs`` may
    contain two-element tuples (``edges`` defaults to an empty list).
    """
    vertices: List[Vertex] = []
    for pair in pairs:
        if len(pair) == 2:
            vertex_id, value = pair
            vertices.append(vertex_class(vertex_id, value))
        else:
            vertex_id, value, edges = pair
            vertices.append(vertex_class(vertex_id, value, edges))
    return vertices
