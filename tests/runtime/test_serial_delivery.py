"""Serial delivery folds each outbox straight into the next inboxes.

The serial backend runs its workers in id order and hands each
worker's outbox to ``deliver_outbox`` as soon as the worker has run;
the multiprocess backend groups outboxes into per-destination batches
(``group_batches``) and folds them at the receiver in sender-id order
(``merge_batches``).  The property below drives random outboxes over
1-8 workers through both, with no combiner, ``min_combiner()`` and a
float-sum combiner, with and without the serial spill plane, and
requires the same inboxes key for key and bit for bit, the same
counters and the same order of factory-created vertices.
"""

from __future__ import annotations

from typing import Any, Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pregel import PregelJob, Vertex, VertexFactory
from repro.pregel.message import (
    group_batches,
    hash_destinations,
    merge_batches,
    min_combiner,
    sum_combiner,
)
from repro.pregel.vertex import _estimate_size
from repro.runtime import SerialBackend
from repro.runtime.base import run_worker_superstep
from repro.runtime.serial import _SerialSession

#: (superstep, vertex id) -> the (target, payload) pairs that vertex sends.
_SCRIPT: Dict[tuple, List[tuple]] = {}
#: One (superstep, inbox) entry per partition run, inbox as (target, bits) pairs.
_INBOXES: List[tuple] = []


def _bits(value: Any) -> Any:
    """``value`` with every float spelled exactly (0.0 and -0.0 differ)."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return (type(value).__name__, value)


class _ScriptedVertex(Vertex):
    """Sends what ``_SCRIPT`` says, once per superstep it runs, then halts."""

    def compute(self, messages, ctx):
        for target, payload in _SCRIPT.get((ctx.superstep, self.vertex_id), ()):
            ctx.send(target, payload)
        self.vote_to_halt()

    @classmethod
    def compute_partition(cls, vertices, inbox, ctx):
        _INBOXES.append(
            (ctx.superstep, [(target, list(map(_bits, messages))) for target, messages in inbox.items()])
        )
        return super().compute_partition(vertices, inbox, ctx)


class _BatchedSession(_SerialSession):
    """The reference: ``group_batches`` per sender, ``merge_batches`` per receiver."""

    def step(self, superstep, previous_aggregates, trace_ctx):
        plan = self._plan
        outgoing: Dict[int, Dict[int, Any]] = {}
        reports = []
        for worker_id in range(plan.num_workers):
            worker = self._workers[worker_id]
            outbox, _destinations, report = run_worker_superstep(
                worker, plan, superstep, self._inboxes.get(worker_id, {}),
                previous_aggregates, trace_ctx, self._worker_messages[worker_id],
            )
            sizes = [_estimate_size(message) for _target, message in outbox]
            destinations, routed_messages, routed_bytes = hash_destinations(
                outbox, sizes, plan.partitioner
            )
            batches = group_batches(outbox, destinations, plan.combiner)
            counters = report[0]
            assert counters["routed_messages"] == routed_messages
            assert counters["routed_bytes"] == routed_bytes
            assert counters["messages_cross"] == len(outbox) - routed_messages[worker_id]
            for destination, batch in batches.items():
                outgoing.setdefault(destination, {})[worker_id] = batch
            reports.append(report)
        self._inboxes = {
            destination: merge_batches(batches, plan.num_workers, plan.combiner)
            for destination, batches in outgoing.items()
        }
        return reports


class _BatchedBackend(SerialBackend):
    def _session(self, plan, workers):
        return _BatchedSession(plan, workers)


_COMBINERS = {"none": None, "min": min_combiner, "float-sum": sum_combiner}

_PAYLOADS = {
    "none": st.one_of(
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False, width=64),
        st.tuples(st.sampled_from(("req", "resp")), st.integers(0, 2**63)),
    ),
    "min": st.integers(-(2**70), 2**70),
    "float-sum": st.floats(-1e300, 1e300, allow_nan=False, width=64),
}


@st.composite
def scripted_jobs(draw):
    """A worker count, a vertex count, a combiner and a send script."""
    combiner = draw(st.sampled_from(sorted(_COMBINERS)))
    num_workers = draw(st.integers(1, 8))
    num_vertices = draw(st.integers(1, 12))
    # Targets past the initial vertices make the factory create them.
    target = st.integers(0, num_vertices + 5)
    script = {}
    for superstep in range(draw(st.integers(1, 3))):
        for vertex_id in range(num_vertices + 6):
            sends = draw(st.lists(st.tuples(target, _PAYLOADS[combiner]), max_size=4))
            # Some long outboxes hash their destinations as one array.
            script[superstep, vertex_id] = sends * draw(st.sampled_from((1, 1, 40)))
    return num_workers, num_vertices, combiner, script


def _run(backend, num_vertices, combiner):
    del _INBOXES[:]
    job = PregelJob(
        name="scripted",
        vertices=[_ScriptedVertex(vertex_id, value=0) for vertex_id in range(num_vertices)],
        combiner=_COMBINERS[combiner]() if _COMBINERS[combiner] else None,
        vertex_factory=VertexFactory(_ScriptedVertex, default_value=0),
    )
    result = backend.run(job)
    return list(_INBOXES), list(result.vertices), result.metrics.supersteps


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(job=scripted_jobs())
def test_serial_delivery_matches_route_then_merge(job):
    num_workers, num_vertices, combiner, script = job
    _SCRIPT.clear()
    _SCRIPT.update(script)
    want = _run(_BatchedBackend(num_workers=num_workers), num_vertices, combiner)
    assert want[0], "every job runs at least one partition"
    assert _run(SerialBackend(num_workers=num_workers), num_vertices, combiner) == want
    # A budget far below the working set spills partitions and inboxes.
    budgeted = SerialBackend(num_workers=num_workers, memory_budget_mb=0.0001)
    assert _run(budgeted, num_vertices, combiner) == want

