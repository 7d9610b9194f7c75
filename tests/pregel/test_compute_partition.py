"""The partition-level hook: ``Vertex.compute_partition``.

A job whose vertices share one class runs each worker's partition
through that class's ``compute_partition``, once per worker-superstep;
a job that mixes classes (or whose vertex factory builds another class)
runs the base per-vertex loop, so every vertex's own ``compute`` runs.
"""

from __future__ import annotations

import pytest

from repro.pregel import PregelEngine, PregelJob, Vertex, VertexFactory

#: ``(superstep, partition size)`` of every ``_Countdown.compute_partition`` call.
_PARTITION_CALLS = []


class _Countdown(Vertex):
    """Counts ``value`` down to zero, one step per superstep, telling
    the next vertex until it gets there; records every partition-level
    call."""

    def compute(self, messages, ctx):
        self.value -= 1
        if self.value > 0:
            ctx.send(self.edges[0], self.value)
        else:
            self.vote_to_halt()

    @classmethod
    def compute_partition(cls, vertices, inbox, ctx):
        _PARTITION_CALLS.append((ctx.superstep, len(vertices)))
        return super().compute_partition(vertices, inbox, ctx)


class _Plain(Vertex):
    """Halts at once, after noting that its own ``compute`` ran."""

    def compute(self, messages, ctx):
        self.value = "ran"
        self.vote_to_halt()


class _NeverAsPartition(_Plain):
    """Same program; a partition-level call would fail the job."""

    @classmethod
    def compute_partition(cls, vertices, inbox, ctx):
        raise AssertionError("a mixed job must not run a partition kernel")


def _countdown_job(name, vertex_factory=None):
    vertices = [_Countdown(i, 3, [(i + 1) % 10]) for i in range(10)]
    return PregelJob(name=name, vertices=vertices, vertex_factory=vertex_factory)


@pytest.mark.parametrize("num_workers", [1, 3])
def test_one_class_job_runs_one_partition_call_per_worker_superstep(num_workers):
    _PARTITION_CALLS.clear()
    result = PregelEngine(num_workers=num_workers).run(_countdown_job("countdown"))
    supersteps = result.metrics.num_supersteps
    assert supersteps == 3
    assert len(_PARTITION_CALLS) == num_workers * supersteps
    assert [step for step, _size in _PARTITION_CALLS] == [
        step for step in range(supersteps) for _worker in range(num_workers)
    ]
    assert sum(size for step, size in _PARTITION_CALLS if step == 0) == 10
    assert set(result.vertex_values().values()) == {0}
    assert [step.compute_calls for step in result.metrics.supersteps] == [10] * 3


def test_factory_building_the_same_class_keeps_the_partition_hook():
    _PARTITION_CALLS.clear()
    factory = VertexFactory(_Countdown, default_value=1)
    PregelEngine(num_workers=2).run(_countdown_job("same-factory", factory))
    assert len(_PARTITION_CALLS) == 2 * 3


def test_factory_building_another_class_runs_the_per_vertex_loop():
    _PARTITION_CALLS.clear()
    factory = VertexFactory(_Plain)
    result = PregelEngine(num_workers=2).run(_countdown_job("other-factory", factory))
    assert _PARTITION_CALLS == []
    assert set(result.vertex_values().values()) == {0}


def test_mixed_class_job_runs_each_vertex_compute():
    vertices = [_Plain(i, "new") for i in range(4)] + [
        _NeverAsPartition(i, "new") for i in range(4, 8)
    ]
    result = PregelEngine(num_workers=2).run(PregelJob(name="mixed", vertices=vertices))
    assert result.vertex_values() == {i: "ran" for i in range(8)}
    assert result.metrics.supersteps[0].compute_calls == 8

