"""Tests for the Pregel BSP engine."""

from __future__ import annotations

import pytest

from repro.errors import InvalidJobError, SuperstepLimitExceededError, VertexNotFoundError
from repro.pregel import (
    ComputeContext,
    PregelEngine,
    PregelJob,
    Vertex,
    VertexFactory,
    min_combiner,
    or_aggregator,
    sum_aggregator,
)


class EchoVertex(Vertex):
    """Sends its value to each neighbour once, then halts."""

    def compute(self, messages, ctx):
        if ctx.superstep == 0:
            for neighbor in self.edges:
                ctx.send(neighbor, self.value)
        else:
            self.value = sorted(messages)
        self.vote_to_halt()


class CountdownVertex(Vertex):
    """Stays active for ``value`` supersteps."""

    def compute(self, messages, ctx):
        self.value -= 1
        if self.value <= 0:
            self.vote_to_halt()


class ForeverVertex(Vertex):
    def compute(self, messages, ctx):
        ctx.send(self.vertex_id, 1)  # keeps itself busy forever


class MinFloodVertex(Vertex):
    def compute(self, messages, ctx):
        best = min(messages) if messages else self.value
        if ctx.superstep == 0 or best < self.value:
            self.value = min(self.value, best)
            for neighbor in self.edges:
                ctx.send(neighbor, self.value)
        self.vote_to_halt()


def test_empty_job_rejected():
    engine = PregelEngine(num_workers=2)
    with pytest.raises(InvalidJobError):
        engine.run(PregelJob(name="empty", vertices=[]))


def test_invalid_worker_count_rejected():
    with pytest.raises(InvalidJobError):
        PregelEngine(num_workers=0)


def test_message_exchange_between_vertices():
    vertices = [
        EchoVertex(1, value="a", edges=[2]),
        EchoVertex(2, value="b", edges=[1]),
    ]
    result = PregelEngine(num_workers=2).run(PregelJob(name="echo", vertices=vertices))
    assert result.vertices[1].value == ["b"]
    assert result.vertices[2].value == ["a"]


def test_terminates_when_all_halted_and_no_messages():
    vertices = [CountdownVertex(i, value=3) for i in range(10)]
    result = PregelEngine(num_workers=3).run(PregelJob(name="countdown", vertices=vertices))
    assert result.num_supersteps == 3
    assert all(vertex.value == 0 for vertex in result.vertices.values())


def test_superstep_limit_enforced():
    job = PregelJob(name="forever", vertices=[ForeverVertex(1)], max_supersteps=5)
    with pytest.raises(SuperstepLimitExceededError):
        PregelEngine(num_workers=1).run(job)


def test_message_to_unknown_vertex_raises_without_factory():
    class BadSender(Vertex):
        def compute(self, messages, ctx):
            ctx.send(999, "hello")
            self.vote_to_halt()

    with pytest.raises(VertexNotFoundError):
        PregelEngine(num_workers=2).run(PregelJob(name="bad", vertices=[BadSender(1)]))


def test_vertex_factory_creates_missing_targets():
    class Sender(Vertex):
        def compute(self, messages, ctx):
            if ctx.superstep == 0 and self.vertex_id == 1:
                ctx.send(42, "ping")
            self.vote_to_halt()

    factory = VertexFactory(Sender, default_value="created")
    result = PregelEngine(num_workers=2).run(
        PregelJob(name="factory", vertices=[Sender(1)], vertex_factory=factory)
    )
    assert 42 in result.vertices
    assert result.vertices[42].value == "created"


def test_halted_vertex_reactivated_by_message():
    class LateSender(Vertex):
        def compute(self, messages, ctx):
            if ctx.superstep == 2 and self.vertex_id == 1:
                ctx.send(2, "wake up")
            if messages:
                self.value = messages[0]
                self.vote_to_halt()
            if ctx.superstep >= 3:
                self.vote_to_halt()

    vertices = [LateSender(1, value=None), LateSender(2, value=None)]
    result = PregelEngine(num_workers=2).run(PregelJob(name="wake", vertices=vertices))
    assert result.vertices[2].value == "wake up"


def test_aggregator_values_visible_next_superstep():
    observed = {}

    class AggVertex(Vertex):
        def compute(self, messages, ctx):
            if ctx.superstep == 0:
                ctx.aggregate("total", self.value)
            elif ctx.superstep == 1:
                observed[self.vertex_id] = ctx.aggregated_value("total")
                self.vote_to_halt()

    vertices = [AggVertex(i, value=i) for i in range(1, 5)]
    PregelEngine(num_workers=2).run(
        PregelJob(name="agg", vertices=vertices, aggregators=[sum_aggregator("total")])
    )
    assert set(observed.values()) == {10}


def test_halt_condition_stops_job_early():
    vertices = [CountdownVertex(i, value=100) for i in range(5)]
    calls = []

    def stop_after_two(snapshot):
        calls.append(snapshot)
        return len(calls) >= 2

    result = PregelEngine(num_workers=2).run(
        PregelJob(name="early", vertices=vertices, halt_condition=stop_after_two)
    )
    assert result.num_supersteps == 2


def test_combiner_reduces_message_count_but_not_result():
    edges = [(i, 0) for i in range(1, 20)]

    def build():
        vertices = [MinFloodVertex(0, value=0, edges=[])]
        vertices += [MinFloodVertex(i, value=i, edges=[0]) for i in range(1, 20)]
        return vertices

    plain = PregelEngine(num_workers=4).run(PregelJob(name="plain", vertices=build()))
    combined = PregelEngine(num_workers=4).run(
        PregelJob(name="combined", vertices=build(), combiner=min_combiner())
    )
    assert plain.vertices[0].value == combined.vertices[0].value == 0


def test_metrics_capture_messages_and_supersteps():
    vertices = [
        EchoVertex(1, value="x", edges=[2]),
        EchoVertex(2, value="y", edges=[1]),
    ]
    result = PregelEngine(num_workers=2).run(PregelJob(name="metrics", vertices=vertices))
    assert result.metrics.num_supersteps == result.num_supersteps
    assert result.metrics.total_messages == 2
    assert result.metrics.total_bytes > 0
    per_worker = result.metrics.supersteps[0].worker_messages_sent
    assert sum(per_worker) == 2


def test_vertices_distributed_across_workers():
    engine = PregelEngine(num_workers=4)
    vertices = [CountdownVertex(i, value=1) for i in range(1000)]
    workers = engine.backend.partition_into_workers(vertices)
    sizes = [len(worker) for worker in workers]
    assert sum(sizes) == 1000
    assert min(sizes) > 100  # roughly balanced


def test_deterministic_results_across_worker_counts():
    def run(num_workers):
        vertices = [MinFloodVertex(i, value=i, edges=[(i + 1) % 50, (i - 1) % 50]) for i in range(50)]
        result = PregelEngine(num_workers=num_workers).run(
            PregelJob(name="ring", vertices=vertices)
        )
        return result.vertex_values()

    assert run(1) == run(3) == run(8)


def test_module_usage_sketch_runs():
    import textwrap

    from repro.pregel import engine as engine_module

    doc = engine_module.__doc__
    lines = doc[doc.index("::\n") + 3 :].splitlines()
    end = next(i for i, line in enumerate(lines) if line and not line.startswith(" "))
    block = "\n".join(lines[:end])
    namespace = {
        "PregelEngine": PregelEngine,
        "PregelJob": PregelJob,
        "or_aggregator": or_aggregator,
    }
    exec(textwrap.dedent(block), namespace)
    result = namespace["result"]
    assert {vertex_id: vertex.value["sum"] for vertex_id, vertex in result.vertices.items()} == {
        1: 1.0,
        2: 2.0,
        3: 3.0,
    }
