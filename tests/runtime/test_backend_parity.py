"""Backend parity: serial and multiprocess must be indistinguishable.

The multiprocess backend trades the serial backend's exact in-process
simulation for real parallelism, but nothing observable may change:
final vertex values, aggregate histories, superstep counts, message
totals and per-worker metric breakdowns all have to match bit for bit.
These tests assert that for the paper's PPA primitives (list ranking,
simplified S-V, hash-min) and for an end-to-end assembly run.
"""

from __future__ import annotations

import random

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler
from repro.dna.simulator import simulate_dataset
from repro.ppa.hash_min import run_hash_min
from repro.ppa.list_ranking import ListNode, run_list_ranking
from repro.ppa.sv import GraphInput, run_simplified_sv, sequential_connected_components
from repro.pregel import PregelEngine, PregelJob, Vertex, min_combiner, sum_aggregator

WORKER_COUNTS = (1, 3)


def _engines(num_workers):
    return (
        PregelEngine(num_workers=num_workers, backend="serial"),
        PregelEngine(num_workers=num_workers, backend="multiprocess"),
    )


def _assert_job_parity(serial_result, multiprocess_result):
    """Everything a caller can observe must match exactly."""
    assert serial_result.vertex_values() == multiprocess_result.vertex_values()
    assert serial_result.aggregates == multiprocess_result.aggregates
    assert serial_result.num_supersteps == multiprocess_result.num_supersteps
    # Iteration order matters downstream (contig ID allocation), so the
    # vertex maps must agree on ordering, not just content.
    assert list(serial_result.vertices) == list(multiprocess_result.vertices)
    serial_steps = serial_result.metrics.supersteps
    multiprocess_steps = multiprocess_result.metrics.supersteps
    assert len(serial_steps) == len(multiprocess_steps)
    for serial_step, multiprocess_step in zip(serial_steps, multiprocess_steps):
        assert serial_step.active_vertices == multiprocess_step.active_vertices
        assert serial_step.worker_compute_ops == multiprocess_step.worker_compute_ops
        assert serial_step.worker_messages_sent == multiprocess_step.worker_messages_sent
        assert serial_step.worker_bytes_sent == multiprocess_step.worker_bytes_sent
        assert (
            serial_step.worker_messages_received
            == multiprocess_step.worker_messages_received
        )
        assert (
            serial_step.worker_bytes_received
            == multiprocess_step.worker_bytes_received
        )


def _random_graph(num_vertices, num_edges, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < num_edges:
        a = rng.randrange(num_vertices)
        b = rng.randrange(num_vertices)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return GraphInput.from_edges(sorted(edges)).add_isolated(range(num_vertices))


# ----------------------------------------------------------------------
# PPA primitives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_list_ranking_parity(num_workers):
    rng = random.Random(7)
    order = list(range(40))
    rng.shuffle(order)
    nodes = [
        ListNode(node_id=node, value=1.0, predecessor=prev)
        for node, prev in zip(order, [None] + order[:-1])
    ]
    serial_engine, multiprocess_engine = _engines(num_workers)
    serial_result = run_list_ranking(nodes, engine=serial_engine)
    multiprocess_result = run_list_ranking(nodes, engine=multiprocess_engine)
    _assert_job_parity(serial_result, multiprocess_result)


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_simplified_sv_parity(num_workers):
    graph = _random_graph(num_vertices=60, num_edges=70, seed=13)
    serial_engine, multiprocess_engine = _engines(num_workers)
    serial_result = run_simplified_sv(graph, engine=serial_engine)
    multiprocess_result = run_simplified_sv(graph, engine=multiprocess_engine)
    _assert_job_parity(serial_result, multiprocess_result)
    expected = sequential_connected_components(graph)
    labels = {
        vertex_id: vertex.value["D"]
        for vertex_id, vertex in multiprocess_result.vertices.items()
    }
    assert labels == expected


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_hash_min_parity(num_workers):
    graph = _random_graph(num_vertices=50, num_edges=55, seed=29)
    serial_engine, multiprocess_engine = _engines(num_workers)
    serial_result = run_hash_min(graph, engine=serial_engine)
    multiprocess_result = run_hash_min(graph, engine=multiprocess_engine)
    _assert_job_parity(serial_result, multiprocess_result)


# ----------------------------------------------------------------------
# combiners and aggregators across the process boundary
# ----------------------------------------------------------------------
class FloodVertex(Vertex):
    """Min-floods over a ring while counting active vertices."""

    def compute(self, messages, ctx):
        ctx.aggregate("active", 1)
        best = min(messages) if messages else self.value
        if ctx.superstep == 0 or best < self.value:
            self.value = min(self.value, best)
            for neighbor in self.edges:
                ctx.send(neighbor, self.value)
        self.vote_to_halt()


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
def test_combiner_and_aggregator_parity(num_workers):
    def build():
        return [
            FloodVertex(i, value=i, edges=[(i + 1) % 30, (i - 1) % 30])
            for i in range(30)
        ]

    def run(backend):
        return PregelEngine(num_workers=num_workers, backend=backend).run(
            PregelJob(
                name="flood",
                vertices=build(),
                combiner=min_combiner(),
                aggregators=[sum_aggregator("active")],
            )
        )

    serial_result = run("serial")
    multiprocess_result = run("multiprocess")
    _assert_job_parity(serial_result, multiprocess_result)
    assert serial_result.aggregates  # the aggregate history is non-trivial


def test_spawn_start_method_parity():
    """Built-in combiners/aggregators must survive spawn's pickling.

    Unlike fork, the spawn start method pickles all job state into the
    worker processes — this is the only path exercised on platforms
    without fork (e.g. Windows), so it gets its own (slow) test.
    """
    from repro.runtime import MultiprocessBackend

    def build():
        return [
            FloodVertex(i, value=i, edges=[(i + 1) % 12, (i - 1) % 12])
            for i in range(12)
        ]

    def job():
        return PregelJob(
            name="spawn-flood",
            vertices=build(),
            combiner=min_combiner(),
            aggregators=[sum_aggregator("active")],
        )

    serial_result = PregelEngine(num_workers=2, backend="serial").run(job())
    spawn_backend = MultiprocessBackend(num_workers=2, start_method="spawn")
    spawn_result = spawn_backend.run(job())
    _assert_job_parity(serial_result, spawn_result)


# ----------------------------------------------------------------------
# end-to-end assembly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("labeling_method", ["list_ranking", "sv"])
def test_end_to_end_assembly_parity(labeling_method):
    _genome, reads = simulate_dataset(genome_length=2500, seed=23)

    def assemble(backend):
        config = AssemblyConfig(
            k=15, num_workers=2, labeling_method=labeling_method, backend=backend
        )
        return PPAAssembler(config).assemble(reads)

    serial_result = assemble("serial")
    multiprocess_result = assemble("multiprocess")

    assert serial_result.contigs == multiprocess_result.contigs
    assert [stage.name for stage in serial_result.stages] == [
        stage.name for stage in multiprocess_result.stages
    ]
    assert [stage.detail for stage in serial_result.stages] == [
        stage.detail for stage in multiprocess_result.stages
    ]
    assert serial_result.metrics.summary() == multiprocess_result.metrics.summary()
    for serial_job, multiprocess_job in zip(
        serial_result.metrics.jobs, multiprocess_result.metrics.jobs
    ):
        assert serial_job.summary() == multiprocess_job.summary()
