"""The ``cross_worker_messages`` counter is exact.

``cross_worker_messages`` counts raw (pre-combine) messages whose
destination lives on a different worker than the sender — the traffic
that crosses a process (or network) boundary.  These tests pin it
against a direct combinatorial count under the backend's hash placement
at superstep 0, and against the serial backend for every later
superstep on the multiprocess backend.
"""

from __future__ import annotations

import pytest

from repro.ppa.hash_min import run_hash_min
from repro.ppa.sv import GraphInput
from repro.pregel import PregelEngine

NUM_WORKERS = 4

#: A 400-vertex path: the shape contig labeling actually runs on.
PATH_EDGES = [(i, i + 1) for i in range(399)]


def _run(engine):
    return run_hash_min(GraphInput.from_edges(PATH_EDGES), engine=engine)


def _expected_superstep0_counts(partitioner):
    """Direct count: at superstep 0 every vertex messages every neighbour.

    Returns ``(total, local, cross)`` directed-message counts under
    ``partitioner``; ``total == local + cross`` by construction, which
    is the partition the counter claims to expose.
    """
    adjacency = GraphInput.from_edges(PATH_EDGES).adjacency
    total = local = 0
    for vertex, neighbors in adjacency.items():
        for neighbor in neighbors:
            total += 1
            if partitioner.worker_for(vertex) == partitioner.worker_for(neighbor):
                local += 1
    return total, local, total - local


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_superstep0_cross_counter_is_exact(backend):
    engine = PregelEngine(num_workers=NUM_WORKERS, backend=backend)
    total, local, cross = _expected_superstep0_counts(engine.partitioner)
    step0 = _run(engine).metrics.supersteps[0]
    # The counter is exactly "raw messages minus worker-local
    # deliveries" — verified against a direct combinatorial count on
    # both backends.
    assert step0.messages_sent == total
    assert cross > 0
    assert step0.cross_worker_messages == cross
    assert step0.messages_sent - step0.cross_worker_messages == local


def test_cross_counter_identical_across_backends():
    serial = _run(PregelEngine(num_workers=NUM_WORKERS, backend="serial"))
    multiprocess = _run(PregelEngine(num_workers=NUM_WORKERS, backend="multiprocess"))
    serial_cross = [s.cross_worker_messages for s in serial.metrics.supersteps]
    assert [s.cross_worker_messages for s in multiprocess.metrics.supersteps] == serial_cross
    # Cross is a subset of all raw messages, superstep by superstep.
    for step in serial.metrics.supersteps:
        assert 0 <= step.cross_worker_messages <= step.messages_sent
    # And the job summary exposes the same total.
    assert serial.metrics.summary()["cross_worker_messages"] == sum(serial_cross)
    assert serial.metrics.total_cross_worker_messages == sum(serial_cross)
