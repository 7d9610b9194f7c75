"""Bidirectional list ranking, run as one partition kernel per worker-superstep.

The LR vertex class has no per-vertex ``compute``: each worker runs its
partition through ``_BidirectionalLRVertex.compute_partition``.  These
tests pin what that kernel must keep from the per-vertex program it
replaced — the labels (against a sequential walk over synthetic chain
graphs, on both backends) and the cost model's exact message sizing.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assembler import AssemblyConfig, build_dbg, labeling
from repro.assembler.chain import ChainElement, build_chain_graph
from repro.dbg.contig_vertex import ContigEnd
from repro.dna.encoding import FLIP_BIT, flip_id
from repro.dna.simulator import simulate_dataset
from repro.pregel.vertex import _estimate_size
from repro.pregel.worker import Worker
from repro.workflow import StageExecutor


# ----------------------------------------------------------------------
# exact sizing
# ----------------------------------------------------------------------
def test_bytes_sent_equals_the_estimated_size_of_every_message_sent(monkeypatch):
    _genome, reads = simulate_dataset(
        genome_length=1500, coverage=15.0, error_rate=0.005, seed=2018
    )
    config = AssemblyConfig(k=21, num_workers=4)
    executor = StageExecutor(num_workers=4)
    graph = build_dbg(reads, config, executor).graph
    pairs = labeling._run_end_recognition(graph, build_chain_graph(graph), executor)

    estimated = defaultdict(int)
    counts = defaultdict(int)
    execute = Worker.execute_superstep

    def recording_execute(self, superstep, *args, **kwargs):
        outbox, sizes, counters = execute(self, superstep, *args, **kwargs)
        assert sizes == [_estimate_size(message) for _target, message in outbox]
        estimated[superstep] += sum(_estimate_size(message) for _target, message in outbox)
        counts[superstep] += len(outbox)
        return outbox, sizes, counters

    monkeypatch.setattr(Worker, "execute_superstep", recording_execute)
    labeling._run_bidirectional_list_ranking(pairs, executor)

    job = executor.pipeline_metrics.jobs[-1]
    assert job.job_name == "contig-labeling/bidirectional-list-ranking"
    assert job.total_messages > 1000
    assert [step.bytes_sent for step in job.supersteps] == [
        estimated[step.superstep] for step in job.supersteps
    ]
    assert [step.messages_sent for step in job.supersteps] == [
        counts[step.superstep] for step in job.supersteps
    ]


# ----------------------------------------------------------------------
# labels against a sequential walk
# ----------------------------------------------------------------------
@st.composite
def chain_shapes(draw):
    """Disjoint paths and ⟨1-1⟩ cycles with random IDs and port orientations.

    Returns ``(components, flips)``: each component is ``(is_cycle,
    node ids in walk order)``; ``flips`` lists the nodes whose
    predecessor sits on ``PORT_OUT`` rather than ``PORT_IN``.
    """
    shapes = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just(False), st.integers(1, 12)),
                st.tuples(st.just(True), st.integers(1, 9)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    total = sum(length for _cycle, length in shapes)
    ids = draw(
        st.lists(
            st.integers(0, FLIP_BIT - 1), min_size=total, max_size=total, unique=True
        )
    )
    flips = draw(st.sets(st.sampled_from(ids)))
    components, start = [], 0
    for is_cycle, length in shapes:
        components.append((is_cycle, ids[start : start + length]))
        start += length
    return components, flips


def _chain_graph(components, flips):
    chain = {}
    for is_cycle, nodes in components:
        length = len(nodes)
        for index, node_id in enumerate(nodes):
            # A path's first and last node dangle on their outer side.
            before = after = ContigEnd()
            if is_cycle or index > 0:
                before = ContigEnd(nodes[index - 1])
            if is_cycle or index < length - 1:
                after = ContigEnd(nodes[(index + 1) % length])
            in_end, out_end = (after, before) if node_id in flips else (before, after)
            chain[node_id] = ChainElement(node_id, "", 0, in_end, out_end)
    return chain


def _walk_labels(components):
    """Smaller end ID for a path, smallest ID for a cycle."""
    labels = {}
    for is_cycle, nodes in components:
        label = min(nodes) if is_cycle else min(nodes[0], nodes[-1])
        labels.update(dict.fromkeys(nodes, label))
    return labels


def _label(components, flips, backend, num_workers):
    chain = _chain_graph(components, flips)
    # What contig-end recognition hands to list ranking: a boundary side
    # becomes the node's own flipped ID.
    pairs = {
        node_id: tuple(
            end.neighbor_id if end.neighbor_id in chain else flip_id(node_id)
            for end in (element.in_end, element.out_end)
        )
        for node_id, element in chain.items()
    }
    executor = StageExecutor(num_workers=num_workers, backend=backend)
    return labeling._label_by_list_ranking(pairs, chain, executor)


_SHAPE_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True
)


@pytest.mark.parametrize("num_workers", [1, 4])
@settings(max_examples=60, **_SHAPE_SETTINGS)
@given(shape=chain_shapes())
def test_serial_list_ranking_labels_match_a_sequential_walk(num_workers, shape):
    components, flips = shape
    labels, used_fallback = _label(components, flips, "serial", num_workers)
    assert labels == _walk_labels(components)
    assert used_fallback == any(is_cycle for is_cycle, _nodes in components)


@settings(max_examples=12, **_SHAPE_SETTINGS)
@given(shape=chain_shapes())
def test_multiprocess_list_ranking_labels_match_a_sequential_walk(shape):
    components, flips = shape
    labels, used_fallback = _label(components, flips, "multiprocess", 2)
    assert labels == _walk_labels(components)
    assert used_fallback == any(is_cycle for is_cycle, _nodes in components)
