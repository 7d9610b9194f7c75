"""Work budget of the serial spill plane, and the order it evicts in.

Timing-free regression guard, in the style of
``tests/pregel/test_accounting_budget.py``: under a memory budget the
plane must not round-trip every partition every superstep.  The serial
schedule is a cyclic scan of the workers, so evicting by *next use*
keeps a resident set in memory and cycles only the remainder, where
evicting by last use reloads everything; and what does go to disk is
the partition codec's columns, not a pickle of ``Vertex`` objects.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.assembler import AssemblyConfig, build_dbg
from repro.assembler import labeling
from repro.assembler.chain import build_chain_graph
from repro.dna.simulator import simulate_dataset
from repro.pregel import Vertex
from repro.pregel.worker import Worker
from repro.runtime.spilling import SerialSpillPlane
from repro.store.spill import SpillManager, process_spill_stats
from repro.workflow import StageExecutor

NUM_WORKERS = 16
MB = 1024 * 1024

#: ``spill_bytes`` of the budgeted job below at the commit before the
#: plane evicted by next use and spilled codec columns (LRU order,
#: pickled ``Worker`` objects).
PARENT_SPILL_BYTES = 6_131_187


@pytest.fixture(scope="module")
def chain_pairs():
    """The ID pairs bidirectional list ranking starts from, for one assembly."""
    _genome, reads = simulate_dataset(
        genome_length=3000, coverage=20.0, error_rate=0.005, seed=2018
    )
    config = AssemblyConfig(k=21, num_workers=NUM_WORKERS)
    executor = StageExecutor(num_workers=NUM_WORKERS)
    graph = build_dbg(reads, config, executor).graph
    chain = build_chain_graph(graph)
    return labeling._run_end_recognition(graph, chain, executor)


def _rank(pairs, budget_mb):
    executor = StageExecutor(num_workers=NUM_WORKERS, memory_budget_mb=budget_mb)
    labels, _unfinished = labeling._run_bidirectional_list_ranking(pairs, executor)
    return labels, executor.pipeline_metrics.jobs[-1].num_supersteps


def test_budgeted_list_ranking_keeps_a_resident_set_and_spills_columns(
    chain_pairs, monkeypatch
):
    peaks = []
    original_close = SerialSpillPlane.close

    def recording_close(self):
        peaks.append(self.ledger.peak_bytes)
        original_close(self)

    monkeypatch.setattr(SerialSpillPlane, "close", recording_close)

    # An effectively unlimited budget still runs the plane, so its
    # ledger reports the job's working set.
    expected, supersteps = _rank(chain_pairs, budget_mb=4096)
    budget_mb = peaks[-1] / 4 / MB

    loads = Counter()
    original_load = SpillManager.load

    def counting_load(self, name, drop=True):
        kind, _, worker_id = name.partition(":")
        if kind == "partition":
            loads[int(worker_id)] += 1
        return original_load(self, name, drop)

    monkeypatch.setattr(SpillManager, "load", counting_load)

    before = process_spill_stats().snapshot()
    labels, budgeted_supersteps = _rank(chain_pairs, budget_mb=budget_mb)
    spilled = process_spill_stats().delta_since(before)

    assert labels == expected
    assert budgeted_supersteps == supersteps
    assert supersteps >= 10  # the job cycles often enough for the order to matter
    assert spilled["spill_events"] > 0  # a quarter of the working set must spill

    turns = NUM_WORKERS * supersteps
    assert sum(loads.values()) <= 0.75 * turns
    # At most one load for its first turn (``adopt`` may have spilled
    # it) and one more when the job collects it.
    assert min(loads[worker_id] for worker_id in range(NUM_WORKERS)) <= 1
    assert spilled["spill_bytes"] <= 0.65 * PARENT_SPILL_BYTES


class _Inert(Vertex):
    def compute(self, messages, ctx):
        self.vote_to_halt()


def _scripted_plane(monkeypatch, num_workers=4):
    """A plane over ``num_workers`` equal partitions that records its victims."""
    victims = []
    original_spill = SpillManager.spill

    def recording_spill(self, name, obj):
        victims.append(name)
        return original_spill(self, name, obj)

    monkeypatch.setattr(SpillManager, "spill", recording_spill)
    plane = SerialSpillPlane(budget_bytes=10**9, job_name="scripted")
    workers = []
    for worker_id in range(num_workers):
        worker = Worker(worker_id)
        for index in range(8):
            worker.add_vertex(_Inert(worker_id + num_workers * index, index, []))
        workers.append(worker)
    plane.adopt(workers)
    assert victims == []
    return plane, victims


def test_victims_after_a_turn_go_in_descending_next_use(monkeypatch):
    plane, victims = _scripted_plane(monkeypatch)
    try:
        inboxes = plane.stash_inboxes({w: {w: ["m"]} for w in range(4)})
        for worker_id in (0, 1):
            plane.worker(worker_id)
            plane.take_inbox(worker_id, inboxes)
        plane.ledger.budget_bytes = 0
        plane.rebalance(exclude_worker=1)
        # Worker 1 just ran and stays pinned; 2 runs next, then 3, and
        # 0 not before the next superstep.
        assert victims == [
            "partition:0", "partition:3", "inbox:3", "partition:2", "inbox:2",
        ]
    finally:
        plane.close()


def test_victims_at_the_superstep_boundary_go_last_worker_first(monkeypatch):
    plane, victims = _scripted_plane(monkeypatch)
    try:
        plane.ledger.budget_bytes = 0
        plane.stash_inboxes({w: {w: ["m"]} for w in range(4)})
        assert [name.partition(":")[2] for name in victims] == list("33221100")
        assert sorted(victims[:2]) == ["inbox:3", "partition:3"]
    finally:
        plane.close()
