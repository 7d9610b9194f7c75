"""Vectorised DBG construction charges what the scalar MapReduce charges.

The vectorised path hashes and canonicalises only the *distinct*
windows of each ingest chunk and weights them by their counts; the
scalar path routes every pair one by one.  Over several chunks, worker
counts the two must agree on the graph and on
every field of both ``dbg-construction/*`` ``JobMetrics``.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.assembler import AssemblyConfig
from repro.assembler.construction import _chunk_reads_for_budget, build_dbg
from repro.dna import ReadSimulationConfig, ReadSimulator, generate_genome
from repro.workflow import StageExecutor

#: Small enough for the minimum chunk size, so the reads span many chunks.
BUDGET_MB = 0.05

JOB_NAMES = [
    "dbg-construction/phase1-count-kplus1mers",
    "dbg-construction/phase2-build-vertices",
]


@pytest.fixture(scope="module")
def reads():
    # A few Ns and sequencing errors: windows are dropped and some
    # (k+1)-mers fall below the coverage threshold.
    genome = generate_genome(length=4000, repeat_fraction=0.05, seed=23)
    simulator = ReadSimulator(
        ReadSimulationConfig(coverage=40.0, error_rate=0.01, ambiguous_rate=0.002, seed=24)
    )
    return simulator.simulate(genome)


def _construct(reads, num_workers, vectorized):
    config = AssemblyConfig(
        k=15,
        num_workers=num_workers,
        use_vectorized=vectorized,
        memory_budget_mb=BUDGET_MB,
    )
    chain = StageExecutor(
        num_workers=num_workers,
        columnar_messages=vectorized,
        memory_budget_mb=BUDGET_MB,
    )
    # An iterator: the vectorised path must not need a list.
    return build_dbg(iter(reads), config, chain), chain.pipeline_metrics.jobs


@pytest.mark.parametrize("num_workers", [4, 16])
def test_construction_metrics_match_scalar_field_by_field(reads, num_workers):
    budget_bytes = AssemblyConfig(memory_budget_mb=BUDGET_MB).runtime.memory_budget_bytes
    assert len(reads) > 4 * _chunk_reads_for_budget(budget_bytes)

    fast, fast_jobs = _construct(reads, num_workers, vectorized=True)
    reference, reference_jobs = _construct(reads, num_workers, vectorized=False)

    assert [job.job_name for job in fast_jobs] == JOB_NAMES
    assert [job.job_name for job in reference_jobs] == JOB_NAMES
    for fast_job, reference_job in zip(fast_jobs, reference_jobs):
        expected = asdict(reference_job)
        for name, value in asdict(fast_job).items():
            assert value == expected[name], (fast_job.job_name, name)

    for name in (
        "total_kplus1mers",
        "distinct_kplus1mers",
        "surviving_kplus1mers",
        "filtered_kplus1mers",
    ):
        assert getattr(fast, name) == getattr(reference, name), name
    assert reference.filtered_kplus1mers > 0
    assert list(fast.graph.kmers) == list(reference.graph.kmers)
    assert fast.graph.kmers == reference.graph.kmers
