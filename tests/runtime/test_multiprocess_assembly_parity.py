"""Parity matrix: columnar messages and worker processes change nothing.

Neither the columnar batch path nor the multiprocess backend may change
anything observable.  This suite drives 20 seeded datasets (varying k,
error rate, genome length, and a paired-end quarter that exercises
scaffolding) through a serial *scalar* oracle (``use_vectorized=False``
— no columnar batches, no NumPy kernels) and asserts bit-identical
contigs, scaffolds, and per-superstep
:class:`~repro.pregel.metrics.PipelineMetrics` — including the
``cross_worker_messages`` counter — for:

* the serial backend with columnar messages, and
* the multiprocess backend with columnar messages.
"""

from __future__ import annotations

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler
from repro.dna.simulator import simulate_dataset, simulate_paired_dataset
from repro.ppa.hash_min import run_hash_min
from repro.ppa.sv import GraphInput
from repro.pregel import PregelEngine

#: (index, k, genome_length, error_rate, paired) — 20 seeded datasets.
#: k cycles over the odd sizes 13..21, genome length sweeps 2000..4850,
#: error rate cycles clean/low/high, and every fourth dataset is a
#: paired-end library so the scaffolding stage joins the matrix.
DATASET_SPECS = [
    (index, (13, 15, 17, 19, 21)[index % 5], 2000 + 150 * index, (0.0, 0.004, 0.008)[index % 3], index % 4 == 3)
    for index in range(20)
]


def _config(spec, backend, use_vectorized):
    index, k, _length, _error_rate, paired = spec
    return AssemblyConfig(
        k=k,
        coverage_threshold=0,
        tip_length_threshold=40,
        num_workers=4,
        backend=backend,
        use_vectorized=use_vectorized,
        scaffold=paired,
    )


def _assemble(spec, backend, use_vectorized):
    index, k, length, error_rate, paired = spec
    config = _config(spec, backend, use_vectorized)
    assembler = PPAAssembler(config)
    if paired:
        _genome, pairs = simulate_paired_dataset(
            genome_length=length,
            read_length=80,
            coverage=12,
            insert_size_mean=300.0,
            insert_size_std=30.0,
            error_rate=error_rate,
            seed=1000 + index,
        )
        return assembler.assemble_paired(pairs)
    _genome, reads = simulate_dataset(
        genome_length=length,
        read_length=80,
        coverage=12,
        error_rate=error_rate,
        seed=1000 + index,
    )
    return assembler.assemble(reads)


def _assert_result_parity(oracle, candidate):
    """Everything a caller can observe must match the oracle exactly."""
    assert candidate.contigs == oracle.contigs
    assert [s.name for s in candidate.stages] == [s.name for s in oracle.stages]
    assert candidate.metrics.summary() == oracle.metrics.summary()
    assert len(candidate.metrics.jobs) == len(oracle.metrics.jobs)
    for oracle_job, candidate_job in zip(oracle.metrics.jobs, candidate.metrics.jobs):
        assert candidate_job.job_name == oracle_job.job_name
        assert candidate_job.summary() == oracle_job.summary()
        # SuperstepMetrics is a plain dataclass: == compares every
        # counter, per-worker breakdowns and cross_worker_messages
        # included, bit for bit.
        assert candidate_job.supersteps == oracle_job.supersteps
    assert (oracle.scaffolding is None) == (candidate.scaffolding is None)
    if oracle.scaffolding is not None:
        assert candidate.scaffolding.contigs == oracle.scaffolding.contigs
        assert candidate.scaffolding.sequences == oracle.scaffolding.sequences
        assert candidate.scaffolding.num_links_used == oracle.scaffolding.num_links_used


@pytest.mark.parametrize("spec", DATASET_SPECS, ids=lambda s: f"ds{s[0]:02d}-k{s[1]}-{'paired' if s[4] else 'single'}")
def test_columnar_and_multiprocess_parity(spec):
    # The oracle: serial backend, scalar message/kernels path.
    oracle = _assemble(spec, "serial", use_vectorized=False)
    serial_columnar = _assemble(spec, "serial", use_vectorized=True)
    multiprocess = _assemble(spec, "multiprocess", use_vectorized=True)
    _assert_result_parity(oracle, serial_columnar)
    _assert_result_parity(oracle, multiprocess)


# ----------------------------------------------------------------------
# aggregate histories (not retained by AssemblyResult) at the job level
# ----------------------------------------------------------------------
def test_job_level_aggregate_parity():
    """Per-superstep aggregate snapshots survive the process boundary."""
    edges = [(i, i + 1) for i in range(180)] + [(200 + i, 200 + (i + 1) % 40) for i in range(40)]
    graph = GraphInput.from_edges(edges)

    def run(backend):
        return run_hash_min(graph, engine=PregelEngine(num_workers=4, backend=backend))

    oracle = run("serial")
    candidate = run("multiprocess")
    assert candidate.vertex_values() == oracle.vertex_values()
    assert candidate.aggregates == oracle.aggregates
    assert list(candidate.vertices) == list(oracle.vertices)
    assert candidate.metrics.supersteps == oracle.metrics.supersteps
