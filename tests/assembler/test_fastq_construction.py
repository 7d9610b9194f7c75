"""DBG construction from a FASTQ reader equals construction from its reads.

Handed ``parse_fastq(path)``, construction takes bare sequence chunks
from the reader; handed ``list(parse_fastq(path))``, it batches the
``Read`` objects' sequences.  Both must cut the same chunks, so the
graph, the ``ConstructionResult`` counts, both ``dbg-construction/*``
``JobMetrics`` agree — unbudgeted and under a budget small enough to
cut many chunks, which construction merges without spilling.
"""

from __future__ import annotations

from dataclasses import asdict
from unittest import mock

import pytest

from repro.assembler import AssemblyConfig
from repro.assembler.construction import build_dbg
from repro.dna import ReadSimulationConfig, ReadSimulator, generate_genome, io_fastq
from repro.dna.io_fastq import parse_fastq, write_fastq
from repro.store.spill import process_spill_stats
from repro.workflow import StageExecutor

RESULT_FIELDS = [
    "total_kplus1mers",
    "distinct_kplus1mers",
    "surviving_kplus1mers",
    "filtered_kplus1mers",
]


@pytest.fixture(scope="module")
def fastq_path(tmp_path_factory):
    genome = generate_genome(length=4000, repeat_fraction=0.05, seed=31)
    simulator = ReadSimulator(
        ReadSimulationConfig(coverage=40.0, error_rate=0.01, ambiguous_rate=0.002, seed=32)
    )
    path = tmp_path_factory.mktemp("fastq-construction") / "reads.fastq"
    write_fastq(simulator.simulate(genome), path)
    return path


def _construct(reads, budget_mb):
    config = AssemblyConfig(k=15, num_workers=3, memory_budget_mb=budget_mb)
    chain = StageExecutor(num_workers=3, memory_budget_mb=budget_mb)
    before = process_spill_stats().snapshot()
    result = build_dbg(reads, config, chain)
    return result, chain.pipeline_metrics.jobs, process_spill_stats().delta_since(before)


@pytest.mark.parametrize("budget_mb", [None, 0.05])
def test_reader_and_read_list_construct_the_same_graph(fastq_path, budget_mb):
    # Small blocks: chunks of reads are assembled from many blocks.
    with mock.patch.object(io_fastq, "_BLOCK_CHARS", 4096):
        streamed, streamed_jobs, streamed_spill = _construct(
            parse_fastq(fastq_path), budget_mb
        )
    listed, listed_jobs, listed_spill = _construct(list(parse_fastq(fastq_path)), budget_mb)

    for name in RESULT_FIELDS:
        assert getattr(streamed, name) == getattr(listed, name), name
    assert list(streamed.graph.kmers) == list(listed.graph.kmers)
    assert streamed.graph.kmers == listed.graph.kmers
    assert [job.job_name for job in streamed_jobs] == [
        "dbg-construction/phase1-count-kplus1mers",
        "dbg-construction/phase2-build-vertices",
    ]
    assert [asdict(job) for job in streamed_jobs] == [asdict(job) for job in listed_jobs]
    assert streamed_spill["spill_events"] == listed_spill["spill_events"] == 0
