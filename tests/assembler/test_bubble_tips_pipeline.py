"""Tests for operations ④ (bubble filtering), ⑤ (tip removing) and the pipeline."""

from __future__ import annotations

import pytest

from repro.assembler import (
    AssemblyConfig,
    PPAAssembler,
    assemble_reads,
    build_dbg,
    filter_bubbles,
    label_contigs,
    merge_contigs,
    remove_tips,
)
from repro.dbg.ids import ContigIdAllocator
from repro.dna.io_fastq import reads_from_strings
from repro.dna.sequence import reverse_complement
from repro.dna.simulator import simulate_dataset
from repro.workflow import StageExecutor


def _prepare_merged_graph(reads, k=5, threshold=0, tip=0, workers=2):
    config = AssemblyConfig(
        k=k,
        coverage_threshold=threshold,
        tip_length_threshold=tip,
        num_workers=workers,
    )
    chain = StageExecutor(num_workers=workers)
    graph = build_dbg(reads, config, chain).graph
    labeling = label_contigs(graph, config, chain)
    merge_contigs(graph, labeling, config, chain, ContigIdAllocator())
    return graph, config, chain


# ----------------------------------------------------------------------
# bubble filtering
# ----------------------------------------------------------------------
def _bubble_reads():
    """A well-covered main path plus a rare single-substitution variant.

    The sequences were chosen so that, at k=5, the variant path and the
    main path form two contigs sharing both ambiguous endpoints — the
    bubble structure of Figure 5.
    """
    main = "AAGCCCAATAAACCACTCTGACTGGCCGAA"
    variant = main[:16] + "A" + main[17:]
    return reads_from_strings([main] * 6 + [variant] * 2)


def test_bubble_detected_and_low_coverage_side_pruned():
    graph, config, chain = _prepare_merged_graph(_bubble_reads(), k=5)
    contigs_before = graph.contig_count()
    result = filter_bubbles(graph, config, chain)
    assert result.bubbles_examined >= 1
    assert result.num_pruned >= 1
    assert graph.contig_count() == contigs_before - result.num_pruned
    # The surviving alternative is the high-coverage one.
    assert all(contig.coverage >= 2 for contig in graph.contigs.values())


def test_bubble_filtering_respects_edit_distance_threshold():
    graph, config, chain = _prepare_merged_graph(_bubble_reads(), k=5)
    strict = AssemblyConfig(
        k=config.k,
        coverage_threshold=config.coverage_threshold,
        tip_length_threshold=config.tip_length_threshold,
        bubble_edit_distance=0,
        num_workers=config.num_workers,
    )
    result = filter_bubbles(graph, strict, chain)
    assert result.num_pruned == 0


def test_bubble_filtering_noop_without_bubbles():
    reads = reads_from_strings(["CAGCACGAAACTTGTTGG"] * 3)
    graph, config, chain = _prepare_merged_graph(reads, k=5)
    result = filter_bubbles(graph, config, chain)
    assert result.num_pruned == 0


def test_bubble_filtering_records_metrics():
    graph, config, chain = _prepare_merged_graph(_bubble_reads(), k=5)
    before = len(chain.pipeline_metrics.jobs)
    filter_bubbles(graph, config, chain)
    assert len(chain.pipeline_metrics.jobs) == before + 1
    assert "bubble" in chain.pipeline_metrics.jobs[-1].job_name


# ----------------------------------------------------------------------
# tip removing
# ----------------------------------------------------------------------
def _tip_reads():
    """A main path plus a short erroneous dead-end branch."""
    main = "CAGCACGAAACTTGTTGGCATCCGTAGGAT"
    branch = main[:10] + "TCC"  # diverges and dead-ends quickly
    return reads_from_strings([main] * 5 + [branch] * 2)


def test_tip_removal_deletes_short_dangling_branch():
    # Merge with tip threshold 0 so the branch survives merging and the
    # dedicated operation has something to remove.
    graph, config, chain = _prepare_merged_graph(_tip_reads(), k=5, tip=0)
    tip_config = AssemblyConfig(
        k=config.k,
        coverage_threshold=config.coverage_threshold,
        tip_length_threshold=20,
        num_workers=config.num_workers,
    )
    filter_bubbles(graph, tip_config, chain)
    before_kmers = graph.kmer_count()
    result = remove_tips(graph, tip_config, chain)
    assert result.phases >= 1
    # Tip removal either deletes something here or the branch was already
    # fully represented as a dangling contig handled at merge time; the
    # operation must leave the graph structurally valid either way.
    graph.validate()
    assert graph.kmer_count() <= before_kmers


def test_tip_removal_keeps_long_dangling_paths():
    graph, config, chain = _prepare_merged_graph(_tip_reads(), k=5, tip=0)
    conservative = AssemblyConfig(
        k=config.k,
        coverage_threshold=config.coverage_threshold,
        tip_length_threshold=1,
        num_workers=config.num_workers,
    )
    total_before = graph.kmer_count() + graph.contig_count()
    result = remove_tips(graph, conservative, chain)
    assert result.tips_removed == 0
    assert graph.kmer_count() + graph.contig_count() == total_before


def test_tip_removal_metrics_recorded():
    graph, config, chain = _prepare_merged_graph(_tip_reads(), k=5, tip=0)
    before = len(chain.pipeline_metrics.jobs)
    remove_tips(graph, config, chain)
    assert len(chain.pipeline_metrics.jobs) >= before + 1
    assert any("tip-removing" in job.job_name for job in chain.pipeline_metrics.jobs[before:])


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
def test_pipeline_reconstructs_clean_genome(clean_dataset, small_config):
    genome, reads = clean_dataset
    result = PPAAssembler(small_config).assemble(reads)
    assert result.num_contigs() >= 1
    largest = result.contigs[0]
    assert largest in genome or reverse_complement(largest) in genome
    assert result.largest_contig() >= 0.9 * len(genome)


def test_pipeline_stage_reporting(clean_dataset, small_config):
    _genome, reads = clean_dataset
    result = PPAAssembler(small_config).assemble(reads)
    names = [stage.name for stage in result.stages]
    assert "dbg-construction" in names
    assert "contig-labeling/kmers" in names
    assert "contig-merging/first-round" in names
    assert any(name.startswith("error-correction") for name in names)
    assert result.stage("dbg-construction").detail["kmer_vertices"] > 0
    assert result.stage("missing-stage") is None


def test_pipeline_labeling_metrics_split_by_round(noisy_dataset, noisy_config):
    _genome, reads = noisy_dataset
    result = PPAAssembler(noisy_config).assemble(reads)
    kmers = result.labeling_summary("kmers")
    contigs = result.labeling_summary("contigs")
    assert kmers["supersteps"] > 0 and kmers["messages"] > 0
    assert contigs["supersteps"] > 0
    # Labeling contigs touches far fewer vertices than labeling k-mers
    # (the Table III vs Table II observation).
    assert contigs["messages"] < kmers["messages"]


def test_pipeline_second_round_grows_contigs(noisy_dataset, noisy_config):
    """The paper's observation that N50 improves after error correction."""
    _genome, reads = noisy_dataset
    single_round = PPAAssembler(noisy_config).assemble(reads)
    first_merge = single_round.stage("contig-merging/first-round").detail["contigs"]
    second_merge = single_round.stage("contig-merging/round-2").detail["contigs"]
    assert second_merge <= first_merge


def test_pipeline_estimated_seconds_positive(clean_dataset, small_config):
    _genome, reads = clean_dataset
    result = PPAAssembler(small_config).assemble(reads)
    assert result.estimated_seconds() > 0
    breakdown = result.estimated_breakdown()
    assert breakdown and all(seconds >= 0 for seconds in breakdown.values())


def test_pipeline_contig_queries_and_fasta(tmp_path, clean_dataset, small_config):
    _genome, reads = clean_dataset
    result = PPAAssembler(small_config).assemble(reads)
    assert result.total_length() == sum(len(contig) for contig in result.contigs)
    assert result.num_contigs(min_length=10**9) == 0
    output = tmp_path / "contigs.fasta"
    written = result.write_fasta(output)
    assert written == result.num_contigs()
    assert output.read_text().startswith(">contig_0")


def test_assemble_reads_convenience_wrapper(clean_dataset, small_config):
    _genome, reads = clean_dataset
    result = assemble_reads(reads, small_config)
    assert result.num_contigs() >= 1


def test_zero_error_correction_rounds(clean_dataset):
    _genome, reads = clean_dataset
    config = AssemblyConfig(
        k=15, coverage_threshold=0, tip_length_threshold=40, num_workers=2, error_correction_rounds=0
    )
    result = PPAAssembler(config).assemble(reads)
    names = [stage.name for stage in result.stages]
    assert not any(name.startswith("error-correction") for name in names)
    assert result.num_contigs() >= 1


def test_pipeline_deterministic_across_worker_counts(clean_dataset):
    _genome, reads = clean_dataset
    results = []
    for workers in (2, 6):
        config = AssemblyConfig(
            k=15, coverage_threshold=0, tip_length_threshold=40, num_workers=workers
        )
        results.append(sorted(PPAAssembler(config).assemble(reads).contigs))
    assert results[0] == results[1]
