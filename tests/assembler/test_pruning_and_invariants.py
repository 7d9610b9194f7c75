"""Tests for the optional coverage-pruning operation and cross-operation invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.assembler import (
    AssemblyConfig,
    PPAAssembler,
    build_dbg,
    label_contigs,
    merge_contigs,
    prune_low_coverage_contigs,
)
from repro.dbg.ids import ContigIdAllocator
from repro.dna.io_fastq import reads_from_strings
from repro.dna.sequence import reverse_complement
from repro.dna.simulator import ReadSimulationConfig, ReadSimulator, generate_genome
from repro.workflow import StageExecutor


def _merged_graph(reads, k=5, threshold=0, workers=2):
    config = AssemblyConfig(
        k=k, coverage_threshold=threshold, tip_length_threshold=0, num_workers=workers
    )
    chain = StageExecutor(num_workers=workers)
    graph = build_dbg(reads, config, chain).graph
    labeling = label_contigs(graph, config, chain)
    merge_contigs(graph, labeling, config, chain, ContigIdAllocator())
    return graph, config, chain


# ----------------------------------------------------------------------
# coverage pruning (the paper's suggested user extension)
# ----------------------------------------------------------------------
def _mixed_coverage_reads():
    well_covered = "CAGCACGAAACTTGTTGGCATCCGTAGG"
    barely_covered = "TTACCGTCAATGCTAGCTTAAGGT"
    return reads_from_strings([well_covered] * 10 + [barely_covered])


def test_pruning_removes_low_coverage_contigs():
    graph, config, chain = _merged_graph(_mixed_coverage_reads(), k=5)
    before = graph.contig_count()
    result = prune_low_coverage_contigs(
        graph, config, chain, absolute_threshold=3, relative_threshold=None, protect_length=10_000
    )
    assert result.num_pruned >= 1
    assert graph.contig_count() == before - result.num_pruned
    assert all(contig.coverage >= 3 for contig in graph.contigs.values())
    graph.validate()


def test_pruning_relative_threshold_uses_median():
    graph, config, chain = _merged_graph(_mixed_coverage_reads(), k=5)
    result = prune_low_coverage_contigs(
        graph, config, chain, absolute_threshold=None, relative_threshold=0.5,
        protect_length=10_000,
    )
    assert result.median_coverage > 0
    assert result.threshold_used == pytest.approx(0.5 * result.median_coverage)


def test_pruning_protects_long_contigs():
    graph, config, chain = _merged_graph(_mixed_coverage_reads(), k=5)
    before = graph.contig_count()
    result = prune_low_coverage_contigs(
        graph, config, chain, absolute_threshold=10**6, relative_threshold=None, protect_length=1
    )
    # Every contig is below the absurd threshold but all are >= 1 bp long
    # and therefore protected — nothing is pruned.
    assert result.num_pruned == 0
    assert graph.contig_count() == before


def test_pruning_on_empty_graph():
    config = AssemblyConfig(k=5, num_workers=2)
    chain = StageExecutor(num_workers=2)
    from repro.dbg.graph import DeBruijnGraph

    graph = DeBruijnGraph(5)
    result = prune_low_coverage_contigs(graph, config, chain)
    assert result.num_pruned == 0
    assert result.median_coverage == 0.0


def test_pruning_records_metrics():
    graph, config, chain = _merged_graph(_mixed_coverage_reads(), k=5)
    before = len(chain.pipeline_metrics.jobs)
    prune_low_coverage_contigs(graph, config, chain, absolute_threshold=3)
    assert len(chain.pipeline_metrics.jobs) == before + 1
    assert "coverage-pruning" in chain.pipeline_metrics.jobs[-1].job_name


# ----------------------------------------------------------------------
# property-based invariants of the whole pipeline
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_clean_assembly_contigs_are_substrings(seed):
    """Without errors or repeats, every contig is an exact genome substring."""
    genome = generate_genome(1_500, repeat_fraction=0.0, seed=seed)
    simulator = ReadSimulator(
        ReadSimulationConfig(read_length=60, coverage=12, error_rate=0.0, seed=seed + 1)
    )
    reads = simulator.simulate(genome)
    config = AssemblyConfig(k=15, coverage_threshold=0, tip_length_threshold=40, num_workers=3)
    result = PPAAssembler(config).assemble(reads)
    assert result.num_contigs() >= 1
    for contig in result.contigs:
        assert contig in genome or reverse_complement(contig) in genome
    # Contigs cover most of the genome and do not massively over-assemble.
    assert 0.8 * len(genome) <= result.total_length() <= 1.1 * len(genome)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_assembly_total_length_bounded_with_errors(seed):
    """Even with sequencing errors the assembly never balloons past the genome."""
    genome = generate_genome(2_000, repeat_fraction=0.02, seed=seed)
    simulator = ReadSimulator(
        ReadSimulationConfig(read_length=70, coverage=18, error_rate=0.01, seed=seed + 1)
    )
    reads = simulator.simulate(genome)
    config = AssemblyConfig(k=17, coverage_threshold=1, tip_length_threshold=50, num_workers=3)
    result = PPAAssembler(config).assemble(reads)
    assert result.total_length() <= 1.25 * len(genome)
    # The graph left behind is structurally consistent.
    result.graph.validate()


def test_merging_hairpin_selfloop_keeps_boundary_wired():
    """Regression: a chain node whose far port links back to itself.

    Hypothesis found (seed 6471) that such a hairpin group was
    classified as a pure cycle, so merging discarded its real start
    boundary and the bordering ambiguous k-mer kept a dangling edge
    into the deleted node.  The hairpin must merge as a path whose far
    end simply dead-ends.
    """
    genome = generate_genome(1_200, repeat_fraction=0.05, repeat_length=80, seed=6471)
    simulator = ReadSimulator(
        ReadSimulationConfig(read_length=60, coverage=15, error_rate=0.008, seed=6472)
    )
    reads = simulator.simulate(genome)
    config = AssemblyConfig(
        k=15, coverage_threshold=0, tip_length_threshold=40, num_workers=3
    )
    chain = StageExecutor(num_workers=3)
    graph = build_dbg(reads, config, chain).graph
    labeling = label_contigs(graph, config, chain)
    # The dataset contains a self-looping ⟨1-1⟩ node bordering an
    # ambiguous vertex; without the fix this validate() reports a
    # missing-neighbour reference.
    merge_contigs(graph, labeling, config, chain, ContigIdAllocator())
    graph.validate()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_graph_valid_after_every_operation(seed):
    """Each operation leaves the de Bruijn graph structurally valid."""
    from repro.assembler import filter_bubbles, remove_tips

    genome = generate_genome(1_200, repeat_fraction=0.05, repeat_length=80, seed=seed)
    simulator = ReadSimulator(
        ReadSimulationConfig(read_length=60, coverage=15, error_rate=0.008, seed=seed + 1)
    )
    reads = simulator.simulate(genome)
    config = AssemblyConfig(k=15, coverage_threshold=0, tip_length_threshold=40, num_workers=3)
    chain = StageExecutor(num_workers=3)
    allocator = ContigIdAllocator()  # shared across rounds, as the pipeline does

    graph = build_dbg(reads, config, chain).graph
    graph.validate()
    labeling = label_contigs(graph, config, chain)
    merge_contigs(graph, labeling, config, chain, allocator)
    graph.validate()
    filter_bubbles(graph, config, chain)
    graph.validate()
    remove_tips(graph, config, chain)
    graph.validate()
    relabeling = label_contigs(graph, config, chain, include_contigs=True)
    merge_contigs(graph, relabeling, config, chain, allocator)
    graph.validate()
