"""Tests for the assembly configuration and operation ① (DBG construction)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.assembler import AssemblyConfig, build_dbg
from repro.assembler.config import LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV
from repro.dbg.kmer_vertex import TYPE_AMBIGUOUS, TYPE_UNAMBIGUOUS
from repro.dna.io_fastq import Read, reads_from_strings
from repro.dna.sequence import reverse_complement
from repro.errors import PipelineConfigError
from repro.workflow import StageExecutor


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_default_config_is_valid():
    config = AssemblyConfig()
    assert config.k == 21
    assert config.labeling_method == LABELING_LIST_RANKING


def test_config_validation():
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(k=0)
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(k=50)
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(k=20)  # even k would allow palindromic k-mers
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(coverage_threshold=-1)
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(tip_length_threshold=-5)
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(bubble_edit_distance=-1)
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(labeling_method="magic")
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(num_workers=0)
    with pytest.raises(PipelineConfigError):
        AssemblyConfig(error_correction_rounds=-1)


def test_config_copies():
    config = AssemblyConfig(k=21)
    assert dataclasses.replace(config, num_workers=8).num_workers == 8
    assert dataclasses.replace(config, labeling_method=LABELING_SIMPLIFIED_SV).labeling_method == LABELING_SIMPLIFIED_SV
    paper = config.paper_defaults()
    assert paper.k == 31 and paper.tip_length_threshold == 80 and paper.bubble_edit_distance == 5
    # original untouched (frozen dataclass copies)
    assert config.k == 21


# ----------------------------------------------------------------------
# DBG construction
# ----------------------------------------------------------------------
def _build(reads, k=5, threshold=0, workers=2):
    config = AssemblyConfig(k=k, coverage_threshold=threshold, num_workers=workers)
    chain = StageExecutor(num_workers=workers)
    return build_dbg(reads, config, chain), chain


def test_single_read_produces_path_graph():
    reads = reads_from_strings(["GCTAAAGACA"])
    result, _ = _build(reads, k=5, threshold=0)
    graph = result.graph
    # A 10 bp read with k=5 contains five (k+1)-mers, all distinct.
    assert result.distinct_kplus1mers == 5
    graph.validate()
    types = [vertex.vertex_type() for vertex in graph.kmers.values()]
    assert types.count("1") == 2  # the two path ends
    assert all(t in ("1", "1-1") for t in types)


def test_reverse_complement_reads_merge_into_same_graph():
    sequence = "CAGCACGAAACTTG"
    forward, _ = _build(reads_from_strings([sequence]), k=5)
    both, _ = _build(reads_from_strings([sequence, reverse_complement(sequence)]), k=5)
    assert set(forward.graph.kmers) == set(both.graph.kmers)
    # Edge coverages double when the same molecule is read from both strands.
    for kmer_id, vertex in forward.graph.kmers.items():
        merged = both.graph.kmers[kmer_id]
        for adjacency in vertex.adjacencies:
            counterpart = [
                other
                for other in merged.adjacencies
                if other.key() == adjacency.key()
            ]
            assert counterpart and counterpart[0].coverage == 2 * adjacency.coverage


def test_coverage_threshold_filters_rare_kplus1mers():
    rare = "CCATGGTACTCA"
    reads = reads_from_strings(["GCTAAAGACA"] * 3 + [rare])
    unfiltered, _ = _build(reads, k=5, threshold=0)
    filtered, _ = _build(reads, k=5, threshold=1)
    # The rare read appears once, so every one of its (k+1)-mers is
    # below the threshold and disappears from the graph.
    assert filtered.filtered_kplus1mers > 0
    assert filtered.graph.kmer_count() < unfiltered.graph.kmer_count()
    assert filtered.surviving_kplus1mers == 5  # only the triplicated read survives


def test_branching_reads_create_ambiguous_vertex():
    # Two reads share a prefix then diverge: the last shared k-mer branches.
    reads = reads_from_strings(["AACCGGTTA", "AACCGGTCA"])
    result, _ = _build(reads, k=5)
    assert len(result.graph.ambiguous_vertices()) >= 1


def test_reads_with_n_are_split():
    reads = reads_from_strings(["GCTAAGANAGACA"])
    result, _ = _build(reads, k=5)
    # Each N-free fragment is shorter than in the unsplit read, so fewer
    # (k+1)-mers are produced than for the same read without N (the
    # second fragment yields none at all).
    unsplit, _ = _build(reads_from_strings(["GCTAAGAAGACA"]), k=5)
    assert result.distinct_kplus1mers < unsplit.distinct_kplus1mers


def test_construction_metrics_recorded():
    reads = reads_from_strings(["GCTAAAGACA"] * 5)
    result, chain = _build(reads, k=5)
    names = [job.job_name for job in chain.pipeline_metrics.jobs]
    assert names == [
        "dbg-construction/phase1-count-kplus1mers",
        "dbg-construction/phase2-build-vertices",
    ]
    assert chain.pipeline_metrics.jobs[0].loading_ops > 0


def test_construction_deterministic_across_worker_counts(clean_dataset):
    _genome, reads = clean_dataset
    few, _ = _build(reads[:200], k=15, workers=2)
    many, _ = _build(reads[:200], k=15, workers=8)
    assert set(few.graph.kmers) == set(many.graph.kmers)
    assert few.graph.edge_count() == many.graph.edge_count()


def test_graph_covers_genome_kmers(clean_dataset):
    genome, reads = clean_dataset
    result, _ = _build(reads, k=15, workers=4)
    # With 15x coverage and no errors, nearly every genomic k-mer appears.
    assert result.graph.kmer_count() >= 0.95 * (len(genome) - 15 + 1) * 0.9
    result.graph.validate()
