"""Integration tests: the full workflow on simulated datasets.

These tests exercise the same code paths the benchmarks use, at a scale
small enough for the regular test run: dataset profiles, the complete
①②③④⑤⑥②③ workflow, the LR-vs-S-V equivalence, the quality assessment,
and the comparison against the baselines.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.assembler.config import LABELING_SIMPLIFIED_SV
from repro.baselines import AbyssLikeAssembler
from repro.bench import (
    BENCH_MIN_CONTIG,
    bench_cluster_profile,
    ppa_config,
    prepare_dataset,
)
from repro.dna.datasets import get_profile
from repro.dna.sequence import reverse_complement
from repro.quality import evaluate_assembly


@pytest.fixture(scope="module")
def hc2_tiny():
    """A very small instance of the HC-2 profile (reference available)."""
    profile = get_profile("hc2", scale=0.25)
    reference, reads = profile.generate_with_reference()
    return profile, reference, reads


@pytest.fixture(scope="module")
def assembled(hc2_tiny):
    _profile, _reference, reads = hc2_tiny
    config = AssemblyConfig(k=21, coverage_threshold=1, tip_length_threshold=80, num_workers=4)
    return PPAAssembler(config).assemble(reads)


def test_full_workflow_produces_quality_contigs(hc2_tiny, assembled):
    _profile, reference, _reads = hc2_tiny
    report = evaluate_assembly(
        assembled.contigs,
        reference=reference,
        assembler="PPA",
        min_contig_length=BENCH_MIN_CONTIG,
    )
    assert report.num_contigs > 0
    assert report.genome_fraction > 60.0
    assert report.misassemblies <= max(1, report.num_contigs // 10)
    assert report.mismatches_per_100kbp < 200


def test_second_labeling_round_reduces_vertex_count(assembled):
    """Section V: the vertex count collapses once k-mers merge into contigs."""
    first = assembled.stage("contig-labeling/kmers").detail["labelled_vertices"]
    second = assembled.stage("contig-labeling/contigs-round-1").detail["labelled_vertices"]
    assert second < first / 10


def test_lr_and_sv_workflows_produce_identical_contigs(hc2_tiny):
    _profile, _reference, reads = hc2_tiny
    base = AssemblyConfig(k=21, coverage_threshold=1, tip_length_threshold=80, num_workers=4)
    lr_result = PPAAssembler(base).assemble(reads)
    sv_result = PPAAssembler(dataclasses.replace(base, labeling_method=LABELING_SIMPLIFIED_SV)).assemble(reads)
    assert sorted(lr_result.contigs) == sorted(sv_result.contigs)
    # ... but list ranking gets there with fewer supersteps and messages.
    assert (
        lr_result.labeling_summary("kmers")["supersteps"]
        < sv_result.labeling_summary("kmers")["supersteps"]
    )
    assert (
        lr_result.labeling_summary("kmers")["messages"]
        < sv_result.labeling_summary("kmers")["messages"]
    )


def test_error_correction_improves_contiguity(hc2_tiny):
    """Bubble filtering + tip removal + re-merging must not fragment the assembly."""
    _profile, _reference, reads = hc2_tiny
    with_correction = AssemblyConfig(
        k=21, coverage_threshold=1, tip_length_threshold=80, num_workers=4,
        error_correction_rounds=1,
    )
    without_correction = AssemblyConfig(
        k=21, coverage_threshold=1, tip_length_threshold=80, num_workers=4,
        error_correction_rounds=0,
    )
    corrected = PPAAssembler(with_correction).assemble(reads)
    raw = PPAAssembler(without_correction).assemble(reads)
    assert corrected.num_contigs(BENCH_MIN_CONTIG) <= raw.num_contigs(BENCH_MIN_CONTIG)
    assert corrected.largest_contig() >= raw.largest_contig()


def test_ppa_beats_abyss_like_baseline_on_n50(hc2_tiny, assembled):
    """The Table IV headline: PPA-assembler's N50 exceeds ABySS's."""
    _profile, reference, reads = hc2_tiny
    abyss = AbyssLikeAssembler(k=21, num_workers=4).assemble(reads)
    ppa_report = evaluate_assembly(
        assembled.contigs, reference=reference, min_contig_length=BENCH_MIN_CONTIG
    )
    abyss_report = evaluate_assembly(
        abyss.contigs, reference=reference, min_contig_length=BENCH_MIN_CONTIG
    )
    assert ppa_report.n50 >= abyss_report.n50


def test_estimated_time_decreases_with_more_workers(hc2_tiny):
    """Figure 12 shape: PPA-assembler's simulated time falls as workers are added."""
    _profile, _reference, reads = hc2_tiny
    profile = bench_cluster_profile()
    times = {}
    for workers in (4, 16):
        config = AssemblyConfig(
            k=21, coverage_threshold=1, tip_length_threshold=80, num_workers=workers
        )
        result = PPAAssembler(config).assemble(reads)
        times[workers] = result.estimated_seconds(profile)
    assert times[16] < times[4]


def test_bench_harness_prepares_profiles():
    dataset = prepare_dataset("hc2", scale=0.1)
    assert dataset.name == "hc2"
    assert dataset.reference is not None
    assert len(dataset.reads) > 0
    hc14 = prepare_dataset("hc14", scale=0.05)
    assert hc14.reference is None
    config = ppa_config(num_workers=8)
    assert config.num_workers == 8


def test_contigs_have_no_invalid_characters(assembled):
    for contig in assembled.contigs:
        assert set(contig) <= set("ACGT")


def test_every_long_contig_aligns_to_reference(hc2_tiny, assembled):
    _profile, reference, _reads = hc2_tiny
    both_strands = reference + "#" + reverse_complement(reference)
    exact = sum(
        1
        for contig in assembled.contigs_longer_than(BENCH_MIN_CONTIG)
        if contig in both_strands or reverse_complement(contig) in both_strands
    )
    total = len(assembled.contigs_longer_than(BENCH_MIN_CONTIG))
    # Substitution errors may survive in a few low-coverage contigs, but
    # the overwhelming majority must be exact substrings of the genome.
    assert exact >= 0.7 * total
