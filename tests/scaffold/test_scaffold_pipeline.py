"""The scaffolding stage inside the full assembly pipeline.

Covers the acceptance properties of the workload: on a fragmented
paired-end dataset the stage must improve contiguity (scaffold N50 ≥
contig N50, strictly when links exist), consume every contig exactly
once, and produce identical scaffolds on the serial and multiprocess
execution backends.
"""

from __future__ import annotations

import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.dna import simulate_paired_dataset
from repro.quality import n50_value, ng50_value

GENOME_LENGTH = 16_000


@pytest.fixture(scope="module")
def fragmented_paired_dataset():
    """Repeats fragment the assembly; the 600 bp inserts bridge the breaks."""
    return simulate_paired_dataset(
        GENOME_LENGTH,
        coverage=22,
        insert_size_mean=600.0,
        insert_size_std=60.0,
        error_rate=0.005,
        repeat_fraction=0.08,
        repeat_length=120,
        seed=9,
    )


@pytest.fixture(scope="module")
def scaffolded(fragmented_paired_dataset):
    _genome, pairs = fragmented_paired_dataset
    config = AssemblyConfig(k=21, scaffold=True, num_workers=4)
    return PPAAssembler(config).assemble_paired(pairs)


def test_scaffolds_improve_contiguity(scaffolded):
    contig_lengths = [len(sequence) for sequence in scaffolded.contigs]
    scaffold_lengths = [len(sequence) for sequence in scaffolded.scaffolds]
    assert n50_value(scaffold_lengths) >= n50_value(contig_lengths)
    assert ng50_value(scaffold_lengths, GENOME_LENGTH) >= ng50_value(
        contig_lengths, GENOME_LENGTH
    )
    scaffolding = scaffolded.scaffolding
    assert scaffolding.num_links_selected > 0
    # With links the improvement must be strict.
    assert n50_value(scaffold_lengths) > n50_value(contig_lengths)
    assert len(scaffold_lengths) < len(contig_lengths)


def test_every_contig_lands_in_exactly_one_scaffold(scaffolded):
    scaffolding = scaffolded.scaffolding
    placed = [
        member.contig
        for scaffold in scaffolding.scaffolds
        for member in scaffold.members
    ]
    assert sorted(placed) == list(range(len(scaffolding.contigs)))
    # Non-gap scaffold bases are exactly the contig bases.
    contig_bp = sum(len(sequence) for sequence in scaffolding.contigs)
    scaffold_bp_without_gaps = sum(
        len(scaffold.sequence) - scaffold.sequence.count("N")
        for scaffold in scaffolding.scaffolds
    )
    assert scaffold_bp_without_gaps == contig_bp


def test_positions_are_consecutive_ranks(scaffolded):
    for scaffold in scaffolded.scaffolding.scaffolds:
        assert [member.position for member in scaffold.members] == list(
            range(1, len(scaffold.members) + 1)
        )
        assert scaffold.members[0].gap_before == 0
        assert all(member.gap_before >= 1 for member in scaffold.members[1:])


def test_stage_summary_and_metrics_are_recorded(scaffolded):
    stage = scaffolded.stage("scaffolding")
    assert stage is not None
    assert stage.detail["scaffolds"] == len(scaffolded.scaffolding.scaffolds)
    assert stage.detail["pairs_mapped"] > 0
    job_names = [job.job_name for job in scaffolded.metrics.jobs]
    assert "scaffolding/link-bundling" in job_names
    assert "scaffolding/components-hash-min" in job_names
    assert "scaffolding/ordering-list-ranking" in job_names


def test_scaffolds_identical_on_serial_and_multiprocess(
    fragmented_paired_dataset, scaffolded
):
    _genome, pairs = fragmented_paired_dataset
    config = AssemblyConfig(k=21, scaffold=True, num_workers=4, backend="multiprocess")
    parallel = PPAAssembler(config).assemble_paired(pairs)
    assert parallel.scaffolding.sequences == scaffolded.scaffolding.sequences
    serial_members = [
        [(member.contig, member.forward, member.gap_before, member.position)
         for member in scaffold.members]
        for scaffold in scaffolded.scaffolding.scaffolds
    ]
    parallel_members = [
        [(member.contig, member.forward, member.gap_before, member.position)
         for member in scaffold.members]
        for scaffold in parallel.scaffolding.scaffolds
    ]
    assert parallel_members == serial_members


def test_scaffold_flag_without_pairs_is_inert(fragmented_paired_dataset):
    _genome, pairs = fragmented_paired_dataset
    config = AssemblyConfig(k=21, scaffold=True, num_workers=4)
    reads = [read for pair in pairs[:300] for read in pair]
    result = PPAAssembler(config).assemble(reads)
    assert result.scaffolding is None
    assert result.scaffolds == []
    with pytest.raises(ValueError, match="no scaffolds"):
        result.write_scaffold_fasta("/dev/null")


def test_config_validation():
    from repro.errors import PipelineConfigError

    with pytest.raises(PipelineConfigError, match="scaffold_min_links"):
        AssemblyConfig(scaffold_min_links=0)
    with pytest.raises(PipelineConfigError, match="scaffold_insert_size"):
        AssemblyConfig(scaffold_insert_size=-5.0)
    tuned = AssemblyConfig().with_scaffolding(min_links=3, insert_size=450.0)
    assert tuned.scaffold and tuned.scaffold_min_links == 3
    assert tuned.scaffold_insert_size == 450.0


@pytest.mark.parametrize("insert_size", [float("nan"), float("inf"), 0.0])
def test_config_rejects_a_non_finite_or_non_positive_insert_size(insert_size):
    from repro.errors import PipelineConfigError

    # Accepted, a NaN or infinite size used to surface only inside the
    # scaffolder, as a raw ValueError / OverflowError.
    with pytest.raises(PipelineConfigError, match="must be finite and positive"):
        AssemblyConfig(scaffold=True, scaffold_insert_size=insert_size)
