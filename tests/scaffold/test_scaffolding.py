"""Unit tests for the scaffolding building blocks.

Mapping, link derivation and the driver are tested on hand-built
contigs cut from a known genome, so orientation, ordering and gap
estimates can be asserted exactly.
"""

from __future__ import annotations

import re

import pytest

from repro.dna import PairedReadSimulationConfig, PairedReadSimulator, generate_genome
from repro.dna.sequence import reverse_complement
from repro.workflow import StageExecutor
from repro.scaffold import (
    END_HEAD,
    END_TAIL,
    ContigSeedIndex,
    LinkBundle,
    select_links,
)
from repro.scaffold.links import (
    estimate_insert_size,
    exit_evidence,
    observe_pair,
    observed_insert_size,
)
from repro.scaffold.mapping import ReadMapping
from repro.scaffold.scaffolder import scaffold_contigs


# ----------------------------------------------------------------------
# mapping
# ----------------------------------------------------------------------
def test_seed_index_maps_forward_and_reverse():
    genome = generate_genome(1_000, repeat_fraction=0.0, seed=1)
    index = ContigSeedIndex([genome], seed_k=21)
    read = genome[200:300]
    mapping = index.map_read(read)
    assert mapping == ReadMapping(contig=0, start=200, forward=True)
    mapping = index.map_read(reverse_complement(read))
    assert mapping == ReadMapping(contig=0, start=200, forward=False)


def test_seed_index_drops_repeated_seeds():
    unique = generate_genome(200, repeat_fraction=0.0, seed=2)
    repeated = unique[:50]
    index = ContigSeedIndex([unique + repeated, repeated], seed_k=21)
    # A read entirely inside the repeated segment has only ambiguous
    # seeds and must stay unmapped rather than guess a copy.
    assert index.map_read(repeated[:60]) is None
    # Unique sequence still maps.
    assert index.map_read(unique[60:160]).forward is True


def test_seed_index_uniqueness_is_strand_symmetric():
    unique = generate_genome(300, repeat_fraction=0.0, seed=4)
    segment = unique[100:160]
    # Contig 0 carries the segment forward, contig 1 carries its
    # reverse complement: every seed inside it exists on both strands,
    # so a read from the segment must stay unmapped — a forward-only
    # uniqueness check would silently place it on contig 0.
    index = ContigSeedIndex([unique, reverse_complement(segment)], seed_k=21)
    assert index.map_read(segment[:50]) is None
    assert index.map_read(reverse_complement(segment[:50])) is None
    # Sequence outside the duplicated segment still maps.
    assert index.map_read(unique[200:260]) is not None


def test_seed_index_survives_errors_via_multiple_seeds():
    genome = generate_genome(1_000, repeat_fraction=0.0, seed=3)
    index = ContigSeedIndex([genome], seed_k=21)
    read = list(genome[300:400])
    read[5] = "N"  # kills the first seed only
    mapping = index.map_read("".join(read))
    assert mapping is not None
    assert mapping.start == 300


# ----------------------------------------------------------------------
# link evidence
# ----------------------------------------------------------------------
def test_exit_evidence_points_past_the_contig_end():
    # Forward mate at position 700 of an 800 bp contig: the fragment
    # continues past the tail, with 100 bp inside the contig.
    assert exit_evidence(ReadMapping(0, 700, True), 100, 800) == (END_TAIL, 100)
    # Reverse mate at position 50: fragment exits the head, 150 bp inside.
    assert exit_evidence(ReadMapping(0, 50, False), 100, 800) == (END_HEAD, 150)


def test_observe_pair_links_the_facing_ends():
    lengths = [800, 700]
    observation = observe_pair(
        ReadMapping(0, 700, True),   # exits contig 0's tail, 100 bp inside
        ReadMapping(1, 150, False),  # exits contig 1's head, 250 bp inside
        100, 100, lengths, insert_size=500.0,
    )
    assert observation.key == (0, END_TAIL, 1, END_HEAD)
    assert observation.gap == pytest.approx(150.0)
    # Same contig: no link (that pair calibrates the insert size).
    assert observe_pair(
        ReadMapping(0, 100, True), ReadMapping(0, 400, False), 100, 100, lengths, 500.0
    ) is None


def test_observed_insert_size_needs_proper_fr():
    proper = observed_insert_size(
        ReadMapping(0, 100, True), ReadMapping(0, 420, False), 100, 100
    )
    assert proper == pytest.approx(420.0)
    same_strand = observed_insert_size(
        ReadMapping(0, 100, True), ReadMapping(0, 420, True), 100, 100
    )
    assert same_strand is None
    assert estimate_insert_size([300.0, 400.0, 10_000.0]) == 400.0
    assert estimate_insert_size([]) is None


def test_select_links_enforces_support_and_end_uniqueness():
    strong = LinkBundle(0, END_TAIL, 1, END_HEAD, count=5, mean_gap=10.0)
    weak_conflict = LinkBundle(0, END_TAIL, 2, END_HEAD, count=3, mean_gap=5.0)
    unsupported = LinkBundle(1, END_TAIL, 2, END_TAIL, count=1, mean_gap=0.0)
    selected = select_links([weak_conflict, strong, unsupported], min_support=2)
    # The stronger bundle claims contig 0's tail; the weaker one loses
    # its end and the single-pair bundle never qualifies.
    assert selected == [strong]


# ----------------------------------------------------------------------
# the driver on hand-built contigs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def known_genome_pairs():
    genome = generate_genome(3_000, repeat_fraction=0.0, seed=21)
    simulator = PairedReadSimulator(
        PairedReadSimulationConfig(
            read_length=100,
            coverage=30.0,
            insert_size_mean=400.0,
            insert_size_std=30.0,
            error_rate=0.0,
            ambiguous_rate=0.0,
            seed=22,
        )
    )
    return genome, simulator.simulate(genome)


def test_two_contigs_are_joined_in_order_with_gap(known_genome_pairs):
    genome, pairs = known_genome_pairs
    contig_a, contig_b = genome[0:1_200], genome[1_300:2_300]
    result = scaffold_contigs([contig_a, contig_b], pairs, StageExecutor(num_workers=2))
    assert len(result.scaffolds) == 1
    scaffold = result.scaffolds[0]
    assert [member.position for member in scaffold.members] == [1, 2]
    pieces = re.split("N+", scaffold.sequence)
    forward = pieces == [contig_a, contig_b]
    flipped = pieces == [reverse_complement(contig_b), reverse_complement(contig_a)]
    assert forward or flipped
    gap_run = len(scaffold.sequence) - len(contig_a) - len(contig_b)
    assert abs(gap_run - 100) <= 40  # true gap is 100 bp
    assert abs(result.insert_size - 400.0) < 25.0  # estimated, not configured


def test_reversed_contig_is_flipped_back(known_genome_pairs):
    genome, pairs = known_genome_pairs
    contig_a = genome[0:1_200]
    contig_b = reverse_complement(genome[1_300:2_300])
    result = scaffold_contigs([contig_a, contig_b], pairs, StageExecutor(num_workers=2))
    assert len(result.scaffolds) == 1
    sequence = result.scaffolds[0].sequence
    degapped = re.split("N+", sequence)
    # Whichever global orientation the scaffold chose, its pieces must
    # be colinear slices of one genome strand.
    assert degapped == [genome[0:1_200], genome[1_300:2_300]] or degapped == [
        reverse_complement(genome[1_300:2_300]),
        reverse_complement(genome[0:1_200]),
    ]


def test_three_contigs_order_by_list_ranking(known_genome_pairs):
    genome, pairs = known_genome_pairs
    slices = [genome[0:900], genome[1_000:1_900], genome[2_000:2_900]]
    # Feed them scrambled; equal lengths make the scaffolder's internal
    # (length, sequence) sort differ from genome order, so a correct
    # result can only come from the link evidence.
    result = scaffold_contigs([slices[2], slices[0], slices[1]], pairs, StageExecutor(num_workers=2))
    assert len(result.scaffolds) == 1
    scaffold = result.scaffolds[0]
    assert [member.position for member in scaffold.members] == [1, 2, 3]
    pieces = re.split("N+", scaffold.sequence)
    assert pieces == slices or pieces == [reverse_complement(piece) for piece in reversed(slices)]


def test_unlinked_contigs_stay_singletons(known_genome_pairs):
    genome, pairs = known_genome_pairs
    contig_a = genome[0:1_200]
    stranger = generate_genome(600, repeat_fraction=0.0, seed=99)
    result = scaffold_contigs([contig_a, stranger], pairs, StageExecutor(num_workers=2))
    assert len(result.scaffolds) == 2
    assert result.num_joined() == 0
    assert sorted(result.sequences, key=len) == sorted([contig_a, stranger], key=len)


def test_no_contigs_no_pairs_degenerate_cases():
    chain = StageExecutor(num_workers=2)
    empty = scaffold_contigs([], [], chain)
    assert empty.scaffolds == []
    lone = scaffold_contigs(["ACGTACGTACGTACGTACGTACGTA"], [], chain, seed_k=11)
    assert len(lone.scaffolds) == 1
    assert lone.num_pairs_mapped == 0


@pytest.mark.parametrize("insert_size", [float("nan"), float("inf"), 0.0, -5.0])
def test_scaffold_contigs_rejects_a_non_finite_or_non_positive_insert_size(insert_size):
    from repro.errors import PipelineConfigError

    with pytest.raises(PipelineConfigError, match="insert_size must be finite and positive"):
        scaffold_contigs(
            ["ACGTACGTACGTACGTACGTACGTA"], [], StageExecutor(num_workers=2),
            seed_k=11, insert_size=insert_size,
        )
