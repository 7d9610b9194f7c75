"""Tests for operations ② (contig labeling) and ③ (contig merging)."""

from __future__ import annotations

import pytest

from repro.assembler import AssemblyConfig, build_dbg, label_contigs, merge_contigs
from repro.assembler.chain import build_chain_graph, chain_neighbors
from repro.assembler.config import LABELING_SIMPLIFIED_SV
from repro.dbg.ids import ContigIdAllocator
from repro.dbg.kmer_vertex import TYPE_AMBIGUOUS
from repro.dna.io_fastq import reads_from_strings
from repro.dna.sequence import reverse_complement
from repro.workflow import StageExecutor


def _assemble_first_round(reads, k=5, threshold=0, workers=2, method="list_ranking", tip=0):
    config = AssemblyConfig(
        k=k,
        coverage_threshold=threshold,
        tip_length_threshold=tip,
        labeling_method=method,
        num_workers=workers,
    )
    chain = StageExecutor(num_workers=workers)
    graph = build_dbg(reads, config, chain).graph
    labeling = label_contigs(graph, config, chain, include_contigs=False)
    merging = merge_contigs(graph, labeling, config, chain, ContigIdAllocator())
    return graph, labeling, merging, config, chain


def _matches_genome(contig, genome):
    return contig in genome or reverse_complement(contig) in genome


# ----------------------------------------------------------------------
# chain graph
# ----------------------------------------------------------------------
def test_chain_graph_excludes_ambiguous_vertices():
    reads = reads_from_strings(["AACCGGTTA", "AACCGGTCA"])
    config = AssemblyConfig(k=5, coverage_threshold=0, num_workers=2)
    job_chain = StageExecutor(num_workers=2)
    graph = build_dbg(reads, config, job_chain).graph
    chain = build_chain_graph(graph)
    ambiguous = set(graph.ambiguous_vertices())
    assert ambiguous
    assert not (set(chain) & ambiguous)
    # A side that does not continue the path names the ambiguous vertex
    # it stops against (or dangles).
    boundary_kmers = {
        end.neighbor_id
        for element in chain.values()
        for end in (element.in_end, element.out_end)
        if end.neighbor_id not in chain and not end.is_dead_end()
    }
    assert boundary_kmers and boundary_kmers <= ambiguous


def test_single_path_chain_dangles_at_both_ends_only():
    reads = reads_from_strings(["GCTAAAGACA"])
    config = AssemblyConfig(k=5, coverage_threshold=0, num_workers=2)
    job_chain = StageExecutor(num_workers=2)
    graph = build_dbg(reads, config, job_chain).graph
    chain = build_chain_graph(graph)
    ends = [end for element in chain.values() for end in (element.in_end, element.out_end)]
    assert len(chain) == 6
    assert sum(end.is_dead_end() for end in ends) == 2
    assert all(end.is_dead_end() or end.neighbor_id in chain for end in ends)


# ----------------------------------------------------------------------
# labeling
# ----------------------------------------------------------------------
def test_single_path_gets_single_label():
    reads = reads_from_strings(["GCTAAAGACA"])
    _graph, labeling, _merging, _config, _chain = _assemble_first_round(reads)
    assert len(set(labeling.labels.values())) == 1


def test_labels_partition_paths_at_ambiguous_vertices():
    reads = reads_from_strings(["AACCGGTTACG", "AACCGGTCACG"])
    graph, labeling, _merging, _config, _chain = _assemble_first_round(reads)
    # Every unambiguous vertex is labelled; ambiguous ones are not.
    labelled = set(labeling.labels)
    assert labelled == set(graph.kmers) - set(graph.ambiguous_vertices()) or labelled
    # Adjacent unambiguous vertices share a label.
    chain = labeling.chain
    for node_id, element in chain.items():
        for neighbor_id in chain_neighbors(chain, element):
            assert labeling.labels[node_id] == labeling.labels[neighbor_id]


def test_lr_and_sv_produce_identical_groupings(noisy_dataset):
    _genome, reads = noisy_dataset
    subset = reads[: len(reads) // 2]
    _g1, lr, _m1, _c1, _ch1 = _assemble_first_round(subset, k=15, threshold=1, method="list_ranking")
    _g2, sv, _m2, _c2, _ch2 = _assemble_first_round(subset, k=15, threshold=1, method=LABELING_SIMPLIFIED_SV)

    def group_sets(labeling):
        groups = {}
        for node, label in labeling.labels.items():
            groups.setdefault(label, set()).add(node)
        return {frozenset(members) for members in groups.values()}

    assert group_sets(lr) == group_sets(sv)


def test_lr_uses_fewer_supersteps_and_messages_than_sv(noisy_dataset):
    """The Table II comparison at small scale: LR beats simplified S-V."""
    _genome, reads = noisy_dataset
    subset = reads[: len(reads) // 2]
    _g1, lr, _m1, _c1, _ch1 = _assemble_first_round(subset, k=15, threshold=1, method="list_ranking")
    _g2, sv, _m2, _c2, _ch2 = _assemble_first_round(subset, k=15, threshold=1, method=LABELING_SIMPLIFIED_SV)
    assert lr.num_supersteps < sv.num_supersteps
    assert lr.num_messages < sv.num_messages


def test_cycle_fallback_used_for_circular_chain():
    # A circular sequence: every k-mer is ⟨1-1⟩, so bidirectional list
    # ranking alone cannot finish and the S-V fallback must label it.
    cycle = "TCGCCTGATACGAGTCGGTTATCTTCGGAT"
    read = cycle + cycle[:5]
    _graph, labeling, merging, _config, _chain = _assemble_first_round(
        reads_from_strings([read]), k=5
    )
    assert labeling.used_cycle_fallback
    assert len(set(labeling.labels.values())) == 1
    assert merging.cycles_merged == 1


def test_labeling_metrics_include_end_recognition_job():
    reads = reads_from_strings(["GCTAAAGACA"])
    _graph, labeling, _merging, _config, _chain = _assemble_first_round(reads)
    names = [job.job_name for job in labeling.metrics]
    assert any("end-recognition" in name for name in names)
    assert labeling.num_supersteps >= 2


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def test_single_read_merges_into_one_contig_matching_sequence():
    sequence = "CAGCACGAAACTTGTTGG"
    graph, _labeling, merging, _config, _chain = _assemble_first_round(
        reads_from_strings([sequence]), k=5
    )
    assert len(merging.contigs_created) == 1
    contig = next(iter(graph.contigs.values()))
    assert contig.sequence == sequence or contig.sequence == reverse_complement(sequence)
    assert contig.length == len(sequence)


def test_merging_moves_all_unambiguous_kmers_out_of_graph():
    reads = reads_from_strings(["AACCGGTTACG", "AACCGGTCACG"])
    graph, _labeling, _merging, _config, _chain = _assemble_first_round(reads)
    # After merging, only ambiguous k-mers remain as k-mer vertices.
    assert all(
        vertex.vertex_type() == TYPE_AMBIGUOUS or vertex.adjacencies
        for vertex in graph.kmers.values()
    )
    assert set(graph.kmers) == set(graph.ambiguous_vertices()) | {
        kmer
        for kmer in graph.kmers
        if graph.kmers[kmer].vertex_type() != TYPE_AMBIGUOUS
    }


def test_merged_contig_ends_reference_ambiguous_kmers():
    reads = reads_from_strings(["AACCGGTTACG", "AACCGGTCACG"])
    graph, _labeling, _merging, _config, _chain = _assemble_first_round(reads)
    graph.validate()
    ambiguous = set(graph.ambiguous_vertices())
    for contig in graph.contigs.values():
        for end in (contig.in_end, contig.out_end):
            if not end.is_dead_end():
                assert end.neighbor_id in ambiguous


def test_ambiguous_kmers_gain_via_contig_adjacencies():
    reads = reads_from_strings(["AACCGGTTACG", "AACCGGTCACG"])
    graph, _labeling, _merging, _config, _chain = _assemble_first_round(reads)
    via_contig_links = [
        adjacency.via_contig
        for kmer in graph.ambiguous_vertices()
        for adjacency in graph.kmers[kmer].adjacencies
        if adjacency.via_contig is not None
    ]
    assert via_contig_links
    assert all(link.contig_id in graph.contigs for link in via_contig_links)


def test_merge_time_tip_drop():
    # Main path plus a short erroneous branch: with a tip threshold the
    # short dangling branch is dropped during merging.
    main = "AACCGGTTACGATCA"
    branch = "AACCGGTA"  # diverges after "AACCGGT"
    reads = reads_from_strings([main, main, branch])
    _graph_no_drop, _lab1, merge_no_drop, _cfg1, _ch1 = _assemble_first_round(reads, k=5, tip=0)
    _graph_drop, _lab2, merge_drop, _cfg2, _ch2 = _assemble_first_round(reads, k=5, tip=10)
    assert merge_no_drop.tips_dropped == 0
    assert merge_drop.tips_dropped >= 1
    assert len(merge_drop.contigs_created) < len(merge_no_drop.contigs_created)


def test_contig_coverage_is_minimum_edge_coverage():
    sequence = "CAGCACGAAACTTGTTGG"
    reads = reads_from_strings([sequence, sequence, sequence[:10]])
    graph, _labeling, _merging, _config, _chain = _assemble_first_round(reads, k=5)
    contig = next(iter(graph.contigs.values()))
    # The suffix of the sequence is covered by only two reads, the prefix
    # by three: the contig records the minimum.
    assert contig.coverage == 2


def test_merging_metrics_recorded():
    reads = reads_from_strings(["GCTAAAGACA"])
    _graph, _labeling, _merging, _config, chain = _assemble_first_round(reads)
    assert any("contig-merging" in job.job_name for job in chain.pipeline_metrics.jobs)
