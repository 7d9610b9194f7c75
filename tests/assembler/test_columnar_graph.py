"""Guards against a return to one Python object per k-mer.

Vectorized construction keeps the k-mers as NumPy columns; the first
chain build and contig-end recognition read the columns, and merging
deletes the chain k-mers by clearing alive bits.  A
:class:`~repro.dbg.kmer_vertex.KmerVertexData` is built only for a
k-mer something mutates: the ambiguous k-mers merging rewires, and what
tips and bubbles touch afterwards — all of them k-mers that were
ambiguous after construction, since every chain k-mer is merged away.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler
from repro.assembler.construction import build_dbg
from repro.assembler.labeling import label_contigs
from repro.assembler.merging import merge_contigs
from repro.dbg.kmer_vertex import KmerAdjacency, KmerVertexData
from repro.dna.simulator import simulate_dataset
from repro.workflow import StageExecutor

#: Traced bytes the graph of :func:`build_dbg` may hold per k-mer.  One
#: ``KmerVertexData`` with its adjacency list and two ``KmerAdjacency``
#: took about 540; the columns take under 70.
MAX_GRAPH_BYTES_PER_KMER = 120


@pytest.fixture(scope="module")
def reads():
    _genome, reads = simulate_dataset(
        genome_length=3000, coverage=20.0, error_rate=0.005, seed=2018
    )
    return reads


@pytest.fixture
def built(monkeypatch):
    """Counts of ``KmerVertexData`` and ``KmerAdjacency`` constructions."""
    counts = {"vertices": 0, "adjacencies": 0}

    def count(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            counts[key] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    count(KmerVertexData, "vertices")
    count(KmerAdjacency, "adjacencies")
    return counts


def _config():
    return AssemblyConfig(k=21, num_workers=4, backend="serial")


def test_no_vertex_object_before_the_first_merge(reads, built):
    config = _config()
    chain = StageExecutor(num_workers=4)
    graph = build_dbg(reads, config, chain).graph
    ambiguous = len(graph.ambiguous_vertices())
    labeling = label_contigs(graph, config, chain)
    assert built == {"vertices": 0, "adjacencies": 0}
    merge_contigs(graph, labeling, config, chain)
    assert 0 < built["vertices"] <= ambiguous


def test_serial_assembly_builds_objects_for_ambiguous_kmers_only(reads, built):
    ambiguous = len(
        build_dbg(reads, _config(), StageExecutor(num_workers=4)).graph.ambiguous_vertices()
    )
    result = PPAAssembler(_config()).assemble(reads)
    assert result.num_contigs() > 0
    assert built["vertices"] <= ambiguous


def test_graph_bytes_per_kmer_after_construction(reads):
    config = _config()
    build_dbg(reads, config, StageExecutor(num_workers=4))  # warm lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build_dbg(reads, config, StageExecutor(num_workers=4))
        graph = result.graph
        del result
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= MAX_GRAPH_BYTES_PER_KMER * graph.kmer_count()
