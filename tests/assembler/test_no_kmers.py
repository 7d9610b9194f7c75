"""Input with no (k+1)-mer fails typed in construction, on both paths.

An empty FASTQ, reads all shorter than k + 1 and reads that are only
``N`` leave DBG construction with no window to count.  That is a
:class:`NoKmersError` before any Pregel job, and the CLI reports it in
one line with exit status 1.  Input whose (k+1)-mers the coverage
threshold θ merely filters out still assembles to zero contigs, and a
library where only some reads lack a (k+1)-mer assembles and reports
how many such reads it held.
"""

from __future__ import annotations

import pickle

import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.assembler import build_dbg
from repro.assembler import pipeline
from repro.cli import main
from repro.dna.io_fastq import parse_fastq, reads_from_strings, write_fastq
from repro.dna.simulator import simulate_dataset
from repro.errors import AssemblyError, NoKmersError
from repro.workflow import StageExecutor

K = 21

NO_KMER_INPUTS = {
    "empty": [],
    "short": ["ACGTA"] * 40,
    "just-short": ["ACGT" * 5 + "A"] * 3,  # 21 bases: a k-mer but no (k+1)-mer
    "n-split": ["ACGTACGTACGTACGTAC" + "N" + "ACGTACGTACGTACGTAC"] * 4,
    "all-n": ["N" * 100],
}


@pytest.fixture(params=sorted(NO_KMER_INPUTS))
def fastq_path(request, tmp_path):
    path = tmp_path / f"{request.param}.fastq"
    write_fastq(reads_from_strings(NO_KMER_INPUTS[request.param]), path)
    return path


@pytest.mark.parametrize("vectorized", [True, False])
def test_construction_raises_before_any_pregel_job(fastq_path, vectorized, monkeypatch):
    def no_labeling(*args, **kwargs):
        raise AssertionError("labeling ran on an input with no (k+1)-mer")

    monkeypatch.setattr(pipeline, "label_contigs", no_labeling)
    config = AssemblyConfig(k=K, num_workers=2, use_vectorized=vectorized)
    with pytest.raises(NoKmersError) as error:
        PPAAssembler(config).assemble(parse_fastq(fastq_path))
    assert isinstance(error.value, AssemblyError)
    assert error.value.num_reads == sum(1 for _ in parse_fastq(fastq_path))
    assert error.value.k == K


@pytest.mark.parametrize("vectorized", [True, False])
def test_read_lists_raise_too(vectorized):
    config = AssemblyConfig(k=K, num_workers=3, use_vectorized=vectorized)
    chain = StageExecutor(num_workers=3)
    with pytest.raises(NoKmersError, match="none of its 40 reads has 22 consecutive"):
        build_dbg(reads_from_strings(NO_KMER_INPUTS["short"]), config, chain)
    with pytest.raises(NoKmersError, match="it has no reads"):
        build_dbg(iter([]), config, chain)


@pytest.mark.parametrize("vectorized", [True, False])
def test_a_threshold_that_filters_every_edge_does_not_raise(vectorized):
    config = AssemblyConfig(
        k=K, num_workers=2, coverage_threshold=5, use_vectorized=vectorized
    )
    reads = reads_from_strings(["ACGGTCATTGCAGGTACCATGGACTTGA"] * 3)
    result = build_dbg(reads, config, StageExecutor(num_workers=2))
    assert result.total_kplus1mers > 0
    assert result.surviving_kplus1mers == 0
    assert result.graph.kmer_count() == 0
    assert PPAAssembler(config).assemble(reads).num_contigs() == 0


def test_the_error_survives_pickling():
    error = pickle.loads(pickle.dumps(NoKmersError(7, K)))
    assert (error.num_reads, error.k, str(error)) == (7, K, str(NoKmersError(7, K)))


@pytest.mark.parametrize("extra", [[], ["--no-vectorized"]])
def test_cli_exits_1_with_one_line(fastq_path, extra, capsys):
    assert main(["--fastq", str(fastq_path), "-k", str(K), "--quiet", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro-assemble: assembly failed: no (k+1)-mer in the input")


@pytest.mark.parametrize("vectorized", [True, False])
def test_reads_without_a_kplus1mer_are_counted_not_fatal(vectorized, tmp_path):
    """A library where only some reads are shorter than k + 1 assembles
    and reports how many such reads it held."""
    _genome, reads = simulate_dataset(genome_length=3000, seed=7)
    path = tmp_path / "mixed.fastq"
    short = NO_KMER_INPUTS["short"] + NO_KMER_INPUTS["just-short"] + NO_KMER_INPUTS["n-split"]
    write_fastq(list(reads) + reads_from_strings(short), path)
    config = AssemblyConfig(k=K, num_workers=2, use_vectorized=vectorized)
    result = PPAAssembler(config).assemble(parse_fastq(path))
    assert result.num_contigs() > 0
    assert result.stage("dbg-construction").detail["reads_without_kplus1mer"] == len(short)
