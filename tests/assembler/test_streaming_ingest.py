"""Reads handed to ``assemble()`` as an iterator are never all in memory.

Timing-free: a generator counts, through weak references, how many of
the ``Read`` objects it has yielded are still alive.  Construction
batches only their sequences, so the count stays far below the library
— unless a checkpoint directory is given, which needs the whole seed
state up front.  Either way the answer is the one a list produces.
"""

from __future__ import annotations

import random
import tempfile
import tracemalloc
import weakref

import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.assembler.construction import _MAX_CHUNK_READS, _count_canonical_edges
from repro.dna import io_fastq, simulate_dataset
from repro.dna.io_fastq import Read, parse_fastq, write_fastq
from repro.errors import FastqFormatError
from repro.store.spill import process_spill_stats
from repro.workflow import StageExecutor

NUM_READS = 20_000
READ_LENGTH = 36


@pytest.fixture(scope="module")
def short_reads():
    rng = random.Random(20)
    genome = "".join(rng.choice("ACGT") for _ in range(600))
    starts = [rng.randrange(len(genome) - READ_LENGTH + 1) for _ in range(NUM_READS)]
    return [
        Read(name=f"read-{index}", sequence=genome[start : start + READ_LENGTH])
        for index, start in enumerate(starts)
    ]


class CountingStream:
    """Yields fresh copies of ``reads`` and tracks how many are alive."""

    def __init__(self, reads):
        self._reads = reads
        self._refs = []
        self.alive = 0
        self.peak = 0
        self.yielded = 0

    def _died(self, _ref):
        self.alive -= 1

    def __iter__(self):
        for read in self._reads:
            copy = Read(read.name, read.sequence, read.quality)
            self._refs.append(weakref.ref(copy, self._died))
            self.alive += 1
            self.yielded += 1
            self.peak = max(self.peak, self.alive)
            yield copy


def _assert_identical(result, baseline):
    assert result.contigs == baseline.contigs
    assert result.metrics == baseline.metrics
    assert [(stage.name, stage.detail) for stage in result.stages] == [
        (stage.name, stage.detail) for stage in baseline.stages
    ]


@pytest.fixture(scope="module")
def config():
    return AssemblyConfig(k=15, num_workers=4)


@pytest.fixture(scope="module")
def baseline(short_reads, config):
    return PPAAssembler(config).assemble(short_reads)


def test_iterator_input_streams_through_construction(short_reads, config, baseline):
    stream = CountingStream(short_reads)
    result = PPAAssembler(config).assemble(iter(stream))
    assert stream.yielded == NUM_READS > 2 * _MAX_CHUNK_READS
    assert stream.peak < 2 * _MAX_CHUNK_READS
    assert stream.alive == 0
    _assert_identical(result, baseline)


def test_checkpointed_run_accepts_an_iterator_and_resumes(
    short_reads, config, baseline, tmp_path
):
    class SimulatedCrash(RuntimeError):
        pass

    def bomb(event):
        if event.kind == "stage-end" and event.index == 2:
            raise SimulatedCrash(event.stage.name)

    checkpoint_dir = tmp_path / "ckpt"
    with pytest.raises(SimulatedCrash):
        PPAAssembler(config).assemble(
            iter(CountingStream(short_reads)),
            checkpoint_dir=checkpoint_dir,
            subscriber=bomb,
        )
    assert list(checkpoint_dir.glob("checkpoint-*.pkl"))
    # The resuming call streams the same library again: the seed
    # fingerprint must match the one the crashed run recorded.
    resumed = PPAAssembler(config).assemble(
        iter(CountingStream(short_reads)), checkpoint_dir=checkpoint_dir, resume=True
    )
    _assert_identical(resumed, baseline)


def test_malformed_last_record_surfaces_typed_and_cleans_up(
    short_reads, tmp_path, monkeypatch
):
    spill_root = tmp_path / "tmp"
    spill_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_root))
    path = tmp_path / "reads.fastq"
    count = write_fastq(short_reads, path)
    with open(path, "a", encoding="ascii") as handle:
        handle.write("@last\nACGTXACGT\n+\nIIIIIIIII\n")
    # A budget this small cuts the file into many chunks; construction
    # merges their runs in memory and leaves nothing on disk.
    config = AssemblyConfig(k=15, num_workers=4, memory_budget_mb=0.05)
    before = process_spill_stats().snapshot()
    with pytest.raises(FastqFormatError) as caught:
        PPAAssembler(config).assemble(parse_fastq(path))
    assert caught.value.message == "invalid sequence character 'X' at column 4"
    assert caught.value.line_number == 4 * count + 2
    assert process_spill_stats().delta_since(before)["spill_events"] == 0
    assert list(spill_root.iterdir()) == []


def test_fastq_reader_builds_no_read_objects(
    short_reads, config, baseline, tmp_path, monkeypatch
):
    path = tmp_path / "reads.fastq"
    write_fastq(short_reads, path)
    built = []

    class CountingRead(Read):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(io_fastq, "Read", CountingRead)
    result = PPAAssembler(config).assemble(parse_fastq(path))
    assert built == []
    _assert_identical(result, baseline)
    # The counter does count: iterating the reader builds one per record.
    assert sum(1 for _ in parse_fastq(path)) == len(built) == NUM_READS


def test_a_smaller_budget_never_raises_the_edge_count_peak():
    """The budget only shrinks the ingest chunks of construction's
    phase (i); no run is held back for a final merge, so a smaller
    budget cannot cost memory.  (Phase (ii) builds the same vertices
    under any budget.)"""
    _genome, reads = simulate_dataset(3_000, coverage=1_000.0, error_rate=0.0, seed=11)

    def traced_peak(budget_mb):
        config = AssemblyConfig(k=15, num_workers=2, memory_budget_mb=budget_mb)
        chain = StageExecutor(config.runtime)
        tracemalloc.start()
        try:
            _count_canonical_edges(reads, config, chain)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(0.05) <= traced_peak(2.0)
