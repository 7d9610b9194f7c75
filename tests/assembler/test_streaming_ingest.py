"""Reads handed to ``assemble()`` as an iterator are never all in memory.

Timing-free: a generator counts, through weak references, how many of
the ``Read`` objects it has yielded are still alive.  Construction
batches only their sequences, so the count stays far below the library
— unless a checkpoint directory is given, which needs the whole seed
state up front.  Either way the answer is the one a list produces.
The chunks are counted on threads that construction creates and joins
itself: their fold equals a one-thread fold, no thread outlives the
call, and the budget is split across the chunks in flight.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.assembler import construction
from repro.assembler.construction import _MAX_CHUNK_READS, _count_canonical_edges
from repro.dna import io_fastq, simulate_dataset
from repro.dna.io_fastq import Read, parse_fastq, write_fastq
from repro.errors import FastqFormatError, NoKmersError
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


def _counted(reads, config):
    chain = StageExecutor(config.runtime)
    return _count_canonical_edges(reads, config, chain)


def _assert_same_counts(got, want):
    assert len(got) == len(want) == 5
    for got_part, want_part in zip(got, want):
        if isinstance(want_part, np.ndarray):
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)
        else:
            assert got_part == want_part


@pytest.mark.parametrize("source", ["reads", "fastq"])
def test_counting_threads_fold_what_one_thread_folds(
    short_reads, config, tmp_path, monkeypatch, source
):
    path = tmp_path / "reads.fastq"
    write_fastq(short_reads, path)

    def counted():
        reads = parse_fastq(path) if source == "fastq" else short_reads
        return _counted(reads, config)

    whole = counted()  # three chunks of at most 8192 reads
    monkeypatch.setattr(construction, "_MAX_CHUNK_READS", 1000)
    monkeypatch.setattr(io_fastq, "_BLOCK_CHARS", 1 << 16)
    counting_threads = []
    count_chunk = construction._count_chunk

    def recorded_count_chunk(*args):
        counting_threads.append(threading.get_ident())
        return count_chunk(*args)

    monkeypatch.setattr(construction, "_count_chunk", recorded_count_chunk)
    threaded = counted()
    assert len(counting_threads) >= 20
    # Every chunk but the last is counted on the pool.
    here = threading.get_ident()
    assert counting_threads.count(here) == 1
    # More threads than cores, switching as often as the interpreter
    # allows: a fold that depended on timing would show here.
    monkeypatch.setattr(construction, "_COUNT_THREADS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = counted()
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(construction, "_COUNT_THREADS", 1)
    counting_threads.clear()
    one_thread = counted()
    assert set(counting_threads) == {here}
    _assert_same_counts(threaded, one_thread)
    _assert_same_counts(stressed, one_thread)
    _assert_same_counts(threaded, whole)


@pytest.mark.parametrize("chunk_reads, budget_mb", [(NUM_READS, None), (1000, 0.5)])
def test_one_chunk_in_flight_starts_no_thread(
    short_reads, config, monkeypatch, chunk_reads, budget_mb
):
    """A one-chunk input, or a budget that allows one chunk in flight,
    is counted on the calling thread alone."""
    monkeypatch.setattr(construction, "_MAX_CHUNK_READS", chunk_reads)
    started = []
    start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    budgeted = AssemblyConfig(
        k=config.k, num_workers=config.num_workers, memory_budget_mb=budget_mb
    )
    got = _counted(short_reads, budgeted)
    assert started == []
    _assert_same_counts(got, _counted(short_reads, config))


def test_no_counting_thread_outlives_the_call(short_reads, config, tmp_path, monkeypatch):
    monkeypatch.setattr(construction, "_MAX_CHUNK_READS", 1000)
    monkeypatch.setattr(io_fastq, "_BLOCK_CHARS", 1 << 16)
    before = threading.active_count()
    _counted(short_reads, config)
    assert threading.active_count() == before

    with pytest.raises(NoKmersError):
        _counted([Read(f"short-{index}", "ACGT") for index in range(5000)], config)
    assert threading.active_count() == before

    path = tmp_path / "damaged.fastq"
    count = write_fastq(short_reads, path)
    with open(path, "a", encoding="ascii") as handle:
        handle.write("@last\nACGT\n-\nIIII\n")
    with pytest.raises(FastqFormatError) as caught:
        _counted(parse_fastq(path), config)
    assert caught.value.line_number == 4 * count + 3
    assert threading.active_count() == before


@pytest.mark.parametrize("budget_mb", [0.01, 0.5, 1.0, 2.0, 3.0, 8.0, 40.0, 1000.0])
def test_the_budget_is_split_across_the_chunks_in_flight(budget_mb):
    budget_bytes = int(budget_mb * (1 << 20))
    chunk_reads = construction._chunk_reads_for_budget(budget_bytes)
    in_flight = construction._chunks_in_flight(budget_bytes)
    assert 1 <= in_flight <= construction._COUNT_THREADS
    assert construction._MIN_CHUNK_READS <= chunk_reads <= _MAX_CHUNK_READS
    # Together the chunks in flight stay within the budget, or within one
    # smallest chunk when the budget is below that.
    one_chunk = construction._MIN_CHUNK_READS * construction._CHUNK_BYTES_PER_READ
    held = in_flight * chunk_reads * construction._CHUNK_BYTES_PER_READ
    assert held <= max(budget_bytes, one_chunk)
    if budget_bytes >= 2 * one_chunk:
        assert in_flight == construction._COUNT_THREADS


def test_without_a_budget_every_counting_thread_takes_the_largest_chunks():
    assert construction._chunk_reads_for_budget(None) == _MAX_CHUNK_READS
    assert construction._chunks_in_flight(None) == construction._COUNT_THREADS == 2
