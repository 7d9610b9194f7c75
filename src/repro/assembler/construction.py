"""Operation ① — DBG construction (Section IV-B).

The operation loads reads and builds the canonical-k-mer de Bruijn
graph through two mini-MapReduce phases, exactly as the paper
describes:

* **Phase (i)** — each read is split on ``N`` and cut into (k+1)-mers
  with a sliding window; the packed (k+1)-mer ID is the shuffle key;
  the reduce side sums per-worker counts and *discards* (k+1)-mers
  whose total coverage is not above the user threshold θ, because such
  edges are almost certainly the product of read errors.
* **Phase (ii)** — each surviving (k+1)-mer emits two
  ``(k-mer ID, partial adjacency)`` pairs, one for its prefix and one
  for its suffix; the reduce side merges the partial 32-bit adjacency
  bitmaps (Figure 8) into complete k-mer vertices.

Both phases run through :class:`~repro.workflow.executor.StageExecutor`, so the
shuffle volume and per-worker load feed the Figure 12 cost model.

(k+1)-mers are canonicalised before counting so that the same physical
edge observed from the two strands contributes to a single coverage
counter; the prefix/suffix polarity labels are derived from the
canonical writing, which keeps them consistent with Property 1.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Deque, Iterable, List, Tuple

import numpy as np

from ..dbg.bitmap import AdjacencyBitmap
from ..dbg.graph import DeBruijnGraph
from ..dbg.kmer_table import KmerTable
from ..dbg.kmer_vertex import KmerVertexData
from ..dna import vectorized
from ..dna.encoding import canonical_encoded
from ..dna.io_fastq import FastqReads, Read, read_chunks
from ..dna.kmer import extract_kplus1mers, validate_k
from ..errors import NoKmersError
from ..workflow.executor import StageExecutor
from ..pregel.metrics import JobMetrics, SuperstepMetrics
from .config import AssemblyConfig


@dataclass
class ConstructionResult:
    """Output of operation ①."""

    graph: DeBruijnGraph
    total_kplus1mers: int
    distinct_kplus1mers: int
    surviving_kplus1mers: int
    filtered_kplus1mers: int
    #: Reads too short (or too broken by ``N``) to hold one (k+1)-mer.
    reads_without_kplus1mer: int


def _phase1_map_factory(k: int):
    """Map UDF of phase (i): read → [(canonical (k+1)-mer ID, 1), ...]."""

    def map_read(read: Read) -> Iterable[Tuple[int, int]]:
        for kp1 in extract_kplus1mers(read.sequence, k):
            canonical_edge, _ = canonical_encoded(kp1.edge_id, k + 1)
            yield canonical_edge, 1
        return

    return map_read


def _phase1_reduce_factory(coverage_threshold: int):
    """Reduce UDF of phase (i): keep (ID, total count) if count > θ."""

    def reduce_edge(edge_id: int, counts: List[int]) -> Iterable[Tuple[int, int]]:
        total = sum(counts)
        if total > coverage_threshold:
            yield edge_id, total
        return

    return reduce_edge


def _phase2_map_factory(k: int):
    """Map UDF of phase (ii): (k+1)-mer → two partial adjacency bitmaps."""

    def map_edge(record: Tuple[int, int]) -> Iterable[Tuple[int, Tuple[str, str, int, int]]]:
        edge_id, coverage = record
        kmer_mask = (1 << (2 * k)) - 1
        prefix_observed = edge_id >> 2
        suffix_observed = edge_id & kmer_mask
        appended_base = edge_id & 0b11
        prepended_base = (edge_id >> (2 * k)) & 0b11

        prefix_id, prefix_rc = canonical_encoded(prefix_observed, k)
        suffix_id, suffix_rc = canonical_encoded(suffix_observed, k)
        polarity = ("H" if prefix_rc else "L") + ("H" if suffix_rc else "L")

        # The prefix vertex gains an out-neighbour reached by appending
        # the edge's last base; the suffix vertex gains an in-neighbour
        # reached by prepending the edge's first base (Figure 8).
        yield prefix_id, (polarity, "out", appended_base, coverage)
        yield suffix_id, (polarity, "in", prepended_base, coverage)

    return map_edge


def _phase2_reduce_factory(k: int):
    """Reduce UDF of phase (ii): merge partial bitmaps into one vertex."""

    def reduce_kmer(
        kmer_id: int, partials: List[Tuple[str, str, int, int]]
    ) -> Iterable[KmerVertexData]:
        bitmap = AdjacencyBitmap()
        for polarity, direction, base_bits, coverage in partials:
            bitmap.add(polarity, direction, base_bits, coverage)
        yield KmerVertexData.from_bitmap(kmer_id, k, bitmap)

    return reduce_kmer


def build_dbg(
    reads: Iterable[Read],
    config: AssemblyConfig,
    chain: StageExecutor,
) -> ConstructionResult:
    """Run operation ① over ``reads`` and return the de Bruijn graph.

    With ``config.use_vectorized`` the two mini-MapReduce phases run
    as NumPy batch kernels; contigs, graph contents and metrics are
    bit-identical to the scalar path either way (asserted by
    ``tests/dna/test_vectorized_parity.py``).  Reads that hold no
    (k+1)-mer at all raise :class:`~repro.errors.NoKmersError` on both
    paths; reads whose (k+1)-mers θ merely filters out do not.
    """
    validate_k(config.k)

    # The vectorized path consumes ``reads`` in bounded chunks, so an
    # iterator handed to it is never materialised; the scalar path
    # (whose MapReduce harness indexes records) makes a list.
    if config.use_vectorized:
        return _build_dbg_vectorized(reads, config, chain)
    reads = list(reads)

    phase1 = chain.run_mapreduce(
        name="dbg-construction/phase1-count-kplus1mers",
        records=reads,
        map_fn=_phase1_map_factory(config.k),
        reduce_fn=_phase1_reduce_factory(config.coverage_threshold),
    )
    surviving: List[Tuple[int, int]] = phase1.outputs
    total_kplus1mers = phase1.metrics.supersteps[0].messages_sent
    if not total_kplus1mers:
        raise NoKmersError(len(reads), config.k)
    without_kplus1mer = sum(
        next(extract_kplus1mers(read.sequence, config.k), None) is None for read in reads
    )
    distinct = phase1.groups

    phase2 = chain.run_mapreduce(
        name="dbg-construction/phase2-build-vertices",
        records=surviving,
        map_fn=_phase2_map_factory(config.k),
        reduce_fn=_phase2_reduce_factory(config.k),
    )

    graph = DeBruijnGraph(config.k)
    for vertex in phase2.outputs:
        graph.kmers[vertex.kmer_id] = vertex

    return ConstructionResult(
        graph=graph,
        total_kplus1mers=total_kplus1mers,
        distinct_kplus1mers=distinct,
        surviving_kplus1mers=len(surviving),
        filtered_kplus1mers=distinct - len(surviving),
        reads_without_kplus1mer=without_kplus1mer,
    )


# ----------------------------------------------------------------------
# vectorized path
# ----------------------------------------------------------------------
# The kernels below reproduce the two mini-MapReduce phases as NumPy
# batch operations.  Per-read map UDF calls become one batched window
# extraction; per-key dict accumulation becomes a sort-and-count
# segment-reduce.  The shuffle/compute counters the cost model consumes
# are recomputed from array lengths with the exact formulas
# :class:`~repro.pregel.mapreduce.MiniMapReduce` charges, so the
# resulting :class:`~repro.pregel.metrics.JobMetrics` compare equal to
# the scalar path's field by field.

#: _estimate_size of the phase-(ii) map values: a 4-byte tuple header,
#: the 2-char polarity string, "out"/"in", and two 8-byte ints.
_PHASE2_OUT_BYTES = 4 + 2 + 3 + 8 + 8
_PHASE2_IN_BYTES = 4 + 2 + 2 + 8 + 8

#: Bounds on the streaming-ingest chunk size (reads per batch).  The
#: upper bound is also the default when no memory budget is set; the
#: lower bound keeps the per-chunk numpy kernels from degenerating
#: into per-read calls under tiny test budgets.
_MIN_CHUNK_READS = 256
_MAX_CHUNK_READS = 8192

#: Rough working-set cost of one read inside the window-extraction
#: kernels (codes + window IDs + canonical copy for a short read).
#: Only the chunk-size derivation uses this; results never depend on it.
_CHUNK_BYTES_PER_READ = 4096

#: Threads that count ingest chunks while the calling thread parses and
#: encodes the next ones.  The window kernel and the sort release the
#: GIL, so two chunks are counted at once.
_COUNT_THREADS = 2


def _chunks_in_flight(budget_bytes) -> int:
    """Chunks counted at once under ``budget_bytes`` (None = unlimited):
    :data:`_COUNT_THREADS`, or as many smallest chunks as the budget
    holds, but at least one."""
    if budget_bytes is None:
        return _COUNT_THREADS
    fits = int(budget_bytes) // (_CHUNK_BYTES_PER_READ * _MIN_CHUNK_READS)
    return max(1, min(_COUNT_THREADS, fits))


def _chunk_reads_for_budget(budget_bytes) -> int:
    """Reads per ingest chunk under ``budget_bytes`` (None = unlimited).

    The budget is split across the chunks in flight, so their kernel
    temporaries together stay within it, or within one smallest chunk's
    when the budget is below that.
    """
    if budget_bytes is None:
        return _MAX_CHUNK_READS
    derived = int(budget_bytes) // (
        _CHUNK_BYTES_PER_READ * _chunks_in_flight(budget_bytes)
    )
    return max(_MIN_CHUNK_READS, min(_MAX_CHUNK_READS, derived))


def _sum_by_key(keys, counts):
    """``(distinct keys ascending, summed counts)`` of parallel arrays."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    is_start = np.ones(sorted_keys.size, dtype=bool)
    is_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(is_start)
    summed = np.add.reduceat(counts[order].astype(np.int64, copy=False), starts)
    return sorted_keys[starts], summed


def _merge_sorted_runs(runs):
    """Merge of sorted ``(edges, counts)`` runs into one such run.

    Each run has ``edges`` sorted and unique within the run.
    Concatenating the runs and summing counts per key reproduces exactly
    what one global ``np.unique(..., return_counts=True)`` over the full
    canonical window stream would return.
    """
    if not runs:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return _sum_by_key(
        np.concatenate([edges for edges, _ in runs]),
        np.concatenate([counts for _, counts in runs]),
    )


def _worker_sums(workers, num_workers, weights=None):
    """Exact per-worker integer sums (bincount; float weights are exact
    here because every count stays far below 2**53)."""
    if weights is None:
        return np.bincount(workers, minlength=num_workers).astype(np.int64)
    summed = np.bincount(workers, weights=weights.astype(np.float64), minlength=num_workers)
    return summed.astype(np.int64)


def _mapreduce_metrics(
    name: str,
    num_workers: int,
    map_ops,
    shuffle_bytes,
    total_pairs: int,
    reduce_ops,
) -> JobMetrics:
    """Assemble a JobMetrics identical to MiniMapReduce's accounting."""
    metrics = JobMetrics(job_name=name, num_workers=num_workers)

    map_step = SuperstepMetrics(superstep=0)
    map_step.compute_ops = int(map_ops.sum())
    map_step.worker_compute_ops = [int(ops) for ops in map_ops]
    map_step.worker_bytes_sent = [int(size) for size in shuffle_bytes]
    map_step.worker_bytes_received = [int(size) for size in shuffle_bytes]
    map_step.bytes_sent = int(shuffle_bytes.sum())
    map_step.messages_sent = total_pairs
    metrics.add(map_step)

    reduce_step = SuperstepMetrics(superstep=1)
    reduce_step.compute_ops = int(reduce_ops.sum())
    reduce_step.worker_compute_ops = [int(ops) for ops in reduce_ops]
    reduce_step.worker_bytes_sent = [0] * num_workers
    reduce_step.worker_bytes_received = [0] * num_workers
    metrics.add(reduce_step)

    metrics.loading_ops = map_step.compute_ops + reduce_step.compute_ops
    metrics.loading_bytes_shuffled = map_step.bytes_sent
    return metrics


def _count_chunk(codes, starts, lengths, first_read: int, k: int, partitioner):
    """Phase (i) of one code batch whose first read is ``first_read``.

    Returns ``(pairs, empty_reads, map_ops, shuffle_counts, run)``: the
    batch's (k+1)-mer count, its reads without one, the map side's
    per-worker charge, the pairs each worker receives, and the sorted
    run of its distinct canonical edges with their counts.  Runs on a
    counting thread.
    """
    num_workers = partitioner.num_workers
    observed, per_read = vectorized.window_ids(codes, starts, lengths, k + 1)
    sources = np.arange(first_read, first_read + lengths.size, dtype=np.int64) % num_workers
    map_ops = _worker_sums(sources, num_workers) + _worker_sums(
        sources, num_workers, weights=per_read
    )
    # A pair's canonical form and destination depend on its key alone:
    # count the distinct windows (``observed`` is a fresh array, sorted
    # in place), canonicalise them, and hash the distinct edges, each
    # weighted by its count.
    observed.sort()
    is_first = np.ones(observed.size, dtype=bool)
    is_first[1:] = observed[1:] != observed[:-1]
    firsts = np.flatnonzero(is_first)
    canonical, _ = vectorized.canonical_ids(observed[firsts], k + 1)
    run = _sum_by_key(canonical, np.diff(firsts, append=observed.size))
    shuffle_counts = _worker_sums(
        partitioner.worker_for_array(run[0]), num_workers, weights=run[1]
    )
    empty_reads = int(np.count_nonzero(per_read == 0))
    return int(observed.size), empty_reads, map_ops, shuffle_counts, run


def _counted_here(count, *args) -> Future:
    """``count(*args)`` run on the calling thread, as a done future."""
    future: Future = Future()
    future.set_result(count(*args))
    return future


def _count_canonical_edges(
    reads: Iterable[Read], config: AssemblyConfig, chain: StageExecutor
):
    """Phase (i) of the vectorized path, streamed chunk by chunk.

    Returns ``(unique_edges, edge_counts, total_pairs, empty_reads,
    map_ops, shuffle_counts)``: the distinct canonical (k+1)-mers
    ascending with their coverage, the reads without a (k+1)-mer, and
    what the map side of the phase is charged.  A
    function of its own so that the last chunk's arrays and the sorted
    runs are gone before phase (ii) allocates.

    This thread parses and encodes the chunks; :func:`_count_chunk`
    runs on a pool of :data:`_COUNT_THREADS` threads, created and joined
    here, with at most :func:`_chunks_in_flight` chunks counted and not
    yet folded.  Results are folded in the order the chunks were read,
    so every array and counter is the one a single thread computes.
    """
    k = config.k
    num_workers = chain.num_workers

    total_pairs = 0
    empty_reads = 0
    read_index = 0
    map_ops = np.zeros(num_workers, dtype=np.int64)
    shuffle_counts = np.zeros(num_workers, dtype=np.int64)
    runs: List[Tuple[Any, Any]] = []
    budget_bytes = config.runtime.memory_budget_bytes
    chunk_reads = _chunk_reads_for_budget(budget_bytes)
    in_flight = _chunks_in_flight(budget_bytes)
    if isinstance(reads, FastqReads):  # one code array per block, no Read built
        batches = reads.code_batches(chunk_reads)
    else:  # only the sequences are batched; a streamed Read is released early
        batches = map(
            vectorized.encode_batch,
            read_chunks((read.sequence for read in reads), chunk_reads),
        )

    def fold(counted: Future) -> None:
        nonlocal total_pairs, empty_reads, map_ops, shuffle_counts
        pairs, chunk_empty_reads, chunk_map_ops, chunk_shuffle_counts, run = counted.result()
        total_pairs += pairs
        empty_reads += chunk_empty_reads
        map_ops += chunk_map_ops
        shuffle_counts += chunk_shuffle_counts
        runs.append(run)
        # Timsort's run-stack rule: merging while the lower run is at
        # most twice the upper keeps the stack logarithmic in the number
        # of chunks and the total merge work O(N log N).  Merging every
        # chunk into one accumulator instead would cost O(chunks x
        # distinct edges), quadratic when read errors keep adding edges.
        while len(runs) > 1 and runs[-2][0].size <= 2 * runs[-1][0].size:
            upper = runs.pop()
            runs[-1] = _merge_sorted_runs([runs[-1], upper])

    with ThreadPoolExecutor(max_workers=_COUNT_THREADS) as pool:
        # The pool starts its threads on first use.  A chunk goes to it
        # only when this thread has a later chunk to parse meanwhile and
        # the budget allows more than one chunk in flight; the last
        # chunk, and every chunk under a one-chunk budget, is counted
        # here, so a one-chunk input starts no thread at all.
        count = pool.submit if in_flight > 1 else _counted_here
        pending: Deque[Future] = deque()
        held = None  # the newest chunk, waiting to see if another follows
        for codes, starts, lengths in batches:
            if held is not None:
                while len(pending) >= in_flight:
                    fold(pending.popleft())
                pending.append(count(_count_chunk, *held))
            held = (codes, starts, lengths, read_index, k, chain.partitioner)
            read_index += lengths.size
        if held is not None:
            while len(pending) >= in_flight:
                fold(pending.popleft())
            pending.append(_counted_here(_count_chunk, *held))
        while pending:
            fold(pending.popleft())

    if not total_pairs:
        raise NoKmersError(read_index, k)
    unique_edges, edge_counts = _merge_sorted_runs(runs)
    return unique_edges, edge_counts, total_pairs, empty_reads, map_ops, shuffle_counts


def _build_dbg_vectorized(
    reads: Iterable[Read],
    config: AssemblyConfig,
    chain: StageExecutor,
) -> ConstructionResult:
    """Operation ① with both phases as batch kernels.

    Phase (i) is *streaming*: reads arrive in bounded chunks, each
    chunk is reduced to a sorted run of its distinct canonical edges
    with their counts, and the runs are merged on a stack as they
    arrive, so peak memory is bounded by the chunk size (which a
    memory budget shrinks) plus the distinct-edge working set rather
    than the raw read volume.
    """
    k = config.k
    num_workers = chain.num_workers
    partitioner = chain.partitioner

    # ---- phase (i): count canonical (k+1)-mers ------------------------
    unique_edges, edge_counts, total_pairs, empty_reads, map_ops, shuffle_counts = (
        _count_canonical_edges(reads, config, chain)
    )
    shuffle_bytes = 8 * shuffle_counts
    unique_destinations = partitioner.worker_for_array(unique_edges)
    survives = edge_counts > config.coverage_threshold
    reduce_ops = _worker_sums(
        unique_destinations, num_workers, weights=1 + edge_counts + survives
    )

    # Outputs ordered like the scalar reduce: by destination worker,
    # then ascending key (the merged runs are sorted).
    surviving_order = np.argsort(unique_destinations[survives], kind="stable")
    surviving_edges = unique_edges[survives][surviving_order]
    surviving_coverage = edge_counts[survives][surviving_order]

    chain.add_metrics(
        _mapreduce_metrics(
            "dbg-construction/phase1-count-kplus1mers",
            num_workers,
            map_ops,
            shuffle_bytes,
            total_pairs,
            reduce_ops,
        )
    )
    distinct = int(unique_edges.size)
    surviving_count = int(surviving_edges.size)

    # ---- phase (ii): build k-mer vertices -----------------------------
    fields = vectorized.edge_vertex_fields(surviving_edges, k)
    sources2 = np.arange(surviving_count, dtype=np.int64) % num_workers
    map_ops2 = 3 * _worker_sums(sources2, num_workers)
    prefix_destinations = partitioner.worker_for_array(fields["prefix_id"])
    suffix_destinations = partitioner.worker_for_array(fields["suffix_id"])
    shuffle_bytes2 = _PHASE2_OUT_BYTES * _worker_sums(
        prefix_destinations, num_workers
    ) + _PHASE2_IN_BYTES * _worker_sums(suffix_destinations, num_workers)

    # One shuffle pair per edge endpoint: the bitmap slot is
    # class_index * 8 + (4 for out-neighbours) + base, exactly
    # bit_position() with class_index = 2 * prefix_rc + suffix_rc.
    class_index = 2 * fields["prefix_rc"].astype(np.int64) + fields["suffix_rc"].astype(
        np.int64
    )
    out_positions = class_index * 8 + 4 + fields["appended_base"]
    in_positions = class_index * 8 + fields["prepended_base"]
    pair_keys = np.concatenate((fields["prefix_id"], fields["suffix_id"]))
    pair_positions = np.concatenate((out_positions, in_positions))
    pair_coverage = np.concatenate((surviving_coverage, surviving_coverage)).astype(
        np.int64
    )

    # Segment-reduce coverage per (k-mer, bitmap slot).
    order = np.lexsort((pair_positions, pair_keys))
    sorted_keys = pair_keys[order]
    sorted_positions = pair_positions[order]
    sorted_coverage = pair_coverage[order]
    if sorted_keys.size:
        slot_starts = np.flatnonzero(
            np.concatenate(
                (
                    [True],
                    (sorted_keys[1:] != sorted_keys[:-1])
                    | (sorted_positions[1:] != sorted_positions[:-1]),
                )
            )
        )
        slot_keys = sorted_keys[slot_starts]
        slot_positions = sorted_positions[slot_starts]
        slot_coverage = np.add.reduceat(sorted_coverage, slot_starts)
    else:
        slot_keys = sorted_keys
        slot_positions = sorted_positions
        slot_coverage = sorted_coverage

    unique_kmers, pair_counts = np.unique(pair_keys, return_counts=True)
    kmer_destinations = partitioner.worker_for_array(unique_kmers)
    # Scalar reduce charges 1 + len(values) + 1 per group (one vertex out).
    reduce_ops2 = _worker_sums(kmer_destinations, num_workers, weights=2 + pair_counts)

    chain.add_metrics(
        _mapreduce_metrics(
            "dbg-construction/phase2-build-vertices",
            num_workers,
            map_ops2,
            shuffle_bytes2,
            2 * surviving_count,
            reduce_ops2,
        )
    )

    # The k-mers stay columns, iterated in the scalar output order
    # (destination worker, then ascending k-mer ID).
    kmers = KmerTable.from_slots(
        k,
        slot_keys,
        slot_positions,
        slot_coverage,
        np.argsort(kmer_destinations, kind="stable"),
    )

    return ConstructionResult(
        graph=DeBruijnGraph(k, kmers),
        total_kplus1mers=total_pairs,
        distinct_kplus1mers=distinct,
        surviving_kplus1mers=surviving_count,
        filtered_kplus1mers=distinct - surviving_count,
        reads_without_kplus1mer=empty_reads,
    )
