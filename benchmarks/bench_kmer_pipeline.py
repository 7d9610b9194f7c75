"""K-mer pipeline microbenchmark: scalar oracle vs NumPy batch kernels.

Times the DBG-construction hot path stage by stage — canonical
(k+1)-mer extraction, count pre-aggregation, and the full operation ①
— with ``use_vectorized`` off and on, asserts the results stay
bit-identical, and writes ``BENCH_kmer_pipeline.json`` so CI can track
the speedup trajectory over time.

Output location: the repository root by default, overridable with
``REPRO_BENCH_OUTPUT_DIR``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

from repro.assembler import AssemblyConfig
from repro.assembler.construction import build_dbg
from repro.bench import BENCH_K, bench_report, bench_scale, format_table, prepare_dataset
from repro.dna import vectorized
from repro.dna.encoding import canonical_encoded, iter_encoded_kmers
from repro.dna.sequence import split_on_ambiguous
from repro.workflow import StageExecutor

DATASET = "hc2"
NUM_WORKERS = 4

#: The acceptance floor for the headline stage (full operation ①):
#: the vectorized path must be at least this much faster.
MIN_CONSTRUCTION_SPEEDUP = 3.0


def _timed(function):
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def _scalar_extract(sequences, window):
    ids = []
    for sequence in sequences:
        for fragment in split_on_ambiguous(sequence):
            if len(fragment) < window:
                continue
            for encoded in iter_encoded_kmers(fragment, window):
                ids.append(canonical_encoded(encoded, window)[0])
    return ids


def _scalar_count(ids):
    counts = defaultdict(int)
    for encoded in ids:
        counts[encoded] += 1
    return counts


def _vectorized_count(ids_array):
    import numpy as np

    return np.unique(ids_array, return_counts=True)


def _bench_stages(sequences, reads):
    import numpy as np

    window = BENCH_K + 1
    stages = {}

    scalar_ids, scalar_seconds = _timed(lambda: _scalar_extract(sequences, window))
    (vector_ids, _counts), vector_seconds = _timed(
        lambda: vectorized.extract_canonical_window_ids(sequences, window)
    )
    assert vector_ids.tolist() == scalar_ids, "extraction parity violated"
    stages["extract-canonical-edges"] = (scalar_seconds, vector_seconds)

    scalar_counts, scalar_seconds = _timed(lambda: _scalar_count(scalar_ids))
    (unique_ids, unique_counts), vector_seconds = _timed(
        lambda: _vectorized_count(vector_ids)
    )
    assert dict(zip(unique_ids.tolist(), unique_counts.tolist())) == dict(scalar_counts)
    stages["preaggregate-counts"] = (scalar_seconds, vector_seconds)

    def run_construction(use_vectorized):
        chain = StageExecutor(num_workers=NUM_WORKERS, columnar_messages=use_vectorized)
        config = AssemblyConfig(k=BENCH_K, use_vectorized=use_vectorized)
        return build_dbg(reads, config, chain), chain

    (scalar_result, scalar_chain), scalar_seconds = _timed(
        lambda: run_construction(False)
    )
    (vector_result, vector_chain), vector_seconds = _timed(
        lambda: run_construction(True)
    )
    assert list(vector_result.graph.kmers) == list(scalar_result.graph.kmers)
    assert vector_result.graph.kmers == scalar_result.graph.kmers
    assert vector_chain.pipeline_metrics == scalar_chain.pipeline_metrics
    stages["dbg-construction"] = (scalar_seconds, vector_seconds)

    return stages


def _output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_OUTPUT_DIR")
    root = Path(override) if override else Path(__file__).resolve().parents[1]
    root.mkdir(parents=True, exist_ok=True)
    return root / "BENCH_kmer_pipeline.json"


def test_kmer_pipeline_speedup(benchmark):
    scale = bench_scale()
    dataset = prepare_dataset(DATASET)
    sequences = [read.sequence for read in dataset.reads]

    stages = benchmark.pedantic(
        _bench_stages, args=(sequences, dataset.reads), rounds=1, iterations=1
    )

    report = bench_report(
        benchmark="kmer_pipeline",
        dataset=DATASET,
        scale=scale,
        k=BENCH_K,
        reads=len(sequences),
        stages={
            name: {
                "scalar_seconds": round(scalar_seconds, 6),
                "vectorized_seconds": round(vector_seconds, 6),
                "speedup": round(scalar_seconds / vector_seconds, 2),
            }
            for name, (scalar_seconds, vector_seconds) in stages.items()
        },
    )
    report["headline_speedup"] = report["stages"]["dbg-construction"]["speedup"]
    output = _output_path()
    output.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"K-mer pipeline: scalar vs vectorized ({DATASET}, scale {scale}, k={BENCH_K})")
    print(
        format_table(
            ["stage", "scalar s", "vectorized s", "speedup"],
            [
                [
                    name,
                    f"{scalar_seconds:.3f}",
                    f"{vector_seconds:.3f}",
                    f"{scalar_seconds / vector_seconds:.1f}x",
                ]
                for name, (scalar_seconds, vector_seconds) in stages.items()
            ],
        )
    )
    print(f"wrote {output}")

    headline = report["headline_speedup"]
    assert headline >= MIN_CONSTRUCTION_SPEEDUP, (
        f"expected >= {MIN_CONSTRUCTION_SPEEDUP:.0f}x DBG-construction speedup, "
        f"got {headline:.2f}x"
    )
