"""Out-of-core memory plane — peak RSS and wall-clock under a budget.

Assembles the same dataset at budgets {unlimited, 1/2, 1/4 of the
measured working set}, each in a fresh Python subprocess so
``ru_maxrss`` reflects that run alone.  The working set is measured
first with an effectively-infinite budget: the spill plane then
accounts every partition, inbox, staged batch and ingest run without
ever evicting, and its ledger peak *is* the budgeted working set.

Asserted always: every budget produces bit-identical contigs (compared
by hash across the subprocess boundary), and the quarter-budget run
actually spills.  Asserted only when the working set is large enough
for the Python heap to dominate the interpreter baseline
(``MIN_WS_BYTES_FOR_RSS_ASSERT``): quarter-budget peak RSS lands
materially below the unlimited run's.  The JSON records
``rss_asserted`` so downstream tooling knows whether the RSS numbers
carry a signal — at the default CI scale they are interpreter noise.

Results land in ``BENCH_out_of_core.json`` (shared schema-v2 envelope,
see :mod:`repro.bench.schema`) with one row per budget: peak RSS,
wall-clock seconds, spill/load totals, ledger peak, and the contig
hash.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.bench import format_table
from repro.bench.harness import BENCH_K, bench_scale
from repro.bench.schema import bench_report

DATASET = "hc2"
NUM_WORKERS = 4

#: Budget (MB) used for the working-set measurement run: large enough
#: to never spill, so the ledger peak equals the full tracked set.
UNLIMITED_PROBE_MB = 1 << 20

#: Only assert an RSS reduction when the tracked working set dominates
#: the interpreter+numpy baseline; below this the comparison is noise.
MIN_WS_BYTES_FOR_RSS_ASSERT = 128 * 1024 * 1024

#: One assembly run, executed via ``python -c`` in a fresh process.
#: Prints a single JSON object on the last line of stdout.
_CHILD_SCRIPT = """
import hashlib, json, resource, sys, time
from repro.assembler import PPAAssembler
from repro.bench.harness import ppa_config, prepare_dataset
from repro.store.spill import process_spill_stats

dataset_name, scale, budget_mb, num_workers = json.loads(sys.argv[1])
dataset = prepare_dataset(dataset_name, scale=scale)
config = ppa_config(num_workers=num_workers, memory_budget_mb=budget_mb)

before = process_spill_stats().snapshot()
started = time.perf_counter()
result = PPAAssembler(config).assemble(dataset.reads)
seconds = time.perf_counter() - started
spill = process_spill_stats().delta_since(before)

digest = hashlib.sha256("\\n".join(sorted(result.contigs)).encode()).hexdigest()
print(json.dumps({
    "seconds": seconds,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "contig_hash": digest,
    "num_contigs": len(result.contigs),
    "spill_events": spill["spill_events"],
    "spill_bytes": spill["spill_bytes"],
    "load_events": spill["load_events"],
    "ledger_peak_bytes": spill["ledger_peak_bytes"],
}))
"""


def _output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_OUTPUT_DIR")
    root = Path(override) if override else Path(__file__).resolve().parents[1]
    root.mkdir(parents=True, exist_ok=True)
    return root / "BENCH_out_of_core.json"


def _run_child(scale: float, budget_mb):
    """Assemble in a fresh interpreter; returns the child's JSON row."""
    args = json.dumps([DATASET, scale, budget_mb, NUM_WORKERS])
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, args],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _measure(scale: float):
    # Working-set probe: account everything, evict nothing.
    probe = _run_child(scale, UNLIMITED_PROBE_MB)
    ws_bytes = probe["ledger_peak_bytes"]
    assert ws_bytes > 0, "the probe run tracked nothing"

    half_mb = max(0.01, ws_bytes / 2 / (1024 * 1024))
    quarter_mb = max(0.01, ws_bytes / 4 / (1024 * 1024))

    rows = []
    for label, budget_mb in (
        ("unlimited", None),
        ("half_ws", half_mb),
        ("quarter_ws", quarter_mb),
    ):
        child = _run_child(scale, budget_mb)
        rows.append(
            {
                "budget": label,
                "budget_mb": None if budget_mb is None else round(budget_mb, 3),
                "seconds": round(child["seconds"], 3),
                "peak_rss_kb": child["peak_rss_kb"],
                "num_contigs": child["num_contigs"],
                "contig_hash": child["contig_hash"],
                "spill_events": child["spill_events"],
                "spill_bytes": child["spill_bytes"],
                "load_events": child["load_events"],
                "ledger_peak_bytes": child["ledger_peak_bytes"],
            }
        )

    # Bit-identity across budgets is non-negotiable.
    hashes = {row["contig_hash"] for row in rows}
    assert len(hashes) == 1, f"contigs diverged across budgets: {rows}"
    quarter = rows[-1]
    assert quarter["spill_events"] > 0, "quarter-working-set budget never spilled"
    return rows, ws_bytes


def test_out_of_core_memory_bound(benchmark, scale_multiplier):
    scale = 0.25 * scale_multiplier
    rows, ws_bytes = benchmark.pedantic(
        _measure, args=(scale,), rounds=1, iterations=1
    )
    rss_asserted = ws_bytes >= MIN_WS_BYTES_FOR_RSS_ASSERT

    report = bench_report(
        benchmark="out_of_core",
        dataset=DATASET,
        scale=scale,
        k=BENCH_K,
        num_workers=NUM_WORKERS,
        working_set_bytes=ws_bytes,
        rss_asserted=rss_asserted,
        rows=rows,
    )
    output = _output_path()
    output.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(
        f"Out-of-core matrix (working set {ws_bytes / 1e6:.1f} MB) -> {output.name}"
    )
    print(
        format_table(
            ["budget", "MB", "s", "peak RSS MB", "spills", "spilled MB"],
            [
                [
                    row["budget"],
                    "-" if row["budget_mb"] is None else f"{row['budget_mb']:.2f}",
                    f"{row['seconds']:.2f}",
                    f"{row['peak_rss_kb'] / 1024:.1f}",
                    str(row["spill_events"]),
                    f"{row['spill_bytes'] / 1e6:.2f}",
                ]
                for row in rows
            ],
        )
    )
    if rss_asserted:
        unlimited_rss = rows[0]["peak_rss_kb"]
        quarter_rss = rows[-1]["peak_rss_kb"]
        assert quarter_rss < unlimited_rss, (
            f"expected the quarter-budget run ({quarter_rss} kB) to stay below "
            f"the unlimited run ({unlimited_rss} kB)"
        )
    else:
        print(
            f"RSS assertion skipped (working set {ws_bytes / 1e6:.1f} MB below "
            f"{MIN_WS_BYTES_FOR_RSS_ASSERT / 1e6:.0f} MB floor); "
            "bit-identity and spill activity still asserted"
        )
