"""How far do the numbers move when nothing changed?

``run.py --spread N`` measures every workload on ``N`` consecutive
seeds, exactly as the driver that accepts this benchmark does, and
writes ``baseline.json`` beside this file: for each end-to-end metric
of each workload the median, the quartiles
(``statistics.quantiles(values, n=4)``) and ``observed_spread``, the
distance between the quartiles as a share of the median; for each seed
the values that are a pure function of the inputs; and one traced run
per workload.  When ``baseline.json`` already exists, the new numbers
are compared with it: that is the second set of runs of the same code.
The file is rewritten only by a set that passes.

The exit code is non-zero when

* a spread exceeds its metric's bound (``setup_s`` excepted, as in the
  driver), or a median is worse than the recorded one by more than the
  bound;
* a deterministic value — the cost model's output, the quality numbers,
  the contig digest of a seed, a message, byte or spill count of the
  traced run — differs at all from the recorded one for the same seed;
* a run was incorrect.

A timing that fails is an instruction to measure longer
(``run_seconds``), not to widen the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

import harness
from workloads import Workload

BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: What must repeat exactly for a seed: a function of the inputs alone.
EXACT_PER_SEED = ("model_cluster_s", "genome_fraction_pct", "n50_bp", "misassemblies", "digest")
#: Per-layer metrics of the traced run that are counts, not timings.
EXACT_LAYERS = (
    "pregel.supersteps",
    "pregel.messages",
    "pregel.bytes_mb",
    "pregel.compute_ops",
    "runtime.cross_worker_messages",
    "store.spill_events",
    "store.spill_mb",
    "store.load_events",
    "store.ledger_peak_mb",
    "quality.n50_bp",
    "quality.misassemblies",
)


def observed_spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and interquartile range over the median."""
    first, median, third = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": first,
        "q3": third,
        "observed_spread": (third - first) / median if median else 0.0,
    }


def drift(entry: Dict[str, object], before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if entry["better"] == "lower" else -change


def judge(
    label: str,
    entry: Dict[str, object],
    values: List[float],
    recorded: Optional[Dict[str, float]],
    failures: List[str],
) -> Dict[str, object]:
    """One metric's row of ``baseline.json``; what the gate would reject goes to ``failures``."""
    bound = entry["bound"]
    row = dict(observed_spread(values), bound=bound, unit=entry["unit"])
    # The gate does not bound the spread of set-up time, only its drift.
    if entry["name"] != "setup_s" and row["observed_spread"] > bound:
        failures.append(f"{label}: spread {row['observed_spread']:.3f} > bound {bound}")
    if recorded is not None:
        row["drift_from_recorded"] = drift(entry, recorded["median"], row["median"])
        if row["drift_from_recorded"] > bound:
            failures.append(
                f"{label}: median worse than recorded by "
                f"{row['drift_from_recorded']:.3f} > bound {bound}"
            )
    print(
        f"{label:<36} median {row['median']:>12.5f} {entry['unit']:<8}"
        f" spread {row['observed_spread']:.4f}  bound {bound:g}"
        + (f"  drift {row['drift_from_recorded']:+.4f}" if recorded is not None else "")
    )
    return row


def must_repeat(
    label: str,
    names: tuple,
    values: Dict[str, object],
    recorded: Optional[Dict[str, object]],
    failures: List[str],
) -> None:
    """Fail every value of ``names`` that differs from the recorded one."""
    for name in names if recorded else ():
        if name in recorded and values[name] != recorded[name]:
            failures.append(
                f"{label}/{name}: {values[name]!r} does not repeat the recorded {recorded[name]!r}"
            )


def main(
    contract: Dict[str, object],
    workloads: List[Workload],
    runs: int,
    seed: int,
    seconds: float,
    out: Optional[Path],
) -> int:
    if runs < 2:
        print("error: --spread needs at least 2 runs", file=sys.stderr)
        return 2
    out = out or BASELINE
    recorded = json.loads(out.read_text())["workloads"] if out.exists() else {}
    catalogue = contract["end_to_end"]
    seeds = list(range(seed, seed + runs))
    failures: List[str] = []
    rows: Dict[str, object] = dict(recorded)  # workloads not measured now keep their rows
    reports = []
    for workload in workloads:
        before = recorded.get(workload.name, {})
        results = []
        per_seed: Dict[str, Dict[str, object]] = {}
        for run_seed in seeds:
            report = harness.measure(workload, run_seed, seconds, trace=False)
            reports.append(report)
            result = harness.contract_result(report, catalogue)
            results.append(result)
            label = f"{workload.name} seed {run_seed}"
            if not result["correct"]:
                failures.append(f"{label}: {report['problems']}")
            per_seed[str(run_seed)] = {
                name: report["metrics"].get(name, report.get(name)) for name in EXACT_PER_SEED
            }
            must_repeat(
                label,
                EXACT_PER_SEED,
                per_seed[str(run_seed)],
                before.get("per_seed", {}).get(str(run_seed)),
                failures,
            )
            print(
                f"{label}: "
                + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                file=sys.stderr,
            )
        metrics = {
            entry["name"]: judge(
                f"{workload.name}/{entry['name']}",
                entry,
                [result["metrics"][entry["name"]]["value"] for result in results],
                before.get("end_to_end", {}).get(entry["name"]),
                failures,
            )
            for entry in catalogue
        }
        traced = harness.measure(workload, seed, seconds, trace=True)
        reports.append(traced)
        layers = harness.contract_result(traced, contract["per_layer"])
        if not layers["correct"]:
            failures.append(
                f"{workload.name} traced: {traced['problems'] + traced['shape_problems']}"
            )
        per_layer = {name: value["value"] for name, value in layers["metrics"].items()}
        if before.get("traced_seed") == seed:
            must_repeat(
                f"{workload.name} traced", EXACT_LAYERS, per_layer, before["per_layer"], failures
            )
        rows[workload.name] = {
            "end_to_end": metrics,
            "per_seed": per_seed,
            "ops_attempted": sum(result["attempted"] for result in results),
            "ops_failed": sum(result["failed"] for result in results),
            "traced_seed": seed,
            "per_layer": per_layer,
        }
    document = {
        "seeds": seeds,
        "seconds": seconds,
        "environment": harness.environment(reports),
        "workloads": rows,
        "failures": failures,
        "claim": None,
    }
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:  # a set that fails its own gate is not a baseline
        out.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps({"baseline": str(out), "failures": len(failures), "claim": None}))
    return 1 if failures else 0
