#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/e2e_pairs.py --parent REV [--workload W]... [--pairs 10] [--seconds 20] [--layers]

A timing claim needs pairs, not two sets an hour apart (see
``benchmarks/e2e/README.md``).  This materialises ``REV`` with
``git archive`` in a temporary directory, then for each pair runs
``benchmarks/e2e/run.py`` once from that tree (the parent) and once
from the working tree (the change) on the same, previously unused seed;
which side goes first alternates.  It prints every run as it finishes
and, per end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles and how many pairs the change won (ties count for
neither side) — one table per workload, every workload of
``BENCHMARK.json`` unless ``--workload`` names some.  With ``--layers``
each workload finishes with one ``--trace 1`` run per side on each of
the last three pair seeds (a layer's share moves by several points
between seeds, so one traced pair cannot show it holding), printed as a
markdown table of each per-layer row's median over those runs, under
the ``PROBLEM`` lines the traced runs wrote.
The exit status is 1 when any run of the change, timed or traced, did
not end ``"correct": true`` — a share floor tripped by a faster layer
shows only there.  It only reads ``benchmarks/e2e``; the temporary
directory (``TMPDIR`` decides where) is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

#: ``--layers`` traces each side on this many of the last pair seeds.
TRACED_SEEDS = 3


def materialise(rev: str, directory: Path) -> None:
    """Unpack the committed files of ``rev`` into ``directory``."""
    archive = subprocess.Popen(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    unpack = subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or unpack.returncode != 0:
        raise SystemExit(f"error: could not archive {rev!r}")


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> Dict[str, object]:
    """One ``run.py`` invocation in ``tree``: its closing JSON object,
    plus the ``PROBLEM`` lines it wrote to standard error as ``"problems"``."""
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    process = subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=environment, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        output, errors = process.communicate()
    except BaseException:
        # run.py removes its run directory and its children on SIGTERM.
        process.terminate()
        process.wait()
        raise
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(errors)
        raise SystemExit(f"error: run.py exited {process.returncode} in {tree}")
    report = json.loads(lines[-1])
    report["problems"] = [line for line in errors.splitlines() if "PROBLEM" in line]
    return report


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{median(values):.4g}"
    low, _, high = quantiles(values, n=4, method="inclusive")
    return f"{median(values):.4g} [{low:.4g}, {high:.4g}]"


def measure_workload(
    trees: Dict[str, Path], workload: str, args: argparse.Namespace, contract: Dict[str, object]
) -> bool:
    """Run the pairs of one workload and print its tables; False when a
    run of the change, timed or traced, was not correct."""
    runs: Dict[str, List[Dict[str, object]]] = {side: [] for side in SIDES}
    seeds = [args.first_seed + pair for pair in range(args.pairs)]
    for pair, seed in enumerate(seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            report = run_once(trees[side], workload, seed, args.seconds)
            runs[side].append(report)
            values = {name: round(entry["value"], 4) for name, entry in report["metrics"].items()}
            print(
                f"{workload} pair {pair} seed {seed} {side:<6} correct={report['correct']} "
                f"failed={report['failed']}/{report['attempted']} {json.dumps(values)}",
                flush=True,
            )
            for problem in report["problems"]:
                print(problem, flush=True)
    traced: Dict[str, List[Dict[str, object]]] = {side: [] for side in SIDES}
    traced_seeds = seeds[-TRACED_SEEDS:] if args.layers else []
    for index, seed in enumerate(traced_seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            traced[side].append(run_once(trees[side], workload, seed, args.seconds, trace=1))

    print(f"\n# {workload}: {args.pairs} pairs, parent {args.parent}, {args.seconds:g} s per run")
    for side in SIDES:
        failed = sum(report["failed"] for report in runs[side])
        attempted = sum(report["attempted"] for report in runs[side])
        incorrect = sum(not report["correct"] for report in runs[side])
        print(f"# {side}: ops_failed / ops_attempted = {failed} / {attempted}, {incorrect} runs not correct")
    print(f"{'metric':<22}{'parent median [q1, q3]':<34}{'change median [q1, q3]':<34}"
          f"{'change/parent':<15}won/lost/tied")
    for entry in contract["end_to_end"]:
        name = entry["name"]
        parent = [report["metrics"][name]["value"] for report in runs["parent"]]
        change = [report["metrics"][name]["value"] for report in runs["change"]]
        sign = -1 if entry["better"] == "lower" else 1
        won = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
        lost = sum(sign * (new - old) < 0 for old, new in zip(parent, change))
        ratio = median(change) / median(parent) if median(parent) else float("nan")
        print(f"{name:<22}{quartiles(parent):<34}{quartiles(change):<34}"
              f"{ratio:<15.4f}{won}/{lost}/{len(parent) - won - lost}")
    if traced_seeds:
        print(f"\n# {workload}: per-layer metrics, median of {len(traced_seeds)} traced runs "
              f"per side on seeds {', '.join(map(str, traced_seeds))}")
        for side in SIDES:
            for seed, report in zip(traced_seeds, traced[side]):
                print(f"# {side} seed {seed}: correct={report['correct']}")
                for problem in report["problems"]:
                    print(f"# {side} seed {seed}: {problem.lstrip('# ')}")
        print("| metric | parent | change | ratio |\n|---|---|---|---|")
        for entry in contract["per_layer"]:
            parent, change = (
                median(report["metrics"][entry["name"]]["value"] for report in traced[side])
                for side in SIDES
            )
            ratio = f"{change / parent:.3f}" if parent else "–"
            print(f"| `{entry['name']}` | {parent:.6g} | {change:.6g} | {ratio} |")
    print(flush=True)
    return all(report["correct"] for report in runs["change"] + traced["change"])


def main() -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    recorded = json.loads((REPO / "benchmarks/e2e/baseline.json").read_text())["seeds"]
    workloads = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="may be given more than once (default: every workload, one table each)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--first-seed", type=int, default=max(recorded) + 1,
        help="pair i runs on seed FIRST+i (default: just past the seeds baseline.json records)",
    )
    parser.add_argument(
        "--layers", action="store_true",
        help=f"finish each workload with one traced run per side on each of the last "
        f"{TRACED_SEEDS} seeds; print each per-layer row's median and the traced runs' "
        "PROBLEM lines",
    )
    args = parser.parse_args()

    # A terminated run must still remove its checkout of the parent.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    directory = Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    try:
        materialise(args.parent, directory)
        trees = {"parent": directory, "change": REPO}
        correct = [
            measure_workload(trees, workload, args, contract)
            for workload in args.workload or workloads
        ]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if not all(correct):
        print("error: a run of the change was not correct (see above)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
