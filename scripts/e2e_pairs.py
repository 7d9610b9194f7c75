#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 scripts/e2e_pairs.py --parent REV --workload W [--pairs 10] [--seconds 20] [--layers]

A timing claim needs pairs, not two sets an hour apart (see
``benchmarks/e2e/README.md``).  This materialises ``REV`` with
``git archive`` in a temporary directory, then for each pair runs
``benchmarks/e2e/run.py`` once from that tree (the parent) and once
from the working tree (the change) on the same, previously unused seed;
which side goes first alternates.  It prints every run as it finishes
and, per end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles and how many pairs the change won (ties count for
neither side).  With ``--layers`` it finishes with one ``--trace 1``
run per side on the last seed and prints the per-layer rows of
``BENCHMARK.json`` as a markdown table.  It only reads
``benchmarks/e2e``; the temporary directory (``TMPDIR`` decides where)
is removed on exit.
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
    """One ``run.py`` invocation in ``tree``; its closing JSON object."""
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    process = subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=environment, stdout=subprocess.PIPE, text=True,
    )
    try:
        output, _ = process.communicate()
    except BaseException:
        # run.py removes its run directory and its children on SIGTERM.
        process.terminate()
        process.wait()
        raise
    lines = output.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: run.py printed nothing in {tree} (exit {process.returncode})")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{median(values):.4g}"
    low, _, high = quantiles(values, n=4, method="inclusive")
    return f"{median(values):.4g} [{low:.4g}, {high:.4g}]"


def main() -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    recorded = json.loads((REPO / "benchmarks/e2e/baseline.json").read_text())["seeds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument(
        "--workload", required=True, choices=[entry["name"] for entry in contract["workloads"]]
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--first-seed", type=int, default=max(recorded) + 1,
        help="pair i runs on seed FIRST+i (default: just past the seeds baseline.json records)",
    )
    parser.add_argument(
        "--layers", action="store_true",
        help="finish with one traced run per side on the last seed; print the per-layer table",
    )
    args = parser.parse_args()

    # A terminated run must still remove its checkout of the parent.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    directory = Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    try:
        materialise(args.parent, directory)
        trees = {"parent": directory, "change": REPO}
        runs: Dict[str, List[Dict[str, object]]] = {side: [] for side in SIDES}
        seed = args.first_seed
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                report = run_once(trees[side], args.workload, seed, args.seconds)
                runs[side].append(report)
                values = {name: round(entry["value"], 4) for name, entry in report["metrics"].items()}
                print(
                    f"pair {pair} seed {seed} {side:<6} correct={report['correct']} "
                    f"failed={report['failed']}/{report['attempted']} {json.dumps(values)}",
                    flush=True,
                )
        traced = {}
        if args.layers:
            traced = {
                side: run_once(trees[side], args.workload, seed, args.seconds, trace=1)
                for side in SIDES
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"\n# {args.workload}: {args.pairs} pairs, parent {args.parent}, {args.seconds:g} s per run")
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
    if traced:
        print(f"\n# {args.workload}: per-layer metrics, one traced run per side on seed {seed}")
        for side in SIDES:
            print(f"# {side}: correct={traced[side]['correct']}")
        print("| metric | parent | change | ratio |\n|---|---|---|---|")
        for entry in contract["per_layer"]:
            parent, change = (traced[side]["metrics"][entry["name"]]["value"] for side in SIDES)
            ratio = f"{change / parent:.3f}" if parent else "–"
            print(f"| `{entry['name']}` | {parent:.6g} | {change:.6g} | {ratio} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
