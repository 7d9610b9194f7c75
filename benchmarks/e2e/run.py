"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints every metric by name with its unit,
direction and bound, then, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Without ``--workload`` it
measures all four and ends with a summary whose ``"claim"`` is null:
this benchmark is the baseline later changes are measured against and
claims no gain itself.  ``--spread [N]`` repeats every workload on N
seeds (default 10) and records how far the numbers move (see
``spread.py``).  Timings are in seconds of a reference machine speed
(see ``calibrate.py``); the raw seconds are printed as information.

``harness.py`` holds how a workload is measured, ``child.py`` what runs
in the measured process.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import spread
from harness import (
    CONTRACT,
    SOURCE,
    BenchmarkError,
    contract_result,
    environment,
    load_contract,
    measure,
)
from workloads import BY_NAME, WORKLOADS


def print_table(report: Dict[str, object], catalogue: List[Dict[str, object]]) -> None:
    name = report["workload"]
    notes = [f"seed {report['seed']}", f"{report['repetitions']} timed repetitions"]
    if "mbases_per_s" in report:
        notes.append(
            f"information, not gated: {report['mbases_per_s']:.3f} Mbases/s, "
            f"raw wall {median(report['raw_walls_s']):.3f} s at "
            f"{median(report['kernel_cpus_s']['interpreter']):.3f} s per calibration kernel, "
            f"raw set-up {report['raw_setup_s']:.3f} s, N50 {report['n50_bp']} bp, "
            f"{report['misassemblies']} misassemblies"
        )
    if report["oversubscribed"]:
        notes.append("OVERSUBSCRIBED: fewer cores than worker processes")
    print(f"# {name}: " + ", ".join(notes))
    for entry in catalogue:
        bound = f"  bound {entry['bound']:g}" if "bound" in entry else ""
        print(
            f"{name + '/' + entry['name']:<44} {report['metrics'][entry['name']]:>16.6f} "
            f"{entry['unit']:<9} {entry['better']:<6}{bound}"
        )
    print(f"# {name}: ops_failed / ops_attempted = {report['failed']} / {report['attempted']}")
    for problem in report["problems"] + report.get("shape_problems", []):
        print(f"# {name}: PROBLEM {problem}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="default: all four")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the schema test")
    parser.add_argument(
        "--spread", type=int, nargs="?", const=10, metavar="N",
        help="repeat on N seeds (default 10) and compare with baseline.json; see spread.py",
    )
    parser.add_argument("--out", type=Path, help="write the full report (with spans) here")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so that run directories and children go with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SOURCE / "repro").is_dir() or not CONTRACT.is_file():
        print(f"error: no program to measure under {SOURCE}", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    if args.smoke:
        chosen = [workload.smoke() for workload in chosen]

    catalogue = contract["per_layer" if args.trace else "end_to_end"]
    reports, results = [], {}
    try:
        if args.spread is not None:
            return spread.main(contract, chosen, args.spread, args.seed, seconds, args.out)
        for workload in chosen:
            report = measure(workload, args.seed, seconds, bool(args.trace))
            reports.append(report)
            results[workload.name] = contract_result(report, catalogue, args.smoke)
            print_table(report, catalogue)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {"environment": environment(reports), "reports": reports, "claim": None},
                indent=1,
            )
        )
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(
            json.dumps(
                {"environment": environment(reports), "workloads": results, "claim": None}
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
