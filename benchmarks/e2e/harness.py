"""Measuring one workload: child processes, hygiene, the contract object.

This process never imports the library.  Each measurement runs in a
fresh ``child.py`` process that this one only waits for, with
``PYTHONHASHSEED=0`` and ``TMPDIR`` set to a per-run directory, which is
removed on every exit path; afterwards the directory and any
shared-memory arena of the run must be gone.  The directory is on tmpfs
(``/dev/shm``) when that is writable, so that the FASTQ, the contigs and
above all the spill files never wait for a shared disk; otherwise it is
inside the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"
SHM = Path("/dev/shm")
#: Where run directories go when there is no writable tmpfs.
WORK = HERE / ".work"
RUN_PREFIX = "repro-e2e-"

CHILD_TIMEOUT_SECONDS = 170
#: Shared-memory arenas of the multiprocess backend's message plane.
ARENA_PREFIX = "psm_repro_"


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def load_contract() -> Dict[str, object]:
    return json.loads(CONTRACT.read_text())


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def _child_environment(workdir: Path) -> Dict[str, str]:
    environment = dict(os.environ)
    inherited = environment.get("PYTHONPATH")
    environment.update(
        PYTHONHASHSEED="0",
        TMPDIR=str(workdir),
        PYTHONPATH=str(SOURCE) + (os.pathsep + inherited if inherited else ""),
    )
    return environment


def _run_child(workdir: Path, label: str, **spec: object) -> Dict[str, object]:
    """Run ``child.py`` to completion in its own process group; its report."""
    directory = workdir / label
    result = workdir / f"{label}.json"
    spec.update(directory=str(directory), result=str(result), started=time.monotonic())
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=str(ROOT),
        env=_child_environment(workdir),
        stdout=sys.stderr,  # keep this process's stdout for the result
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{label}: no result within {CHILD_TIMEOUT_SECONDS}s") from None
    finally:
        # Whatever happened, nothing the child started may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0 or not result.exists():
        raise BenchmarkError(f"{label}: child exited with code {code}")
    return json.loads(result.read_text())


def _arenas() -> set:
    if not SHM.is_dir():
        return set()
    return {name for name in os.listdir(SHM) if name.startswith(ARENA_PREFIX)}


def _make_run_directory(workload: Workload) -> Path:
    """A fresh directory for one run: on tmpfs if possible, else in the checkout."""
    if SHM.is_dir() and os.access(SHM, os.W_OK | os.X_OK):
        parent = SHM
    else:
        parent = WORK
        WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{RUN_PREFIX}{workload.name}-", dir=parent))


def _filesystem(path: Path) -> str:
    """Type of the file system holding ``path`` (``"unknown"`` off Linux)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        _, mount_point, fs_type = line.split()[:3]
        if target.startswith(mount_point) and len(mount_point) > len(best):
            best, kind = mount_point, fs_type
    return kind


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Measure one workload; the report carries ``metrics`` and verdicts."""
    workdir = _make_run_directory(workload)
    arenas_before = _arenas()
    tmp_filesystem = _filesystem(workdir)
    try:
        if trace:
            report = _traced(workload, seed, seconds, workdir)
        else:
            report = _timed(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent == WORK:
            try:
                WORK.rmdir()
            except OSError:
                pass  # another run is using it
    if workdir.exists():
        report["problems"].append(f"run directory {workdir} was not removed")
    leaked = sorted(_arenas() - arenas_before)
    if leaked:
        report["problems"].append(f"shared-memory arenas left behind: {leaked}")
    report.update(
        workload=workload.name,
        seed=seed,
        tmp_filesystem=tmp_filesystem,
        oversubscribed=workload.backend == "multiprocess"
        and (os.cpu_count() or 1) < workload.num_workers,
    )
    return report


def _timed(workload: Workload, seed: int, seconds: float, workdir: Path) -> Dict[str, object]:
    timed = _run_child(
        workdir, "timed", workload=asdict(workload), seed=seed, mode="timed", seconds=seconds
    )
    if "metrics" not in timed:
        raise BenchmarkError(f"no repetition passed: {timed['problems']}")
    timed["metrics"].update(setup_s=timed["setup_s"], peak_rss_mb=timed["peak_rss_mb"])
    return timed


def _traced(workload: Workload, seed: int, seconds: float, workdir: Path) -> Dict[str, object]:
    traced = _run_child(
        workdir, "traced", workload=asdict(workload), seed=seed, mode="traced", seconds=seconds
    )
    if "layers" not in traced:
        raise BenchmarkError(f"no traced repetition passed: {traced['problems']}")
    children = [traced]
    layers = traced["layers"]
    problems = list(traced["problems"])
    # In-run ratios against the workload's comparison path; 0 = not applicable.
    layers.update(
        {"runtime.mp_speedup": 0.0, "store.budget_slowdown": 0.0, "store.rss_saving_mb": 0.0}
    )
    comparison = workload.comparison()
    if comparison is not None:
        other = _run_child(
            workdir,
            "comparison",
            workload=asdict(comparison),
            seed=seed,
            mode="timed",
            seconds=seconds / 2,
        )
        children.append(other)
        if other.get("digest") != traced["digest"]:
            problems.append("the comparison path assembled different contigs")
        else:
            wall = traced["metrics"]["wall_s"]
            other_wall = other["metrics"]["wall_s"]
            if "backend" in workload.compare:
                layers["runtime.mp_speedup"] = other_wall / wall
            if "memory_budget_mb" in workload.compare:
                layers["store.budget_slowdown"] = wall / other_wall
                layers["store.rss_saving_mb"] = other["peak_rss_mb"] - traced["peak_rss_mb"]
        problems.extend(other["problems"])
    return {
        "metrics": layers,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "problems": problems,
        "shape_problems": traced["shape_problems"],
        "repetitions": traced["repetitions"],
        "digest": traced["digest"],
        "numpy": traced["numpy"],
        "spans": traced["spans"],
    }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def contract_result(
    report: Dict[str, object], catalogue: List[Dict[str, object]], smoke: bool = False
) -> Dict[str, object]:
    """The object the driver reads: exactly correct/attempted/failed/metrics."""
    measured = report["metrics"]
    names = [entry["name"] for entry in catalogue]
    if set(names) != set(measured):
        raise BenchmarkError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(measured))}"
        )
    # A smoke sizing is too small to keep a workload's shape.
    shape_problems = [] if smoke else report.get("shape_problems", [])
    return {
        "correct": not (report["failed"] or report["problems"] or shape_problems),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
            for entry in catalogue
        },
    }


def environment(reports: List[Dict[str, object]]) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
        "machine": platform.machine(),
        "tmp_filesystem": reports[0]["tmp_filesystem"],
    }
