"""Job-attempt execution: the code a worker process runs.

:func:`execute_attempt` runs one claimed job attempt inside a spawned
worker process (:func:`worker_main`).  Around the actual assembly it
wires the fault model:

* a **heartbeat ticker** renews the job's lease every
  ``lease_seconds / 3``; a failed renewal means the worker has been
  fenced — the reaper gave the job away — and the worker process
  hard-exits immediately (:data:`EXIT_LEASE_LOST`) so it cannot write
  a fenced job's artifacts;
* a **watchdog** enforces the spec's per-job and per-stage deadlines;
  on expiry it records the failure (retry accounting included) and
  kills the worker process (:data:`EXIT_STAGE_TIMEOUT` /
  :data:`EXIT_JOB_TIMEOUT`) — the only reliable way to stop a wedged
  native call;
* an **orphan check**: a worker process whose parent died re-parents;
  it exits (:data:`EXIT_ORPHANED`) rather than keep computing for a
  service that no longer exists;
* the :class:`~repro.service.faults.FaultPlan` fault points, which is
  how chaos tests make all of the above actually happen on demand.

Error taxonomy: :class:`~repro.errors.ReproError` is a *permanent*
failure (bad input, missing file — retrying cannot help) and goes
straight to ``failed``; any other exception is presumed transient and
goes through the store's retry/quarantine accounting.

The assembly itself is :func:`~repro.service.spec.run_job` — the same
function the one-shot CLI runs — writing its whole run directory
(contigs, metrics, trace, timeline) into a per-attempt staging
directory that is published into the job directory only once the
attempt's token-fenced terminal or requeue write commits.

Worker processes also carry their metrics home: each child owns a
private :class:`~repro.telemetry.MetricsRegistry` and ships metric
*deltas* through a :class:`MetricsSpool` (pickle files under
``data_dir/metrics-spool/``, written atomically) that the service
merges into its own registry at ``/metrics`` scrape time.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import ReproError
from ..telemetry import MetricsRegistry, get_registry, set_registry
from ..workflow import WorkflowEvent
from .faults import FaultPlan
from .spec import run_job
from .store import (
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_SUCCEEDED,
    JobRecord,
    JobStore,
)

#: Exit codes a worker process uses to tell its supervisor *why* it
#: died deliberately (anything else — -9, 1, … — is an unplanned death).
EXIT_ORPHANED = 85
EXIT_LEASE_LOST = 86
EXIT_STAGE_TIMEOUT = 87
EXIT_JOB_TIMEOUT = 88

#: Supervisor-facing names for the deliberate exit codes.
EXIT_REASONS = {
    EXIT_ORPHANED: "orphaned",
    EXIT_LEASE_LOST: "lease-lost",
    EXIT_STAGE_TIMEOUT: "stage-timeout",
    EXIT_JOB_TIMEOUT: "job-timeout",
}


class _JobCancelled(Exception):
    """Internal control-flow signal: a cancel request reached a stage boundary."""


def job_dir(data_dir, job_id: str) -> Path:
    return Path(data_dir) / "jobs" / job_id


def checkpoint_dir(data_dir, job_id: str) -> Path:
    return job_dir(data_dir, job_id) / "checkpoints"


class MetricsSpool:
    """Cross-process metric transport: atomic pickle files in a directory.

    A worker process cannot reach the service's in-memory registry, so
    it drains its own registry's counters/histograms to a uniquely
    named file (tmp + rename, so the reader never sees a torn write)
    after claiming and after finishing each job.  The service merges
    and deletes the files at scrape time — deltas add, so nothing is
    lost or double-counted regardless of interleaving.
    """

    def __init__(self, data_dir) -> None:
        self.directory = Path(data_dir) / "metrics-spool"
        self._counter = 0

    def push(self, registry) -> None:
        state = registry.drain_state()
        if not state:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._counter += 1
            name = f"{os.getpid()}-{self._counter:06d}.pkl"
            tmp = self.directory / f".{name}.tmp"
            with open(tmp, "wb") as handle:
                pickle.dump(state, handle)
            os.replace(tmp, self.directory / name)
        except OSError:
            pass  # metrics are best-effort; never fail the job for them

    def drain_into(self, registry) -> None:
        try:
            paths = sorted(self.directory.glob("*.pkl"))
        except OSError:
            return
        for path in paths:
            # Claim by rename before reading: the API server is a
            # ThreadingHTTPServer, so two concurrent /metrics scrapes
            # can see the same file — whoever renames first owns it,
            # the loser's rename fails, and no delta merges twice.
            # (Leading dot keeps claimed files out of the glob above.)
            claimed = path.with_name(
                f".{path.name}.{os.getpid()}-{threading.get_ident()}.claim"
            )
            try:
                os.rename(path, claimed)
            except OSError:
                continue  # another scraper owns this file
            try:
                with open(claimed, "rb") as handle:
                    state = pickle.load(handle)
                registry.merge_state(state)
            except Exception:  # noqa: BLE001 — a torn/stale file must not 500 /metrics
                pass
            try:
                claimed.unlink()
            except OSError:
                pass


def execute_attempt(
    store: JobStore,
    data_dir,
    record: JobRecord,
    token: str,
    lease_seconds: float,
    plan: Optional[FaultPlan] = None,
    parent_pid: Optional[int] = None,
) -> str:
    """Run one claimed attempt end to end; returns its outcome.

    Outcomes: ``succeeded``, ``failed``, ``cancelled``, ``requeued``
    (retryable failure, will run again), ``poisoned`` (retry budget
    exhausted), ``lease-lost`` (the token-fenced finish lost to a newer
    attempt).  A lapsed lease noticed by the heartbeat, and a deadline
    noticed by the watchdog, end the *process* instead of returning.
    """
    plan = FaultPlan.from_env() if plan is None else plan
    job_id = record.id
    attempt = record.attempts
    retry = record.spec.retry or {}
    job_timeout = retry.get("job_timeout_seconds")
    stage_timeout = retry.get("stage_timeout_seconds")

    stop_ticker = threading.Event()
    watch = {
        "stage": None,
        "stage_deadline": None,
        "job_deadline": (
            time.monotonic() + job_timeout if job_timeout else None
        ),
    }

    def _die(exit_code: int, event_type: str, payload: Dict[str, Any]) -> None:
        try:
            store.append_event(job_id, event_type, payload)
        except Exception:  # noqa: BLE001 — dying anyway
            pass
        os._exit(exit_code)

    def _heartbeat_loop() -> None:
        interval = max(0.05, lease_seconds / 3.0)
        while not stop_ticker.wait(interval):
            if parent_pid is not None and os.getppid() != parent_pid:
                os._exit(EXIT_ORPHANED)
            if plan.stall_heartbeat(attempt):
                continue
            try:
                renewed = store.heartbeat(job_id, token, lease_seconds)
            except Exception:  # noqa: BLE001 — transient store errors: retry next tick
                continue
            if not renewed:
                _die(
                    EXIT_LEASE_LOST,
                    "lease-lost",
                    {"worker": record.worker, "attempt": attempt},
                )

    def _watchdog_loop() -> None:
        while not stop_ticker.wait(0.05):
            now = time.monotonic()
            deadline = watch["stage_deadline"]
            if deadline is not None and now > deadline:
                _on_timeout(
                    "stage",
                    f"stage {watch['stage']!r} exceeded its "
                    f"{stage_timeout}s timeout",
                    EXIT_STAGE_TIMEOUT,
                )
            deadline = watch["job_deadline"]
            if deadline is not None and now > deadline:
                _on_timeout(
                    "job",
                    f"job exceeded its {job_timeout}s timeout",
                    EXIT_JOB_TIMEOUT,
                )

    def _on_timeout(scope: str, error: str, exit_code: int) -> None:
        # Record the failure (with retry accounting) *before* killing
        # the process — the supervisor then only has to respawn.
        try:
            store.append_event(
                job_id, "timeout", {"scope": scope, "attempt": attempt, "error": error}
            )
        except Exception:  # noqa: BLE001
            pass
        try:
            store.fail_attempt(job_id, token, error)
        except Exception:  # noqa: BLE001
            pass
        os._exit(exit_code)

    def on_event(event: WorkflowEvent) -> None:
        kind, stage = event.kind, event.stage
        if kind == "progress":
            return
        where = {"stage": stage.name, "index": event.index, "total": event.total}
        if kind == "stage-start":
            # The cooperative cancellation point: checked once per stage,
            # so a cancel lands between stages, never inside one.
            if store.cancel_requested(job_id):
                raise _JobCancelled()
            watch["stage"] = stage.name
            if stage_timeout:
                watch["stage_deadline"] = time.monotonic() + stage_timeout
            store.append_event(job_id, kind, {**where, "attempt": attempt})
            plan.on_stage_start(stage.name, event.index, attempt)
        elif kind == "stage-end":
            watch["stage_deadline"] = None
            store.append_event(job_id, kind, {**where, "seconds": round(event.seconds, 6)})
        elif kind == "stage-skipped":
            watch["stage_deadline"] = None
            store.append_event(job_id, kind, where)
        elif kind == "checkpoint":
            store.append_event(
                job_id, kind, {"stage": stage.name, "path": str(event.path)}
            )
            plan.on_checkpoint(event.path, stage.name, attempt)

    ticker = threading.Thread(
        target=_heartbeat_loop, name=f"repro-heartbeat-{job_id[:8]}", daemon=True
    )
    ticker.start()
    watchdog = None
    if job_timeout or stage_timeout:
        watchdog = threading.Thread(
            target=_watchdog_loop, name=f"repro-watchdog-{job_id[:8]}", daemon=True
        )
        watchdog.start()

    # The whole run directory — contigs and metrics, and the trace and
    # timeline every outcome gets — is staged per attempt and published
    # only when this attempt's terminal or requeue write committed: a
    # fenced zombie whose lease lapsed since its last heartbeat must not
    # overwrite any file of the attempt that now owns the job.
    result_dir = job_dir(data_dir, job_id)
    staging = result_dir / (
        f".staging-attempt{attempt:03d}-{os.getpid()}-{threading.get_ident()}"
    )
    outcome = "lease-lost"
    try:
        try:
            run_job(
                record.spec,
                staging,
                checkpoint_dir=checkpoint_dir(data_dir, job_id),
                resume=True,
                subscriber=on_event,
                job_id=job_id,
            )
            if store.finish_attempt(
                job_id, token, STATE_SUCCEEDED, result_dir=str(result_dir)
            ):
                outcome = "succeeded"
        except _JobCancelled:
            if _finish_quietly(store.finish_attempt, job_id, token, STATE_CANCELLED):
                outcome = "cancelled"
        except ReproError as exc:
            # Permanent by definition: the spec cannot materialise, the
            # config is invalid, an input file is gone.  A retry would
            # fail identically; fail the job outright.
            if _finish_quietly(
                store.finish_attempt, job_id, token, STATE_FAILED, str(exc)
            ):
                outcome = "failed"
        except Exception as exc:  # noqa: BLE001 — a worker must survive any job
            _finish_quietly(
                store.append_event,
                job_id,
                "error-detail",
                {"traceback": traceback.format_exc(limit=20)},
            )
            recorded = _finish_quietly(
                store.fail_attempt,
                job_id,
                token,
                f"{type(exc).__name__}: {exc}",
            )
            outcome = recorded or "lease-lost"
    finally:
        stop_ticker.set()
    if outcome == "lease-lost":
        shutil.rmtree(staging, ignore_errors=True)
    else:
        _publish_artifacts(staging, result_dir)
    if outcome in ("succeeded", "failed", "cancelled"):
        get_registry().counter(
            "repro_jobs_completed_total",
            "Jobs finished by the worker pool, by terminal state.",
            labelnames=("state",),
        ).labels(outcome).inc()
    return outcome


def _finish_quietly(operation, *args) -> Any:
    """Run a terminal store write, swallowing shutdown-time failures.

    A non-waiting service shutdown can close resources while a worker
    is still finishing its job; the worker's last store writes must not
    take it down with an unhandled exception.
    """
    try:
        return operation(*args)
    except Exception:  # noqa: BLE001 — best-effort by design
        return None


def _publish_artifacts(staging: Path, directory: Path) -> None:
    """Atomically move each staged artifact into the job directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for path in staging.iterdir():
        os.replace(path, directory / path.name)
    try:
        staging.rmdir()
    except OSError:
        pass


# ----------------------------------------------------------------------
# worker process entry point
# ----------------------------------------------------------------------
def worker_main(
    store_path: str,
    data_dir: str,
    worker_name: str,
    stop_event,
    options: Dict[str, Any],
) -> None:
    """Run a persistent claim loop in a spawned worker process.

    The child owns everything it needs: its own SQLite connection
    (SQLite coordinates cross-process via the file), its own metrics
    registry (spooled home through :class:`MetricsSpool`; each run
    scopes its own tracer), and its own fault plan re-read from the
    inherited environment.  Its
    identity — ``worker-N@pid`` — is what it writes into each claim's
    ``worker`` column, which is what lets the supervisor reclaim
    exactly this incarnation's jobs the moment it dies.
    """
    # Ctrl-C goes to the foreground process group; the *service*
    # decides how to drain — a child interrupting mid-write would turn
    # every interactive shutdown into a fault-injection run.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_registry(MetricsRegistry())
    plan = FaultPlan.from_env()
    lease_seconds = float(options.get("lease_seconds", 15.0))
    poll_interval = float(options.get("poll_interval", 0.2))
    store = JobStore(
        store_path,
        max_attempts=int(options.get("max_attempts", 3)),
        lease_seconds=lease_seconds,
        backoff_seconds=float(options.get("backoff_seconds", 1.0)),
        backoff_cap_seconds=float(options.get("backoff_cap_seconds", 30.0)),
    )
    spool = MetricsSpool(data_dir)
    parent_pid = os.getppid()
    incarnation = f"{worker_name}@{os.getpid()}"
    try:
        while not stop_event.is_set():
            if os.getppid() != parent_pid:
                os._exit(EXIT_ORPHANED)
            try:
                record = store.claim_next(incarnation, lease_seconds=lease_seconds)
            except Exception:  # noqa: BLE001 — e.g. transient lock contention
                time.sleep(poll_interval)
                continue
            if record is None:
                stop_event.wait(poll_interval)
                continue
            # Ship the claim-latency observation home immediately: the
            # service's /metrics must show it while the job still runs.
            spool.push(get_registry())
            execute_attempt(
                store,
                data_dir,
                record,
                token=record.lease_token or "",
                lease_seconds=lease_seconds,
                plan=plan,
                parent_pid=parent_pid,
            )
            spool.push(get_registry())
    finally:
        spool.push(get_registry())
        store.close()
