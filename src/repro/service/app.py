"""The assembled service: store + worker pool + REST API in one object.

:class:`AssemblyService` is what ``repro-assemble serve`` runs and what
tests/benchmarks embed in-process.  Its start-up order is the crash
-recovery contract:

1. open (or create) the SQLite store under ``data_dir``;
2. :meth:`~repro.service.store.JobStore.reap_expired` with
   ``reason="service-restart"`` — every job a dead process left
   ``running`` (its lease lapsed) goes back to ``queued``, or is
   poisoned at its attempt limit; a live sibling replica's jobs keep
   their current leases;
3. start the worker pool — recovered jobs are claimed like any other
   and, because every run resumes from the job's surviving checkpoint
   directory, continue from their last completed stage bit-identically;
4. bind the HTTP API.

So a ``kill -9`` at any point costs at most the stage that was in
flight; everything completed is never recomputed and never changes.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..errors import InvalidJobSpecError, JobStateError
from ..telemetry import (
    MetricsRegistry,
    Tracer,
    load_run_artifacts,
    read_timeline,
    render_dashboard,
    render_prometheus,
    render_report,
    set_registry,
    set_tracer,
)
from ..telemetry.report import METRICS_FILE, TIMELINE_FILE, TRACE_FILE
from .api import make_server
from .scheduler import ProcessWorkerPool
from .spec import JobSpec
from .store import (
    DEFAULT_MAX_ATTEMPTS,
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_SUCCEEDED,
    JobRecord,
    JobStore,
)


class AssemblyService:
    """A durable, multi-tenant assembly job service."""

    def __init__(
        self,
        data_dir,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 8642,
        poll_interval: float = 0.2,
        lease_seconds: Optional[float] = None,
        reap_interval: float = 1.0,
        drain_timeout: float = 30.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.logger = logging.getLogger("repro.service")
        store_kwargs = {"max_attempts": max_attempts}
        if lease_seconds is not None:
            store_kwargs["lease_seconds"] = lease_seconds
        self.store = JobStore(self.data_dir / "jobs.sqlite3", **store_kwargs)
        self.pool = ProcessWorkerPool(
            self.store, self.data_dir, num_workers=num_workers,
            poll_interval=poll_interval, reap_interval=reap_interval,
            drain_timeout=drain_timeout,
        )
        #: Whether the last stop() shut everything down without
        #: escalation (HTTP thread joined, workers drained).
        self.stopped_cleanly: Optional[bool] = None
        self.host = host
        self.port = port
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        # The service always runs with real telemetry — /metrics and
        # /jobs/<id>/trace are part of its API.  The instances are
        # installed process-wide in start() so the runtime/workflow hot
        # paths (which call get_registry()/get_tracer()) feed them, and
        # restored in stop() so embedding a service in tests or
        # notebooks leaves the process as it found it.
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self._previous_registry = None
        self._previous_tracer = None
        self._register_service_metrics()

    def _register_service_metrics(self) -> None:
        counts = self.store.counts
        self.registry.gauge(
            "repro_jobs_queued",
            "Jobs currently waiting in the queue (sampled at scrape time).",
            callback=lambda: counts()[STATE_QUEUED],
        )
        self.registry.gauge(
            "repro_jobs_running",
            "Jobs currently executing (sampled at scrape time).",
            callback=lambda: counts()[STATE_RUNNING],
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover interrupted jobs, start workers, bind the API."""
        self._previous_registry = set_registry(self.registry)
        self._previous_tracer = set_tracer(self.tracer)
        for reclaim in self.store.reap_expired(reason="service-restart"):
            record = reclaim.record
            if record.state == STATE_QUEUED:
                self.logger.info(
                    "re-enqueued interrupted job %s (attempt %d, will resume "
                    "from its checkpoints)", record.id, record.attempts,
                )
            else:
                self.logger.warning(
                    "interrupted job %s is %s after %d attempts",
                    record.id, record.state, record.attempts,
                )
        self.pool.start()
        self._server = make_server(self, self.host, self.port)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._server_thread.start()
        self.logger.info(
            "assembly service listening on %s (data dir %s, %d workers)",
            self.base_url, self.data_dir, self.pool.num_workers,
        )

    def stop(self, wait: bool = True) -> bool:
        """Shut down; returns True when everything stopped cleanly.

        The verdict (also kept in :attr:`stopped_cleanly`) covers the
        HTTP thread actually joining and the worker pool draining
        without escalation — False means at least one worker had to be
        terminated or killed (its job was reclaimed and will be
        retried).
        """
        clean = True
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5)
            if self._server_thread.is_alive():
                # A request handler is wedged mid-response.  The thread
                # is daemonic so process exit is not blocked, but the
                # operator deserves to know the shutdown was not clean.
                self.logger.warning(
                    "HTTP server thread did not exit within 5s; "
                    "a request handler may be hung"
                )
                clean = False
            self._server_thread = None
        if not self.pool.stop(wait=wait):
            clean = False
        set_registry(self._previous_registry)
        set_tracer(self._previous_tracer)
        # With wait=False, workers may still be mid-job; the store must
        # stay open so their final writes land on a live connection
        # rather than crashing on a closed one (the process is exiting
        # anyway, and SQLite recovers the file on reopen).
        if wait:
            self.store.close()
        self.stopped_cleanly = clean
        return clean

    def __enter__(self) -> "AssemblyService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # submission (programmatic and HTTP)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> JobRecord:
        return self.store.submit(
            spec, priority=priority, idempotency_key=idempotency_key
        )

    def submit_payload(self, body: Any) -> Tuple[JobRecord, bool]:
        """Handle a POST /jobs body; returns ``(record, created)``.

        The body is either a bare spec object or an envelope
        ``{"spec": ..., "priority": ..., "idempotency_key": ...}`` —
        bare specs keep the curl quickstart one level flat.
        """
        if not isinstance(body, dict):
            raise InvalidJobSpecError("request body must be a JSON object")
        if "spec" in body:
            envelope = body
            spec_payload = body["spec"]
        else:
            envelope = {}
            spec_payload = body
        spec = JobSpec.from_dict(spec_payload)
        priority = envelope.get("priority", 0)
        if not isinstance(priority, int):
            raise InvalidJobSpecError(f"priority must be an integer, got {priority!r}")
        idempotency_key = envelope.get("idempotency_key")
        if idempotency_key is not None and not isinstance(idempotency_key, str):
            raise InvalidJobSpecError("idempotency_key must be a string")
        return self.store.submit_detecting(
            spec, priority=priority, idempotency_key=idempotency_key
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _succeeded(self, job_id: str) -> JobRecord:
        record = self.store.get(job_id)
        if record.state != STATE_SUCCEEDED:
            raise JobStateError(
                f"job {job_id} is {record.state}, not succeeded; "
                "results exist only for succeeded jobs"
            )
        return record

    def _artifact_path(self, record: JobRecord, name: str) -> Path:
        """The artifact's path, waiting out the publish window.

        The worker commits ``succeeded`` first and then renames the
        staged artifacts into the job directory (staging is what keeps
        a fenced zombie from clobbering a retry's files), so a tight
        poller can observe the state a moment before the files land —
        give the renames a grace period before declaring them missing.
        """
        path = Path(record.result_dir or "") / name
        # Bounded by the finish timestamp: a job that finished long ago
        # and has no such file (e.g. scaffolds for an unscaffolded run)
        # fails immediately instead of stalling out the grace period.
        deadline = (record.finished_at or 0.0) + 1.0
        while not path.is_file() and time.time() < deadline:
            time.sleep(0.01)
        return path

    def result_payload(self, job_id: str) -> Dict[str, Any]:
        """The job's quality metrics JSON (written by its worker)."""
        record = self._succeeded(job_id)
        path = self._artifact_path(record, METRICS_FILE)
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise JobStateError(
                f"result metadata of job {job_id} is unreadable: {exc}"
            ) from exc

    def artifact_text(self, job_id: str, name: str) -> str:
        """A FASTA artifact of the job's run directory, by file name."""
        record = self._succeeded(job_id)
        path = self._artifact_path(record, name)
        if not path.is_file():
            raise JobStateError(f"job {job_id} produced no {name} artifact")
        return path.read_text()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The service's metrics in Prometheus text exposition format.

        Worker-process metrics arrive through the spool (each child
        drains its registry to disk after claiming and finishing jobs);
        folding them in at scrape time keeps ``/metrics`` one coherent
        registry.
        """
        self.pool.drain_metrics(self.registry)
        return render_prometheus(self.registry)

    def trace_payload(self, job_id: str) -> Dict[str, Any]:
        """The job's persisted span tree (written when the job finishes).

        404 for unknown jobs, 409 while the job has not finished (or
        predates tracing) — the same error contract as ``/result``.
        """
        self.store.get(job_id)  # unknown job -> JobNotFoundError -> 404
        path = self.pool.job_dir(job_id) / TRACE_FILE
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise JobStateError(
                f"job {job_id} has no trace yet; traces are written when "
                f"a job finishes ({exc})"
            ) from exc

    def timeline_payload(self, job_id: str) -> Dict[str, Any]:
        """The job's run timeline (superstep/stage events + samples).

        Same error contract as ``/trace``: 404 for unknown jobs, 409
        while no attempt has finished (the timeline is written with the
        other per-attempt artifacts).
        """
        self.store.get(job_id)  # unknown job -> JobNotFoundError -> 404
        path = self.pool.job_dir(job_id) / TIMELINE_FILE
        try:
            events = read_timeline(path)
        except OSError as exc:
            raise JobStateError(
                f"job {job_id} has no timeline yet; timelines are written "
                f"when an attempt finishes ({exc})"
            ) from exc
        return {"job_id": job_id, "events": events}

    def report_html(self, job_id: str) -> str:
        """The job's self-contained HTML ops report.

        Renders whatever artifacts the job has produced so far (404
        for unknown jobs, 409 before any artifact exists) — a failed
        job still gets a report from its trace and timeline.
        """
        record = self.store.get(job_id)
        artifacts = load_run_artifacts(self.pool.job_dir(job_id))
        if (
            artifacts["trace"] is None
            and not artifacts["timeline"]
            and artifacts["metrics"] is None
        ):
            raise JobStateError(
                f"job {job_id} has no artifacts to report on yet; reports "
                "are available once an attempt finishes"
            )
        return render_report(
            f"job {job_id[:12]} — {record.state}",
            trace=artifacts["trace"],
            timeline=artifacts["timeline"],
            metrics=artifacts["metrics"],
        )

    def dashboard_html(self) -> str:
        """The service overview page (queue health + recent jobs)."""
        jobs = self.store.list_jobs(limit=25)
        return render_dashboard(self.health(), [job.to_dict() for job in jobs])

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "workers": self.pool.num_workers,
            "worker_pids": self.pool.worker_pids(),
            "lease_seconds": self.store.lease_seconds,
            "counts": self.store.counts(),
        }
