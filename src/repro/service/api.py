"""REST API for the assembly job service (stdlib ``http.server``).

A deliberately small, JSON-over-HTTP surface — every route maps 1:1 to
a :class:`~repro.service.store.JobStore` or filesystem operation, and
the handler holds no state of its own, so the threaded server needs no
locking beyond the store's.

==========  =============================  =======================================
Method      Path                           Meaning
==========  =============================  =======================================
GET         ``/healthz``                   liveness + job counts
POST        ``/jobs``                      submit a job spec (idempotency-key aware)
GET         ``/jobs``                      list jobs (``?state=``, ``?limit=``)
GET         ``/jobs/<id>``                 job status + stage progress
GET         ``/jobs/<id>/events``          append-only event log (``?after=<seq>``)
POST        ``/jobs/<id>/cancel``          cancel (cooperative for running jobs)
GET         ``/jobs/<id>/result``          quality metrics JSON (succeeded only)
GET         ``/jobs/<id>/contigs.fasta``   contig FASTA artifact
GET         ``/jobs/<id>/scaffolds.fasta`` scaffold FASTA artifact
GET         ``/jobs/<id>/trace``           finished job's span tree (JSON)
GET         ``/jobs/<id>/timeline``        finished job's run timeline (JSON)
GET         ``/jobs/<id>/report``          self-contained HTML ops report
GET         ``/metrics``                   Prometheus text-format metrics
GET         ``/dashboard``                 HTML service overview (queue + jobs)
==========  =============================  =======================================

Error contract: unknown jobs are 404, malformed requests 400, wrong-state
requests (e.g. the result of a job that has not succeeded) 409 — each
with a JSON body ``{"error": ...}``.
"""

from __future__ import annotations

import json
import re
import sqlite3
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import (
    InvalidJobSpecError,
    JobNotFoundError,
    JobStateError,
    ServiceError,
)
from .store import JOB_STATES, JobEvent

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[0-9a-f]{32})(?P<rest>/.*)?$")

#: Literal routes, for bounded-cardinality HTTP metric labels.
_KNOWN_PATHS = ("/healthz", "/jobs", "/metrics", "/dashboard")

#: Prometheus text exposition format content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Maximum accepted request body (inline-read submissions are the
#: biggest legitimate payload; 64 MiB of reads is far beyond anything
#: the scaled datasets produce).
MAX_BODY_BYTES = 64 * 1024 * 1024


def job_progress(events: List[JobEvent]) -> Dict[str, Any]:
    """Stage progress of the job's *latest* attempt, from its event log.

    Counts stage completions after the most recent ``started`` event,
    so a crash-recovered job reports the resumed attempt's progress
    (skipped-on-resume stages count as completed — they are).
    Completion is tracked per schedule *index*, not per event, so a
    log holding more than one ``stage-end`` for an index (job stores
    written while the scaffolding stage still nested an inner stage
    under its own index) cannot overshoot ``total_stages``.
    """
    completed: set = set()
    total: Optional[int] = None
    current: Optional[str] = None
    for event in events:
        if event.type == "started":
            completed, total, current = set(), None, None
        elif event.type in ("stage-end", "stage-skipped"):
            completed.add(event.payload.get("index"))
            total = event.payload.get("total", total)
            current = None
        elif event.type == "stage-start":
            total = event.payload.get("total", total)
            current = event.payload.get("stage")
        elif event.type in (
            "succeeded",
            "failed",
            "cancelled",
            "poisoned",
            "recovered",
            "retry-scheduled",
            "timeout",
            "lease-lost",
        ):
            # Terminal (or back-to-queued) events: nothing is running,
            # even when the last stage never reached its stage-end.
            current = None
    return {
        "completed_stages": len(completed),
        "total_stages": total,
        "current_stage": current,
    }


class _ApiServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, service) -> None:
        self.service = service
        super().__init__(address, handler)


class ApiHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`AssemblyService`."""

    server: _ApiServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        # Route through the service's logger instead of stderr noise.
        self.server.service.logger.debug(
            "%s - %s", self.address_string(), format % args
        )

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n"
        self._response_status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str = "text/plain") -> None:
        body = text.encode("utf-8")
        self._response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Any:
        """Drain and decode the request body.

        Always called for POST requests (even routes that ignore the
        body): with HTTP/1.1 keep-alive, unread body bytes would be
        parsed as the *next* request line on the same connection.  When
        the body cannot be drained (oversized), the connection is
        flagged for close instead.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # unread bytes poison keep-alive
            raise InvalidJobSpecError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidJobSpecError(f"request body is not valid JSON: {exc}") from exc

    def _route(self) -> Tuple[str, Dict[str, List[str]], Optional[str], str]:
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        match = _JOB_PATH.match(parsed.path)
        if match:
            return parsed.path, query, match.group("id"), match.group("rest") or ""
        return parsed.path, query, None, ""

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    #: Known job sub-routes, for bounded-cardinality metric labels.
    _JOB_RESTS = (
        "", "/events", "/cancel", "/result",
        "/contigs.fasta", "/scaffolds.fasta", "/trace",
        "/timeline", "/report",
    )

    @classmethod
    def _route_label(cls, path: str, job_id: Optional[str], rest: str) -> str:
        """Collapse a request path to a bounded route template.

        Metric labels must not grow with traffic: job ids become
        ``<id>`` and unknown paths (scanners, typos) all share one
        ``<other>`` series.
        """
        if job_id is not None:
            return "/jobs/<id>" + (rest if rest in cls._JOB_RESTS else "<other>")
        return path if path in _KNOWN_PATHS else "<other>"

    def _record_http_metrics(
        self, service, verb: str, route: str, started: float
    ) -> None:
        registry = getattr(service, "registry", None)
        if registry is None:
            return
        registry.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency, by method and route.",
            labelnames=("method", "route"),
        ).labels(verb, route).observe(time.perf_counter() - started)
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by method, route and status code.",
            labelnames=("method", "route", "status"),
        ).labels(verb, route, self._response_status).inc()

    def _dispatch(self, verb: str) -> None:
        service = self.server.service
        started = time.perf_counter()
        path, query, job_id, rest = self._route()
        route = self._route_label(path, job_id, rest)
        self._response_status = 0
        try:
            self._handle(service, verb, path, query, job_id, rest)
        finally:
            self._record_http_metrics(service, verb, route, started)

    def _handle(
        self,
        service,
        verb: str,
        path: str,
        query: Dict[str, List[str]],
        job_id: Optional[str],
        rest: str,
    ) -> None:
        try:
            # Drain the body first on every POST, body-carrying route or
            # not — see _read_body on keep-alive correctness.
            body = self._read_body() if verb == "POST" else None
            if verb == "GET" and path == "/metrics":
                self._send_text(
                    200, service.metrics_text(), content_type=PROMETHEUS_CONTENT_TYPE
                )
            elif verb == "GET" and path == "/healthz":
                self._send_json(200, service.health())
            elif verb == "GET" and path == "/dashboard":
                self._send_text(
                    200, service.dashboard_html(),
                    content_type="text/html; charset=utf-8",
                )
            elif verb == "POST" and path == "/jobs":
                record, created = service.submit_payload(body)
                self._send_json(
                    201 if created else 200,
                    {"job": record.to_dict(), "created": created},
                )
            elif verb == "GET" and path == "/jobs":
                state = (query.get("state") or [None])[0]
                if state is not None and state not in JOB_STATES:
                    # A typo'd filter is a malformed request (400), not
                    # a job-state conflict (409, which list_jobs raises).
                    raise ValueError(
                        f"unknown state filter {state!r}; "
                        f"states: {', '.join(JOB_STATES)}"
                    )
                limit = int((query.get("limit") or ["100"])[0])
                jobs = service.store.list_jobs(state=state, limit=limit)
                self._send_json(200, {"jobs": [job.to_dict() for job in jobs]})
            elif job_id is not None:
                self._dispatch_job(verb, job_id, rest, query)
            else:
                self._error(404, f"no route for {verb} {path}")
        except JobNotFoundError as exc:
            self._error(404, str(exc))
        except (InvalidJobSpecError, ValueError) as exc:
            self._error(400, str(exc))
        except JobStateError as exc:
            self._error(409, str(exc))
        except ServiceError as exc:
            self._error(500, str(exc))
        except sqlite3.ProgrammingError as exc:  # pragma: no cover - shutdown race
            # A request thread can still be in flight while stop()
            # closes the store; answer 503 instead of dumping a
            # traceback and resetting the connection.
            self.close_connection = True
            self._error(503, f"service is shutting down: {exc}")
        except sqlite3.Error as exc:  # pragma: no cover - defensive
            self._error(500, f"database error: {exc}")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # the client went away; nothing to answer

    def _dispatch_job(
        self, verb: str, job_id: str, rest: str, query: Dict[str, List[str]]
    ) -> None:
        service = self.server.service
        store = service.store
        if verb == "GET" and rest == "":
            record = store.get(job_id)
            payload = {"job": record.to_dict()}
            # Replaying the log per poll is fine: a job's event count is
            # bounded by ~3 events per workflow stage, not by runtime.
            payload["progress"] = job_progress(store.events(job_id))
            self._send_json(200, payload)
        elif verb == "GET" and rest == "/events":
            after = int((query.get("after") or ["0"])[0])
            events = store.events(job_id, after=after)
            self._send_json(200, {"events": [event.to_dict() for event in events]})
        elif verb == "POST" and rest == "/cancel":
            record = store.request_cancel(job_id)
            self._send_json(200, {"job": record.to_dict()})
        elif verb == "GET" and rest == "/result":
            self._send_json(200, service.result_payload(job_id))
        elif verb == "GET" and rest == "/trace":
            self._send_json(200, service.trace_payload(job_id))
        elif verb == "GET" and rest == "/timeline":
            self._send_json(200, service.timeline_payload(job_id))
        elif verb == "GET" and rest == "/report":
            self._send_text(
                200, service.report_html(job_id),
                content_type="text/html; charset=utf-8",
            )
        elif verb == "GET" and rest in ("/contigs.fasta", "/scaffolds.fasta"):
            self._send_text(200, service.artifact_text(job_id, rest.lstrip("/")))
        else:
            self._error(404, f"no route for {verb} /jobs/<id>{rest}")


def make_server(service, host: str, port: int) -> _ApiServer:
    """Bind the threaded API server (``port=0`` picks a free port)."""
    return _ApiServer((host, port), ApiHandler, service)
