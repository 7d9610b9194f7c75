"""Service verbs of the ``repro-assemble`` CLI.

``repro-assemble`` stays a one-shot assembler when called with flags,
but its first positional argument may name a service verb::

    repro-assemble serve   --data-dir ./service-data --workers 2
    repro-assemble submit  --simulate 20000 -k 21 --wait
    repro-assemble status  JOB_ID --events
    repro-assemble result  JOB_ID --output contigs.fasta
    repro-assemble cancel  JOB_ID

``serve`` runs the durable job service in the foreground;
the other verbs are HTTP clients against ``--url`` (default
``http://127.0.0.1:8642``, overridable via ``REPRO_SERVICE_URL``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional

from ..cli import add_job_arguments, spec_from_args
from ..errors import ReproError
from .client import ServiceClient
from .spec import JobSpec

SERVICE_VERBS = ("serve", "submit", "status", "result", "cancel", "jobs")

_DEFAULT_URL = "http://127.0.0.1:8642"


def _default_url() -> str:
    return os.environ.get("REPRO_SERVICE_URL", _DEFAULT_URL)


def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-assemble",
        description="Assembly job service verbs (see also the one-shot flags).",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    serve = verbs.add_parser("serve", help="run the durable assembly job service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642, help="TCP port (default 8642; 0 picks a free one)")
    serve.add_argument(
        "--data-dir",
        default="./repro-service-data",
        help="directory for the job database, checkpoints and artifacts "
        "(default ./repro-service-data); reusing it after a crash resumes "
        "interrupted jobs",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="how many assembly jobs may run concurrently (default 2)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="idle worker poll interval in seconds (default 0.2)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        help="job lease duration; a worker that misses heartbeats for this "
        "long loses its job to the reaper (default 15)",
    )
    serve.add_argument(
        "--reap-interval",
        type=float,
        default=1.0,
        help="how often the reaper scans for expired leases (default 1.0)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="graceful-shutdown budget per worker before escalating to "
        "SIGTERM/SIGKILL (default 30)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="default attempt budget per job before quarantine as poisoned "
        "(default 3; jobs may override via their spec)",
    )
    serve.add_argument(
        "--log-level",
        metavar="LEVEL",
        default="info",
        help="root log level (debug/info/warning/error; default info)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines with trace/span correlation ids",
    )

    submit = verbs.add_parser("submit", help="submit an assembly job")
    submit.add_argument("--url", default=None, help=f"service URL (default {_DEFAULT_URL})")
    add_job_arguments(submit, require_input=True)
    submit.add_argument(
        "--inline",
        action="store_true",
        help="read --fastq/--fastq-pair files locally and embed the reads in "
        "the request (no shared filesystem needed)",
    )
    submit.add_argument(
        "--max-attempts", type=int, default=None,
        help="attempt budget for this job before quarantine (overrides the server default)",
    )
    submit.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry the job's attempt after this many seconds",
    )
    submit.add_argument(
        "--stage-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry the attempt when any single stage exceeds this",
    )
    submit.add_argument("--priority", type=int, default=0, help="higher runs first (default 0)")
    submit.add_argument("--idempotency-key", default=None, help="resubmitting with the same key dedups")
    submit.add_argument("--wait", action="store_true", help="poll the job to completion, streaming stage events")
    submit.add_argument("--timeout", type=float, default=None, help="give up --wait after this many seconds")

    status = verbs.add_parser("status", help="show a job's state and stage progress")
    status.add_argument("job_id")
    status.add_argument("--url", default=None)
    status.add_argument("--events", action="store_true", help="also print the job's event log")

    result = verbs.add_parser("result", help="fetch a succeeded job's results")
    result.add_argument("job_id")
    result.add_argument("--url", default=None)
    result.add_argument("--output", metavar="FASTA", help="write the contigs FASTA here")
    result.add_argument("--scaffold-output", metavar="FASTA", help="write the scaffolds FASTA here")
    result.add_argument("--metrics-json", metavar="PATH", help="write the metrics JSON here instead of stdout")

    cancel = verbs.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id")
    cancel.add_argument("--url", default=None)

    jobs = verbs.add_parser("jobs", help="list jobs, optionally filtered by state")
    jobs.add_argument("--url", default=None)
    jobs.add_argument("--state", default=None, help="queued/running/succeeded/failed/cancelled/poisoned")
    jobs.add_argument("--limit", type=int, default=20)

    return parser


# ----------------------------------------------------------------------
# verb implementations
# ----------------------------------------------------------------------
def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url or _default_url())


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..telemetry import configure_logging
    from .app import AssemblyService

    try:
        configure_logging(args.log_level, json_lines=args.log_json)
    except ValueError as exc:
        print(f"repro-assemble serve: {exc}", file=sys.stderr)
        return 2
    kwargs: Dict[str, Any] = {}
    if args.max_attempts is not None:
        kwargs["max_attempts"] = args.max_attempts
    service = AssemblyService(
        data_dir=args.data_dir,
        num_workers=args.workers,
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
        lease_seconds=args.lease_seconds,
        reap_interval=args.reap_interval,
        drain_timeout=args.drain_timeout,
        **kwargs,
    )
    service.start()
    print(
        f"assembly service listening on {service.base_url} "
        f"(data dir {service.data_dir}, {args.workers} workers)",
        flush=True,
    )

    stop = {"flag": False}

    def _handle_signal(signum, frame):  # noqa: ARG001 — signal API
        stop["flag"] = True

    signal.signal(signal.SIGINT, _handle_signal)
    signal.signal(signal.SIGTERM, _handle_signal)
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    finally:
        # Graceful drain: let in-flight attempts finish (bounded by
        # --drain-timeout per worker) so SIGTERM from an orchestrator
        # does not cost a retry.  A second signal is answered by the
        # escalation path inside stop() itself.
        print("draining workers…", flush=True)
        if service.stop(wait=True):
            print("shutdown clean", flush=True)
        else:
            print(
                "shutdown forced: at least one worker was killed; its job "
                "was reclaimed and will be retried on the next start",
                flush=True,
            )
    return 0


def _inline_input(args: argparse.Namespace) -> Dict[str, Any]:
    from ..dna.io_fastq import parse_fastq, parse_paired_fastq

    if args.fastq_pair is not None:
        path1, path2 = args.fastq_pair
        pairs = [
            [pair.read1.name, pair.read1.sequence, pair.read2.name, pair.read2.sequence]
            for pair in parse_paired_fastq(path1, path2)
        ]
        return {"mode": "inline", "pairs": pairs}
    reads = [[read.name, read.sequence] for read in parse_fastq(args.fastq)]
    return {"mode": "inline", "reads": reads}


def _build_spec(args: argparse.Namespace) -> JobSpec:
    if args.inline and args.fastq is None and args.fastq_pair is None:
        raise ReproError("--inline needs --fastq or --fastq-pair")
    # Shared with the one-shot CLI: identical flags make identical specs.
    spec = spec_from_args(args, _inline_input(args) if args.inline else None)
    for key, value in (
        ("max_attempts", args.max_attempts),
        ("job_timeout_seconds", args.job_timeout),
        ("stage_timeout_seconds", args.stage_timeout),
    ):
        if value is not None:
            spec.retry[key] = value
    spec.validate()
    return spec


def _print_event(event: Dict[str, Any]) -> None:
    payload = event.get("payload", {})
    detail = " ".join(f"{key}={value}" for key, value in payload.items())
    print(f"  [{event['seq']:03d}] {event['type']} {detail}".rstrip(), flush=True)


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    client = _client(args)
    job = client.submit(
        spec, priority=args.priority, idempotency_key=args.idempotency_key
    )
    print(f"job {job['id']} {job['state']} (priority {job['priority']})")
    if not args.wait:
        return 0
    status = client.wait(
        job["id"], timeout=args.timeout, on_event=_print_event
    )
    final = status["job"]
    print(f"job {final['id']} {final['state']}")
    if final["state"] in ("failed", "poisoned"):
        print(f"error: {final['error']}", file=sys.stderr)
        return 1
    return 0 if final["state"] == "succeeded" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    status = client.status(args.job_id)
    job, progress = status["job"], status["progress"]
    total = progress["total_stages"] or "?"
    line = (
        f"job {job['id']} {job['state']} "
        f"stages {progress['completed_stages']}/{total}"
    )
    if progress["current_stage"]:
        line += f" (running {progress['current_stage']})"
    if job["error"]:
        line += f" error: {job['error']}"
    print(line)
    if args.events:
        for event in client.events(args.job_id):
            _print_event(event)
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = _client(args)
    metrics = client.result(args.job_id)
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics JSON to {args.metrics_json}")
    else:
        json.dump(metrics, sys.stdout, indent=2, sort_keys=True)
        print()
    if args.output:
        fasta = client.contigs_fasta(args.job_id)
        with open(args.output, "w") as handle:
            handle.write(fasta)
        print(f"wrote contigs to {args.output}")
    if args.scaffold_output:
        fasta = client.scaffolds_fasta(args.job_id)
        with open(args.scaffold_output, "w") as handle:
            handle.write(fasta)
        print(f"wrote scaffolds to {args.scaffold_output}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    job = _client(args).cancel(args.job_id)
    print(f"job {job['id']} {job['state']}"
          + (" (cancel requested)" if job["cancel_requested"] and job["state"] == "running" else ""))
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    jobs = _client(args).list_jobs(state=args.state, limit=args.limit)
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        mode = job["spec"]["input"].get("mode", "?")
        print(
            f"{job['id']}  {job['state']:<9}  priority={job['priority']}"
            f"  input={mode}  attempts={job['attempts']}"
        )
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
    "cancel": _cmd_cancel,
    "jobs": _cmd_jobs,
}


def service_main(argv: Optional[List[str]] = None) -> int:
    parser = build_service_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ReproError as exc:  # includes ServiceClientError
        print(f"repro-assemble {args.verb}: {exc}", file=sys.stderr)
        return 1
