"""Job-service throughput benchmark: jobs/sec and queue latency.

Runs the durable assembly job service in-process (store + bounded
worker pool, the same execution path the REST API drives) and pushes a
burst of identical small assembly jobs through it at several worker
counts.  Two serving numbers come out per count:

* **jobs/sec** — burst size / wall-clock from first submission to last
  terminal state;
* **queue latency** — how long a job waited for a worker slot, read
  from the ``claim_latency_seconds`` field of each job's durable
  ``started`` event.  The store stamps that with a **monotonic** clock
  captured at enqueue time, so the number is immune to wall-clock
  steps/NTP slew; the wall-clock ``started_at - created_at`` difference
  is only the fallback for jobs predating the field.

The run also re-asserts the scheduler's bounding invariant (never more
than ``num_workers`` concurrently running jobs) from the recorded
start/finish timestamps, measures **worker-kill recovery latency**
(SIGKILL a worker process mid-job; how long until the supervisor has
the job re-claimed, and until it succeeds), and writes
``BENCH_service.json`` via the shared :mod:`repro.bench.schema`
envelope so CI can track the serving numbers over time.

Reading the numbers: the pool runs the default **process plane**, so
these CPU-bound jobs scale with cores — jobs/sec should rise
monotonically from 1 to 4 workers on a ≥4-core machine (asserted when
the machine qualifies; a 1-core CI box can only document flatness).
Queue latency (time to a worker slot) improves with pool width on any
machine, which is what the unconditional assertion pins.

Output location: the repository root by default, overridable with
``REPRO_BENCH_OUTPUT_DIR``.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from pathlib import Path

from repro.bench import bench_report, bench_scale, format_table
from repro.service import AssemblyService, JobSpec

#: Worker counts to serve the burst with (the acceptance criterion
#: needs at least two).
WORKER_COUNTS = (1, 2, 4)

#: Jobs per burst.  Deliberately larger than every worker count so the
#: queue is always contended.
BURST_SIZE = 8

GENOME_LENGTH = 2_000
K = 15

#: Genome for the worker-kill scenario: big enough that the job is
#: reliably mid-run when the SIGKILL lands.
RECOVERY_GENOME_LENGTH = 8_000


def _burst_specs():
    return [
        JobSpec(
            input={
                "mode": "simulate",
                "genome_length": GENOME_LENGTH,
                "seed": seed,
            },
            config={"k": K, "num_workers": 2},
        )
        for seed in range(BURST_SIZE)
    ]


def _wait_all(service, job_ids, timeout=600.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        records = [service.store.get(job_id) for job_id in job_ids]
        if all(record.is_terminal for record in records):
            return records
        time.sleep(0.02)
    raise AssertionError("burst did not finish in time")


def _claim_latency(store, record) -> float:
    """The job's queue wait, from its durable ``started`` event.

    Prefers the ``claim_latency_seconds`` of the last ``started`` event
    (the final attempt), which the store derives from the row's
    wall-clock ``created_at`` — or ``next_attempt_at`` for a retry —
    so every claiming process measures it the same way; falls back to
    the row's timestamp difference for records without one.
    """
    latency = None
    for event in store.events(record.id):
        if event.type == "started":
            latency = event.payload.get("claim_latency_seconds", latency)
    if latency is not None:
        return float(latency)
    return max(0.0, record.started_at - record.created_at)


def _max_overlap(records) -> int:
    boundaries = []
    for record in records:
        boundaries.append((record.started_at, 1))
        boundaries.append((record.finished_at, -1))
    overlap = peak = 0
    for _, delta in sorted(boundaries):
        overlap += delta
        peak = max(peak, overlap)
    return peak


def _serve_burst(num_workers: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-service-") as data_dir:
        service = AssemblyService(
            data_dir, num_workers=num_workers, port=0, poll_interval=0.02
        )
        with service:
            started = time.perf_counter()
            job_ids = [service.submit(spec).id for spec in _burst_specs()]
            records = _wait_all(service, job_ids)
            elapsed = time.perf_counter() - started
            latencies = [
                _claim_latency(service.store, record) for record in records
            ]

    assert all(record.state == "succeeded" for record in records)
    peak = _max_overlap(records)
    assert peak <= num_workers, (
        f"{peak} jobs ran concurrently with only {num_workers} workers"
    )
    return {
        "jobs": len(records),
        "elapsed_seconds": round(elapsed, 6),
        "jobs_per_second": round(len(records) / elapsed, 3),
        "queue_latency_mean_seconds": round(sum(latencies) / len(latencies), 6),
        "queue_latency_max_seconds": round(max(latencies), 6),
        "max_concurrent": peak,
    }


def _kill_recovery() -> dict:
    """SIGKILL a worker process mid-job; time the recovery.

    Two numbers: ``reclaim_seconds`` (kill → the job's next ``started``
    event, i.e. supervisor noticed the death, reclaimed the lease, a
    respawned worker re-claimed) and ``recovered_seconds`` (kill → the
    job terminal-succeeded, resuming from its surviving checkpoints).
    """
    with tempfile.TemporaryDirectory(prefix="bench-service-") as data_dir:
        service = AssemblyService(
            data_dir, num_workers=1, port=0, poll_interval=0.02,
            reap_interval=0.1,
        )
        with service:
            record = service.submit(
                JobSpec(
                    input={
                        "mode": "simulate",
                        "genome_length": RECOVERY_GENOME_LENGTH,
                        "seed": 1,
                    },
                    config={"k": K, "num_workers": 2},
                    retry={"backoff_seconds": 0.05},
                )
            )
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                events = service.store.events(record.id)
                if any(event.type == "checkpoint" for event in events):
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("recovery job never checkpointed")
            pids = service.pool.worker_pids()
            assert pids, "no worker process to kill"
            killed_at = time.monotonic()
            os.kill(pids[0], signal.SIGKILL)

            reclaim_seconds = None
            while time.monotonic() < deadline:
                events = service.store.events(record.id)
                starts = [event for event in events if event.type == "started"]
                if reclaim_seconds is None and len(starts) >= 2:
                    reclaim_seconds = time.monotonic() - killed_at
                current = service.store.get(record.id)
                if current.is_terminal:
                    break
                time.sleep(0.01)
            recovered_seconds = time.monotonic() - killed_at
            final = service.store.get(record.id)

    assert final.state == "succeeded", f"recovery job ended {final.state}"
    assert final.attempts >= 2
    assert reclaim_seconds is not None, "job was never re-claimed"
    return {
        "genome_length": RECOVERY_GENOME_LENGTH,
        "attempts": final.attempts,
        "reclaim_seconds": round(reclaim_seconds, 6),
        "recovered_seconds": round(recovered_seconds, 6),
    }


def _bench_all():
    return {
        "worker_counts": {
            workers: _serve_burst(workers) for workers in WORKER_COUNTS
        },
        "worker_kill_recovery": _kill_recovery(),
    }


def _output_path() -> Path:
    override = os.environ.get("REPRO_BENCH_OUTPUT_DIR")
    root = Path(override) if override else Path(__file__).resolve().parents[1]
    root.mkdir(parents=True, exist_ok=True)
    return root / "BENCH_service.json"


def test_service_throughput(benchmark):
    results = benchmark.pedantic(_bench_all, rounds=1, iterations=1)
    by_workers = results["worker_counts"]
    recovery = results["worker_kill_recovery"]

    report = bench_report(
        benchmark="service_throughput",
        dataset=f"simulate-{GENOME_LENGTH}bp",
        scale=bench_scale(1.0),
        k=K,
        burst_size=BURST_SIZE,
        cpu_count=os.cpu_count(),
        worker_counts={str(workers): row for workers, row in by_workers.items()},
        worker_kill_recovery=recovery,
    )
    output = _output_path()
    output.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(
        f"Service throughput: burst of {BURST_SIZE} jobs "
        f"({GENOME_LENGTH} bp simulated genomes, k={K}, process workers, "
        f"{os.cpu_count()} cpu(s))"
    )
    print(
        format_table(
            ["workers", "jobs/s", "elapsed s", "queue mean s", "queue max s", "peak running"],
            [
                [
                    workers,
                    f"{row['jobs_per_second']:.2f}",
                    f"{row['elapsed_seconds']:.2f}",
                    f"{row['queue_latency_mean_seconds']:.3f}",
                    f"{row['queue_latency_max_seconds']:.3f}",
                    row["max_concurrent"],
                ]
                for workers, row in by_workers.items()
            ],
        )
    )
    print(
        f"worker-kill recovery ({recovery['genome_length']} bp job, "
        f"SIGKILL mid-run): re-claimed in {recovery['reclaim_seconds']:.2f}s, "
        f"succeeded {recovery['recovered_seconds']:.2f}s after the kill "
        f"({recovery['attempts']} attempts)"
    )
    print(f"wrote {output}")

    # More workers must shorten the wait for a slot, on any machine.
    single = by_workers[WORKER_COUNTS[0]]["queue_latency_max_seconds"]
    widest = by_workers[WORKER_COUNTS[-1]]["queue_latency_max_seconds"]
    assert widest <= single, (
        f"max queue latency did not improve with more workers: "
        f"{widest}s at {WORKER_COUNTS[-1]} workers vs {single}s at "
        f"{WORKER_COUNTS[0]}"
    )

    # With process workers the compute itself parallelises — but only
    # where there are cores to run on.  Assert monotonic jobs/sec up to
    # 4 workers when the machine has at least 4 cores; a 1-core box
    # records honest flatness instead of a vacuously red assertion.
    if os.cpu_count() and os.cpu_count() >= WORKER_COUNTS[-1]:
        rates = [by_workers[w]["jobs_per_second"] for w in WORKER_COUNTS]
        assert rates == sorted(rates), (
            f"jobs/sec not monotonic across {WORKER_COUNTS} process "
            f"workers on a {os.cpu_count()}-core machine: {rates}"
        )
