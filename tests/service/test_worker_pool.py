"""Worker pool behaviour: bounded concurrency, artifacts, failure paths.

These tests drive the pool through the in-process service (no HTTP) —
the store is the observable surface: states, events and the per-job
timestamps the concurrency assertion is computed from.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.service import JobSpec


def make_spec(genome_length: int = 2_000, seed: int = 1, k: int = 15, **config) -> JobSpec:
    merged = {"k": k, "num_workers": 2}
    merged.update(config)
    return JobSpec(
        input={"mode": "simulate", "genome_length": genome_length, "seed": seed},
        config=merged,
    )


def _wait_terminal(service, job_ids, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        records = [service.store.get(job_id) for job_id in job_ids]
        if all(record.is_terminal for record in records):
            return records
        time.sleep(0.05)
    raise AssertionError(
        f"jobs did not finish within {timeout}s: "
        f"{[(r.id, r.state) for r in records]}"
    )


def test_more_submissions_than_workers_all_complete_with_bounded_overlap(service):
    # N = 6 simultaneous submissions against 2 workers (the acceptance
    # criterion's N > worker-count scenario).
    job_ids = [
        service.submit(make_spec(seed=seed)).id for seed in range(6)
    ]
    records = _wait_terminal(service, job_ids)
    assert all(record.state == "succeeded" for record in records)

    # At most `num_workers` jobs were ever running concurrently: sweep
    # over the recorded start/finish intervals.
    boundaries = []
    for record in records:
        assert record.started_at is not None and record.finished_at is not None
        boundaries.append((record.started_at, 1))
        boundaries.append((record.finished_at, -1))
    overlap = max_overlap = 0
    for _, delta in sorted(boundaries):
        overlap += delta
        max_overlap = max(max_overlap, overlap)
    assert 1 <= max_overlap <= service.pool.num_workers


def test_priorities_order_the_queue(service):
    # Freeze the pool by filling both workers, then submit the
    # contested batch: the high-priority job must start first.
    blockers = [service.submit(make_spec(seed=90 + i)).id for i in range(2)]
    low = service.submit(make_spec(seed=1), priority=0)
    high = service.submit(make_spec(seed=2), priority=10)
    records = _wait_terminal(service, blockers + [low.id, high.id])
    by_id = {record.id: record for record in records}
    assert by_id[high.id].started_at <= by_id[low.id].started_at


def test_successful_job_writes_artifacts(service, tiny_spec):
    record = service.submit(tiny_spec)
    (final,) = _wait_terminal(service, [record.id])
    assert final.state == "succeeded"
    result_dir = Path(final.result_dir)
    contigs = (result_dir / "contigs.fasta").read_text()
    assert contigs.startswith(">contig_0")
    metrics = json.loads((result_dir / "metrics.json").read_text())
    assert metrics["job_id"] == record.id
    assert metrics["contigs"]["count"] >= 1
    assert metrics["contigs"]["n50"] >= 1
    assert "ng50" in metrics["contigs"]  # simulate mode knows the genome size
    assert metrics["stage_seconds"]  # hooks measured every stage
    assert metrics["wall_seconds"] > 0
    # Checkpoints accumulated next to the artifacts (one per stage).
    assert list((result_dir / "checkpoints").glob("checkpoint-*.pkl"))


def test_scaffolded_job_writes_scaffold_artifacts(service):
    spec = JobSpec(
        input={
            "mode": "simulate",
            "genome_length": 6_000,
            "seed": 3,
            "insert_size": 400.0,
        },
        config={"k": 17, "num_workers": 2, "scaffold": True},
    )
    record = service.submit(spec)
    (final,) = _wait_terminal(service, [record.id])
    assert final.state == "succeeded"
    result_dir = Path(final.result_dir)
    assert (result_dir / "scaffolds.fasta").read_text().startswith(">scaffold_0")
    metrics = json.loads((result_dir / "metrics.json").read_text())
    assert metrics["scaffolds"] is not None
    assert metrics["scaffolds"]["count"] >= 1
    # Reported progress must land exactly on the schedule length.
    from repro.service.api import job_progress

    progress = job_progress(service.store.events(record.id))
    assert progress["completed_stages"] == progress["total_stages"]


def test_persistently_failing_job_retries_then_quarantines(service, tmp_path):
    # A missing input file is not a ReproError, so the service treats it
    # as possibly transient (unmounted volume, slow NFS): it burns the
    # full attempt budget with backoff, then quarantines as poisoned
    # instead of crash-looping.
    spec = JobSpec(
        input={"mode": "fastq", "path": str(tmp_path / "missing.fastq")},
        config={"k": 15},
        retry={"max_attempts": 2, "backoff_seconds": 0.05},
    )
    record = service.submit(spec)
    (final,) = _wait_terminal(service, [record.id])
    assert final.state == "poisoned"
    assert final.attempts == 2
    assert "missing.fastq" in final.error
    assert "poisoned after 2 attempts" in final.error
    types = [event.type for event in service.store.events(record.id)]
    assert types[-1] == "poisoned"
    assert "retry-scheduled" in types
    # The retry schedule is auditable: the requeue event records the
    # backoff and when the job became claimable again.
    (retry_event,) = [
        event for event in service.store.events(record.id)
        if event.type == "retry-scheduled"
    ]
    assert retry_event.payload["backoff_seconds"] > 0
    assert retry_event.payload["next_attempt_at"] > 0
    assert retry_event.payload["attempt"] == 1


def test_running_job_cancels_at_the_next_stage_boundary(service):
    # Big enough that the run spans many stage boundaries.
    record = service.submit(make_spec(genome_length=30_000, seed=4, k=17))
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        events = service.store.events(record.id)
        if any(event.type == "stage-end" for event in events):
            break
        time.sleep(0.02)
    else:
        raise AssertionError("job never reached a stage boundary")
    service.store.request_cancel(record.id)
    (final,) = _wait_terminal(service, [record.id])
    assert final.state == "cancelled"
    types = [event.type for event in service.store.events(record.id)]
    assert "cancel-requested" in types
    assert types[-1] == "cancelled"
    # Cooperative means between stages: every started stage finished.
    starts = sum(1 for t in types if t == "stage-start")
    ends = sum(1 for t in types if t == "stage-end")
    assert starts == ends


def test_metrics_spool_concurrent_drains_never_double_merge(tmp_path):
    # The API server is threaded, so two /metrics scrapes can drain the
    # spool at once.  Claim-by-rename means every spooled delta merges
    # into exactly one scraper's registry — the sum over all scrapers
    # must equal what the workers pushed, never more.
    import threading

    from repro.service.worker import MetricsSpool
    from repro.telemetry import MetricsRegistry

    spool = MetricsSpool(tmp_path)
    source = MetricsRegistry()
    for _ in range(20):
        source.counter("spooled_total", "help").inc(5)
        spool.push(source)  # push drains, so each file carries a delta of 5

    registries = [MetricsRegistry() for _ in range(4)]
    barrier = threading.Barrier(len(registries))

    def scrape(registry):
        barrier.wait()
        spool.drain_into(registry)

    threads = [
        threading.Thread(target=scrape, args=(registry,))
        for registry in registries
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = sum(
        registry.counter("spooled_total", "help").read()
        for registry in registries
    )
    assert total == 100
    # Every file was consumed, claim files included.
    assert list(spool.directory.iterdir()) == []


def test_fenced_attempt_does_not_overwrite_the_live_attempts_files(tmp_path):
    # A zombie attempt — its lease reclaimed and the job claimed again
    # under a new token — must publish nothing into the job directory:
    # not contigs, and not its trace or timeline either.
    from repro.service.store import JobStore
    from repro.service.worker import execute_attempt, job_dir
    from repro.telemetry import Tracer, use_tracer

    store = JobStore(
        tmp_path / "jobs.sqlite", backoff_seconds=0.01, backoff_cap_seconds=0.01
    )
    try:
        job = store.submit(make_spec())
        stale = store.claim_next("zombie", lease_seconds=60.0)
        store.reclaim_worker("zombie")
        deadline = time.monotonic() + 10.0
        live = None
        while live is None and time.monotonic() < deadline:
            live = store.claim_next("owner", lease_seconds=60.0)
        assert live is not None and live.lease_token != stale.lease_token

        directory = job_dir(tmp_path, job.id)
        directory.mkdir(parents=True)
        sentinel = directory / "trace.json"
        sentinel.write_text("the live attempt's trace\n")
        # A 60 s lease: no heartbeat fires (and fences the process)
        # before the stale token's finish is refused.
        with use_tracer(Tracer()):
            outcome = execute_attempt(
                store, tmp_path, stale, token=stale.lease_token, lease_seconds=60.0
            )
        assert outcome == "lease-lost"
        assert sentinel.read_text() == "the live attempt's trace\n"
        leftovers = {path.name for path in directory.iterdir()}
        assert leftovers <= {"trace.json", "checkpoints"}, leftovers
        assert store.get(job.id).lease_token == live.lease_token
    finally:
        store.close()
