"""JobStore semantics: the durable queue under the service.

Everything here runs against the SQLite store directly — no workers,
no HTTP — so each property (ordering, idempotency, transitions,
events, recovery) is pinned at the layer that owns it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import InvalidJobSpecError, JobNotFoundError, JobStateError
from repro.service import (
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_POISONED,
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_SUCCEEDED,
    JobSpec,
    JobStore,
)


def make_spec(genome_length: int = 2_000, seed: int = 1, k: int = 15, **config) -> JobSpec:
    merged = {"k": k, "num_workers": 2}
    merged.update(config)
    return JobSpec(
        input={"mode": "simulate", "genome_length": genome_length, "seed": seed},
        config=merged,
    )


@pytest.fixture()
def store(tmp_path):
    instance = JobStore(tmp_path / "jobs.sqlite3")
    yield instance
    instance.close()


def test_submit_and_get_roundtrip(store):
    record = store.submit(make_spec(seed=7), priority=3)
    fetched = store.get(record.id)
    assert fetched.state == STATE_QUEUED
    assert fetched.priority == 3
    assert fetched.spec.input["seed"] == 7
    assert fetched.spec.config["k"] == 15
    assert not fetched.is_terminal


def test_get_unknown_job_raises(store):
    with pytest.raises(JobNotFoundError):
        store.get("0" * 32)


def test_claim_order_is_priority_then_fifo(store):
    low = store.submit(make_spec(seed=1), priority=0)
    high = store.submit(make_spec(seed=2), priority=5)
    mid_first = store.submit(make_spec(seed=3), priority=1)
    mid_second = store.submit(make_spec(seed=4), priority=1)

    claimed = [store.claim_next("w").id for _ in range(4)]
    assert claimed == [high.id, mid_first.id, mid_second.id, low.id]
    assert store.claim_next("w") is None


def test_claim_marks_running_and_counts_attempts(store):
    record = store.submit(make_spec())
    claimed = store.claim_next("worker-0")
    assert claimed.id == record.id
    assert claimed.state == STATE_RUNNING
    assert claimed.worker == "worker-0"
    assert claimed.attempts == 1
    assert claimed.started_at is not None


def test_concurrent_claims_never_hand_out_the_same_job(store):
    for seed in range(8):
        store.submit(make_spec(seed=seed))
    claimed = []
    lock = threading.Lock()

    def claim(worker: str) -> None:
        while True:
            record = store.claim_next(worker)
            if record is None:
                return
            with lock:
                claimed.append(record.id)

    threads = [threading.Thread(target=claim, args=(f"w{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(claimed) == 8
    assert len(set(claimed)) == 8


def test_idempotency_key_dedups(store):
    first = store.submit(make_spec(), idempotency_key="once")
    again = store.submit(make_spec(), idempotency_key="once")
    assert again.id == first.id
    assert store.find_by_key("once").id == first.id
    assert store.find_by_key("never") is None
    # A different key is a different job.
    other = store.submit(make_spec(), idempotency_key="twice")
    assert other.id != first.id


def test_idempotency_key_with_a_different_spec_is_refused(store):
    store.submit(make_spec(seed=1), idempotency_key="reused")
    with pytest.raises(JobStateError) as excinfo:
        store.submit(make_spec(seed=2), idempotency_key="reused")
    assert "different spec" in str(excinfo.value)


def test_job_to_dict_summarises_inline_payloads(store):
    spec = JobSpec(
        input={"mode": "inline", "reads": [["r0", "ACGTACGTACGTACGTACGT"]]},
        config={"k": 15},
    )
    record = store.submit(spec)
    reported = record.to_dict()["spec"]["input"]
    assert "reads" not in reported  # megabytes must not echo on every poll
    assert reported["num_reads"] == 1
    # The stored spec keeps the payload — the worker materialises from it.
    assert store.get(record.id).spec.input["reads"] == [["r0", "ACGTACGTACGTACGTACGT"]]


def test_submit_detecting_reports_exactly_one_creation(store):
    first, created = store.submit_detecting(make_spec(), idempotency_key="flag")
    assert created is True
    again, created_again = store.submit_detecting(make_spec(), idempotency_key="flag")
    assert created_again is False
    assert again.id == first.id
    # Under concurrency, exactly one submitter wins the creation.
    results = []
    lock = threading.Lock()

    def submit() -> None:
        outcome = store.submit_detecting(make_spec(), idempotency_key="race")
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=submit) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sum(1 for _, created in results if created) == 1
    assert len({record.id for record, _ in results}) == 1


def test_terminal_transitions(store):
    record = store.submit(make_spec())
    claimed = store.claim_next("w")
    assert store.finish_attempt(
        record.id, claimed.lease_token, STATE_SUCCEEDED, result_dir="/tmp/x"
    )
    final = store.get(record.id)
    assert final.state == STATE_SUCCEEDED
    assert final.result_dir == "/tmp/x"
    assert final.finished_at is not None
    # Already terminal: a second finish writes nothing.
    assert store.finish_attempt(
        record.id, claimed.lease_token, STATE_FAILED, error="too late"
    ) is False
    assert store.get(record.id).state == STATE_SUCCEEDED


def test_cancel_queued_job_is_immediate(store):
    record = store.submit(make_spec())
    cancelled = store.request_cancel(record.id)
    assert cancelled.state == STATE_CANCELLED
    assert store.claim_next("w") is None


def test_cancel_running_job_sets_the_cooperative_flag(store):
    record = store.submit(make_spec())
    store.claim_next("w")
    after = store.request_cancel(record.id)
    assert after.state == STATE_RUNNING
    assert after.cancel_requested
    assert store.cancel_requested(record.id)


def test_cancel_terminal_job_is_a_noop(store):
    record = store.submit(make_spec())
    claimed = store.claim_next("w")
    assert store.finish_attempt(record.id, claimed.lease_token, STATE_SUCCEEDED)
    after = store.request_cancel(record.id)
    assert after.state == STATE_SUCCEEDED


class _HookBeforeFirstUpdate:
    """Connection proxy: runs ``hook`` once, just before the first
    ``UPDATE jobs`` statement, to interleave another process's commit
    between a store method's read and its write."""

    def __init__(self, connection, hook):
        self._connection = connection
        self._hook = hook

    def execute(self, sql, *args):
        if self._hook is not None and sql.lstrip().startswith("UPDATE jobs"):
            hook, self._hook = self._hook, None
            hook()
        return self._connection.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def _cancel_with_interleaved(api_store, job_id, hook):
    real = api_store._connection
    api_store._connection = _HookBeforeFirstUpdate(real, hook)
    try:
        return api_store.request_cancel(job_id)
    finally:
        api_store._connection = real


def test_cancel_racing_a_claim_leaves_the_new_lease_intact(tmp_path):
    # Two stores on one file model the API process and a worker
    # process.  The cancel decides "queued" just before the worker's
    # claim commits: the job must be cancelled cooperatively, not marked
    # terminal under the worker's live lease (which would fence the
    # worker's next heartbeat and make it kill itself).
    path = tmp_path / "cancel-race.sqlite3"
    api_store = JobStore(path)
    worker_store = JobStore(path)
    try:
        record = api_store.submit(make_spec())
        claims = []
        after = _cancel_with_interleaved(
            api_store,
            record.id,
            lambda: claims.append(worker_store.claim_next("w@1", lease_seconds=60)),
        )
        assert claims[0].id == record.id
        assert after.state == STATE_RUNNING
        assert after.cancel_requested
        assert worker_store.heartbeat(record.id, claims[0].lease_token) is True
        types = [event.type for event in api_store.events(record.id)]
        assert types == ["submitted", "started", "cancel-requested"]
    finally:
        worker_store.close()
        api_store.close()


def test_cancel_racing_a_finish_logs_nothing_after_the_terminal_event(tmp_path):
    path = tmp_path / "cancel-finish.sqlite3"
    api_store = JobStore(path)
    worker_store = JobStore(path)
    try:
        record = api_store.submit(make_spec())
        claimed = worker_store.claim_next("w@1", lease_seconds=60)
        after = _cancel_with_interleaved(
            api_store,
            record.id,
            lambda: worker_store.finish_attempt(
                record.id, claimed.lease_token, STATE_SUCCEEDED
            ),
        )
        assert after.state == STATE_SUCCEEDED
        types = [event.type for event in api_store.events(record.id)]
        assert types == ["submitted", "started", STATE_SUCCEEDED]
    finally:
        worker_store.close()
        api_store.close()


def test_recovery_gives_up_after_the_attempt_limit(tmp_path):
    # A job that keeps taking the process down must not crash-loop the
    # service forever: recovery quarantines it as poisoned once the
    # claim count reaches the store's max_attempts.
    store = JobStore(tmp_path / "loop.sqlite3", max_attempts=2, backoff_seconds=0.0)
    try:
        record = store.submit(make_spec())
        for round_index in range(2):
            claimed = store.claim_next("w", lease_seconds=0.0)
            assert claimed.id == record.id
            time.sleep(0.01)  # let the zero-second lease lapse
            # simulated crash and restart
            recovered = store.reap_expired(reason="service-restart")
            if round_index == 0:
                assert [r.record.id for r in recovered] == [record.id]
                assert recovered[0].record.state == STATE_QUEUED
        assert [r.record.id for r in recovered] == [record.id]
        final = store.get(record.id)
        assert final.state == STATE_POISONED
        assert "poisoned after 2 attempts" in final.error
        assert store.claim_next("w") is None  # quarantined, not crash-looping
    finally:
        store.close()


def test_restart_reap_requeues_running_jobs(tmp_path):
    store = JobStore(tmp_path / "recover.sqlite3", backoff_seconds=0.0)
    try:
        interrupted = store.submit(make_spec(seed=1))
        untouched = store.submit(make_spec(seed=2))
        store.claim_next("w", lease_seconds=0.0)  # interrupted goes running
        time.sleep(0.01)

        recovered = store.reap_expired(reason="service-restart")
        assert [reclaim.record.id for reclaim in recovered] == [interrupted.id]
        assert store.get(interrupted.id).state == STATE_QUEUED
        assert store.get(untouched.id).state == STATE_QUEUED
        # The recovery is visible in the event log, and the next claim
        # counts as a second attempt.
        types = [event.type for event in store.events(interrupted.id)]
        assert types == ["submitted", "started", "recovered"]
        assert store.claim_next("w").attempts >= 1
    finally:
        store.close()


def test_restart_reap_leaves_live_leases_alone(store):
    # Startup recovery must be replica-safe: a job leased by a live
    # sibling service keeps running.
    leased = store.submit(make_spec(seed=1))
    claimed = store.claim_next("sibling", lease_seconds=60.0)
    assert claimed.id == leased.id
    assert store.reap_expired(reason="service-restart") == []
    assert store.get(leased.id).state == STATE_RUNNING


def test_event_log_is_append_only_and_cursorable(store):
    record = store.submit(make_spec())
    store.append_event(record.id, "stage-start", {"stage": "x"})
    store.append_event(record.id, "stage-end", {"stage": "x", "seconds": 0.1})
    events = store.events(record.id)
    assert [event.seq for event in events] == [1, 2, 3]
    assert [event.type for event in events] == ["submitted", "stage-start", "stage-end"]
    tail = store.events(record.id, after=2)
    assert [event.type for event in tail] == ["stage-end"]
    with pytest.raises(JobNotFoundError):
        store.events("f" * 32)


def test_list_jobs_filters_by_state(store):
    first = store.submit(make_spec(seed=1))
    second = store.submit(make_spec(seed=2))
    store.claim_next("w")  # same priority, so FIFO claims `first`
    assert {job.state for job in store.list_jobs()} == {STATE_QUEUED, STATE_RUNNING}
    assert [job.id for job in store.list_jobs(state=STATE_RUNNING)] == [first.id]
    assert [job.id for job in store.list_jobs(state=STATE_QUEUED)] == [second.id]
    with pytest.raises(JobStateError):
        store.list_jobs(state="exploded")


def test_counts_are_zero_filled(store):
    counts = store.counts()
    assert counts == {
        "queued": 0, "running": 0, "succeeded": 0, "failed": 0,
        "cancelled": 0, "poisoned": 0,
    }
    store.submit(make_spec())
    assert store.counts()["queued"] == 1


# ----------------------------------------------------------------------
# leases, heartbeats and fencing
# ----------------------------------------------------------------------
def test_claim_grants_a_lease_and_heartbeat_renews_it(store):
    record = store.submit(make_spec())
    claimed = store.claim_next("w", lease_seconds=5.0)
    assert claimed.lease_expires_at is not None
    first_expiry = claimed.lease_expires_at
    time.sleep(0.02)
    assert store.heartbeat(record.id, claimed.lease_token) is True
    assert store.get(record.id).lease_expires_at > first_expiry
    # A stale token never renews: the worker has been fenced.
    assert store.heartbeat(record.id, "not-the-token") is False


def test_reap_expired_reclaims_only_lapsed_leases(store):
    expired = store.submit(make_spec(seed=1))
    live = store.submit(make_spec(seed=2))
    store.claim_next("dead-worker", lease_seconds=0.0)   # FIFO: claims `expired`
    store.claim_next("live-worker", lease_seconds=60.0)  # claims `live`
    time.sleep(0.01)

    reclaims = store.reap_expired()
    assert [reclaim.record.id for reclaim in reclaims] == [expired.id]
    assert reclaims[0].previous_owner == "dead-worker"
    assert reclaims[0].outcome == "requeued"
    assert store.get(expired.id).state == STATE_QUEUED
    assert store.get(live.id).state == STATE_RUNNING


def test_finish_attempt_is_fenced_by_the_lease_token(store):
    record = store.submit(make_spec())
    claimed = store.claim_next("zombie", lease_seconds=0.0)
    time.sleep(0.01)
    store.reap_expired()  # the lease lapses; the job goes back to queued
    # The zombie's late success must not clobber the reclaimed job.
    done = store.finish_attempt(record.id, claimed.lease_token, STATE_SUCCEEDED)
    assert done is False
    assert store.get(record.id).state == STATE_QUEUED


def test_reaper_requeue_is_fenced_against_a_concurrent_finish(tmp_path):
    # Two stores on one file model the reaper and a worker process.
    # The reaper's SELECT snapshots the job as running with a lapsed
    # lease; the worker's token-fenced finish commits before the
    # reaper's UPDATE.  The guarded UPDATE must hit zero rows — not
    # flip the just-succeeded job back to queued and run it twice.
    path = tmp_path / "race.sqlite3"
    reaper_store = JobStore(path)
    worker_store = JobStore(path)
    try:
        record = reaper_store.submit(make_spec())
        claimed = worker_store.claim_next("w@1", lease_seconds=0.0)
        time.sleep(0.01)
        stale = reaper_store.get(record.id)
        assert worker_store.finish_attempt(
            record.id, claimed.lease_token, STATE_SUCCEEDED
        )
        with reaper_store._lock:
            outcome = reaper_store._retry_or_quarantine_locked(
                stale,
                error="lease expired",
                event_type="recovered",
                now=time.time(),
            )
            reaper_store._connection.commit()
        assert outcome is None
        assert reaper_store.get(record.id).state == STATE_SUCCEEDED
    finally:
        worker_store.close()
        reaper_store.close()


def test_reaper_quarantine_is_fenced_against_a_concurrent_finish(tmp_path):
    # Same interleaving as above, at the attempt limit: the stale
    # snapshot would poison the job, but it already succeeded.
    path = tmp_path / "race.sqlite3"
    reaper_store = JobStore(path, max_attempts=1)
    worker_store = JobStore(path, max_attempts=1)
    try:
        record = reaper_store.submit(make_spec())
        claimed = worker_store.claim_next("w@1", lease_seconds=0.0)
        time.sleep(0.01)
        stale = reaper_store.get(record.id)
        assert worker_store.finish_attempt(
            record.id, claimed.lease_token, STATE_SUCCEEDED
        )
        with reaper_store._lock:
            outcome = reaper_store._retry_or_quarantine_locked(
                stale,
                error="lease expired",
                event_type="recovered",
                now=time.time(),
            )
            reaper_store._connection.commit()
        assert outcome is None
        assert reaper_store.get(record.id).state == STATE_SUCCEEDED
    finally:
        worker_store.close()
        reaper_store.close()


def test_reap_expired_reports_nothing_for_a_job_that_just_finished(store):
    record = store.submit(make_spec())
    claimed = store.claim_next("w", lease_seconds=0.0)
    time.sleep(0.01)
    assert store.finish_attempt(record.id, claimed.lease_token, STATE_SUCCEEDED)
    assert store.reap_expired() == []
    assert store.get(record.id).state == STATE_SUCCEEDED


def test_reclaim_worker_takes_back_only_that_workers_jobs(store):
    mine = store.submit(make_spec(seed=1))
    theirs = store.submit(make_spec(seed=2))
    store.claim_next("worker-0@100", lease_seconds=60.0)
    store.claim_next("worker-1@101", lease_seconds=60.0)

    reclaims = store.reclaim_worker("worker-0@100", reason="worker-died")
    assert [reclaim.record.id for reclaim in reclaims] == [mine.id]
    assert store.get(mine.id).state == STATE_QUEUED
    assert store.get(theirs.id).state == STATE_RUNNING


# ----------------------------------------------------------------------
# retry, backoff and quarantine
# ----------------------------------------------------------------------
def test_fail_attempt_requeues_then_poisons(tmp_path):
    store = JobStore(tmp_path / "retry.sqlite3", max_attempts=2, backoff_seconds=0.0)
    try:
        record = store.submit(make_spec())
        first = store.claim_next("w")
        assert store.fail_attempt(record.id, first.lease_token, "boom") == "requeued"
        assert store.get(record.id).state == STATE_QUEUED

        second = store.claim_next("w")
        assert second.attempts == 2
        assert store.fail_attempt(record.id, second.lease_token, "boom") == "poisoned"
        final = store.get(record.id)
        assert final.state == STATE_POISONED
        assert final.is_terminal
        assert "poisoned after 2 attempts" in final.error
        assert "boom" in final.error
        types = [event.type for event in store.events(record.id)]
        assert "retry-scheduled" in types
        assert types[-1] == "poisoned"
    finally:
        store.close()


def test_fail_attempt_non_retryable_fails_immediately(store):
    # Permanent errors skip the retry budget: the worker finishes the
    # attempt as failed.
    record = store.submit(make_spec())
    claimed = store.claim_next("w")
    assert store.finish_attempt(
        record.id, claimed.lease_token, STATE_FAILED, error="bad spec"
    )
    final = store.get(record.id)
    assert final.state == STATE_FAILED
    assert final.error == "bad spec"
    last = store.events(record.id)[-1]
    assert (last.type, last.payload) == (STATE_FAILED, {"error": "bad spec"})


def test_requeued_job_waits_out_its_backoff(tmp_path):
    store = JobStore(tmp_path / "backoff.sqlite3", max_attempts=5, backoff_seconds=30.0)
    try:
        record = store.submit(make_spec())
        claimed = store.claim_next("w")
        assert store.fail_attempt(record.id, claimed.lease_token, "flaky") == "requeued"
        requeued = store.get(record.id)
        assert requeued.state == STATE_QUEUED
        assert requeued.next_attempt_at is not None
        # The backoff gate keeps the hot job out of the claim loop.
        assert store.claim_next("w") is None
        events = {event.type: event.payload for event in store.events(record.id)}
        assert events["retry-scheduled"]["backoff_seconds"] > 0
    finally:
        store.close()


def test_retry_claim_latency_counts_from_the_requeue(tmp_path):
    # The submitting process (A) is not the claiming one (B): the
    # retry's queue wait is read from the row, so it starts when the
    # reclaim made the job claimable again, not at the submit.
    path = tmp_path / "latency.sqlite3"
    store_a = JobStore(path, backoff_seconds=0.0)
    store_b = JobStore(path, backoff_seconds=0.0)
    try:
        record = store_a.submit(make_spec())
        assert store_b.claim_next("w@1", lease_seconds=60).id == record.id
        time.sleep(0.5)  # the first attempt runs
        assert [r.outcome for r in store_a.reclaim_worker("w@1")] == ["requeued"]
        assert store_b.claim_next("w@2", lease_seconds=60).attempts == 2
        started = [
            event.payload
            for event in store_a.events(record.id)
            if event.type == "started"
        ]
        assert len(started) == 2
        assert started[1]["claim_latency_seconds"] < 0.1
    finally:
        store_b.close()
        store_a.close()


def test_spec_retry_budget_overrides_the_store_default(tmp_path):
    store = JobStore(tmp_path / "override.sqlite3", max_attempts=3, backoff_seconds=0.0)
    try:
        spec = make_spec()
        spec.retry = {"max_attempts": 1}
        record = store.submit(spec)
        claimed = store.claim_next("w")
        assert store.fail_attempt(record.id, claimed.lease_token, "boom") == "poisoned"
        assert store.get(record.id).state == STATE_POISONED
    finally:
        store.close()


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_spec_with_a_non_finite_memory_budget_is_invalid(budget):
    # Refused up front; a run would fail deep in DBG construction and
    # be retried as a transient error.
    with pytest.raises(InvalidJobSpecError, match="must be finite"):
        make_spec(memory_budget_mb=budget).validate()


def test_store_survives_reopen(tmp_path):
    path = tmp_path / "jobs.sqlite3"
    first = JobStore(path)
    record = first.submit(make_spec(seed=9), priority=2, idempotency_key="durable")
    first.close()

    reopened = JobStore(path)
    try:
        fetched = reopened.get(record.id)
        assert fetched.priority == 2
        assert fetched.idempotency_key == "durable"
        assert fetched.spec.input["seed"] == 9
    finally:
        reopened.close()
