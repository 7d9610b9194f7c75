"""SQLite-backed durable job store.

One database file holds the whole serving state: a ``jobs`` table (the
queue *and* the archive — state transitions never delete rows) and an
append-only ``job_events`` table (per-job, monotonically numbered, the
substrate of live progress reporting).  SQLite via the stdlib keeps the
service dependency-free while giving the two properties a durable queue
actually needs: atomic claim (``queued`` → ``running`` under one
transaction, priority-ordered) and crash-safe persistence (WAL mode, so
a ``kill -9`` mid-transaction loses at most the uncommitted write).

States and transitions::

    queued ──claim──> running ──> succeeded
       │                 │  └───> failed         (permanent error)
       │                 └──────> cancelled      (cooperative, between stages)
       └──cancel──> cancelled
    running ──lease expiry / worker death──> queued    (retry, with backoff)
    running ──retryable failure──> queued              (retry, with backoff)
    running ──attempts exhausted──> poisoned            (quarantine)

Every arrow is one call of :meth:`JobStore._transition_locked`, the
only statement here that updates a job row: it moves the row only if
it is still in the expected state (and, for a worker's write, still
holds the caller's lease token), and appends the transition's event
only when the row moved.

Claims are **leases**, not permanent ownership: ``claim_next`` stamps a
``lease_token`` (a fencing token unique per claim) and a
``lease_expires_at`` deadline, the worker renews via :meth:`heartbeat`,
and :meth:`reap_expired` re-enqueues any running job whose lease has
lapsed — which is what makes a dead or wedged worker's job recoverable
*without* restarting the service, and what makes several independent
``serve`` replicas sharing one database file safe.  Every write a
worker makes on behalf of a job is guarded by its token, so a fenced
zombie (a worker whose lease was reclaimed while it kept computing)
cannot corrupt the job's next attempt.

Retry accounting lives here too: a reclaimed or transiently-failed job
re-enqueues with ``next_attempt_at`` pushed out by exponential backoff
(deterministic jitter — seeded by job id and attempt, so runs
reproduce), until ``max_attempts`` is reached and the job is
quarantined in the terminal ``poisoned`` state with its captured
failure reason.  ``failed`` remains reserved for *permanent* errors
(invalid input, missing files) where retrying cannot help; the worker
records those with ``finish_attempt(..., STATE_FAILED, error=...)``.

Idempotency keys make submission retry-safe: re-submitting with a key
the store has seen returns the existing job instead of enqueueing a
duplicate — exactly what an HTTP client that lost a response needs.

Thread-safety: one connection guarded by an ``RLock`` per store
instance; cross-process safety comes from SQLite's own locking (with a
``busy_timeout`` so concurrent replicas queue instead of erroring) plus
the rowcount check of that one guarded transition.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import JobNotFoundError, JobStateError
from ..telemetry import get_registry
from .faults import FaultPlan
from .spec import JobSpec

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_SUCCEEDED = "succeeded"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
STATE_POISONED = "poisoned"

#: States a job never leaves.
TERMINAL_STATES = (STATE_SUCCEEDED, STATE_FAILED, STATE_CANCELLED, STATE_POISONED)

#: Every state a job can be in, in lifecycle order.
JOB_STATES = (STATE_QUEUED, STATE_RUNNING) + TERMINAL_STATES

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    state            TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    idempotency_key  TEXT UNIQUE,
    spec             TEXT NOT NULL,
    created_at       REAL NOT NULL,
    updated_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,
    error            TEXT,
    result_dir       TEXT,
    lease_token      TEXT,
    lease_expires_at REAL,
    next_attempt_at  REAL,
    max_attempts     INTEGER
);
CREATE INDEX IF NOT EXISTS jobs_by_state
    ON jobs (state, priority DESC, created_at ASC);
CREATE TABLE IF NOT EXISTS job_events (
    job_id     TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL,
    type       TEXT NOT NULL,
    payload    TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (job_id, seq)
);
"""

#: Columns added after the first released schema; applied by ALTER TABLE
#: when opening a database file that predates them, so a data dir from
#: an older service version keeps working.
_MIGRATED_COLUMNS = (
    ("lease_token", "TEXT"),
    ("lease_expires_at", "REAL"),
    ("next_attempt_at", "REAL"),
    ("max_attempts", "INTEGER"),
)


@dataclass
class JobRecord:
    """One row of the ``jobs`` table, decoded."""

    id: str
    state: str
    priority: int
    idempotency_key: Optional[str]
    spec: JobSpec
    created_at: float
    updated_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    cancel_requested: bool = False
    worker: Optional[str] = None
    error: Optional[str] = None
    result_dir: Optional[str] = None
    lease_token: Optional[str] = None
    lease_expires_at: Optional[float] = None
    next_attempt_at: Optional[float] = None
    max_attempts: Optional[int] = None

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """JSON shape of a job as the REST API reports it.

        Inline read payloads are summarised to counts: a status poll
        must not echo megabytes of sequence data back on every request
        (the worker reads the spec from the store, never from here).
        The lease *token* stays private — it is the fencing credential;
        the lease deadline and retry schedule are reported.
        """
        spec_dict = self.spec.to_dict()
        input_block = spec_dict["input"]
        if input_block.get("mode") == "inline":
            for key in ("reads", "pairs"):
                if key in input_block:
                    input_block[f"num_{key}"] = len(input_block.pop(key))
        return {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "idempotency_key": self.idempotency_key,
            "spec": spec_dict,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
            "worker": self.worker,
            "error": self.error,
            "lease_expires_at": self.lease_expires_at,
            "next_attempt_at": self.next_attempt_at,
            "max_attempts": self.max_attempts,
        }


@dataclass
class JobEvent:
    """One row of the append-only per-job event log."""

    job_id: str
    seq: int
    created_at: float
    type: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "created_at": self.created_at,
            "type": self.type,
            "payload": self.payload,
        }


@dataclass
class Reclaim:
    """One job taken back from a dead or expired lease holder."""

    record: JobRecord
    previous_owner: Optional[str]
    outcome: str  # "requeued" or "poisoned"


#: Default bound on how often a job may be (re)claimed.  Without a cap,
#: a job that *causes* worker death (OOM, wedged backend) would
#: crash-loop through the pool forever; at the cap it is quarantined in
#: the ``poisoned`` state instead.
DEFAULT_MAX_ATTEMPTS = 3

#: Default lease duration.  Long enough that a healthy worker (which
#: renews every lease_seconds/3) never loses a lease to scheduling
#: hiccups; short enough that a dead replica's jobs come back quickly.
DEFAULT_LEASE_SECONDS = 15.0

#: Exponential backoff between attempts: base * 2^(attempt-1), capped,
#: with deterministic ±20% jitter so reclaimed bursts do not re-claim
#: in lockstep but tests still reproduce exactly.
DEFAULT_BACKOFF_SECONDS = 1.0
DEFAULT_BACKOFF_CAP_SECONDS = 30.0


def retry_backoff(
    job_id: str,
    attempt: int,
    base: float = DEFAULT_BACKOFF_SECONDS,
    cap: float = DEFAULT_BACKOFF_CAP_SECONDS,
) -> float:
    """Backoff before retrying ``job_id`` after its ``attempt``-th try.

    Deterministic: the jitter multiplier (0.8–1.2) is derived from a
    hash of ``job_id:attempt``, never from a random source, so a chaos
    test can predict the exact requeue schedule.
    """
    delay = min(cap, base * (2 ** max(0, attempt - 1)))
    digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
    jitter = 0.8 + 0.4 * (digest[0] / 255.0)
    return delay * jitter


def _spec_json(spec: JobSpec) -> str:
    """The persisted form of a spec; idempotency keys compare it."""
    return json.dumps(spec.to_dict(), sort_keys=True)


#: ``token`` default of :meth:`JobStore._transition_locked`: the write
#: does not check the lease (claims and cancels are not lease holders).
_UNCHECKED = object()


class JobStore:
    """Durable queue + archive + event log over one SQLite file."""

    def __init__(
        self,
        path,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        backoff_cap_seconds: float = DEFAULT_BACKOFF_CAP_SECONDS,
    ) -> None:
        self.max_attempts = max_attempts
        self.lease_seconds = lease_seconds
        self.backoff_seconds = backoff_seconds
        self.backoff_cap_seconds = backoff_cap_seconds
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._event_write_delay = FaultPlan.from_env().store_write_delay()
        self._connection = sqlite3.connect(
            str(self.path), check_same_thread=False
        )
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            # WAL survives kill -9 with at most the last uncommitted
            # write lost; NORMAL sync is the standard pairing for it.
            # busy_timeout makes concurrent replicas (and our own worker
            # processes) queue on SQLite's write lock instead of
            # erroring out with "database is locked".
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute("PRAGMA busy_timeout=10000")
            self._connection.executescript(_SCHEMA)
            self._migrate_locked()
            self._connection.commit()

    def _migrate_locked(self) -> None:
        existing = {
            row["name"]
            for row in self._connection.execute("PRAGMA table_info(jobs)")
        }
        for name, column_type in _MIGRATED_COLUMNS:
            if name not in existing:
                self._connection.execute(
                    f"ALTER TABLE jobs ADD COLUMN {name} {column_type}"
                )

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def _transition_locked(
        self,
        job_id: str,
        from_state: str,
        token: Any = _UNCHECKED,
        event: Optional[Tuple[str, Dict[str, Any]]] = None,
        **columns: Any,
    ) -> bool:
        """Write ``columns`` to the job if it is still in ``from_state``.

        The only statement in this module that updates a job row.
        Callers decide from a SELECT that ran outside the write
        transaction, so another process sharing the file (a worker, a
        reaper, a sibling replica) may have moved the row since; the
        guard re-checks the state — and the lease ``token`` when one is
        given (``IS``, so a NULL lease from a pre-lease schema still
        matches) — against the row as it is now.  ``event`` (``(type,
        payload)``) is appended in the same transaction, only when the
        row moved.  The caller commits.
        """
        columns["updated_at"] = time.time()
        assignments = ", ".join(f"{name} = ?" for name in columns)
        sql = f"UPDATE jobs SET {assignments} WHERE id = ? AND state = ?"
        params = [*columns.values(), job_id, from_state]
        if token is not _UNCHECKED:
            sql += " AND lease_token IS ?"
            params.append(token)
        if self._connection.execute(sql, params).rowcount != 1:
            return False
        if event is not None:
            self._append_event_locked(job_id, *event)
        return True

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> JobRecord:
        """Enqueue a job; an already-seen idempotency key dedups.

        Returns the enqueued (or pre-existing) record; use
        :meth:`submit_detecting` when the caller needs to know which
        of the two happened.
        """
        record, _ = self.submit_detecting(
            spec, priority=priority, idempotency_key=idempotency_key
        )
        return record

    def submit_detecting(
        self,
        spec: JobSpec,
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ):
        """Like :meth:`submit`, returning ``(record, created)``.

        The created flag is computed under the same lock as the
        insert, so concurrent submissions sharing a new idempotency
        key report exactly one creation between them.  Reusing a key
        with a *different* spec raises
        :class:`~repro.errors.JobStateError` — silently answering with
        the old job's results would hand the caller contigs computed
        from inputs they did not submit.
        """
        spec.validate()
        spec_json = _spec_json(spec)
        max_attempts = spec.retry.get("max_attempts")
        now = time.time()
        job_id = uuid.uuid4().hex
        with self._lock:
            existing = None
            if idempotency_key is not None:
                existing = self.find_by_key(idempotency_key)
            if existing is None:
                try:
                    self._connection.execute(
                        "INSERT INTO jobs (id, state, priority, idempotency_key,"
                        " spec, created_at, updated_at, max_attempts)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            job_id,
                            STATE_QUEUED,
                            priority,
                            idempotency_key,
                            spec_json,
                            now,
                            now,
                            max_attempts,
                        ),
                    )
                except sqlite3.IntegrityError:
                    # Another *process* sharing the database file inserted
                    # this key between our lookup and INSERT (the in-process
                    # lock cannot cover that window); dedup instead of 500.
                    self._connection.rollback()
                    existing = self.find_by_key(idempotency_key)
                    if existing is None:
                        raise
            if existing is not None:
                if _spec_json(existing.spec) != spec_json:
                    raise JobStateError(
                        f"idempotency key {idempotency_key!r} was "
                        f"already used by job {existing.id} with a "
                        "different spec; pick a new key or resubmit "
                        "the original spec"
                    )
                return existing, False
            self._append_event_locked(job_id, "submitted", {"priority": priority})
            self._connection.commit()
        get_registry().counter(
            "repro_jobs_submitted_total", "Jobs accepted into the queue."
        ).inc()
        return self.get(job_id), True

    def find_by_key(self, idempotency_key: str) -> Optional[JobRecord]:
        """The job previously submitted under this key, if any."""
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM jobs WHERE idempotency_key = ?",
                (idempotency_key,),
            ).fetchone()
        return self._record(row) if row is not None else None

    # ------------------------------------------------------------------
    # worker side: claim, heartbeat, finish
    # ------------------------------------------------------------------
    def claim_next(
        self, worker: str, lease_seconds: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Atomically lease the best queued job to ``worker``.

        Best = highest priority, then oldest, skipping jobs whose retry
        backoff (``next_attempt_at``) has not elapsed.  Returns None
        when nothing is claimable.  The claim stamps a fresh
        ``lease_token`` — the fencing credential all of this attempt's
        subsequent writes must present — and a ``lease_expires_at``
        deadline the worker keeps pushing forward via :meth:`heartbeat`.

        The store lock serialises claims within this process; the
        ``state = queued`` guard on the UPDATE (with a rowcount check)
        additionally protects against other *processes* sharing the
        database file — worker processes and sibling replicas alike.
        """
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        now = time.time()
        token = uuid.uuid4().hex
        with self._lock:
            while True:
                row = self._connection.execute(
                    "SELECT id, attempts, created_at, next_attempt_at FROM jobs"
                    " WHERE state = ?"
                    " AND (next_attempt_at IS NULL OR next_attempt_at <= ?)"
                    " ORDER BY priority DESC, created_at ASC, id ASC LIMIT 1",
                    (STATE_QUEUED, now),
                ).fetchone()
                if row is None:
                    return None
                job_id = row["id"]
                attempt = row["attempts"] + 1
                # Queue wait counts from when the job became claimable:
                # its submission, or the end of its retry backoff.  Both
                # are on the row, so the wait reads the same whichever
                # process submitted, requeued or now claims the job.
                claim_latency = max(
                    0.0, now - (row["next_attempt_at"] or row["created_at"])
                )
                started = {
                    "worker": worker,
                    "attempt": attempt,
                    "claim_latency_seconds": round(claim_latency, 6),
                    "lease_expires_at": round(now + lease, 6),
                }
                claimed = self._transition_locked(
                    job_id,
                    STATE_QUEUED,
                    event=("started", started),
                    state=STATE_RUNNING,
                    worker=worker,
                    started_at=now,
                    attempts=attempt,
                    lease_token=token,
                    lease_expires_at=now + lease,
                    next_attempt_at=None,
                )
                self._connection.commit()
                if claimed:
                    break
                # Lost the race to a foreign process: try the next
                # queued job rather than double-running this one.
        get_registry().histogram(
            "repro_claim_latency_seconds",
            "Seconds between a job entering the queue and a worker claiming it.",
        ).observe(claim_latency)
        return self.get(job_id)

    def heartbeat(
        self, job_id: str, token: str, lease_seconds: Optional[float] = None
    ) -> bool:
        """Renew the job's lease; False means the worker has been fenced.

        A False return is the signal a worker must obey *immediately*:
        its lease expired (or was reclaimed) and the job may already be
        running elsewhere — every further write it could make is
        rejected by the token guards anyway.
        """
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        with self._lock:
            renewed = self._transition_locked(
                job_id,
                STATE_RUNNING,
                token=token,
                lease_expires_at=time.time() + lease,
            )
            self._connection.commit()
        return renewed

    def finish_attempt(
        self,
        job_id: str,
        token: str,
        state: str,
        error: Optional[str] = None,
        result_dir: Optional[str] = None,
    ) -> bool:
        """Token-fenced terminal write: ``succeeded``, ``cancelled`` or ``failed``.

        ``failed`` is for *permanent* errors (bad input, missing files),
        where a retry would fail identically; retryable failures go
        through :meth:`fail_attempt`.  Returns False (writing nothing)
        when the caller's lease is no longer current — the fenced-zombie
        case; the reclaimed job's next attempt owns the row now.
        """
        with self._lock:
            finished = self._transition_locked(
                job_id,
                STATE_RUNNING,
                token=token,
                event=(state, {"error": error} if error else {}),
                state=state,
                error=error,
                result_dir=result_dir,
                finished_at=time.time(),
                lease_token=None,
                lease_expires_at=None,
            )
            self._connection.commit()
        return finished

    def fail_attempt(self, job_id: str, token: str, error: str) -> Optional[str]:
        """Record a retryable failed attempt; returns what happened to the job.

        The job requeues with backoff until ``max_attempts``, then
        quarantines as ``poisoned``.  Returns ``"requeued"``,
        ``"poisoned"``, or None when the token was fenced (another
        attempt owns the job; nothing was written).
        """
        with self._lock:
            record = self.get(job_id)
            if record.state != STATE_RUNNING or record.lease_token != token:
                return None
            outcome = self._retry_or_quarantine_locked(
                record, error=error, event_type="retry-scheduled", now=time.time()
            )
            self._connection.commit()
        if outcome == "requeued":
            get_registry().counter(
                "repro_job_retries_total",
                "Job attempts re-enqueued after a retryable failure or reclaim.",
            ).inc()
        return outcome

    # ------------------------------------------------------------------
    # lease reclamation
    # ------------------------------------------------------------------
    def reap_expired(
        self, now: Optional[float] = None, reason: str = "lease-expired"
    ) -> List[Reclaim]:
        """Take back every running job whose lease has lapsed.

        The scheduler's reaper loop calls this periodically — *not*
        just at startup — so a worker that died without a supervisor
        noticing (or a whole dead replica) leaks its jobs for at most
        one lease duration.  Rows with a NULL lease (written by an
        older service version) count as expired.  At service start-up
        it runs with ``reason="service-restart"``: jobs leased by a
        *live* sibling replica keep running untouched, while jobs of the
        process this service replaces re-enqueue for resume.
        """
        now = time.time() if now is None else now
        with self._lock:
            return self._reclaim_locked(
                "(lease_expires_at IS NULL OR lease_expires_at < ?)",
                (now,),
                error="lease expired (held by {worker}): {reason}",
                reason=reason,
                now=now,
            )

    def reclaim_worker(
        self, worker: str, reason: str = "worker-died"
    ) -> List[Reclaim]:
        """Take back every running job leased to ``worker``, immediately.

        The supervisor calls this the moment it observes a worker
        process die — no need to wait out the lease when the owner is
        known dead.
        """
        with self._lock:
            return self._reclaim_locked(
                "worker = ?",
                (worker,),
                error="worker {worker} died mid-attempt",
                reason=reason,
                now=time.time(),
            )

    def _reclaim_locked(
        self, where_sql: str, params: tuple, error: str, reason: str, now: float
    ) -> List[Reclaim]:
        """Requeue or poison every running job matching ``where_sql``.

        ``error`` is a template over the row's ``worker`` and the
        ``reason``.  A job whose owner's token-fenced finish landed
        between the SELECT and its guarded UPDATE is left alone.
        """
        rows = self._connection.execute(
            f"SELECT * FROM jobs WHERE state = ? AND {where_sql}",
            (STATE_RUNNING, *params),
        ).fetchall()
        reclaims = []
        for record in map(self._record, rows):
            outcome = self._retry_or_quarantine_locked(
                record,
                error=error.format(worker=record.worker, reason=reason),
                event_type="recovered",
                now=now,
                reason=reason,
            )
            if outcome is not None:
                reclaims.append(Reclaim(self.get(record.id), record.worker, outcome))
        self._connection.commit()
        if reclaims:
            get_registry().counter(
                "repro_lease_reclaims_total",
                "Running jobs taken back from expired or dead lease holders.",
                labelnames=("reason",),
            ).labels(reason).inc(len(reclaims))
        return reclaims

    def _retry_or_quarantine_locked(
        self,
        record: JobRecord,
        error: str,
        event_type: str,
        now: float,
        reason: Optional[str] = None,
    ) -> Optional[str]:
        """Requeue with backoff, or quarantine at the attempt limit.

        The shared tail of every non-permanent attempt failure: lease
        expiry, worker death, timeouts, and retryable exceptions all
        converge here.  Returns ``"requeued"``, ``"poisoned"``, or None
        when the row moved on since the caller read ``record``: the
        transition is fenced on the (state, lease_token) of that read,
        so a worker process's token-guarded finish committed in the gap
        is never flipped back to queued and run twice.
        """
        attempts = record.attempts
        if attempts >= (record.max_attempts or self.max_attempts):
            outcome = event_type = STATE_POISONED
            payload = {"attempts": attempts, "error": error}
            columns = dict(
                state=STATE_POISONED,
                error=f"poisoned after {attempts} attempts; last failure: {error}",
                finished_at=now,
            )
        else:
            retry = record.spec.retry
            backoff = retry_backoff(
                record.id,
                attempts,
                base=retry.get("backoff_seconds", self.backoff_seconds),
                cap=retry.get("backoff_cap_seconds", self.backoff_cap_seconds),
            )
            # The retry's claim latency counts from next_attempt_at, when
            # the job becomes claimable again — not from the failure instant.
            next_attempt_at = now + backoff
            outcome = "requeued"
            payload = {
                "attempt": attempts,
                "error": error,
                "backoff_seconds": round(backoff, 6),
                "next_attempt_at": round(next_attempt_at, 6),
            }
            columns = dict(state=STATE_QUEUED, next_attempt_at=next_attempt_at)
        if reason:
            payload["reason"] = reason
        if not self._transition_locked(
            record.id,
            STATE_RUNNING,
            token=record.lease_token,
            event=(event_type, payload),
            worker=None,
            lease_token=None,
            lease_expires_at=None,
            **columns,
        ):
            return None
        if outcome == STATE_POISONED:
            get_registry().counter(
                "repro_jobs_poisoned_total",
                "Jobs quarantined after exhausting their retry budget.",
            ).inc()
        return outcome

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def request_cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs immediately, running ones cooperatively.

        A running job only sees the request at its next stage boundary
        (the worker's hook checks the flag), which is the documented
        granularity — stages are atomic units of work.  A job claimed
        since the caller last looked is cancelled cooperatively, never
        marked terminal under its live lease.
        """
        with self._lock:
            if not self._transition_locked(
                job_id,
                STATE_QUEUED,
                event=(STATE_CANCELLED, {}),
                state=STATE_CANCELLED,
                cancel_requested=1,
                finished_at=time.time(),
                next_attempt_at=None,
            ):
                self._transition_locked(
                    job_id,
                    STATE_RUNNING,
                    event=("cancel-requested", {}),
                    cancel_requested=1,
                )
            # Terminal jobs match neither: cancelling is a no-op, not an
            # error — the client's intent (job should not run further)
            # already holds.
            self._connection.commit()
        return self.get(job_id)

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobNotFoundError(job_id)
        return bool(row["cancel_requested"])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobNotFoundError(job_id)
        return self._record(row)

    def list_jobs(
        self,
        state: Optional[str] = None,
        limit: int = 100,
    ) -> List[JobRecord]:
        """Most recent first; optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise JobStateError(
                f"unknown state filter {state!r}; states: {', '.join(JOB_STATES)}"
            )
        where, params = ("", ()) if state is None else ("WHERE state = ?", (state,))
        with self._lock:
            rows = self._connection.execute(
                f"SELECT * FROM jobs {where} ORDER BY created_at DESC, id DESC LIMIT ?",
                (*params, limit),
            ).fetchall()
        return [self._record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Job counts per state (zero-filled), for the health endpoint."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = dict.fromkeys(JOB_STATES, 0)
        counts.update((row["state"], row["n"]) for row in rows)
        return counts

    # ------------------------------------------------------------------
    # event log
    # ------------------------------------------------------------------
    def append_event(
        self, job_id: str, type: str, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        with self._lock:
            self._append_event_locked(job_id, type, payload or {})
            self._connection.commit()

    def _append_event_locked(
        self, job_id: str, type: str, payload: Dict[str, Any]
    ) -> None:
        if self._event_write_delay:
            time.sleep(self._event_write_delay)
        # Seq allocation and insert in ONE statement: atomic under
        # SQLite's write lock, so even two *processes* sharing the
        # database file (the scenario claim_next guards) cannot collide
        # on (job_id, seq).
        self._connection.execute(
            "INSERT INTO job_events (job_id, seq, created_at, type, payload)"
            " SELECT ?, COALESCE(MAX(seq), 0) + 1, ?, ?, ?"
            " FROM job_events WHERE job_id = ?",
            (job_id, time.time(), type, json.dumps(payload), job_id),
        )

    def events(self, job_id: str, after: int = 0) -> List[JobEvent]:
        """The job's events with ``seq > after``, oldest first."""
        with self._lock:
            # Existence probe only — a full get() would re-decode the
            # persisted spec (potentially megabytes of inline reads) on
            # every poll of the event log.
            exists = self._connection.execute(
                "SELECT 1 FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if exists is None:
                raise JobNotFoundError(job_id)
            rows = self._connection.execute(
                "SELECT * FROM job_events WHERE job_id = ? AND seq > ?"
                " ORDER BY seq ASC",
                (job_id, after),
            ).fetchall()
        return [
            JobEvent(**{**dict(row), "payload": json.loads(row["payload"])})
            for row in rows
        ]

    # ------------------------------------------------------------------
    # row decoding
    # ------------------------------------------------------------------
    @staticmethod
    def _record(row: sqlite3.Row) -> JobRecord:
        fields = dict(row)
        # Trusted decode: the spec was validated at submit time, and
        # re-validating on every row read would re-parse large
        # inline payloads on each status poll.
        fields["spec"] = JobSpec.from_dict(json.loads(row["spec"]), validate=False)
        fields["cancel_requested"] = bool(row["cancel_requested"])
        return JobRecord(**fields)
