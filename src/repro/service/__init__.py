"""Durable assembly job service: queue, scheduler, worker pool, REST API.

Everything before this package is a library call: one process, one
assembly, gone when the interpreter exits.  This package is the serving
layer the ROADMAP's north star asks for — a long-lived process that
accepts many assembly jobs, runs them concurrently with bounded
resources, survives being killed mid-assembly, and exposes the whole
lifecycle over plain HTTP.  It is stdlib-only (``sqlite3``,
``http.server``, ``urllib``) so serving needs nothing the library does
not already have.

* :class:`~repro.service.spec.JobSpec` — what to assemble: an input
  source (inline reads, FASTQ paths, a simulated genome, or a Table I
  dataset profile) plus the full
  :class:`~repro.assembler.config.AssemblyConfig` surface;
* :class:`~repro.service.store.JobStore` — SQLite-backed durable queue:
  states ``queued/running/succeeded/failed/cancelled/poisoned``,
  priorities, idempotency keys, time-bounded leases with heartbeats and
  fencing tokens, retry accounting with exponential backoff, and an
  append-only per-job event log;
* :class:`~repro.service.scheduler.ProcessWorkerPool` — supervised
  child processes each running a claim loop through
  :mod:`repro.service.worker`; a crashed or hung worker loses its lease,
  the job is reclaimed and retried (resuming from its checkpoints
  bit-identically) until its attempt budget quarantines it as
  ``poisoned``;
* :mod:`repro.service.faults` — deterministic fault injection
  (``REPRO_FAULTS``) used by the chaos tests to prove the above;
* :class:`~repro.service.app.AssemblyService` — store + pool + REST API
  (:mod:`repro.service.api`) wired together;
* :class:`~repro.service.client.ServiceClient` — thin HTTP client used
  by the CLI verbs (``repro-assemble serve/submit/status/result/cancel``)
  and the examples.
"""

# Lazy re-exports (PEP 562): the one-shot CLI imports
# ``repro.service.spec`` for input materialisation on every run, which
# executes this __init__ — eager imports here would drag the whole
# serving stack (sqlite3, http.server, urllib) into a plain
# ``repro-assemble --simulate …`` invocation.
_EXPORTS = {
    "AssemblyService": ".app",
    "ServiceClient": ".client",
    "FaultInjected": ".faults",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "ProcessWorkerPool": ".scheduler",
    "JobSpec": ".spec",
    "MaterializedInput": ".spec",
    "JobStore": ".store",
    "JobRecord": ".store",
    "JobEvent": ".store",
    "Reclaim": ".store",
    "JOB_STATES": ".store",
    "TERMINAL_STATES": ".store",
    "STATE_QUEUED": ".store",
    "STATE_RUNNING": ".store",
    "STATE_SUCCEEDED": ".store",
    "STATE_FAILED": ".store",
    "STATE_CANCELLED": ".store",
    "STATE_POISONED": ".store",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    value = getattr(import_module(module_name, __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
