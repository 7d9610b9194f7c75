"""Per-superstep and per-job accounting used by benchmarks.

The paper reports three quantities for its algorithm comparisons
(Tables II and III): the number of supersteps, the number of messages,
and the runtime.  The metrics objects collected here expose exactly
those quantities, plus the per-worker breakdowns needed by the cost
model to estimate runtime of a simulated cluster (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SuperstepMetrics:
    """Counters for one superstep of one Pregel job."""

    superstep: int
    active_vertices: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    compute_calls: int = 0
    compute_ops: int = 0
    # Raw (pre-combine) messages whose destination worker differs from
    # the sending worker — the traffic that actually crosses a process
    # (or, on a cluster, network) boundary.  messages_sent minus this
    # is the worker-local delivery count.
    cross_worker_messages: int = 0
    # Per-worker breakdowns; index == worker id.
    worker_compute_ops: List[int] = field(default_factory=list)
    worker_messages_sent: List[int] = field(default_factory=list)
    worker_bytes_sent: List[int] = field(default_factory=list)
    worker_messages_received: List[int] = field(default_factory=list)
    worker_bytes_received: List[int] = field(default_factory=list)

    def max_worker_compute(self) -> int:
        return max(self.worker_compute_ops) if self.worker_compute_ops else 0

    def max_worker_bytes(self) -> int:
        sent = max(self.worker_bytes_sent) if self.worker_bytes_sent else 0
        received = max(self.worker_bytes_received) if self.worker_bytes_received else 0
        return max(sent, received)


@dataclass
class JobMetrics:
    """Aggregated counters for one Pregel (or mini-MapReduce) job."""

    job_name: str
    num_workers: int
    supersteps: List[SuperstepMetrics] = field(default_factory=list)
    loading_ops: int = 0
    loading_bytes_shuffled: int = 0
    dump_ops: int = 0

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(step.messages_sent for step in self.supersteps)

    @property
    def total_bytes(self) -> int:
        return sum(step.bytes_sent for step in self.supersteps)

    @property
    def total_compute_ops(self) -> int:
        return sum(step.compute_ops for step in self.supersteps)

    @property
    def total_cross_worker_messages(self) -> int:
        return sum(step.cross_worker_messages for step in self.supersteps)

    def add(self, step: SuperstepMetrics) -> None:
        self.supersteps.append(step)

    def summary(self) -> Dict[str, int]:
        """Flat dictionary of headline counters (for reports and tests)."""
        return {
            "job": self.job_name,
            "workers": self.num_workers,
            "supersteps": self.num_supersteps,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "compute_ops": self.total_compute_ops,
            "cross_worker_messages": self.total_cross_worker_messages,
        }


@dataclass
class PipelineMetrics:
    """Metrics for a chain of jobs (an assembly workflow run)."""

    jobs: List[JobMetrics] = field(default_factory=list)

    def add(self, job: JobMetrics) -> None:
        self.jobs.append(job)

    def job(self, name: str) -> Optional[JobMetrics]:
        """First job whose name matches ``name`` (None if absent)."""
        for job in self.jobs:
            if job.job_name == name:
                return job
        return None

    def jobs_named(self, name: str) -> List[JobMetrics]:
        """All jobs whose name matches ``name`` in execution order."""
        return [job for job in self.jobs if job.job_name == name]

    @property
    def total_supersteps(self) -> int:
        return sum(job.num_supersteps for job in self.jobs)

    @property
    def total_messages(self) -> int:
        return sum(job.total_messages for job in self.jobs)

    @property
    def total_cross_worker_messages(self) -> int:
        return sum(job.total_cross_worker_messages for job in self.jobs)

    def summary(self) -> Dict[str, int]:
        return {
            "jobs": len(self.jobs),
            "supersteps": self.total_supersteps,
            "messages": self.total_messages,
            "cross_worker_messages": self.total_cross_worker_messages,
        }
