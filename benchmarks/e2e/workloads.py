"""The four end-to-end workloads, as plain data.

Each workload is one FASTQ file generated from ``--seed`` plus one
``AssemblyConfig``.  Three share a labeling-bound input and differ only
in the runtime path (serial, two worker processes, serial under a
memory budget); the fourth is built so that parsing and DBG
construction dominate and the labeling loop is bypassed.  A layer
optimisation therefore has one row that exercises it and one on which
the prediction is "no change".

This module imports nothing from ``repro``: the harness parent reads it
without paying for NumPy, and the child turns a workload into library
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Assembly parameters shared by every workload (the paper's defaults
#: except ``k``, which the scaled-down genomes need smaller).
COMMON_CONFIG = {
    "k": 21,
    "coverage_threshold": 1,
    "tip_length_threshold": 80,
    "bubble_edit_distance": 5,
    "labeling_method": "list_ranking",
}

#: Cost-model constants of the Figure 12 benchmark, copied so that the
#: benchmark does not import ``repro.bench.harness``.
FIG12_CLUSTER = {
    "seconds_per_compute_op": 4.0e-5,
    "seconds_per_byte": 2.0e-5,
    "barrier_seconds": 0.1,
    "job_overhead_seconds": 1.0,
    "loading_seconds_per_op": 2.0e-4,
}

READ_LENGTH = 100
REPEAT_FRACTION = 0.04
#: Contigs shorter than this are ignored by the quality oracle.
MIN_CONTIG_LENGTH = 100


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark: an input recipe and a runtime path."""

    name: str
    genome_length: int
    coverage: float
    error_rate: float
    backend: str = "serial"
    num_workers: int = 16
    memory_budget_mb: Optional[float] = None
    #: Lowest genome fraction (%) any seed may produce; below it a
    #: repetition counts as failed.  Found by sweeping 40 seeds.
    min_genome_fraction: float = 85.0
    #: Which layer the workload was built to stress: ``"labeling"`` or
    #: ``"ingest"`` (parse + construction).  The traced run checks it.
    dominant: str = "labeling"
    #: Field overrides naming the runtime path the traced run compares
    #: this workload with, on the same input: the serial backend with
    #: the same worker count for ``label_mp2``, no budget for
    #: ``label_spill``.
    compare: Optional[Dict[str, object]] = None
    #: Nodes of the fixed graphs the bare PPA kernels are probed on.
    probe_nodes: int = 5000
    #: The kernels the timings are normalised by, and how often each runs
    #: between two repetitions (``calibrate.py``).
    calibration: Tuple[str, ...] = ("interpreter",)
    gap_samples: int = 3

    @property
    def error_free(self) -> bool:
        return self.error_rate == 0.0

    @property
    def input_bases(self) -> int:
        return int(round(self.coverage * self.genome_length / READ_LENGTH)) * READ_LENGTH

    def comparison(self) -> Optional["Workload"]:
        """The runtime path the traced run compares this workload with."""
        if self.compare is None:
            return None
        return replace(self, compare=None, **self.compare)

    def smoke(self) -> "Workload":
        """A few-hundred-millisecond sizing for the schema test."""
        budget = None if self.memory_budget_mb is None else self.memory_budget_mb / 8
        deep = self.coverage > 100
        return replace(
            self,
            genome_length=max(600, self.genome_length // 12),
            coverage=self.coverage / 10 if deep else self.coverage,
            # Spill cost is per partition and superstep, not per base.
            num_workers=min(self.num_workers, 4),
            memory_budget_mb=budget,
            probe_nodes=self.probe_nodes // 10,
            gap_samples=1,
        )


WORKLOADS = (
    Workload(
        name="label_serial",
        genome_length=12000,
        coverage=20.0,
        error_rate=0.005,
    ),
    Workload(
        name="label_mp2",
        genome_length=12000,
        coverage=20.0,
        error_rate=0.005,
        backend="multiprocess",
        num_workers=2,
        compare={"backend": "serial"},
    ),
    Workload(
        name="label_spill",
        genome_length=6000,
        coverage=20.0,
        error_rate=0.005,
        memory_budget_mb=1.0,
        compare={"memory_budget_mb": None},
    ),
    Workload(
        name="ingest_deep",
        genome_length=3000,
        coverage=5000.0,
        error_rate=0.0,
        min_genome_fraction=90.0,
        dominant="ingest",
        calibration=("interpreter", "array"),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
