"""Correctness oracle: is this repetition's output the right genome?

A repetition passes when

* its contig digest equals the warm-up repetition's (the program is
  deterministic, so any difference is a bug, not noise);
* the quality floors hold against the reference the reads were drawn
  from: genome fraction at least the workload's floor and no
  misassembled contig;
* on error-free reads every contig is an exact substring of the
  reference or of its reverse complement.

Quality is evaluated once per distinct digest, so a timed loop pays for
the aligner once.  ``check_shape`` is the second oracle: it tells a
traced run whose workload no longer does what it was chosen for.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dna import reverse_complement
from repro.quality import evaluate_assembly

from workloads import MIN_CONTIG_LENGTH, Workload

#: A workload chosen for labeling must spend at least this share of its
#: spans there; one chosen for ingest at least that share in parse +
#: construction.
MIN_LABELING_SHARE = 0.8
MIN_INGEST_SHARE = 0.5


def contig_digest(contigs: Sequence[str]) -> str:
    """SHA-256 of the sorted contigs: equal digests mean equal assemblies."""
    return hashlib.sha256("\n".join(sorted(contigs)).encode("ascii")).hexdigest()


@dataclass
class Verdict:
    """What the oracle found for one repetition."""

    digest: str
    problems: List[str] = field(default_factory=list)
    genome_fraction_pct: float = 0.0
    n50_bp: int = 0
    misassemblies: int = 0
    evaluate_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


class Oracle:
    """Judges repetitions of one workload against one reference genome."""

    def __init__(self, workload: Workload, reference: str) -> None:
        self._workload = workload
        self._reference = reference
        self._reverse = reverse_complement(reference)
        self._expected_digest: Optional[str] = None
        self._by_digest: Dict[str, Verdict] = {}

    def check(self, contigs: Sequence[str]) -> Verdict:
        """Judge one repetition; the first call fixes the expected digest."""
        digest = contig_digest(contigs)
        verdict = self._by_digest.get(digest)
        if verdict is None:
            verdict = self._evaluate(digest, contigs)
            self._by_digest[digest] = verdict
        if self._expected_digest is None:
            self._expected_digest = digest
        elif digest != self._expected_digest:
            return Verdict(
                digest=digest,
                problems=[
                    f"contig digest {digest[:12]} differs from the warm-up's "
                    f"{self._expected_digest[:12]}"
                ]
                + verdict.problems,
            )
        return verdict

    def _evaluate(self, digest: str, contigs: Sequence[str]) -> Verdict:
        workload = self._workload
        started = time.perf_counter()
        report = evaluate_assembly(
            contigs, self._reference, min_contig_length=MIN_CONTIG_LENGTH
        )
        verdict = Verdict(
            digest=digest,
            genome_fraction_pct=report.genome_fraction or 0.0,
            n50_bp=report.n50,
            misassemblies=report.misassemblies or 0,
            evaluate_s=time.perf_counter() - started,
        )
        if verdict.genome_fraction_pct < workload.min_genome_fraction:
            verdict.problems.append(
                f"genome fraction {verdict.genome_fraction_pct:.2f}% is below the "
                f"floor of {workload.min_genome_fraction}%"
            )
        if verdict.misassemblies:
            verdict.problems.append(f"{verdict.misassemblies} misassembled contig(s)")
        if workload.error_free:
            strangers = sum(
                1
                for contig in contigs
                if contig not in self._reference and contig not in self._reverse
            )
            if strangers:
                verdict.problems.append(
                    f"{strangers} contig(s) of an error-free input are not "
                    "substrings of the reference"
                )
        return verdict


def check_shape(workload: Workload, layers: Dict[str, float]) -> List[str]:
    """Why a traced run no longer measures what ``workload`` was chosen for."""
    problems = []
    labeling = layers["assembler.labeling_share"]
    ingest = layers["assembler.ingest_share"]
    if workload.dominant == "labeling" and labeling < MIN_LABELING_SHARE:
        problems.append(
            f"labeling is {labeling:.2f} of the spans, below {MIN_LABELING_SHARE}"
        )
    if workload.dominant == "ingest" and ingest < MIN_INGEST_SHARE:
        problems.append(
            f"parse + construction are {ingest:.2f} of the spans, below {MIN_INGEST_SHARE}"
        )
    spills = layers["store.spill_events"]
    if workload.memory_budget_mb is not None and spills <= 0:
        problems.append("a budgeted workload never spilled")
    if workload.memory_budget_mb is None and spills:
        problems.append(f"an unbudgeted workload spilled {spills:g} times")
    workers_ran = layers["runtime.worker_cpu_s"] > 0
    if workers_ran != (workload.backend == "multiprocess"):
        problems.append(
            "worker processes ran" if workers_ran else "no worker process ran"
        )
    return problems
