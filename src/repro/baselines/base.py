"""Shared machinery for the baseline assemblers.

The paper compares PPA-assembler against ABySS 1.5.2, Ray 2.3.1 and
SWAP-Assembler 3.0 (Spaler is discussed but not open source).  Those
binaries are not available offline, so :mod:`repro.baselines`
re-implements each tool's *assembly strategy* — the part that drives
both its contig quality and its communication pattern — on top of the
same DNA/DBG substrate used by PPA-assembler.  What is reproduced per
baseline:

* the way it builds the de Bruijn graph (ABySS probes all eight
  possible neighbours; SWAP keeps unfiltered error edges; Ray works
  from a k-mer coverage table);
* the way it extracts contigs (path walking, greedy seed extension,
  aggressive repeat pairing);
* the *communication pattern class* that determines how its execution
  time scales with the number of workers, encoded as a per-baseline
  cost formula evaluated from measured quantities (k-mer counts, edge
  counts, contig lengths).  This is what Figure 12 actually compares:
  PPA-assembler and SWAP scale with workers, ABySS is insensitive to
  the worker count, Ray is an order of magnitude slower.

The absolute seconds produced by these models are not comparable with
the paper's cluster, but the relative ordering and scaling shape are
the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..dna.io_fastq import Read


@dataclass
class BaselineResult:
    """Contigs plus cost accounting from one baseline run."""

    assembler: str
    contigs: List[str]
    num_workers: int
    #: Quantities measured during the run, used by the cost formula and
    #: reported by benchmarks (e.g. number of k-mers, graph edges).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Estimated end-to-end execution seconds on the simulated cluster.
    estimated_seconds: float = 0.0

    def contigs_longer_than(self, min_length: int) -> List[str]:
        return [contig for contig in self.contigs if len(contig) >= min_length]

    def num_contigs(self, min_length: int = 0) -> int:
        return len(self.contigs_longer_than(min_length))

    def total_length(self, min_length: int = 0) -> int:
        return sum(len(contig) for contig in self.contigs_longer_than(min_length))

    def largest_contig(self) -> int:
        return max((len(contig) for contig in self.contigs), default=0)


class BaselineAssembler(ABC):
    """Interface shared by the baseline assemblers.

    ``backend`` selects the execution runtime, mirroring
    :class:`~repro.assembler.config.AssemblyConfig` so that every
    workload in a benchmark run — PPA-assembler and baselines alike —
    can be driven with the same backend choice.  The baseline
    strategies price their communication through per-tool cost
    formulas, so the backend only affects any Pregel machinery a
    strategy chooses to run, not its contigs.
    """

    #: Human-readable tool name, as used in the paper's tables.
    name: str = "baseline"

    def __init__(self, k: int = 21, num_workers: int = 4, backend: str = "serial") -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        from ..runtime import ensure_backend

        self.k = k
        self.num_workers = num_workers
        self.backend = ensure_backend(backend)

    @abstractmethod
    def assemble(self, reads: Iterable[Read]) -> BaselineResult:
        """Assemble ``reads`` and return contigs plus cost estimates."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _result(
        self,
        contigs: List[str],
        counters: Dict[str, int],
        estimated_seconds: float,
    ) -> BaselineResult:
        return BaselineResult(
            assembler=self.name,
            contigs=sorted(contigs, key=len, reverse=True),
            num_workers=self.num_workers,
            counters=dict(counters),
            estimated_seconds=estimated_seconds,
        )
