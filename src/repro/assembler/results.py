"""Assembly results: what an end user gets back from the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dbg.graph import DeBruijnGraph
from ..dna.io_fastq import FastaRecord, write_fasta
from ..pregel.cost_model import ClusterProfile, CostModel
from ..pregel.metrics import JobMetrics, PipelineMetrics
from ..scaffold.scaffolder import ScaffoldingResult
from .config import AssemblyConfig


@dataclass
class StageSummary:
    """One pipeline stage's headline numbers (shown by examples/reports)."""

    name: str
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class AssemblyResult:
    """Everything produced by one :class:`~repro.assembler.pipeline.PPAAssembler` run."""

    config: AssemblyConfig
    graph: DeBruijnGraph
    metrics: PipelineMetrics
    stages: List[StageSummary] = field(default_factory=list)
    labeling_metrics: Dict[str, List[JobMetrics]] = field(default_factory=dict)
    scaffolding: Optional[ScaffoldingResult] = None

    # ------------------------------------------------------------------
    # contig access
    # ------------------------------------------------------------------
    @property
    def contigs(self) -> List[str]:
        """All assembled contig sequences, longest first."""
        return sorted(self.graph.contig_sequences(), key=len, reverse=True)

    def contigs_longer_than(self, min_length: int) -> List[str]:
        """Contigs above a length cutoff (QUAST uses 500 bp by default)."""
        return [sequence for sequence in self.contigs if len(sequence) >= min_length]

    def num_contigs(self, min_length: int = 0) -> int:
        return len(self.contigs_longer_than(min_length))

    def total_length(self, min_length: int = 0) -> int:
        return sum(len(sequence) for sequence in self.contigs_longer_than(min_length))

    def largest_contig(self) -> int:
        contigs = self.contigs
        return len(contigs[0]) if contigs else 0

    def write_fasta(self, path) -> int:
        """Write the contigs to a FASTA file; returns the record count."""
        records = [
            FastaRecord(name=f"contig_{index}_len_{len(sequence)}", sequence=sequence)
            for index, sequence in enumerate(self.contigs)
        ]
        return write_fasta(records, path)

    # ------------------------------------------------------------------
    # scaffold access (populated when config.scaffold ran on read pairs)
    # ------------------------------------------------------------------
    @property
    def scaffolds(self) -> List[str]:
        """All scaffold sequences, longest first (empty if the stage didn't run)."""
        if self.scaffolding is None:
            return []
        return self.scaffolding.sequences

    def scaffolds_longer_than(self, min_length: int) -> List[str]:
        return [sequence for sequence in self.scaffolds if len(sequence) >= min_length]

    def write_scaffold_fasta(self, path) -> int:
        """Write the scaffolds to a FASTA file; returns the record count."""
        if self.scaffolding is None:
            raise ValueError(
                "no scaffolds to write: the scaffolding stage did not run "
                "(enable AssemblyConfig.scaffold and assemble read pairs)"
            )
        return self.scaffolding.write_fasta(path)

    # ------------------------------------------------------------------
    # cost model hooks
    # ------------------------------------------------------------------
    def estimated_seconds(self, profile: Optional[ClusterProfile] = None) -> float:
        """Simulated end-to-end execution time (Figure 12's measurement)."""
        return CostModel(profile).pipeline_seconds(self.metrics)

    def estimated_breakdown(self, profile: Optional[ClusterProfile] = None) -> Dict[str, float]:
        """Per-job simulated seconds."""
        return CostModel(profile).breakdown(self.metrics)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def stage(self, name: str) -> Optional[StageSummary]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def add_stage(self, name: str, **detail: object) -> None:
        self.stages.append(StageSummary(name=name, detail=dict(detail)))

    def metrics_payload(
        self,
        min_contig: int = 0,
        stage_seconds: Optional[Dict[str, float]] = None,
        wall_seconds: Optional[float] = None,
        reference_length: Optional[int] = None,
    ) -> Dict[str, object]:
        """The run's quality summary as a machine-readable JSON document.

        This is the single shape shared by the CLI's ``--metrics-json``
        flag and the job service's result endpoint: contig (and, when
        scaffolding ran, scaffold) contiguity statistics, the per-stage
        summaries, measured per-stage wall-clock seconds when the caller
        collected them from the runner's ``stage-end`` events, and the
        cost model's simulated cluster seconds.  ``*_ng50`` fields
        appear only when the reference length is known.
        """
        from dataclasses import asdict

        from ..quality.stats import l50_value, n50_value, ng50_value

        def contiguity(lengths: List[int]) -> Dict[str, object]:
            block: Dict[str, object] = {
                "count": len(lengths),
                "total_bp": sum(lengths),
                "largest": max(lengths, default=0),
                "n50": n50_value(lengths),
                "l50": l50_value(lengths),
            }
            if reference_length:
                block["ng50"] = ng50_value(lengths, reference_length)
            return block

        contig_lengths = [len(s) for s in self.contigs_longer_than(min_contig)]
        payload: Dict[str, object] = {
            "schema_version": 1,
            "min_contig": min_contig,
            "config": asdict(self.config),
            "contigs": contiguity(contig_lengths),
            "scaffolds": (
                contiguity(
                    [len(s) for s in self.scaffolds_longer_than(min_contig)]
                )
                if self.scaffolding is not None
                else None
            ),
            "stages": [
                {"name": stage.name, **stage.detail} for stage in self.stages
            ],
            "estimated_cluster_seconds": round(self.estimated_seconds(), 6),
        }
        if reference_length:
            payload["reference_length"] = reference_length
        if stage_seconds is not None:
            payload["stage_seconds"] = {
                name: round(seconds, 6) for name, seconds in stage_seconds.items()
            }
        if wall_seconds is not None:
            payload["wall_seconds"] = round(wall_seconds, 6)
        return payload

    def labeling_summary(self, which: str) -> Dict[str, int]:
        """Supersteps/messages/runtime proxy for one labeling invocation.

        ``which`` is ``"kmers"`` (the first ② of the workflow, Table II)
        or ``"contigs"`` (the second ②, Table III).
        """
        jobs = self.labeling_metrics.get(which, [])
        return {
            "supersteps": sum(job.num_supersteps for job in jobs),
            "messages": sum(job.total_messages for job in jobs),
            "estimated_seconds": sum(CostModel().job_seconds(job) for job in jobs),
        }
