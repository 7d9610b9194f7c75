"""The PPA-assembler workflow driver.

The paper's experiments use the workflow ① ② ③ ④ ⑤ ⑥ ② ③ of Figure 10:
build the de Bruijn graph, label and merge contigs, correct errors
(bubble filtering then tip removing), and finally label and merge once
more so that contigs grow across junctions that error correction
resolved.  :func:`build_assembly_workflow` declares exactly that
workflow as a :class:`~repro.workflow.Workflow` — the five operations
as named stages, with paired-end scaffolding as an optional last stage
— and :class:`PPAAssembler` executes it through a
:class:`~repro.workflow.WorkflowRunner`, which is where backend
selection, progress events, and checkpoint/resume come from.  The
individual operations remain available as functions for users who want
to compose their own strategy (the toolkit spirit of the paper).
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional

from ..dbg.ids import ContigIdAllocator
from ..dna.io_fastq import Read, ReadPair, reads_from_pairs
from ..scaffold.scaffolder import scaffold_contigs
from ..workflow import EventSubscriber, Stage, Workflow, WorkflowRunner
from .bubble import filter_bubbles
from .config import AssemblyConfig
from .construction import build_dbg
from .labeling import label_contigs
from .merging import merge_contigs
from .results import AssemblyResult
from .tips import remove_tips

#: Name of the declared assembly workflow (used in checkpoint files).
ASSEMBLY_WORKFLOW_NAME = "ppa-assembly"


# ----------------------------------------------------------------------
# the five operations as workflow stage bodies
#
# Every function reads and writes the workflow context: inputs and
# intermediate products live in ``ctx.state`` (which is what gets
# checkpointed), metered sub-jobs run on the context's executor, and
# the growing AssemblyResult carries the user-facing stage summaries.
# ----------------------------------------------------------------------
def _stage_construction(ctx) -> None:
    """① DBG construction; also seeds the result and the id allocator."""
    config: AssemblyConfig = ctx.require("config")
    construction = build_dbg(ctx.require("reads"), config, ctx.executor)
    # No later stage reads the raw reads (scaffolding uses ``pairs``),
    # so drop them: keeps peak memory at pre-workflow levels and keeps
    # every per-stage checkpoint from re-pickling the whole library.
    ctx.state.pop("reads", None)
    graph = construction.graph
    result = AssemblyResult(
        config=config, graph=graph, metrics=ctx.executor.pipeline_metrics
    )
    ctx.state["result"] = result
    ctx.state["allocator"] = ContigIdAllocator()
    result.add_stage(
        "dbg-construction",
        kmer_vertices=graph.kmer_count(),
        distinct_kplus1mers=construction.distinct_kplus1mers,
        filtered_kplus1mers=construction.filtered_kplus1mers,
        reads_without_kplus1mer=construction.reads_without_kplus1mer,
    )


def _stage_label_kmers(ctx) -> None:
    """② contig labeling over the k-mer chains (first round)."""
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    labeling = label_contigs(result.graph, config, ctx.executor, include_contigs=False)
    ctx.state["labeling"] = labeling
    result.labeling_metrics["kmers"] = labeling.metrics
    result.add_stage(
        "contig-labeling/kmers",
        method=labeling.method,
        labelled_vertices=len(labeling.labels),
        supersteps=labeling.num_supersteps,
        messages=labeling.num_messages,
        cycle_fallback=labeling.used_cycle_fallback,
    )


def _stage_merge_first(ctx) -> None:
    """③ contig merging (first round)."""
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    merging = merge_contigs(
        result.graph,
        ctx.require("labeling"),
        config,
        ctx.executor,
        ctx.require("allocator"),
    )
    result.add_stage(
        "contig-merging/first-round",
        contigs=len(merging.contigs_created),
        tips_dropped=merging.tips_dropped,
        cycles=merging.cycles_merged,
    )


def _stage_bubbles(ctx) -> None:
    """④ bubble filtering (the summary is emitted with ⑤'s numbers)."""
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    ctx.state["bubbles"] = filter_bubbles(result.graph, config, ctx.executor)


def _stage_tips(ctx, round_index: int) -> None:
    """⑤ tip removing; emits the round's combined error-correction summary."""
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    tips = remove_tips(result.graph, config, ctx.executor)
    bubbles = ctx.state.pop("bubbles")
    result.add_stage(
        f"error-correction/round-{round_index}",
        bubbles_pruned=bubbles.num_pruned,
        tip_phases=tips.phases,
        tips_removed=tips.tips_removed,
    )


def _stage_relabel(ctx, round_index: int) -> None:
    """⑥② contig labeling with existing contigs participating."""
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    relabeling = label_contigs(result.graph, config, ctx.executor, include_contigs=True)
    ctx.state["labeling"] = relabeling
    if round_index == 1:
        result.labeling_metrics["contigs"] = relabeling.metrics
    result.add_stage(
        f"contig-labeling/contigs-round-{round_index}",
        method=relabeling.method,
        labelled_vertices=len(relabeling.labels),
        supersteps=relabeling.num_supersteps,
        messages=relabeling.num_messages,
        cycle_fallback=relabeling.used_cycle_fallback,
    )


def _stage_remerge(ctx, round_index: int) -> None:
    """③ contig merging after error correction."""
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    remerging = merge_contigs(
        result.graph,
        ctx.require("labeling"),
        config,
        ctx.executor,
        ctx.require("allocator"),
    )
    result.add_stage(
        f"contig-merging/round-{round_index + 1}",
        contigs=len(remerging.contigs_created),
        tips_dropped=remerging.tips_dropped,
        cycles=remerging.cycles_merged,
    )


def _stage_scaffold(ctx) -> None:
    """Paired-end scaffolding over the final contigs, when pairs were given."""
    if not ctx.state.get("pairs"):
        return
    config: AssemblyConfig = ctx.require("config")
    result: AssemblyResult = ctx.require("result")
    scaffolding = scaffold_contigs(
        result.contigs,
        ctx.require("pairs"),
        ctx.executor,
        seed_k=config.k,
        min_links=config.scaffold_min_links,
        insert_size=config.scaffold_insert_size,
    )
    result.scaffolding = scaffolding
    result.add_stage(
        "scaffolding",
        contigs=len(scaffolding.contigs),
        scaffolds=len(scaffolding.scaffolds),
        joined=scaffolding.num_joined(),
        links_used=scaffolding.num_links_used,
        pairs_mapped=scaffolding.num_pairs_mapped,
        insert_size=round(scaffolding.insert_size, 1),
    )


def build_assembly_workflow(config: AssemblyConfig) -> Workflow:
    """Declare the paper's default workflow ①②③(④⑤⑥②③)* for ``config``.

    The returned stage list is exactly Figure 10's arrows, with one
    group of four stages per error-correction round, plus a
    ``scaffolding`` stage when ``config.scaffold`` is set (it does
    nothing unless read pairs are present).  The workflow is
    data-free: execute it with a
    :class:`~repro.workflow.WorkflowRunner` and a state holding
    ``reads`` (and optionally ``pairs``), or just inspect/print it
    (``repro-assemble --list-stages``).
    """
    workflow = Workflow(
        ASSEMBLY_WORKFLOW_NAME,
        description="PPA-assembler default workflow ①②③(④⑤⑥②③)* of Figure 10",
    )
    workflow.add(Stage("dbg-construction", _stage_construction))
    workflow.add(Stage("contig-labeling/kmers", _stage_label_kmers))
    workflow.add(Stage("contig-merging/first-round", _stage_merge_first))
    for round_index in range(1, config.error_correction_rounds + 1):
        workflow.add(Stage(f"bubble-filtering/round-{round_index}", _stage_bubbles))
        workflow.add(
            Stage(
                f"tip-removing/round-{round_index}",
                partial(_stage_tips, round_index=round_index),
            )
        )
        workflow.add(
            Stage(
                f"contig-labeling/contigs-round-{round_index}",
                partial(_stage_relabel, round_index=round_index),
            )
        )
        workflow.add(
            Stage(
                f"contig-merging/round-{round_index + 1}",
                partial(_stage_remerge, round_index=round_index),
            )
        )
    if config.scaffold:
        workflow.add(Stage("scaffolding", _stage_scaffold))
    return workflow


class PPAAssembler:
    """End-to-end assembler implementing the paper's default workflow."""

    def __init__(self, config: Optional[AssemblyConfig] = None) -> None:
        self.config = config or AssemblyConfig()

    def workflow(self) -> Workflow:
        """The declared assembly workflow for this assembler's config."""
        return build_assembly_workflow(self.config)

    def runner(
        self,
        checkpoint_dir=None,
        subscriber: Optional[EventSubscriber] = None,
    ) -> WorkflowRunner:
        """A runner configured the way this assembler executes workflows."""
        return WorkflowRunner(
            self.config.runtime, checkpoint_dir=checkpoint_dir, subscriber=subscriber
        )

    def assemble(
        self,
        reads: Iterable[Read],
        pairs: Optional[List[ReadPair]] = None,
        checkpoint_dir=None,
        resume: bool = False,
        subscriber: Optional[EventSubscriber] = None,
    ) -> AssemblyResult:
        """Assemble ``reads`` into contigs using workflow ①②③④⑤(⑥②③)*.

        When ``config.scaffold`` is set and ``pairs`` carries the reads'
        pairing (normally supplied via :meth:`assemble_paired`), the
        paired-end scaffolding stage runs after the final merge.

        ``checkpoint_dir`` persists the workflow state after every
        stage; ``resume=True`` then continues a previous run from its
        last completed stage (bit-identically), or starts fresh when no
        checkpoint exists yet.  ``subscriber`` receives the run's
        workflow events.
        """
        workflow = build_assembly_workflow(self.config)
        runner = self.runner(checkpoint_dir=checkpoint_dir, subscriber=subscriber)
        state = {
            "config": self.config,
            # Construction consumes the reads chunk by chunk.  Only a
            # checkpointed run needs them all at once: the runner
            # fingerprints, and may pickle, its seed state.
            "reads": reads if checkpoint_dir is None else list(reads),
            "pairs": list(pairs) if pairs is not None else None,
        }
        ctx = runner.run(workflow, state=state, resume=resume)
        return ctx.state["result"]

    def assemble_paired(
        self,
        pairs: Iterable[ReadPair],
        checkpoint_dir=None,
        resume: bool = False,
        subscriber: Optional[EventSubscriber] = None,
    ) -> AssemblyResult:
        """Assemble a paired-end library.

        Both mates feed the de Bruijn graph exactly as unpaired reads
        would (the paper's workflow is pairing-agnostic); the pairing
        itself is kept aside and consumed by the scaffolding stage
        when ``config.scaffold`` is enabled.
        """
        pair_list = list(pairs)
        return self.assemble(
            reads_from_pairs(pair_list),
            pairs=pair_list,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            subscriber=subscriber,
        )


def assemble_reads(
    reads: Iterable[Read],
    config: Optional[AssemblyConfig] = None,
) -> AssemblyResult:
    """One-call convenience wrapper around :class:`PPAAssembler`."""
    return PPAAssembler(config).assemble(reads)
