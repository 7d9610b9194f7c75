#!/usr/bin/env python3
"""Composing the toolkit operations into a custom declarative workflow.

PPA-assembler is a *toolkit*: the five operations of Figure 10 are
exposed individually so users can assemble their own workflow (the
paper's Section IV-B makes this point explicitly).  This example builds
a custom pipeline as a :class:`repro.workflow.Workflow` instead of
using :class:`PPAAssembler`:

* DBG construction with a stricter coverage threshold,
* contig labeling with the **simplified S-V** method instead of the
  default bidirectional list ranking (and a comparison of the two),
* two rounds of bubble filtering with different edit-distance budgets,
* a final merge, skipping tip removal entirely.

It then demonstrates the operational payoff of the declarative form:
the run checkpoints after every stage, a crash is simulated midway,
and ``WorkflowRunner.resume`` continues from the last completed stage
instead of recomputing anything.

Run with::

    python examples/custom_workflow.py

``REPRO_EXAMPLE_SCALE`` shrinks the dataset (used by the CI smoke run).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile

from repro.assembler import (
    AssemblyConfig,
    build_dbg,
    filter_bubbles,
    label_contigs,
    merge_contigs,
)
from repro.assembler.config import LABELING_SIMPLIFIED_SV
from repro.dbg.ids import ContigIdAllocator
from repro.dna import simulate_dataset
from repro.pregel import CostModel
from repro.quality import contig_statistics
from repro.workflow import Stage, Workflow, WorkflowRunner


EXAMPLE_SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))


# ── stage bodies: plain functions over the workflow context ──────────────
def stage_construction(ctx) -> None:
    config = ctx.require("config")
    construction = build_dbg(ctx.require("reads"), config, ctx.executor)
    ctx.state["graph"] = construction.graph
    # Created here, not in the seed state: checkpoints tie a resume to
    # the run's *initial* inputs, so seed values must stay immutable.
    ctx.state["allocator"] = ContigIdAllocator()
    print(f"\n① DBG: {construction.graph.kmer_count():,} k-mer vertices, "
          f"{construction.filtered_kplus1mers:,} low-coverage (k+1)-mers dropped")


def stage_labeling_comparison(ctx) -> None:
    config = ctx.require("config")
    graph = ctx.require("graph")
    sv_labeling = label_contigs(graph, config, ctx.executor)
    lr_labeling = label_contigs(graph, dataclasses.replace(config, labeling_method="list_ranking"), ctx.executor)
    ctx.state["labeling"] = sv_labeling
    print("\n② labeling comparison on this graph:")
    print(f"   simplified S-V : {sv_labeling.num_supersteps:3d} supersteps, "
          f"{sv_labeling.num_messages:,} messages")
    print(f"   list ranking   : {lr_labeling.num_supersteps:3d} supersteps, "
          f"{lr_labeling.num_messages:,} messages")


def stage_first_merge(ctx) -> None:
    merging = merge_contigs(
        ctx.require("graph"), ctx.require("labeling"),
        ctx.require("config"), ctx.executor, ctx.require("allocator"),
    )
    print(f"\n③ merged {len(merging.contigs_created)} contigs "
          f"({merging.tips_dropped} short dangling paths dropped)")


def stage_bubbles_strict(ctx) -> None:
    strict = filter_bubbles(ctx.require("graph"), ctx.require("config"), ctx.executor)
    ctx.state["strict_pruned"] = strict.num_pruned


def stage_bubbles_relaxed(ctx) -> None:
    from dataclasses import replace
    relaxed_config = replace(ctx.require("config"), bubble_edit_distance=8)
    relaxed = filter_bubbles(ctx.require("graph"), relaxed_config, ctx.executor)
    print(f"④ bubble filtering: {ctx.require('strict_pruned')} pruned at "
          f"distance<3, {relaxed.num_pruned} more at distance<8")


def stage_regrow(ctx) -> None:
    config = ctx.require("config")
    graph = ctx.require("graph")
    relabeling = label_contigs(graph, config, ctx.executor, include_contigs=True)
    final_merge = merge_contigs(graph, relabeling, config, ctx.executor, ctx.require("allocator"))
    print(f"⑥②③ regrown into {len(final_merge.contigs_created)} contigs")


def build_custom_workflow() -> Workflow:
    workflow = Workflow(
        "custom-sv-strategy",
        description="strict-θ construction, S-V labeling, double bubble pass, no tip removal",
    )
    workflow.add(Stage("construction", stage_construction))
    workflow.add(Stage("labeling-comparison", stage_labeling_comparison))
    workflow.add(Stage("first-merge", stage_first_merge))
    workflow.add(Stage("bubbles-strict", stage_bubbles_strict))
    workflow.add(Stage("bubbles-relaxed", stage_bubbles_relaxed))
    workflow.add(Stage("regrow", stage_regrow))
    return workflow


class SimulatedCrash(RuntimeError):
    """Stands in for the power loss a checkpointed run survives."""


def main() -> None:
    genome, reads = simulate_dataset(
        genome_length=max(2_000, int(15_000 * EXAMPLE_SCALE)),
        read_length=100,
        coverage=25,
        error_rate=0.008,
        seed=5,
    )
    print(f"genome {len(genome):,} bp, {len(reads):,} reads")

    config = AssemblyConfig(
        k=21,
        coverage_threshold=2,          # stricter than the default θ=1
        tip_length_threshold=80,
        bubble_edit_distance=3,
        labeling_method=LABELING_SIMPLIFIED_SV,
        num_workers=8,
    )
    workflow = build_custom_workflow()
    print("\n" + workflow.describe())

    state = {"config": config, "reads": reads}
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-custom-workflow-")

    # ── first attempt: checkpoint every stage, "crash" after stage 4 ──
    def crash_after_bubbles(event):
        if event.kind == "stage-end" and event.stage.name == "bubbles-strict":
            raise SimulatedCrash(event.stage.name)

    try:
        WorkflowRunner(
            num_workers=config.num_workers,
            checkpoint_dir=checkpoint_dir,
            subscriber=crash_after_bubbles,
        ).run(workflow, state=state)
        raise AssertionError("the simulated crash did not fire")
    except SimulatedCrash as crash:
        print(f"\n-- simulated crash after stage {crash} "
              f"(checkpoints in {checkpoint_dir})")

    # ── second attempt: resume skips everything already computed ──────
    def report_skips(event):
        if event.kind == "stage-skipped":
            print(
                f"   resume skips completed stage "
                f"{event.index + 1}/{event.total} {event.stage.name}"
            )

    ctx = WorkflowRunner(
        num_workers=config.num_workers,
        checkpoint_dir=checkpoint_dir,
        subscriber=report_skips,
    ).resume(workflow, state=state)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)

    # ── results ────────────────────────────────────────────────────────
    stats = contig_statistics(
        ctx.state["graph"].contig_sequences(), min_contig_length=100
    )
    print("\nfinal contigs (≥100 bp):")
    for key, value in stats.as_dict().items():
        print(f"  {key:20s} {value}")

    seconds = CostModel().pipeline_seconds(ctx.executor.pipeline_metrics)
    print(f"\nsimulated cluster time for the whole custom workflow: {seconds:.1f} s")
    print(f"jobs executed: {[job.job_name for job in ctx.executor.pipeline_metrics.jobs]}")


if __name__ == "__main__":
    main()
