"""``repro-assemble``: command-line front end for the PPA-assembler.

Four input modes, mirroring how the library is exercised elsewhere:

* ``--dataset NAME`` materialises one of the paper's Table I dataset
  profiles (scaled via ``--scale``);
* ``--fastq PATH`` assembles reads from a FASTQ file;
* ``--fastq-pair R1 R2`` assembles a paired-end library from two
  parallel FASTQ files (the ``_1.fastq`` / ``_2.fastq`` convention);
* ``--simulate LENGTH`` generates a random genome of the given length
  and simulates reads from it (quickstart mode, no input files needed).

``--scaffold`` runs the paired-end scaffolding stage after assembly;
it needs pairing information, so it combines with ``--fastq-pair`` or
with the simulating modes (which then draw read *pairs* using the
``--insert-size``/``--insert-std`` model).

The assembly runs on the execution backend chosen with ``--backend``
(serial simulation by default, ``multiprocess`` for real parallelism)
and prints a compact report: per-stage summaries, contig statistics and
wall-clock / simulated-cluster seconds.  ``--output`` additionally
writes the contigs as FASTA, ``--scaffold-output`` the scaffolds.

The assembly is a declared workflow (:mod:`repro.workflow`):
``--list-stages`` prints its DAG without running anything,
``--checkpoint-dir`` persists the workflow state after every stage, and
``--resume`` continues a checkpointed run from its last completed stage
(bit-identical to an uninterrupted run).

When the first argument is a service verb (``serve``, ``submit``,
``status``, ``result``, ``cancel``, ``jobs``), the CLI instead drives
the durable assembly job service (:mod:`repro.service`) — see
:mod:`repro.service.cli`.  ``repro-assemble report`` renders a
self-contained HTML ops report from a run's telemetry artefacts
(``trace.json`` / ``timeline.jsonl`` / ``metrics.json``) — see
:mod:`repro.telemetry.report`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from typing import Dict, List, Optional

from . import __version__
from .assembler import AssemblyConfig, PPAAssembler, build_assembly_workflow
from .assembler.config import LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV
from .errors import ReproError
from .quality.stats import n50_value
from .pregel.partitioner import PARTITIONER_NAMES
from .runtime import available_backends
from .runtime.base import MESSAGE_PLANES
from .workflow import WorkflowEvent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-assemble",
        description="De novo genome assembly with the PPA-assembler reproduction.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro-assemble {__version__}",
        help="print the package version and exit",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        metavar="NAME",
        help="Table I dataset profile to simulate (e.g. hc2, hcx, hc14, bi)",
    )
    source.add_argument(
        "--fastq",
        metavar="PATH",
        help="assemble reads from a FASTQ file",
    )
    source.add_argument(
        "--fastq-pair",
        nargs=2,
        metavar=("R1", "R2"),
        help="assemble a paired-end library from two parallel FASTQ files",
    )
    source.add_argument(
        "--simulate",
        metavar="LENGTH",
        type=int,
        help="simulate reads from a random genome of this length",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="genome-length multiplier for --dataset profiles (default 0.25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="random seed for --simulate (default 0)"
    )
    parser.add_argument("-k", type=int, default=21, help="k-mer size (odd, default 21)")
    parser.add_argument(
        "--coverage-threshold",
        type=int,
        default=1,
        help="drop (k+1)-mers observed at most this many times (default 1)",
    )
    parser.add_argument(
        "--labeling",
        choices=[LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV],
        default=LABELING_LIST_RANKING,
        help="contig-labeling method (default list_ranking)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend for the Pregel stages (default serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="number of Pregel workers (default 4)"
    )
    parser.add_argument(
        "--message-plane",
        choices=MESSAGE_PLANES,
        default="shm",
        help="multiprocess data plane: 'shm' exchanges message batches "
        "through shared-memory arenas (default; auto-falls back to "
        "'queue' when /dev/shm is unusable), 'queue' always pickles "
        "batches through the queues; ignored by the serial backend",
    )
    parser.add_argument(
        "--partitioner",
        choices=PARTITIONER_NAMES,
        default="hash",
        help="vertex-to-worker strategy: 'hash' (default) or "
        "'prefix_range' (k-mer-prefix ranges that keep most DBG edges "
        "worker-local, reducing cross-worker messages)",
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="bound the assembly's working memory: DBG construction takes "
        "the reads (loaded whole by this command) in bounded chunks, and "
        "idle k-mer runs, graph partitions and message batches spill to "
        "disk once the budget is exceeded (results stay bit-identical; "
        "default unlimited)",
    )
    parser.add_argument(
        "--no-vectorized",
        action="store_true",
        help="disable the NumPy batch kernels and run the scalar "
        "reference path (results are bit-identical, just slower)",
    )
    parser.add_argument(
        "--scaffold",
        action="store_true",
        help="run paired-end scaffolding after assembly (needs --fastq-pair, "
        "or a simulating mode which then draws read pairs)",
    )
    parser.add_argument(
        "--insert-size",
        type=float,
        default=None,
        help="paired-end insert size mean: sizes simulated pairs "
        "(default 500) and overrides the scaffolder's own estimate "
        "(default: estimate from same-contig pairs)",
    )
    parser.add_argument(
        "--insert-std",
        type=float,
        default=50.0,
        help="paired-end insert size standard deviation for simulated "
        "pairs (default 50)",
    )
    parser.add_argument(
        "--min-links",
        type=int,
        default=2,
        help="read pairs required to support a scaffold link (default 2)",
    )
    parser.add_argument(
        "--scaffold-output",
        metavar="FASTA",
        help="write the scaffolds to this FASTA file (implies --scaffold)",
    )
    parser.add_argument(
        "--min-contig",
        type=int,
        default=0,
        help="only count/report contigs at least this long (default 0)",
    )
    parser.add_argument(
        "--output",
        metavar="FASTA",
        help="write the assembled contigs to this FASTA file",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the run's quality summary (contig/scaffold N50, NG50 "
        "when the reference length is known, per-stage timings) as JSON — "
        "the same payload the job service's result endpoint returns",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist the workflow state to this directory after every "
        "stage, so an interrupted assembly can be continued with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the last completed stage checkpointed in "
        "--checkpoint-dir (starts fresh when no checkpoint exists yet)",
    )
    parser.add_argument(
        "--list-stages",
        action="store_true",
        help="print the assembly workflow DAG for this configuration and "
        "exit without assembling anything",
    )
    telemetry = parser.add_argument_group(
        "telemetry", "structured logging and tracing (see docs/observability.md)"
    )
    telemetry.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="root log level (debug/info/warning/error); configures "
        "structured logging for the run",
    )
    telemetry.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines (one object per line, with "
        "trace/span ids when tracing is active)",
    )
    telemetry.add_argument(
        "--trace-out",
        metavar="PATH",
        help="trace the assembly and write the span tree (workflow -> "
        "stages -> supersteps -> workers) to this JSON file",
    )
    telemetry.add_argument(
        "--timeline-out",
        metavar="PATH",
        help="record a run timeline (periodic RSS/CPU samples plus "
        "superstep and stage boundary events, merged across worker "
        "processes) and write it as JSONL to this file",
    )
    telemetry.add_argument(
        "--profile",
        metavar="PATH",
        help="profile the run with cProfile (per stage, and per worker "
        "process on the multiprocess backend) and write merged "
        "collapsed stacks (flamegraph.pl / speedscope compatible) to "
        "this file; --metrics-json additionally gains a hotspot table",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the final statistics line"
    )
    return parser


def _load_input(args: argparse.Namespace):
    """Materialise the input via the job-service spec machinery.

    Returns the :class:`~repro.service.spec.MaterializedInput` —
    reads, optional pairs, the reference length when the mode knows it,
    and a printable description.  Building a :class:`JobSpec` from the
    flags keeps the one-shot CLI and a submitted service job on one
    materialisation path: the same flags always produce the same reads
    on both surfaces.
    """
    from .service.spec import JobSpec, input_block_from_args

    scaffold = bool(args.scaffold or args.scaffold_output)
    spec = JobSpec(
        input=input_block_from_args(args),
        config={"scaffold": True} if scaffold else {},
    )
    return spec.materialize()


#: Mirror of :data:`repro.service.cli.SERVICE_VERBS`, duplicated as a
#: literal so a plain one-shot run (or --help) never imports the
#: serving stack (sqlite3, http.server, urllib); a test asserts the
#: two tuples stay in sync.
_SERVICE_VERBS = ("serve", "submit", "status", "result", "cancel", "jobs")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SERVICE_VERBS:
        from .service.cli import service_main

        return service_main(argv)
    if argv and argv[0] == "report":
        return _report_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    scaffold = bool(args.scaffold or args.scaffold_output)
    if scaffold and args.fastq is not None:
        parser.error(
            "--scaffold needs pairing information: use --fastq-pair (or a "
            "simulating mode, which then draws read pairs)"
        )
    has_source = any(
        value is not None
        for value in (args.dataset, args.fastq, args.fastq_pair, args.simulate)
    )
    if not has_source and not args.list_stages:
        parser.error(
            "one of --dataset, --fastq, --fastq-pair, --simulate is required "
            "(only --list-stages works without an input)"
        )
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume needs --checkpoint-dir")

    if args.log_json or args.log_level is not None:
        from .telemetry import configure_logging

        try:
            configure_logging(args.log_level or "info", json_lines=args.log_json)
        except ValueError as exc:
            parser.error(str(exc))

    try:
        config = AssemblyConfig(
            k=args.k,
            coverage_threshold=args.coverage_threshold,
            labeling_method=args.labeling,
            num_workers=args.workers,
            backend=args.backend,
            message_plane=args.message_plane,
            partitioner=args.partitioner,
            use_vectorized=not args.no_vectorized,
            scaffold=scaffold,
            scaffold_min_links=args.min_links,
            scaffold_insert_size=args.insert_size,
            memory_budget_mb=args.memory_budget_mb,
        )
    except ReproError as exc:
        parser.error(str(exc))

    if args.list_stages:
        print(build_assembly_workflow(config).describe())
        return 0

    try:
        material = _load_input(args)
    except (OSError, ValueError, ReproError) as exc:
        print(f"repro-assemble: failed to load reads: {exc}", file=sys.stderr)
        return 1
    reads, pairs = material.reads, material.pairs
    reference_length = material.reference_length

    if not args.quiet:
        print(f"assembling {len(reads)} reads from {material.description}")
        print(
            f"  k={config.k} workers={config.num_workers} "
            f"backend={config.backend} labeling={config.labeling_method} "
            f"plane={config.message_plane} partitioner={config.partitioner}"
        )

    stage_seconds: Dict[str, float] = {}
    verbose_checkpoints = not args.quiet and args.checkpoint_dir

    def on_event(event: WorkflowEvent) -> None:
        stage = event.stage
        if event.kind == "stage-end":
            stage_seconds[stage.name] = stage_seconds.get(stage.name, 0.0) + event.seconds
        elif verbose_checkpoints and event.kind == "stage-skipped":
            print(
                f"  resume: skipping completed stage "
                f"{event.index + 1}/{event.total} {stage.name}"
            )
        elif verbose_checkpoints and event.kind == "checkpoint":
            print(f"  checkpointed {stage.name} -> {event.path}")

    # --trace-out installs a real tracer for the run and opens a root
    # span; the tree is written even when the assembly fails, so an
    # aborted run can still be profiled.  --timeline-out and --profile
    # follow the same pattern with the timeline recorder (plus a
    # background resource sampler) and the cProfile collector.
    trace_stack = ExitStack()
    root_span = None
    timeline = None
    sampler = None
    profiler = None
    if args.trace_out:
        from .telemetry import Tracer
        from .telemetry import span as telemetry_span
        from .telemetry import use_tracer

        trace_stack.enter_context(use_tracer(Tracer()))
        root_span = trace_stack.enter_context(
            telemetry_span(
                "assemble",
                reads=len(reads),
                k=config.k,
                backend=config.backend,
                workers=config.num_workers,
            )
        )
    if args.timeline_out:
        from .telemetry import ResourceSampler, TimelineRecorder, use_timeline

        timeline = TimelineRecorder()
        trace_stack.enter_context(use_timeline(timeline))
        sampler = ResourceSampler(timeline).start()
    if args.profile:
        from .telemetry import ProfileCollector, use_profiler

        profiler = ProfileCollector()
        trace_stack.enter_context(use_profiler(profiler))

    from .store.spill import memory_payload, process_spill_stats

    spill_before = process_spill_stats().snapshot()
    started = time.perf_counter()
    try:
        result = PPAAssembler(config).assemble(
            reads,
            pairs=pairs,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            subscriber=on_event,
        )
    except ReproError as exc:
        print(f"repro-assemble: assembly failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if sampler is not None:
            sampler.stop()
        trace_stack.close()
        if root_span is not None:
            from .telemetry import write_trace

            write_trace(root_span.finish(), args.trace_out)
            if not args.quiet:
                print(f"wrote trace to {args.trace_out}")
        if timeline is not None:
            from .telemetry import write_timeline

            write_timeline(timeline, args.timeline_out)
            if not args.quiet:
                print(f"wrote timeline to {args.timeline_out}")
        if profiler is not None:
            profiler.write_folded(args.profile)
            if not args.quiet:
                print(f"wrote collapsed profile stacks to {args.profile}")
    wall_seconds = time.perf_counter() - started

    if scaffold and result.scaffolding is None:
        print(
            "repro-assemble: scaffolding skipped: the input contained no read pairs",
            file=sys.stderr,
        )

    if not args.quiet:
        for stage in result.stages:
            detail = " ".join(f"{key}={value}" for key, value in stage.detail.items())
            print(f"  [{stage.name}] {detail}")

    contigs = result.contigs_longer_than(args.min_contig)
    lengths = [len(contig) for contig in contigs]
    summary = (
        f"contigs={len(contigs)} total_bp={sum(lengths)} "
        f"largest={max(lengths, default=0)} n50={n50_value(lengths)}"
    )
    if result.scaffolding is not None:
        scaffold_lengths = [
            len(sequence) for sequence in result.scaffolds_longer_than(args.min_contig)
        ]
        summary += (
            f" scaffolds={len(scaffold_lengths)}"
            f" scaffold_n50={n50_value(scaffold_lengths)}"
        )
    print(
        f"{summary} wall_seconds={wall_seconds:.2f} "
        f"simulated_seconds={result.estimated_seconds():.2f}"
    )

    if args.metrics_json:
        payload = result.metrics_payload(
            min_contig=args.min_contig,
            stage_seconds=stage_seconds,
            wall_seconds=wall_seconds,
            reference_length=reference_length,
        )
        payload["memory"] = memory_payload(config.memory_budget_mb, spill_before)
        if profiler is not None:
            payload["profile"] = profiler.payload()
        with open(args.metrics_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.quiet:
            print(f"wrote metrics JSON to {args.metrics_json}")

    if args.output:
        written = result.write_fasta(args.output)
        if not args.quiet:
            print(f"wrote {written} contigs to {args.output}")
    if args.scaffold_output and result.scaffolding is not None:
        written = result.write_scaffold_fasta(args.scaffold_output)
        if not args.quiet:
            print(f"wrote {written} scaffolds to {args.scaffold_output}")
    return 0


def _report_main(argv: List[str]) -> int:
    """``repro-assemble report``: render an HTML ops report offline.

    Reads whatever telemetry artefacts a run left behind — either a
    directory (a service job dir, or wherever ``--trace-out`` /
    ``--timeline-out`` / ``--metrics-json`` wrote) or explicit file
    paths — and writes one self-contained HTML page.
    """
    parser = argparse.ArgumentParser(
        prog="repro-assemble report",
        description="Render a self-contained HTML ops report (span "
        "waterfall, RSS/message-rate timelines, hotspot table) from a "
        "run's telemetry artefacts.",
    )
    parser.add_argument(
        "run_dir",
        nargs="?",
        metavar="RUN_DIR",
        help="directory holding trace.json / timeline.jsonl / "
        "metrics.json (any subset); --trace/--timeline/--metrics "
        "override individual files",
    )
    parser.add_argument("--trace", metavar="PATH", help="span tree JSON (trace.json)")
    parser.add_argument(
        "--timeline", metavar="PATH", help="timeline JSONL (timeline.jsonl)"
    )
    parser.add_argument(
        "--metrics", metavar="PATH", help="assembly metrics JSON (metrics.json)"
    )
    parser.add_argument("--title", default=None, help="report heading")
    parser.add_argument(
        "-o",
        "--output",
        metavar="HTML",
        default="report.html",
        help="output file (default report.html)",
    )
    args = parser.parse_args(argv)

    from .telemetry import load_run_artifacts, read_timeline, render_report

    artifacts = (
        load_run_artifacts(args.run_dir)
        if args.run_dir
        else {"trace": None, "timeline": [], "metrics": None}
    )
    try:
        if args.trace:
            with open(args.trace, "r", encoding="utf-8") as handle:
                artifacts["trace"] = json.load(handle)
        if args.timeline:
            artifacts["timeline"] = read_timeline(args.timeline)
        if args.metrics:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                artifacts["metrics"] = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro-assemble report: failed to load artefacts: {exc}", file=sys.stderr)
        return 1
    if (
        artifacts["trace"] is None
        and not artifacts["timeline"]
        and artifacts["metrics"] is None
    ):
        parser.error(
            "nothing to report on: give a RUN_DIR containing trace.json / "
            "timeline.jsonl / metrics.json, or --trace/--timeline/--metrics"
        )

    title = args.title or (
        f"assembly run {args.run_dir}" if args.run_dir else "assembly run"
    )
    html = render_report(
        title,
        trace=artifacts["trace"],
        timeline=artifacts["timeline"],
        metrics=artifacts["metrics"],
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"wrote report to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - python -m repro.cli
    sys.exit(main())
