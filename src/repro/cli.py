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

The flags describe one :class:`~repro.service.spec.JobSpec` — the same
spec the service's ``submit`` verb sends, built by the same two
functions (:func:`add_job_arguments`, :func:`spec_from_args`) — and the
run goes through :func:`~repro.service.spec.run_job`, the function every
service job attempt runs.  It prints a compact report: per-stage
summaries, contig statistics and wall-clock / simulated-cluster
seconds.  ``--run-dir DIR`` keeps what the run produced — contigs,
scaffolds, metrics, trace, timeline and, with ``--profile``, collapsed
cProfile stacks — in the layout of a service job directory.

The assembly is a declared workflow (:mod:`repro.workflow`):
``--list-stages`` prints its ordered stages without running anything,
``--checkpoint-dir`` persists the workflow state after every stage, and
``--resume`` continues a checkpointed run from its last completed stage
(bit-identical to an uninterrupted run).

When the first argument is a service verb (``serve``, ``submit``,
``status``, ``result``, ``cancel``, ``jobs``), the CLI instead drives
the durable assembly job service (:mod:`repro.service`) — see
:mod:`repro.service.cli`.  ``repro-assemble report RUN_DIR`` renders a
self-contained HTML ops report from a run directory — see
:mod:`repro.telemetry.report`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from . import __version__
from .assembler import build_assembly_workflow
from .assembler.config import LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV
from .errors import DnaError, ReproError
from .pregel.partitioner import PARTITIONER_NAMES
from .runtime import available_backends
from .runtime.base import MESSAGE_PLANES
from .service.spec import CONFIG_FIELDS, JobSpec, run_job
from .telemetry.report import RUN_FILES
from .workflow import WorkflowEvent


def add_job_arguments(
    parser: argparse.ArgumentParser, require_input: bool = False
) -> None:
    """Declare the flags that describe one job: input, config, ``--min-contig``.

    The one-shot parser and the service's ``submit`` verb both call
    this and read the result with :func:`spec_from_args`, so the same
    flags make the same :class:`~repro.service.spec.JobSpec` on both
    surfaces.  Every config flag's ``dest`` is its
    :class:`~repro.assembler.config.AssemblyConfig` field and defaults
    to None: an unset flag leaves the field out of the spec and the
    config's own default applies.
    """
    source = parser.add_mutually_exclusive_group(required=require_input)
    source.add_argument(
        "--dataset",
        metavar="NAME",
        help="Table I dataset profile to simulate (e.g. hc2, hcx, hc14, bi)",
    )
    source.add_argument(
        "--fastq",
        metavar="PATH",
        help="assemble reads from a FASTQ file (a submitted job reads "
        "the path on the server)",
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
    parser.add_argument(
        "-k", type=int, default=None, help="k-mer size (odd, default 21)"
    )
    parser.add_argument(
        "--coverage-threshold",
        type=int,
        default=None,
        help="drop (k+1)-mers observed at most this many times (default 1)",
    )
    parser.add_argument(
        "--labeling",
        dest="labeling_method",
        choices=[LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV],
        default=None,
        help="contig-labeling method (default list_ranking)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution backend for the Pregel stages (default serial)",
    )
    parser.add_argument(
        "--workers",
        dest="num_workers",
        metavar="N",
        type=int,
        default=None,
        help="number of Pregel workers (default 4)",
    )
    parser.add_argument(
        "--message-plane",
        choices=MESSAGE_PLANES,
        default=None,
        help="multiprocess data plane: 'shm' exchanges message batches "
        "through shared-memory arenas (default; auto-falls back to "
        "'queue' when /dev/shm is unusable), 'queue' always pickles "
        "batches through the queues; ignored by the serial backend",
    )
    parser.add_argument(
        "--partitioner",
        choices=PARTITIONER_NAMES,
        default=None,
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
        "the reads (loaded whole first) in bounded chunks and spills idle "
        "k-mer runs once the budget is exceeded; the serial backend also "
        "spills idle graph partitions and delivered inboxes, while "
        "multiprocess workers keep theirs in memory (results stay "
        "bit-identical; default unlimited)",
    )
    parser.add_argument(
        "--no-vectorized",
        dest="use_vectorized",
        action="store_false",
        default=None,
        help="disable the NumPy batch kernels and run the scalar "
        "reference path (results are bit-identical, just slower)",
    )
    parser.add_argument(
        "--scaffold",
        action="store_true",
        default=None,
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
        default=None,
        help="paired-end insert size standard deviation for simulated "
        "pairs (default 50)",
    )
    parser.add_argument(
        "--min-links",
        dest="scaffold_min_links",
        metavar="N",
        type=int,
        default=None,
        help="read pairs required to support a scaffold link (default 2)",
    )
    parser.add_argument(
        "--min-contig",
        type=int,
        default=0,
        help="only count/report contigs at least this long (default 0)",
    )


def spec_from_args(
    args: argparse.Namespace, input_block: Optional[Dict[str, Any]] = None
) -> JobSpec:
    """The (unvalidated) job spec :func:`add_job_arguments`' flags describe.

    ``input_block`` replaces the one the source flags describe (the
    ``submit --inline`` upload).
    """
    config = {
        name: getattr(args, name)
        for name in CONFIG_FIELDS
        if getattr(args, name, None) is not None
    }
    if args.insert_size is not None:
        config["scaffold_insert_size"] = args.insert_size
    if input_block is None:
        if args.dataset is not None:
            input_block = {"mode": "dataset", "name": args.dataset, "scale": args.scale}
        elif args.fastq is not None:
            input_block = {"mode": "fastq", "path": args.fastq}
        elif args.fastq_pair is not None:
            path1, path2 = args.fastq_pair
            input_block = {"mode": "fastq_pair", "path1": path1, "path2": path2}
        else:
            input_block = {
                "mode": "simulate",
                "genome_length": args.simulate,
                "seed": args.seed,
            }
        for key in ("insert_size", "insert_std"):
            if getattr(args, key) is not None:
                input_block[key] = getattr(args, key)
    return JobSpec(input=input_block, config=config, min_contig=args.min_contig)


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
    add_job_arguments(parser)
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        help="keep what the run produced in DIR, the layout of a service "
        f"job directory ({', '.join(RUN_FILES)}; scaffolds only when "
        "scaffolding ran, the profile only with --profile); "
        "'repro-assemble report DIR' renders it",
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
        help="print the assembly workflow's stages, in run order, for this "
        "configuration and exit without assembling anything",
    )
    telemetry = parser.add_argument_group(
        "telemetry", "structured logging and profiling (see docs/observability.md)"
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
        "--profile",
        action="store_true",
        help="profile the run with cProfile (per stage, and per worker "
        "process on the multiprocess backend): the run directory gains "
        "merged collapsed stacks (flamegraph.pl / speedscope compatible) "
        "and its metrics a hotspot table; needs --run-dir",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the final statistics line"
    )
    return parser


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
    if args.profile and not args.run_dir:
        parser.error("--profile needs --run-dir")

    if args.log_json or args.log_level is not None:
        from .telemetry import configure_logging

        try:
            configure_logging(args.log_level or "info", json_lines=args.log_json)
        except ValueError as exc:
            parser.error(str(exc))

    spec = spec_from_args(args)
    try:
        if args.list_stages:
            print(build_assembly_workflow(spec.assembly_config()).describe())
            return 0
        spec.validate()
    except ReproError as exc:
        parser.error(str(exc))
    config = spec.assembly_config()

    if not args.quiet:
        print("assembling " + " ".join(f"{k}={v}" for k, v in spec.input.items()))
        print(
            f"  k={config.k} workers={config.num_workers} "
            f"backend={config.backend} labeling={config.labeling_method} "
            f"plane={config.message_plane} partitioner={config.partitioner}"
        )

    def on_event(event: WorkflowEvent) -> None:
        if event.kind == "stage-skipped":
            print(
                f"  resume: skipping completed stage "
                f"{event.index + 1}/{event.total} {event.stage.name}"
            )
        elif event.kind == "checkpoint":
            print(f"  checkpointed {event.stage.name} -> {event.path}")

    try:
        payload = run_job(
            spec,
            args.run_dir,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            subscriber=None if args.quiet else on_event,
            profile=args.profile,
        )
    except (OSError, DnaError) as exc:
        print(f"repro-assemble: failed to load reads: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"repro-assemble: assembly failed: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for stage in payload["stages"]:
            detail = " ".join(
                f"{key}={value}" for key, value in stage.items() if key != "name"
            )
            print(f"  [{stage['name']}] {detail}")

    contigs, scaffolds = payload["contigs"], payload["scaffolds"]
    summary = (
        f"contigs={contigs['count']} total_bp={contigs['total_bp']} "
        f"largest={contigs['largest']} n50={contigs['n50']}"
    )
    if scaffolds is not None:
        summary += f" scaffolds={scaffolds['count']} scaffold_n50={scaffolds['n50']}"
    print(
        f"{summary} wall_seconds={payload['wall_seconds']:.2f} "
        f"simulated_seconds={payload['estimated_cluster_seconds']:.2f}"
    )
    if args.run_dir and not args.quiet:
        print(f"wrote run directory {args.run_dir}")
    return 0


def _report_main(argv: List[str]) -> int:
    """``repro-assemble report``: render an HTML ops report offline.

    Reads whatever telemetry a run directory holds — ``--run-dir`` output
    or a service job directory — and writes one self-contained HTML page.
    """
    parser = argparse.ArgumentParser(
        prog="repro-assemble report",
        description="Render a self-contained HTML ops report (span "
        "waterfall, RSS/message-rate timelines, hotspot table) from a "
        "run directory.",
    )
    parser.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="a 'repro-assemble --run-dir' directory or a service job "
        "directory (any subset of its trace, timeline and metrics)",
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

    from .telemetry import load_run_artifacts, render_report

    artifacts = load_run_artifacts(args.run_dir)
    if (
        artifacts["trace"] is None
        and not artifacts["timeline"]
        and artifacts["metrics"] is None
    ):
        parser.error(
            "nothing to report on: RUN_DIR holds no trace, timeline or metrics"
        )
    html = render_report(args.title or f"assembly run {args.run_dir}", **artifacts)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"wrote report to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - python -m repro.cli
    sys.exit(main())
