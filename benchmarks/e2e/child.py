"""One workload, in one fresh process: set-up, repetitions, verdicts.

``run.py`` starts this file once per measurement and only waits for it.
The process generates the inputs from the seed, runs one cold warm-up
repetition (both are ``setup_s``), then a closed loop of one client:
repetitions back to back for ``seconds`` seconds, each judged by the
oracle.  A repetition that raises or fails the oracle is counted and
contributes no timing.  Every reported timing is the median over the
repetitions that passed, and every repetition's timings are in seconds
of the reference machine speed (``calibrate.py``): the calibration
kernel runs before the first repetition and after each one.

``mode`` is ``"timed"`` (tracing off: the end-to-end numbers) or
``"traced"`` (the pipeline rebuilt by hand from the toolkit's public
operations with a span around each call, alternating with plain
``assemble()`` repetitions so that the two can be compared, followed by
probes of the bare PPA kernels).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy

from repro.assembler import (
    AssemblyConfig,
    AssemblyResult,
    PPAAssembler,
    build_dbg,
    filter_bubbles,
    label_contigs,
    merge_contigs,
    remove_tips,
)
from repro.dbg import ContigIdAllocator
from repro.dna import (
    ReadSimulationConfig,
    ReadSimulator,
    generate_genome,
    parse_fastq,
    write_fastq,
)
from repro.ppa import (
    GraphInput,
    ListNode,
    run_hash_min,
    run_list_ranking,
    run_simplified_sv,
)
from repro.pregel import ClusterProfile, PregelEngine
from repro.store import process_spill_stats

from calibrate import Calibration, Stopwatch
from oracle import Oracle, Verdict, check_shape
from workloads import (
    COMMON_CONFIG,
    FIG12_CLUSTER,
    READ_LENGTH,
    REPEAT_FRACTION,
    Workload,
)

#: The operation spans of one hand-composed repetition, in order.
OPERATION_SPANS = (
    "assembler.construction",
    "assembler.labeling_kmers",
    "assembler.merging",
    "assembler.bubbles",
    "assembler.tips",
    "assembler.labeling_contigs",
    "assembler.remerging",
)
LEAF_SPANS = ("dna.parse",) + OPERATION_SPANS + ("dna.write_contigs",)

PROBE_ROUNDS = 3
#: Fewest repetitions a timing may be the median of.
MIN_REPETITIONS = 3
MB = 1024.0 * 1024.0


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
def _cpu_clocks() -> Tuple[float, float]:
    """CPU seconds so far of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> Tuple[float, float]:
    """Peak resident MB of this process and of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


class Tracer:
    """In-memory spans: name, start, end, parent, workload, repetition."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repetition = 0
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "workload": self.workload,
            "repetition": self.repetition,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, repetition: int) -> Dict[str, float]:
        return {
            span["name"]: span["end"] - span["start"]
            for span in self.spans
            if span["repetition"] == repetition and span["end"] is not None
        }


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
@dataclass
class Repetition:
    """What one repetition cost and produced; timings are normalised."""

    raw_wall_s: float
    wall_s: float
    master_cpu_s: float
    worker_cpu_s: float
    model_cluster_s: float
    verdict: Verdict
    spill: Dict[str, int]
    counts: Dict[str, float]
    spans: Dict[str, float] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return self.master_cpu_s + self.worker_cpu_s


class Bench:
    """The inputs of one workload and the two ways of assembling them."""

    def __init__(self, workload: Workload, seed: int, directory: Path) -> None:
        self.workload = workload
        self.config = AssemblyConfig(
            backend=workload.backend,
            num_workers=workload.num_workers,
            message_plane="shm",
            memory_budget_mb=workload.memory_budget_mb,
            **COMMON_CONFIG,
        )
        self._profile = ClusterProfile(**FIG12_CLUSTER)
        reference = generate_genome(
            workload.genome_length, repeat_fraction=REPEAT_FRACTION, seed=seed
        )
        simulator = ReadSimulator(
            ReadSimulationConfig(
                read_length=READ_LENGTH,
                coverage=workload.coverage,
                error_rate=workload.error_rate,
                ambiguous_rate=0.0,
                seed=seed + 1,
            )
        )
        #: The gap after one repetition is the gap before the next.
        self.calibration = Calibration(workload.calibration, workload.gap_samples)
        self.fastq = directory / "reads.fastq"
        self.fasta = directory / "contigs.fasta"
        write_fastq(simulator.simulate(reference), self.fastq)
        self.oracle = Oracle(workload, reference)

    def assemble_once(self) -> Repetition:
        """The program as a user runs it: FASTQ in, ``assemble()``, FASTA out."""
        return self._measured(self._assemble)

    def composed_once(self, tracer: Tracer) -> Repetition:
        """The same pipeline rebuilt from the public operations, with spans."""
        repetition = self._measured(lambda: self._compose(tracer))
        speed = repetition.wall_s / repetition.raw_wall_s
        repetition.spans = {
            name: seconds * speed
            for name, seconds in tracer.durations(tracer.repetition).items()
        }
        tracer.repetition += 1
        return repetition

    def _assemble(self) -> Tuple[AssemblyResult, Dict[str, float]]:
        result = PPAAssembler(self.config).assemble(parse_fastq(self.fastq))
        result.write_fasta(self.fasta)
        return result, {}

    def _compose(self, tracer: Tracer) -> Tuple[AssemblyResult, Dict[str, float]]:
        config = self.config
        with tracer.span("repetition"):
            with tracer.span("dna.parse"):
                reads = list(parse_fastq(self.fastq))
            executor = PPAAssembler(config).runner().executor
            allocator = ContigIdAllocator()
            with tracer.span("assembler.construction"):
                graph = build_dbg(reads, config, executor).graph
            del reads  # assemble() also drops them after construction
            with tracer.span("assembler.labeling_kmers"):
                kmer_labels = label_contigs(graph, config, executor, include_contigs=False)
            with tracer.span("assembler.merging"):
                merge_contigs(graph, kmer_labels, config, executor, allocator)
            with tracer.span("assembler.bubbles"):
                filter_bubbles(graph, config, executor)
            with tracer.span("assembler.tips"):
                remove_tips(graph, config, executor)
            with tracer.span("assembler.labeling_contigs"):
                contig_labels = label_contigs(graph, config, executor, include_contigs=True)
            with tracer.span("assembler.remerging"):
                merge_contigs(graph, contig_labels, config, executor, allocator)
            result = AssemblyResult(
                config=config, graph=graph, metrics=executor.pipeline_metrics
            )
            with tracer.span("dna.write_contigs"):
                result.write_fasta(self.fasta)
        labeling_messages = kmer_labels.num_messages + contig_labels.num_messages
        return result, {"labeling_messages": labeling_messages}

    def _measured(
        self, body: Callable[[], Tuple[AssemblyResult, Dict[str, float]]]
    ) -> Repetition:
        spill_before = process_spill_stats().snapshot()
        master_before, workers_before = _cpu_clocks()
        watch = Stopwatch()
        result, counts = body()
        raw_wall, wall = watch.stop()
        master_after, workers_after = _cpu_clocks()
        self.calibration.gap()
        jobs = result.metrics.jobs
        counts.update(
            supersteps=result.metrics.total_supersteps,
            messages=result.metrics.total_messages,
            cross_worker_messages=result.metrics.total_cross_worker_messages,
            bytes=sum(job.total_bytes for job in jobs),
            compute_ops=sum(job.total_compute_ops for job in jobs),
        )
        return Repetition(
            raw_wall_s=raw_wall,
            wall_s=self.calibration.normalised(wall),
            master_cpu_s=self.calibration.normalised(master_after - master_before),
            worker_cpu_s=self.calibration.normalised(workers_after - workers_before),
            model_cluster_s=result.estimated_seconds(self._profile),
            verdict=self.oracle.check(result.contigs),
            spill=process_spill_stats().delta_since(spill_before),
            counts=counts,
        )


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Repetitions attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def run(self, body: Callable[[], Repetition]) -> Optional[Repetition]:
        """Run one repetition; None when it raised or failed the oracle."""
        self.attempted += 1
        try:
            repetition = body()
        except Exception:  # a failed repetition is a result, not a crash
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=8))
            return None
        if not repetition.verdict.ok:
            self.failed += 1
            self.problems.extend(repetition.verdict.problems)
            return None
        return repetition


def _repeat(
    tally: Tally,
    seconds: float,
    bodies: List[Callable[[], Repetition]],
) -> List[List[Repetition]]:
    """Cycle through ``bodies`` for ``seconds``; one list of passes per body."""
    passed: List[List[Repetition]] = [[] for _ in bodies]
    deadline = time.perf_counter() + seconds
    give_up = tally.attempted + 2 * MIN_REPETITIONS * len(bodies)
    while time.perf_counter() < deadline or (
        min(len(group) for group in passed) < MIN_REPETITIONS
        and tally.attempted < give_up
    ):
        for group, body in zip(passed, bodies):
            repetition = tally.run(body)
            if repetition is not None:
                group.append(repetition)
    return passed


def _end_to_end(repetitions: List[Repetition]) -> Dict[str, float]:
    last = repetitions[-1]
    return {
        "wall_s": median(r.wall_s for r in repetitions),
        "cpu_s": median(r.cpu_s for r in repetitions),
        "model_cluster_s": last.model_cluster_s,
        "genome_fraction_pct": last.verdict.genome_fraction_pct,
    }


# ----------------------------------------------------------------------
# per-layer numbers
# ----------------------------------------------------------------------
def _kernel_probes(workload: Workload) -> Dict[str, float]:
    """The bare PPA kernels on fixed graphs, through the workload's runtime.

    List ranking runs on a chain.  The two connected-component kernels
    run on a complete binary tree of the same size, because Hash-Min
    needs one superstep per hop and a 5000-hop chain would measure
    nothing but 5000 barriers.
    """
    engine = PregelEngine(
        num_workers=workload.num_workers,
        backend=workload.backend,
        message_plane="shm",
    )
    nodes = workload.probe_nodes
    chain = [
        ListNode(node_id=index + 1, value=1.0, predecessor=index or None)
        for index in range(nodes)
    ]
    tree = GraphInput.from_edges(
        (index, (index - 1) // 2) for index in range(1, nodes)
    )
    probes = {
        "list_ranking": lambda: run_list_ranking(chain, engine=engine),
        "hash_min": lambda: run_hash_min(tree, engine=engine),
        "sv": lambda: run_simplified_sv(tree, engine=engine),
    }
    seconds: Dict[str, List[float]] = {name: [] for name in probes}
    messages: Dict[str, int] = {}
    calibration = Calibration(workload.calibration, workload.gap_samples)
    for _ in range(PROBE_ROUNDS):
        raw = {}
        for name, probe in probes.items():
            watch = Stopwatch()
            result = probe()
            raw[name] = watch.stop()[1]
            messages[name] = result.total_messages
        calibration.gap()
        for name in probes:
            seconds[name].append(calibration.normalised(raw[name]))
    list_ranking_s = median(seconds["list_ranking"])
    return {
        "ppa.list_ranking_s": list_ranking_s,
        "ppa.list_ranking_us_per_msg": 1e6 * list_ranking_s / messages["list_ranking"],
        "ppa.hash_min_s": median(seconds["hash_min"]),
        "ppa.sv_s": median(seconds["sv"]),
    }


def _layers(
    workload: Workload,
    plain: List[Repetition],
    composed: List[Repetition],
) -> Dict[str, float]:
    """Per-layer metrics of the traced run (medians over its repetitions)."""

    def span(name: str) -> float:
        return median(r.spans[name] for r in composed)

    last = composed[-1]
    leaf_total = median(sum(r.spans[name] for name in LEAF_SPANS) for r in composed)
    labeling_s = median(
        r.spans["assembler.labeling_kmers"] + r.spans["assembler.labeling_contigs"]
        for r in composed
    )
    plain_wall = median(r.wall_s for r in plain)
    composed_wall = median(r.wall_s for r in composed)
    parse_s = span("dna.parse")
    worker_cpu_s = median(r.worker_cpu_s for r in composed)
    return {
        "dna.parse_s": parse_s,
        "dna.parse_mbases_per_s": workload.input_bases / 1e6 / parse_s,
        "dna.write_contigs_s": span("dna.write_contigs"),
        "assembler.construction_s": span("assembler.construction"),
        "assembler.labeling_kmers_s": span("assembler.labeling_kmers"),
        "assembler.merging_s": span("assembler.merging") + span("assembler.remerging"),
        "assembler.bubbles_s": span("assembler.bubbles"),
        "assembler.tips_s": span("assembler.tips"),
        "assembler.labeling_contigs_s": span("assembler.labeling_contigs"),
        "assembler.labeling_share": labeling_s / leaf_total,
        "assembler.ingest_share": (parse_s + span("assembler.construction")) / leaf_total,
        "workflow.overhead_s": plain_wall - leaf_total,
        "pregel.supersteps": last.counts["supersteps"],
        "pregel.messages": last.counts["messages"],
        "pregel.bytes_mb": last.counts["bytes"] / MB,
        "pregel.compute_ops": last.counts["compute_ops"],
        "pregel.labeling_msgs_per_s": last.counts["labeling_messages"] / labeling_s,
        "runtime.cross_worker_messages": last.counts["cross_worker_messages"],
        "runtime.master_cpu_s": median(r.master_cpu_s for r in composed),
        "runtime.worker_cpu_s": worker_cpu_s,
        "runtime.parallel_efficiency": worker_cpu_s
        / (workload.num_workers * composed_wall),
        "runtime.worker_rss_mb": _peak_rss_mb()[1],
        "store.spill_events": last.spill["spill_events"],
        "store.spill_mb": last.spill["spill_bytes"] / MB,
        "store.load_events": last.spill["load_events"],
        "store.ledger_peak_mb": last.spill["ledger_peak_bytes"] / MB,
        "quality.evaluate_s": last.verdict.evaluate_s,
        "quality.n50_bp": last.verdict.n50_bp,
        "quality.misassemblies": last.verdict.misassemblies,
        "trace.overhead_pct": 100.0 * (composed_wall - plain_wall) / plain_wall,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run(spec: Dict[str, object]) -> Dict[str, object]:
    watch = Stopwatch()
    workload = Workload(**spec["workload"])
    directory = Path(spec["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    tally = Tally()

    bench = Bench(workload, spec["seed"], directory)
    tally.run(bench.assemble_once)  # the cold warm-up repetition
    # From the moment run.py started this process: interpreter start-up,
    # imports, input generation and the cold repetition, less the
    # calibration kernels that ran in between and that normalise it.
    calibration = bench.calibration
    raw_setup_s = time.monotonic() - spec["started"] - calibration.seconds_spent
    since_start, unstolen = watch.stop()
    report: Dict[str, object] = {
        "mode": spec["mode"],
        "workload": workload.name,
        "seed": spec["seed"],
        "raw_setup_s": raw_setup_s,
        "setup_s": calibration.normalised(raw_setup_s * unstolen / since_start),
        "numpy": numpy.__version__,
    }

    seconds = spec["seconds"]
    if spec["mode"] == "traced":
        tracer = Tracer(workload.name)
        plain, composed = _repeat(
            tally, seconds, [bench.assemble_once, lambda: bench.composed_once(tracer)]
        )
    else:
        (plain,) = _repeat(tally, seconds, [bench.assemble_once])
        composed = []
    report["peak_rss_mb"] = max(_peak_rss_mb())
    report["kernel_cpus_s"] = calibration.cpu_samples

    if plain:
        report["repetitions"] = len(plain)
        report["walls_s"] = [repetition.wall_s for repetition in plain]
        report["raw_walls_s"] = [repetition.raw_wall_s for repetition in plain]
        report["metrics"] = _end_to_end(plain)
        report["digest"] = plain[-1].verdict.digest
        # Not gated (N50 moves by half with the seed, misassemblies read 0),
        # but printed, recorded per seed and required to repeat exactly.
        report["n50_bp"] = plain[-1].verdict.n50_bp
        report["misassemblies"] = plain[-1].verdict.misassemblies
        report["mbases_per_s"] = workload.input_bases / 1e6 / report["metrics"]["wall_s"]
    if plain and composed:
        # Both kinds of repetition passed the same oracle, so their contig
        # digests are equal; the cost model's output must be equal too.
        if composed[-1].model_cluster_s != plain[-1].model_cluster_s:
            tally.problems.append(
                f"traced model_cluster_s {composed[-1].model_cluster_s!r} != "
                f"untraced {plain[-1].model_cluster_s!r}"
            )
        layers = _layers(workload, plain, composed)
        layers.update(_kernel_probes(workload))
        report["layers"] = layers
        report["shape_problems"] = check_shape(workload, layers)
        report["spans"] = tracer.spans
    report.update(
        attempted=tally.attempted, failed=tally.failed, problems=tally.problems
    )
    return report


def main() -> int:
    spec = json.loads(sys.argv[1])
    report = run(spec)
    Path(spec["result"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
