"""Job specifications: the JSON contract between clients and workers.

A :class:`JobSpec` is everything a worker needs to run one assembly —
an *input* block naming where the reads come from and a *config* block
carrying the full :class:`~repro.assembler.config.AssemblyConfig`
surface (k, backend, workers, scaffolding knobs, …).  Specs travel as
JSON over the REST API and are persisted verbatim in the job store, so
a worker on a restarted service re-materialises exactly the input the
original run saw — which is what makes checkpoint resume bit-identical:
the workflow runner fingerprints the seed state and would refuse a
resume over different reads.

Input modes (mirroring the CLI's source flags):

``inline``
    Reads (or read pairs) embedded in the spec itself — the only mode
    that needs no shared filesystem between client and server.
``fastq`` / ``fastq_pair``
    Paths the *server* reads.  Deterministic as long as the files are.
``simulate``
    A seeded random genome; deterministic by construction.
``dataset``
    One of the Table I dataset profiles (seeded), scaled.

:func:`run_job` runs a spec and writes its run directory; the one-shot
``repro-assemble`` and every service job attempt go through it.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..assembler import PPAAssembler
from ..assembler.config import AssemblyConfig
from ..dna.datasets import get_profile
from ..dna.io_fastq import (
    Read,
    ReadPair,
    parse_fastq,
    parse_paired_fastq,
    reads_from_pairs,
)
from ..dna.simulator import simulate_dataset, simulate_paired_dataset
from ..errors import InvalidJobSpecError, ReproError
from ..store.spill import memory_payload, process_spill_stats
from ..telemetry import (
    ProfileCollector,
    ResourceSampler,
    TimelineRecorder,
    Tracer,
    span,
    use_profiler,
    use_timeline,
    use_tracer,
    write_timeline,
    write_trace,
)
from ..telemetry.report import (
    CONTIGS_FILE,
    METRICS_FILE,
    PROFILE_FILE,
    RUN_FILES,
    SCAFFOLDS_FILE,
    TIMELINE_FILE,
    TRACE_FILE,
)
from ..workflow import WorkflowEvent

#: Input modes a spec may name.
INPUT_MODES = ("inline", "fastq", "fastq_pair", "simulate", "dataset")

#: AssemblyConfig fields a spec's ``config`` block may set: all of them.
#: Checked against this list so a typo ("kmer": 21) fails loudly at
#: submit time instead of being silently ignored.
CONFIG_FIELDS = tuple(f.name for f in fields(AssemblyConfig))

#: Fields a spec's optional ``retry`` block may set.  They tune the
#: service's fault handling *for this job*: the attempt budget before
#: quarantine, the backoff curve between attempts, and the watchdog
#: deadlines that kill a hung worker.
RETRY_FIELDS = (
    "max_attempts",
    "backoff_seconds",
    "backoff_cap_seconds",
    "job_timeout_seconds",
    "stage_timeout_seconds",
)


@dataclass
class MaterializedInput:
    """A spec's input block turned into actual reads."""

    reads: List[Read]
    pairs: Optional[List[ReadPair]]
    reference_length: Optional[int]
    description: str


def _require(block: Dict[str, Any], key: str, mode: str) -> Any:
    try:
        return block[key]
    except KeyError:
        raise InvalidJobSpecError(
            f"input mode {mode!r} requires an {key!r} field"
        ) from None


def _parse_inline_reads(raw: Any) -> List[Read]:
    reads = []
    for index, entry in enumerate(raw):
        if isinstance(entry, str):
            reads.append(Read(name=f"read_{index}", sequence=entry))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            reads.append(Read(name=str(entry[0]), sequence=str(entry[1])))
        else:
            raise InvalidJobSpecError(
                "inline reads must be sequences or [name, sequence] pairs, "
                f"got {entry!r} at index {index}"
            )
    return reads


def _parse_inline_pairs(raw: Any) -> List[ReadPair]:
    pairs = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise InvalidJobSpecError(
                "inline pairs must be [name1, sequence1, name2, sequence2] "
                f"quadruples, got {entry!r} at index {index}"
            )
        name1, sequence1, name2, sequence2 = entry
        pairs.append(
            ReadPair(
                read1=Read(name=str(name1), sequence=str(sequence1)),
                read2=Read(name=str(name2), sequence=str(sequence2)),
            )
        )
    return pairs


@dataclass
class JobSpec:
    """One assembly job, as submitted by a client.

    ``input`` is the mode-tagged input block, ``config`` the (partial)
    :class:`~repro.assembler.config.AssemblyConfig` keyword set, and
    ``min_contig`` the length cutoff used by the job's reported contig
    statistics (every run directory's metrics, the service's result
    payload included).
    """

    input: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    min_contig: int = 0
    retry: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # validation / (de)serialisation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        mode = self.input.get("mode")
        if mode not in INPUT_MODES:
            raise InvalidJobSpecError(
                f"input.mode must be one of {', '.join(INPUT_MODES)}, got {mode!r}"
            )
        unknown = sorted(set(self.config) - set(CONFIG_FIELDS))
        if unknown:
            raise InvalidJobSpecError(
                f"unknown config field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(CONFIG_FIELDS)}"
            )
        if not isinstance(self.min_contig, int) or self.min_contig < 0:
            raise InvalidJobSpecError(
                f"min_contig must be a non-negative integer, got {self.min_contig!r}"
            )
        self._validate_retry()
        try:
            self.assembly_config()
        except ReproError as exc:
            raise InvalidJobSpecError(f"invalid assembly config: {exc}") from exc
        self._validate_input_fields()
        # Materialisation errors for path modes surface at run time (the
        # file must exist on the *server*), but inline payloads can be
        # checked right here at the API boundary.
        if self.input["mode"] == "inline":
            if "pairs" in self.input:
                _parse_inline_pairs(self.input["pairs"])
            elif "reads" in self.input:
                _parse_inline_reads(self.input["reads"])
            else:
                raise InvalidJobSpecError(
                    "input mode 'inline' requires a 'reads' or 'pairs' field"
                )
        # Scaffolding needs pairing evidence; an input that can never
        # produce pairs is rejected up front (on both CLI surfaces and
        # the REST API) instead of silently succeeding without scaffolds.
        if self.config.get("scaffold"):
            mode = self.input["mode"]
            unpaired = mode == "fastq" or (
                mode == "inline" and "pairs" not in self.input
            )
            if unpaired:
                raise InvalidJobSpecError(
                    "config.scaffold needs pairing information: use input "
                    "mode 'fastq_pair', inline 'pairs', or a simulating "
                    "mode (which then draws read pairs)"
                )

    def _validate_retry(self) -> None:
        if not isinstance(self.retry, dict):
            raise InvalidJobSpecError("'retry' must be an object when present")
        unknown = sorted(set(self.retry) - set(RETRY_FIELDS))
        if unknown:
            raise InvalidJobSpecError(
                f"unknown retry field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(RETRY_FIELDS)}"
            )
        max_attempts = self.retry.get("max_attempts")
        if max_attempts is not None and (
            not isinstance(max_attempts, int)
            or isinstance(max_attempts, bool)
            or max_attempts < 1
        ):
            raise InvalidJobSpecError(
                f"retry.max_attempts must be a positive integer, got {max_attempts!r}"
            )
        for key in (
            "backoff_seconds",
            "backoff_cap_seconds",
            "job_timeout_seconds",
            "stage_timeout_seconds",
        ):
            value = self.retry.get(key)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
                raise InvalidJobSpecError(
                    f"retry.{key} must be a positive number, got {value!r}"
                )

    def _validate_input_fields(self) -> None:
        """Mode-required fields are spec-intrinsic: check them at submit.

        Only file *existence* is deferred to run time (paths resolve on
        the server's filesystem); a missing or mistyped field would
        otherwise 201 and only surface as a failed job minutes later.
        """
        mode = self.input["mode"]
        if mode == "simulate":
            length = self.input.get("genome_length")
            if not isinstance(length, int) or isinstance(length, bool) or length <= 0:
                raise InvalidJobSpecError(
                    "input mode 'simulate' requires a positive integer "
                    f"'genome_length', got {length!r}"
                )
            seed = self.input.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise InvalidJobSpecError(
                    f"'seed' must be an integer, got {seed!r}"
                )
        elif mode == "dataset":
            name = self.input.get("name")
            if not isinstance(name, str) or not name:
                raise InvalidJobSpecError(
                    "input mode 'dataset' requires a non-empty 'name'"
                )
            scale = self.input.get("scale", 0.25)
            if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
                raise InvalidJobSpecError(
                    f"'scale' must be a positive number, got {scale!r}"
                )
        elif mode == "fastq":
            if not isinstance(self.input.get("path"), str):
                raise InvalidJobSpecError("input mode 'fastq' requires a 'path'")
        elif mode == "fastq_pair":
            for key in ("path1", "path2"):
                if not isinstance(self.input.get(key), str):
                    raise InvalidJobSpecError(
                        f"input mode 'fastq_pair' requires {key!r}"
                    )
        for key in ("insert_size", "insert_std"):
            if key in self.input:
                value = self.input[key]
                if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
                    raise InvalidJobSpecError(
                        f"{key!r} must be a positive number, got {value!r}"
                    )

    def assembly_config(self) -> AssemblyConfig:
        """The spec's config block as a validated :class:`AssemblyConfig`."""
        return AssemblyConfig(**self.config)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "input": dict(self.input),
            "config": dict(self.config),
            "min_contig": self.min_contig,
        }
        # Only serialised when set: keeps the persisted JSON of specs
        # without retry tuning byte-identical to what older service
        # versions wrote (idempotency keys compare the serialised spec).
        # getattr: specs decoded from old pickles/__new__ may predate it.
        if getattr(self, "retry", None):
            payload["retry"] = dict(self.retry)
        return payload

    @classmethod
    def from_dict(cls, payload: Any, validate: bool = True) -> "JobSpec":
        """Decode a spec; ``validate=False`` skips the semantic checks.

        The store uses the trusted path when decoding its own rows:
        every persisted spec already passed :meth:`validate` at submit
        time, and re-validating per row would re-parse e.g. a large
        inline read payload on every status poll.
        """
        if not isinstance(payload, dict):
            raise InvalidJobSpecError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"input", "config", "min_contig", "retry"})
        if unknown:
            raise InvalidJobSpecError(
                f"unknown job spec field(s): {', '.join(unknown)}"
            )
        input_block = payload.get("input")
        if not isinstance(input_block, dict):
            raise InvalidJobSpecError("job spec needs an 'input' object")
        config_block = payload.get("config", {})
        if not isinstance(config_block, dict):
            raise InvalidJobSpecError("'config' must be an object when present")
        retry_block = payload.get("retry", {})
        if not isinstance(retry_block, dict):
            raise InvalidJobSpecError("'retry' must be an object when present")
        spec = cls(
            input=dict(input_block),
            config=dict(config_block),
            min_contig=payload.get("min_contig", 0),
            retry=dict(retry_block),
        )
        if validate:
            spec.validate()
        return spec

    # ------------------------------------------------------------------
    # input materialisation (worker side)
    # ------------------------------------------------------------------
    def materialize(self) -> MaterializedInput:
        """Turn the input block into reads; deterministic per spec.

        Determinism is what crash recovery leans on: a restarted worker
        reconstructs the same seed state, so the checkpoint
        fingerprint matches and ``resume()`` continues bit-identically.
        """
        mode = self.input.get("mode")
        scaffold = bool(self.config.get("scaffold"))
        if mode == "inline":
            if "pairs" in self.input:
                pairs = _parse_inline_pairs(self.input["pairs"])
                return MaterializedInput(
                    reads=reads_from_pairs(pairs),
                    pairs=pairs,
                    reference_length=self.input.get("reference_length"),
                    description=f"{len(pairs)} inline read pairs",
                )
            reads = _parse_inline_reads(_require(self.input, "reads", mode))
            return MaterializedInput(
                reads=reads,
                pairs=None,
                reference_length=self.input.get("reference_length"),
                description=f"{len(reads)} inline reads",
            )
        if mode == "fastq":
            path = _require(self.input, "path", mode)
            return MaterializedInput(
                reads=list(parse_fastq(path)),
                pairs=None,
                reference_length=None,
                description=f"fastq {path}",
            )
        if mode == "fastq_pair":
            path1 = _require(self.input, "path1", mode)
            path2 = _require(self.input, "path2", mode)
            pairs = list(parse_paired_fastq(path1, path2))
            return MaterializedInput(
                reads=reads_from_pairs(pairs),
                pairs=pairs,
                reference_length=None,
                description=f"fastq pair {path1} + {path2}",
            )
        if mode == "simulate":
            length = int(_require(self.input, "genome_length", mode))
            seed = int(self.input.get("seed", 0))
            insert_mean = float(self.input.get("insert_size", 500.0))
            insert_std = float(self.input.get("insert_std", 50.0))
            if scaffold:
                genome, pairs = simulate_paired_dataset(
                    genome_length=length,
                    insert_size_mean=insert_mean,
                    insert_size_std=insert_std,
                    seed=seed,
                )
                return MaterializedInput(
                    reads=reads_from_pairs(pairs),
                    pairs=pairs,
                    reference_length=len(genome),
                    description=f"simulated genome of {length} bp (seed {seed}, paired)",
                )
            genome, reads = simulate_dataset(genome_length=length, seed=seed)
            return MaterializedInput(
                reads=reads,
                pairs=None,
                reference_length=len(genome),
                description=f"simulated genome of {length} bp (seed {seed})",
            )
        if mode == "dataset":
            name = _require(self.input, "name", mode)
            scale = float(self.input.get("scale", 0.25))
            profile = get_profile(name, scale=scale)
            if scaffold:
                insert_mean = float(self.input.get("insert_size", 500.0))
                insert_std = float(self.input.get("insert_std", 50.0))
                reference, pairs = profile.generate_paired(
                    insert_size_mean=insert_mean, insert_size_std=insert_std
                )
                return MaterializedInput(
                    reads=reads_from_pairs(pairs),
                    pairs=pairs,
                    reference_length=len(reference),
                    description=f"dataset {profile.name} (scale {scale}, paired)",
                )
            reference, reads = profile.generate()
            return MaterializedInput(
                reads=reads,
                pairs=None,
                reference_length=len(reference),
                description=f"dataset {profile.name} (scale {scale})",
            )
        raise InvalidJobSpecError(
            f"input.mode must be one of {', '.join(INPUT_MODES)}, got {mode!r}"
        )


def run_job(
    spec: JobSpec,
    directory: Optional[Union[str, Path]] = None,
    *,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    subscriber: Optional[Callable[[WorkflowEvent], None]] = None,
    profile: bool = False,
    job_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one assembly job; keep what it produced in ``directory``.

    The one run path behind both ``repro-assemble`` and a service job
    attempt.  Returns the run's metrics payload
    (:meth:`~repro.assembler.results.AssemblyResult.metrics_payload`
    plus its ``memory`` block, ``job_id`` and, with ``profile``, the
    hotspot table).  ``subscriber`` receives every workflow event.

    With a ``directory`` the run records a trace and a timeline (with
    its resource sampler), each installed for this run only, and writes
    the run directory (:data:`~repro.telemetry.report.RUN_FILES`): the
    FASTA files and metrics when the assembly succeeds, the trace,
    timeline and (with ``profile``) collapsed profile stacks whatever
    happens, so a failed run can be diagnosed too.  Layout files an
    earlier run left there are removed first, so one directory never
    mixes two runs.  Without a directory only the profile collection is
    installed (when asked) and nothing is written.  ``job_id`` names
    the trace's root span ``job:<id>`` instead of ``assemble``.
    """
    run_dir = None if directory is None else Path(directory)
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in RUN_FILES:
            (run_dir / name).unlink(missing_ok=True)
    config = spec.assembly_config()
    stage_seconds: Dict[str, float] = {}

    def on_event(event: WorkflowEvent) -> None:
        if event.kind == "stage-end":
            name = event.stage.name
            stage_seconds[name] = stage_seconds.get(name, 0.0) + event.seconds
        if subscriber is not None:
            subscriber(event)

    timeline = TimelineRecorder()
    profiler = ProfileCollector() if profile else None
    root = None
    try:
        with ExitStack() as instruments:
            if run_dir is not None:
                instruments.enter_context(use_tracer(Tracer()))
                instruments.enter_context(use_timeline(timeline))
                instruments.enter_context(ResourceSampler(timeline))
            if profiler is not None:
                instruments.enter_context(use_profiler(profiler))
            root = instruments.enter_context(
                span(
                    "assemble" if job_id is None else f"job:{job_id}",
                    k=config.k,
                    backend=config.backend,
                    workers=config.num_workers,
                )
            )
            material = spec.materialize()
            root.set(reads=len(material.reads))
            spill_before = process_spill_stats().snapshot()
            started = time.perf_counter()
            result = PPAAssembler(config).assemble(
                material.reads,
                pairs=material.pairs,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                subscriber=on_event,
            )
            payload = result.metrics_payload(
                min_contig=spec.min_contig,
                stage_seconds=stage_seconds,
                wall_seconds=time.perf_counter() - started,
                reference_length=material.reference_length,
            )
            payload["memory"] = memory_payload(config.memory_budget_mb, spill_before)
            if job_id is not None:
                payload["job_id"] = job_id
            if profiler is not None:
                payload["profile"] = profiler.payload()
            root.set(outcome="succeeded")
            if run_dir is not None:
                result.write_fasta(run_dir / CONTIGS_FILE)
                if result.scaffolding is not None:
                    result.write_scaffold_fasta(run_dir / SCAFFOLDS_FILE)
                (run_dir / METRICS_FILE).write_text(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n"
                )
    finally:
        if run_dir is not None and root is not None:
            write_trace(root.finish(), run_dir / TRACE_FILE)
            write_timeline(timeline, run_dir / TIMELINE_FILE)
            if profiler is not None:
                profiler.write_folded(run_dir / PROFILE_FILE)
    return payload

