"""Shared benchmark harness.

The benchmark scripts under ``benchmarks/`` all need the same plumbing:
materialise a (scaled) dataset profile, run PPA-assembler and the
baselines over it, and format the outcome the way the paper's tables
and figures present it.  Keeping that plumbing here keeps each
benchmark file focused on the one table or figure it regenerates.

Scaling: the environment variable ``REPRO_BENCH_SCALE`` multiplies the
genome length of every dataset profile (default 0.25 so the whole
benchmark suite finishes in minutes on a laptop).  Set it to 1.0 to run
the full scaled profiles described in DESIGN.md.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional

from ..assembler import AssemblyConfig, PPAAssembler
from ..assembler.results import AssemblyResult
from ..baselines import (
    AbyssLikeAssembler,
    BaselineResult,
    RayLikeAssembler,
    SwapLikeAssembler,
)
from ..dna.datasets import DatasetProfile, get_profile
from ..dna.io_fastq import Read, ReadPair, reads_from_pairs
from ..pregel.cost_model import ClusterProfile
from ..store.content import ContentStore

#: k-mer size used by every benchmark (the paper uses 31; the scaled
#: datasets use 21 so that repeats still create ambiguous vertices).
BENCH_K = 21

#: Contig length cutoff used by the quality benchmarks.  QUAST uses
#: 500 bp on full-size genomes; the scaled datasets use 100 bp, which
#: plays the same role (roughly 0.4% of the scaled genome length).
BENCH_MIN_CONTIG = 100

#: Worker counts of Figure 12.
FIGURE12_WORKERS = (16, 32, 48, 64)


def bench_scale(default: float = 0.25) -> float:
    """Dataset scale factor taken from ``REPRO_BENCH_SCALE``."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def bench_cluster_profile() -> ClusterProfile:
    """Cost-model constants used by the Figure 12 benchmark.

    The per-operation costs are scaled up relative to the default
    gigabit profile so that, at the reduced dataset sizes the benchmark
    uses, the compute/communication terms dominate the fixed per-job
    overhead the same way they do at the paper's full data size — this
    keeps the *shape* of the worker-scaling curves comparable.
    """
    return ClusterProfile(
        seconds_per_compute_op=4.0e-5,
        seconds_per_byte=2.0e-5,
        barrier_seconds=0.1,
        job_overhead_seconds=1.0,
        loading_seconds_per_op=2.0e-4,
    )


@dataclass
class PreparedDataset:
    """A materialised dataset ready for the assemblers."""

    profile: DatasetProfile
    reference: Optional[str]
    reads: List[Read]

    @property
    def name(self) -> str:
        return self.profile.name


#: Bump when the cached payload layout changes; stale entries are
#: simply regenerated.
_DATASET_CACHE_VERSION = 1


def dataset_cache_dir() -> Optional[Path]:
    """Directory for on-disk dataset caching, or None when disabled.

    ``REPRO_BENCH_CACHE_DIR`` overrides the location; setting it to
    ``0``/``off``/``none`` disables disk caching entirely (the in-memory
    LRU still applies).
    """
    raw = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if raw is not None:
        if raw.strip().lower() in ("", "0", "off", "none"):
            return None
        return Path(raw)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "ppa-assembler-repro" / "datasets"


def _dataset_cache_name(profile: DatasetProfile) -> str:
    # The frozen profile's repr covers every generation input (name,
    # genome length after scaling, read length, coverage, error rate,
    # repeat fraction, seed), so any change invalidates the key.
    digest = hashlib.sha256(
        repr((_DATASET_CACHE_VERSION, profile)).encode("utf-8")
    ).hexdigest()[:16]
    return f"{profile.name}-{digest}"


def _dataset_cache_store() -> Optional[ContentStore]:
    """The content store backing the dataset cache, or None when disabled.

    Cached datasets live as named blobs (the name is the profile
    digest, acting as a GC root); identical payloads dedup across
    profiles for free.  The pre-content-store layout kept one
    ``<name>-<digest>.pkl`` per profile at the directory top level —
    any such leftovers are swept on first use.
    """
    directory = dataset_cache_dir()
    if directory is None:
        return None
    store = ContentStore(directory)
    try:
        for stale in directory.glob("*.pkl"):
            stale.unlink()
    except OSError:
        pass
    return store


def _load_dataset_cache(profile: DatasetProfile):
    """Return ``(reference, reads)`` from disk, or None on any miss."""
    store = _dataset_cache_store()
    if store is None:
        return None
    payload = store.get_named(_dataset_cache_name(profile))
    if payload is None:
        return None
    try:
        stored_profile, reference, reads = pickle.loads(payload)
    except (
        pickle.UnpicklingError,
        EOFError,
        ValueError,
        AttributeError,
        ImportError,  # stale entry pickled against a moved/renamed class
    ):
        return None
    if stored_profile != profile:  # hash collision or stale format
        return None
    return reference, reads


def _store_dataset_cache(profile: DatasetProfile, reference, reads) -> None:
    """Best-effort atomic publish; caching must never break a benchmark."""
    store = _dataset_cache_store()
    if store is None:
        return
    try:
        store.put_named(
            _dataset_cache_name(profile),
            pickle.dumps(
                (profile, reference, reads), protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
    except OSError:
        pass


@lru_cache(maxsize=8)
def _prepare_cached(name: str, scale: float) -> PreparedDataset:
    profile = get_profile(name, scale=scale)
    cached = _load_dataset_cache(profile)
    if cached is not None:
        reference, reads = cached
    else:
        # Read simulation dominates benchmark start-up at larger
        # scales, so materialised datasets are cached on disk keyed by
        # every generation parameter (profile + scale + seed).
        reference, reads = profile.generate()
        _store_dataset_cache(profile, reference, reads)
    return PreparedDataset(profile=profile, reference=reference, reads=reads)


def prepare_dataset(name: str, scale: Optional[float] = None) -> PreparedDataset:
    """Materialise one of the Table I profiles (cached per scale).

    Caching is two-level: an in-memory LRU for the current process and
    a pickle cache on disk (see :func:`dataset_cache_dir`) so repeated
    benchmark runs skip read re-simulation entirely.
    """
    return _prepare_cached(name, bench_scale() if scale is None else scale)


def ppa_config(num_workers: int = 16, **config_overrides) -> AssemblyConfig:
    """The PPA-assembler configuration used by every benchmark.

    ``config_overrides`` are the other :class:`AssemblyConfig` fields
    (backend, labeling method, memory budget, …).
    """
    return AssemblyConfig(
        k=BENCH_K,
        coverage_threshold=1,
        tip_length_threshold=80,
        bubble_edit_distance=5,
        num_workers=num_workers,
        **config_overrides,
    )


def run_ppa(
    dataset: PreparedDataset,
    num_workers: int = 16,
    checkpoint_dir=None,
    resume: bool = False,
    **config_overrides,
) -> AssemblyResult:
    """Run PPA-assembler over a prepared dataset.

    The assembly executes as the declared workflow
    (:func:`repro.assembler.pipeline.build_assembly_workflow`), so the
    returned result's :class:`~repro.pregel.metrics.PipelineMetrics`
    prices the whole workflow for the cost model exactly as before.
    ``checkpoint_dir``/``resume`` let long benchmark runs at large
    scales survive interruption (checkpoints are per-stage pickles);
    ``config_overrides`` go to :func:`ppa_config`.
    """
    config = ppa_config(num_workers, **config_overrides)
    return PPAAssembler(config).assemble(
        dataset.reads, checkpoint_dir=checkpoint_dir, resume=resume
    )


@dataclass
class PreparedPairedDataset:
    """A materialised paired-end dataset ready for scaffolding runs."""

    profile: DatasetProfile
    reference: Optional[str]
    pairs: List[ReadPair]

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def reads(self) -> List[Read]:
        """Both mates flattened, the way the DBG stages consume them."""
        return reads_from_pairs(self.pairs)


def prepare_paired_dataset(
    name: str,
    scale: Optional[float] = None,
    insert_size_mean: float = 500.0,
    insert_size_std: float = 50.0,
) -> PreparedPairedDataset:
    """Materialise a Table I profile as a paired-end library.

    Unlike :func:`prepare_dataset` this is not disk-cached: paired
    generation is only used by the scaffolding benchmark, which runs at
    small scales.
    """
    profile = get_profile(name, scale=bench_scale() if scale is None else scale)
    reference, pairs = profile.generate_paired(
        insert_size_mean=insert_size_mean, insert_size_std=insert_size_std
    )
    return PreparedPairedDataset(profile=profile, reference=reference, pairs=pairs)


def run_ppa_scaffolded(
    dataset: PreparedPairedDataset,
    num_workers: int = 16,
    backend: str = "serial",
    min_links: int = 2,
) -> AssemblyResult:
    """Run PPA-assembler plus the scaffolding stage over read pairs."""
    config = ppa_config(num_workers=num_workers, backend=backend).with_scaffolding(
        min_links=min_links
    )
    return PPAAssembler(config).assemble_paired(dataset.pairs)


def run_baselines(
    dataset: PreparedDataset,
    num_workers: int = 16,
    backend: str = "serial",
) -> Dict[str, BaselineResult]:
    """Run the three baselines the paper compares against (Figure 12, Tables IV/V)."""
    baselines = {
        "ABySS": AbyssLikeAssembler(k=BENCH_K, num_workers=num_workers, backend=backend),
        "Ray": RayLikeAssembler(k=BENCH_K, num_workers=num_workers, backend=backend),
        "SWAP-Assembler": SwapLikeAssembler(k=BENCH_K, num_workers=num_workers, backend=backend),
    }
    return {name: assembler.assemble(dataset.reads) for name, assembler in baselines.items()}


def all_assembler_contigs(
    dataset: PreparedDataset,
    num_workers: int = 16,
) -> Dict[str, List[str]]:
    """Contig sets of all four assemblers (keys match the paper's tables)."""
    ppa = run_ppa(dataset, num_workers=num_workers)
    contigs = {"PPA": ppa.contigs}
    for name, result in run_baselines(dataset, num_workers=num_workers).items():
        contigs[name] = result.contigs
    return contigs
