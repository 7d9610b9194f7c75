"""Benchmark harness shared by the scripts under ``benchmarks/``."""

from .harness import (
    BENCH_K,
    BENCH_MIN_CONTIG,
    FIGURE12_WORKERS,
    PreparedDataset,
    PreparedPairedDataset,
    all_assembler_contigs,
    bench_cluster_profile,
    bench_scale,
    ppa_config,
    prepare_dataset,
    prepare_paired_dataset,
    run_baselines,
    run_ppa,
    run_ppa_scaffolded,
)
from .reporting import format_comparison, format_scaling_series, format_table
from .schema import BENCH_SCHEMA_VERSION, bench_report, scaffold_metrics

__all__ = [
    "BENCH_K",
    "BENCH_MIN_CONTIG",
    "FIGURE12_WORKERS",
    "PreparedDataset",
    "PreparedPairedDataset",
    "all_assembler_contigs",
    "bench_cluster_profile",
    "bench_scale",
    "ppa_config",
    "prepare_dataset",
    "prepare_paired_dataset",
    "run_baselines",
    "run_ppa",
    "run_ppa_scaffolded",
    "format_comparison",
    "format_scaling_series",
    "format_table",
    "BENCH_SCHEMA_VERSION",
    "bench_report",
    "scaffold_metrics",
    "Comparison",
    "DEFAULT_RULES",
    "Rule",
    "compare",
    "gate",
]

#: Regression-gate names resolved lazily (PEP 562) so that running
#: ``python -m repro.bench.regression`` does not import the module
#: twice (once via the package, once as ``__main__``'s target) and
#: warn about it.
_REGRESSION_EXPORTS = ("Comparison", "DEFAULT_RULES", "Rule", "compare", "gate")


def __getattr__(name):
    if name in _REGRESSION_EXPORTS:
        from . import regression

        return getattr(regression, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
