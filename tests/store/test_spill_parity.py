"""Out-of-core acceptance: a memory budget never changes the answer.

The budget knob shrinks DBG construction's ingest chunks and moves idle
serial partitions and delivered inboxes to disk, but every observable
output (contigs, scaffolds, per-stage summaries, bit-exact metrics)
must match the unlimited run, on every backend and message plane.  A tiny budget on a non-trivial dataset forces heavy spilling,
so these tests exercise the whole plane, not just the accounting.
"""

from __future__ import annotations

import pytest

from repro import AssemblyConfig, PPAAssembler
from repro.dna import simulate_dataset, simulate_paired_dataset
from repro.store.spill import memory_payload, process_spill_stats

#: Small enough to force spilling on the test datasets, large enough
#: that the spill plane still makes progress.
TINY_BUDGET_MB = 0.05


@pytest.fixture(scope="module")
def paired_library():
    _genome, pairs = simulate_paired_dataset(
        6_000, insert_size_mean=350, insert_size_std=35, seed=9
    )
    return pairs


def _config(backend="serial", budget=None):
    return AssemblyConfig(
        k=17,
        scaffold=True,
        num_workers=2,
        backend=backend,
        memory_budget_mb=budget,
    )


def _assert_identical(budgeted, baseline):
    assert budgeted.contigs == baseline.contigs
    assert budgeted.scaffolds == baseline.scaffolds
    assert budgeted.scaffolding == baseline.scaffolding
    assert [(s.name, s.detail) for s in budgeted.stages] == [
        (s.name, s.detail) for s in baseline.stages
    ]
    assert budgeted.metrics == baseline.metrics
    assert budgeted.labeling_metrics == baseline.labeling_metrics


def test_serial_budgeted_run_is_bit_identical_and_spills(paired_library):
    baseline = PPAAssembler(_config()).assemble_paired(paired_library)
    before = process_spill_stats().snapshot()
    budgeted = PPAAssembler(_config(budget=TINY_BUDGET_MB)).assemble_paired(
        paired_library
    )
    delta = process_spill_stats().delta_since(before)
    _assert_identical(budgeted, baseline)
    assert delta["spill_events"] > 0
    assert delta["spill_bytes"] > 0
    assert delta["load_events"] > 0


def test_multiprocess_budgeted_run_is_bit_identical(paired_library):
    baseline = PPAAssembler(_config(backend="multiprocess")).assemble_paired(
        paired_library
    )
    config = _config(backend="multiprocess", budget=TINY_BUDGET_MB)
    before = process_spill_stats().snapshot()
    budgeted = PPAAssembler(config).assemble_paired(paired_library)
    delta = process_spill_stats().delta_since(before)
    _assert_identical(budgeted, baseline)
    # Workers keep their partitions and batches in memory, and DBG
    # construction merges its runs in memory: nothing spills.
    counts = ("spill_events", "spill_bytes", "load_events", "load_bytes")
    assert [delta[name] for name in counts] == [0, 0, 0, 0]


def test_budget_equals_unlimited_across_budgets(paired_library):
    """Different budgets all land on the same answer (no threshold magic)."""
    results = [
        PPAAssembler(_config(budget=budget)).assemble_paired(paired_library)
        for budget in (None, 0.05, 1.0)
    ]
    for other in results[1:]:
        _assert_identical(other, results[0])


def test_each_run_reports_its_own_ledger_peak():
    """A process that runs many jobs (a service worker) reports, for
    each, the largest ledger that job reached, not an earlier job's."""
    config = AssemblyConfig(k=15, num_workers=2, memory_budget_mb=TINY_BUDGET_MB)

    def ledger_peak(genome_length):
        _genome, reads = simulate_dataset(genome_length, seed=4)
        before = process_spill_stats().snapshot()
        PPAAssembler(config).assemble(reads)
        return memory_payload(TINY_BUDGET_MB, before)["ledger_peak_bytes"]

    small, large, small_again = ledger_peak(1_000), ledger_peak(6_000), ledger_peak(1_000)
    assert 0 < small == small_again < large


class SimulatedCrash(RuntimeError):
    pass


def _crash_after(stage_index):
    def bomb(event):
        if event.kind == "stage-end" and event.index == stage_index:
            raise SimulatedCrash(event.stage.name)

    return bomb


def test_crash_mid_spill_then_resume_is_bit_identical(paired_library, tmp_path):
    """A budgeted run killed mid-workflow resumes to the exact answer.

    The crash lands after a stage that spilled heavily, so the resumed
    run proves two things at once: stage checkpoints are not corrupted
    by spill traffic, and a fresh spill plane rebuilt on resume reaches
    the same results.
    """
    config = _config(budget=TINY_BUDGET_MB)
    baseline = PPAAssembler(_config()).assemble_paired(paired_library)

    checkpoint_dir = tmp_path / "ckpt"
    with pytest.raises(SimulatedCrash):
        PPAAssembler(config).assemble_paired(
            paired_library,
            checkpoint_dir=checkpoint_dir,
            subscriber=_crash_after(3),
        )
    assert list(checkpoint_dir.glob("checkpoint-*.pkl"))

    before = process_spill_stats().snapshot()
    resumed = PPAAssembler(config).assemble_paired(
        paired_library, checkpoint_dir=checkpoint_dir, resume=True
    )
    delta = process_spill_stats().delta_since(before)
    _assert_identical(resumed, baseline)
    assert delta["spill_events"] > 0  # the resumed half still spilled
