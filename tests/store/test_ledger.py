"""MemoryLedger accounting and the deterministic size estimator."""

from __future__ import annotations

import numpy as np

from repro.store.ledger import MemoryLedger, budget_mb_to_bytes, estimate_nbytes


# ----------------------------------------------------------------------
# budget conversion
# ----------------------------------------------------------------------
def test_budget_mb_to_bytes():
    assert budget_mb_to_bytes(None) is None
    assert budget_mb_to_bytes(1) == 1024 * 1024
    assert budget_mb_to_bytes(0.5) == 512 * 1024


# ----------------------------------------------------------------------
# estimate_nbytes
# ----------------------------------------------------------------------
def test_estimator_is_deterministic():
    payload = {"reads": ["ACGT" * 25] * 100, "counts": list(range(50))}
    assert estimate_nbytes(payload) == estimate_nbytes(payload)


def test_estimator_scales_with_content():
    assert estimate_nbytes("x" * 1000) > estimate_nbytes("x" * 10)
    assert estimate_nbytes(b"x" * 1000) > estimate_nbytes(b"x" * 10)
    assert estimate_nbytes([1] * 1000) > estimate_nbytes([1] * 10)
    assert estimate_nbytes({i: i for i in range(100)}) > estimate_nbytes({1: 1})


def test_estimator_uses_numpy_nbytes_exactly():
    array = np.zeros(1000, dtype=np.int64)
    estimate = estimate_nbytes(array)
    assert estimate >= array.nbytes
    assert estimate - array.nbytes < 1024  # header overhead only


def test_estimator_handles_scalars_and_objects():
    assert estimate_nbytes(None) > 0
    assert estimate_nbytes(True) > 0
    assert estimate_nbytes(3.14) > 0

    class WithDict:
        def __init__(self):
            self.data = "y" * 500

    class WithSlots:
        __slots__ = ("data",)

        def __init__(self):
            self.data = "y" * 500

    assert estimate_nbytes(WithDict()) > 500
    assert estimate_nbytes(WithSlots()) > 500


def test_estimator_extrapolates_from_sample():
    # Homogeneous container: the sampled per-item cost must scale to
    # the full length, not stop at the sample.
    small = estimate_nbytes(["read" * 10] * 16)
    large = estimate_nbytes(["read" * 10] * 1600)
    assert large > small * 50


# ----------------------------------------------------------------------
# MemoryLedger
# ----------------------------------------------------------------------
def test_track_release_and_peak():
    ledger = MemoryLedger(budget_bytes=1000, name="t1")
    ledger.track("a", 400)
    ledger.track("b", 500)
    assert ledger.live_bytes == 900
    assert not ledger.over_budget

    ledger.track("c", 300)
    assert ledger.over_budget
    assert ledger.peak_bytes == 1200

    assert ledger.release("a") == 400
    assert ledger.live_bytes == 800
    assert not ledger.over_budget
    assert ledger.peak_bytes == 1200  # peak is sticky
    assert ledger.release("a") == 0  # double release is harmless


def test_retracking_replaces_previous_size():
    ledger = MemoryLedger(budget_bytes=None, name="t2")
    ledger.track("x", 100)
    ledger.track("x", 250)
    assert ledger.live_bytes == 250
    assert ledger.tracked("x")


def test_unlimited_ledger_never_over_budget():
    ledger = MemoryLedger(budget_bytes=None, name="t3")
    ledger.track("huge", 10**12)
    assert not ledger.over_budget
