"""``sliding_window_ids`` against one shift-or pass per window offset.

The reference is the kernel as it stood before doubling: every base of
the window is shifted into a full ``uint64`` lane, and validity is a
difference of break-code prefix sums.  The doubling kernel must return
the same arrays — same dtypes, same shapes, same bits, garbage lanes
included — for every window length a 64-bit lane can hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dna import vectorized
from repro.errors import InvalidKmerError

BREAK = 4


def shift_or_reference(codes, window):
    num_windows = codes.size - window + 1
    if num_windows <= 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
    lanes = (codes & np.uint8(3)).astype(np.uint64)
    ids = np.zeros(num_windows, dtype=np.uint64)
    for offset in range(window):
        ids = (ids << np.uint64(2)) | lanes[offset : offset + num_windows]
    breaks = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(codes >= BREAK, out=breaks[1:])
    return ids, (breaks[window:] - breaks[:-window]) == 0


def random_codes(size, seed, break_rate):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=size).astype(np.uint8)
    codes[rng.random(size) < break_rate] = BREAK
    return codes


CODE_ARRAYS = [
    random_codes(0, 0, 0.0),
    random_codes(1, 1, 0.0),
    random_codes(7, 2, 0.2),
    random_codes(31, 3, 0.05),
    random_codes(32, 4, 0.0),
    random_codes(33, 5, 0.05),
    random_codes(64, 6, 0.0),
    random_codes(500, 7, 0.01),
    random_codes(5000, 8, 0.0),
    random_codes(5000, 9, 0.03),
    np.full(40, BREAK, dtype=np.uint8),
    np.full(40, 3, dtype=np.uint8),
]


@pytest.mark.parametrize("window", range(1, vectorized.MAX_WINDOW + 1))
def test_doubling_equals_shift_or(window):
    for codes in CODE_ARRAYS:
        ids, valid = vectorized.sliding_window_ids(codes, window)
        expected_ids, expected_valid = shift_or_reference(codes, window)
        assert ids.dtype == expected_ids.dtype and valid.dtype == expected_valid.dtype
        assert np.array_equal(ids, expected_ids), (window, codes.size)
        assert np.array_equal(valid, expected_valid), (window, codes.size)


def test_input_codes_are_not_modified():
    codes = random_codes(300, 10, 0.05)
    before = codes.copy()
    vectorized.sliding_window_ids(codes, 22)
    assert np.array_equal(codes, before)


@pytest.mark.parametrize("window", [0, -1, vectorized.MAX_WINDOW + 1])
def test_window_out_of_range_is_rejected(window):
    with pytest.raises(InvalidKmerError):
        vectorized.sliding_window_ids(random_codes(10, 11, 0.0), window)
