"""SpillManager round trips, pinning of unpicklables, and stats."""

from __future__ import annotations

import threading

import pytest

from repro.errors import CorruptBlobError
from repro.store.spill import SpillManager, SpillStats


def _spill_files(directory):
    return sorted(directory.glob("*.spill"))


def test_spill_load_round_trip(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    payload = {"vertices": list(range(100)), "label": "partition-3"}
    assert manager.spill("p3", payload)
    assert manager.has("p3")
    assert manager.spilled_names() == {"p3"}

    loaded = manager.load("p3")
    assert loaded == payload
    assert not manager.has("p3")  # drop=True releases the ticket


def test_load_deletes_the_spill_file(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("run:0", list(range(100)))
    assert len(_spill_files(tmp_path)) == 1
    manager.load("run:0")
    assert _spill_files(tmp_path) == []


def test_load_without_drop_keeps_ticket(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("x", [1, 2, 3])
    assert manager.load("x", drop=False) == [1, 2, 3]
    assert manager.has("x")
    assert manager.load("x") == [1, 2, 3]


def test_respill_with_new_content_drops_old_ref(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("entry", "version-1")
    manager.spill("entry", "version-2")
    # The version-1 file is gone as soon as version-2 replaces it.
    assert len(_spill_files(tmp_path)) == 1
    assert manager.load("entry", drop=False) == "version-2"
    manager.spill("other", "kept until close")
    manager.close()
    assert _spill_files(tmp_path) == []


def test_unpicklable_objects_are_pinned_in_memory(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    assert not manager.spill("lock", threading.Lock())
    # The failure is remembered; later attempts skip the pickling.
    assert not manager.spill("lock", threading.Lock())
    assert not manager.has("lock")


def test_stats_count_both_directions(tmp_path):
    stats = SpillStats()
    manager = SpillManager(directory=tmp_path, stats=stats)
    manager.spill("a", list(range(1000)))
    manager.load("a")
    snapshot = stats.snapshot()
    assert snapshot["spill_events"] == 1
    assert snapshot["load_events"] == 1
    assert snapshot["spill_bytes"] == snapshot["load_bytes"] > 0


def test_stats_delta_since():
    stats = SpillStats()
    stats.record_spill(100)
    before = stats.snapshot()
    stats.record_spill(50)
    stats.record_load(50)
    stats.record_ledger_peak(900)
    delta = stats.delta_since(before)
    assert delta["spill_events"] == 1
    assert delta["spill_bytes"] == 50
    assert delta["load_events"] == 1
    assert delta["ledger_peak_bytes"] == 900


def test_close_releases_refs_and_tempdir():
    manager = SpillManager(stats=SpillStats())
    manager.spill("tmp", b"x" * 100)
    directory = manager._directory
    assert directory is not None and directory.exists()
    manager.close()
    assert not directory.exists()


def test_a_damaged_spill_file_fails_the_load_instead_of_unpickling_garbage(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("partition:3", {"vertices": list(range(500))})
    (spill_file,) = _spill_files(tmp_path)
    data = bytearray(spill_file.read_bytes())
    data[len(data) // 2] ^= 0x01
    spill_file.write_bytes(bytes(data))
    with pytest.raises(CorruptBlobError):
        manager.load("partition:3")
