"""SpillManager round trips, pinning of unpicklables, and stats."""

from __future__ import annotations

import threading

import pytest

from repro.errors import CorruptBlobError
from repro.store.content import ContentStore
from repro.store.spill import SpillManager, SpillStats


def test_spill_load_round_trip(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    payload = {"vertices": list(range(100)), "label": "partition-3"}
    assert manager.spill("p3", payload)
    assert manager.has("p3")
    assert manager.spilled_names() == {"p3"}

    loaded = manager.load("p3")
    assert loaded == payload
    assert not manager.has("p3")  # drop=True releases the ticket


def test_load_without_drop_keeps_ticket(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("x", [1, 2, 3])
    assert manager.load("x", drop=False) == [1, 2, 3]
    assert manager.has("x")
    assert manager.load("x") == [1, 2, 3]


def test_respill_with_new_content_drops_old_ref(tmp_path):
    stats = SpillStats()
    manager = SpillManager(directory=tmp_path, stats=stats)
    manager.spill("entry", "version-1")
    manager.spill("entry", "version-2")
    assert manager.load("entry") == "version-2"
    manager.close()
    # After close + gc, no blobs survive: the superseded version-1
    # blob lost its only ref at re-spill time.
    assert list(ContentStore(tmp_path).keys()) == []


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


def test_stats_merge_and_delta():
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

    other = SpillStats()
    other.merge(delta)
    assert other.spill_events == 1
    assert other.ledger_peak_bytes == 900
    other.merge({"ledger_peak_bytes": 10})  # peak merges as max
    assert other.ledger_peak_bytes == 900


def test_close_releases_refs_and_tempdir():
    manager = SpillManager(stats=SpillStats())
    manager.spill("tmp", b"x" * 100)
    directory = manager._directory
    assert directory is not None and directory.exists()
    manager.close()
    assert not directory.exists()


def test_identical_payloads_share_one_blob(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("inbox-1", {})
    manager.spill("inbox-2", {})
    store = ContentStore(tmp_path)
    assert len(list(store.keys())) == 1
    assert manager.load("inbox-1") == {}
    assert manager.load("inbox-2") == {}


def test_a_damaged_spill_file_fails_the_load_instead_of_unpickling_garbage(tmp_path):
    manager = SpillManager(directory=tmp_path, stats=SpillStats())
    manager.spill("partition:3", {"vertices": list(range(500))})
    store = ContentStore(tmp_path)
    (key,) = store.keys()
    blob = store.path(key)
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0x01
    blob.write_bytes(bytes(data))
    with pytest.raises(CorruptBlobError):
        manager.load("partition:3")
