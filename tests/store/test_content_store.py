"""ContentStore semantics: addressing, names, and GC roots."""

from __future__ import annotations

import hashlib
import os

import pytest

from repro import ReproError
from repro.store import CorruptBlobError
from repro.store.atomic import ORPHAN_TMP_AGE_SECONDS
from repro.store.content import ContentStore, content_key


@pytest.fixture()
def store(tmp_path):
    return ContentStore(tmp_path / "cas")


def test_put_is_content_addressed_and_idempotent(store):
    key = store.put(b"hello")
    assert key == hashlib.sha256(b"hello").hexdigest()
    assert key == content_key(b"hello")
    assert store.put(b"hello") == key  # identical payload, one blob
    assert store.get(key) == b"hello"
    assert store.has(key)
    assert store.size(key) == 5
    assert list(store.keys()) == [key]


def test_identical_payloads_share_one_blob(store):
    assert store.put(b"x" * 100) == store.put(b"x" * 100)
    assert len(list(store.keys())) == 1


def test_invalid_key_is_rejected(store):
    with pytest.raises(ValueError):
        store.path("not-a-key")
    with pytest.raises(ValueError):
        store.path("../../etc/passwd")


def test_names_are_mutable_aliases_and_gc_roots(store):
    first = store.put_named("dataset", b"v1")
    assert store.get_named("dataset") == b"v1"
    assert store.resolve_name("dataset") == first

    second = store.put_named("dataset", b"v2")
    assert store.get_named("dataset") == b"v2"
    assert second != first

    # v2 is rooted by the name; v1 is now unreferenced garbage.
    result = store.gc()
    assert result.removed_keys == [first]
    assert store.get_named("dataset") == b"v2"

    store.delete_name("dataset")
    assert store.get_named("dataset") is None
    assert store.gc().removed_keys == [second]


def test_names_listing(store):
    store.put_named("b-name", b"2")
    store.put_named("a-name", b"1")
    assert list(store.names()) == ["a-name", "b-name"]


def test_gc_sweeps_stale_tmp_files(store, tmp_path):
    key = store.put_named("anchor", b"anchor")
    shard = store.path(key).parent
    orphan = shard / ".blob-orphan.tmp"
    orphan.write_bytes(b"half a blob")
    ancient = orphan.stat().st_mtime - ORPHAN_TMP_AGE_SECONDS * 10
    os.utime(orphan, (ancient, ancient))

    result = store.gc()
    assert result.tmp_removed == 1
    assert not orphan.exists()
    assert store.has(key)


def test_empty_store_gc_and_iteration(store):
    assert list(store.keys()) == []
    assert list(store.names()) == []
    result = store.gc()
    assert result.blobs_removed == 0 and result.tmp_removed == 0


def _flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_get_rejects_a_blob_that_no_longer_matches_its_key(store):
    key = store.put(b"payload " * 64)
    _flip_one_byte(store.path(key))
    with pytest.raises(CorruptBlobError) as caught:
        store.get(key)
    assert caught.value.key == key
    assert isinstance(caught.value, ReproError)


def test_corrupt_named_blob_reads_as_a_miss_and_is_healed_by_the_next_put(store):
    payload = b"cached dataset " * 64
    key = store.put_named("dataset", payload)
    _flip_one_byte(store.path(key))
    # Like a dangling alias: the caller recomputes ...
    assert store.get_named("dataset") is None
    # ... and storing the same content again replaces the damaged file.
    assert store.put_named("dataset", payload) == key
    assert store.get_named("dataset") == payload
