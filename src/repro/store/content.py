"""Content-addressed blob store: sha256 keys, atomic publish, refcount GC.

Layout under the store root::

    objects/<aa>/<sha256-hex>     the blobs themselves (aa = first two
                                  hex chars, keeps directories shallow)
    refs/<sha256-hex>/<owner>     one empty file per (blob, owner) pin
    names/<slug>                  mutable aliases; the file's content is
                                  the sha256 key it currently points at

Identical payloads share one blob regardless of who stored them — the
key *is* the content hash — which is what makes the store suitable for
spill files (many partitions spill identical empty batches), the bench
dataset cache, and dedup-ready service artifacts.

Publication is atomic (:mod:`repro.store.atomic`): a blob either exists
completely or not at all, and a crash mid-``put`` at worst orphans a
temp file that :meth:`ContentStore.gc` sweeps later.  Deletion is by
garbage collection only: :meth:`~ContentStore.gc` removes blobs that
have no refs and no name pointing at them.  Refs are per-owner files so
two independent components (say, two spill managers sharing a store)
can pin the same blob without coordinating.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..errors import CorruptBlobError
from .atomic import atomic_write_bytes, sweep_orphan_tmps

_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

#: Temp prefix for in-flight blob/name writes within the store root.
_TMP_PREFIX = ".blob-"


def _slug(name: str) -> str:
    """Filesystem-safe form of a name or owner string."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "item"


def content_key(data: bytes) -> str:
    """The sha256 hex digest that addresses ``data``."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class GCResult:
    """What one :meth:`ContentStore.gc` pass removed."""

    blobs_removed: int = 0
    bytes_reclaimed: int = 0
    tmp_removed: int = 0
    removed_keys: List[str] = field(default_factory=list)


class ContentStore:
    """One directory of content-addressed blobs (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._refs = self.root / "refs"
        self._names = self.root / "names"

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------
    def path(self, key: str) -> Path:
        """Where ``key``'s blob lives (whether or not it exists yet)."""
        if not _KEY_PATTERN.match(key):
            raise ValueError(f"not a sha256 content key: {key!r}")
        return self._objects / key[:2] / key

    def put(self, data: bytes) -> str:
        """Store ``data``; returns its content key.

        Idempotent: an already-present blob is not rewritten (the key
        is the hash, so equal keys mean equal bytes).
        """
        key = content_key(data)
        blob = self.path(key)
        if not blob.exists():
            atomic_write_bytes(blob, data, tmp_prefix=_TMP_PREFIX)
        return key

    def get(self, key: str) -> bytes:
        """The blob's bytes, checked against ``key``.

        Raises ``FileNotFoundError`` if the blob is absent and
        :class:`~repro.errors.CorruptBlobError` if what is on disk no
        longer hashes to ``key``.
        """
        data = self.path(key).read_bytes()
        if content_key(data) != key:
            raise CorruptBlobError(key)
        return data

    def has(self, key: str) -> bool:
        return self.path(key).exists()

    def size(self, key: str) -> int:
        """The blob's size in bytes; raises ``FileNotFoundError`` if absent."""
        return self.path(key).stat().st_size

    def keys(self) -> Iterator[str]:
        """Every blob key currently present."""
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if _KEY_PATTERN.match(entry.name):
                    yield entry.name

    # ------------------------------------------------------------------
    # refs
    # ------------------------------------------------------------------
    def add_ref(self, key: str, owner: str) -> None:
        """Pin ``key`` on behalf of ``owner`` (idempotent per owner)."""
        ref_dir = self._refs / key
        ref_dir.mkdir(parents=True, exist_ok=True)
        (ref_dir / _slug(owner)).touch()

    def drop_ref(self, key: str, owner: str) -> None:
        """Release ``owner``'s pin on ``key`` (missing pins are fine)."""
        try:
            (self._refs / key / _slug(owner)).unlink()
        except OSError:
            pass
        try:
            (self._refs / key).rmdir()  # only succeeds once empty
        except OSError:
            pass

    def ref_count(self, key: str) -> int:
        ref_dir = self._refs / key
        if not ref_dir.is_dir():
            return 0
        return sum(1 for _ in ref_dir.iterdir())

    # ------------------------------------------------------------------
    # names (mutable aliases)
    # ------------------------------------------------------------------
    def put_named(self, name: str, data: bytes) -> str:
        """Store ``data`` and point the alias ``name`` at it."""
        key = self.put(data)
        atomic_write_bytes(
            self._names / _slug(name), key.encode("ascii"), tmp_prefix=_TMP_PREFIX
        )
        return key

    def get_named(self, name: str) -> Optional[bytes]:
        """The bytes ``name`` points at, or None if unset, dangling or corrupt."""
        key = self.resolve_name(name)
        if key is None:
            return None
        try:
            return self.get(key)
        except OSError:
            return None
        except CorruptBlobError:
            # Drop the damaged file: the caller recomputes and stores the
            # same content again, and ``put`` skips a blob that exists.
            try:
                self.path(key).unlink()
            except OSError:
                pass
            return None

    def resolve_name(self, name: str) -> Optional[str]:
        """The key ``name`` points at, or None."""
        try:
            key = (self._names / _slug(name)).read_text("ascii").strip()
        except OSError:
            return None
        return key if _KEY_PATTERN.match(key) else None

    def delete_name(self, name: str) -> None:
        try:
            (self._names / _slug(name)).unlink()
        except OSError:
            pass

    def names(self) -> Iterator[str]:
        if not self._names.is_dir():
            return
        for entry in sorted(self._names.iterdir()):
            if entry.is_file():
                yield entry.name

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(self) -> GCResult:
        """Remove blobs with no refs and no name, plus stale temp files.

        Names act as roots: a blob an alias points at survives even
        with zero refs (the bench dataset cache relies on this — cached
        datasets are named, not pinned).
        """
        result = GCResult()
        named = {
            key
            for key in (self.resolve_name(name) for name in self.names())
            if key is not None
        }
        for key in list(self.keys()):
            if key in named or self.ref_count(key) > 0:
                continue
            blob = self.path(key)
            try:
                size = blob.stat().st_size
                blob.unlink()
            except OSError:
                continue
            result.blobs_removed += 1
            result.bytes_reclaimed += size
            result.removed_keys.append(key)
            try:  # drop the now-empty ref dir, if one lingered
                (self._refs / key).rmdir()
            except OSError:
                pass
        for directory in self._tmp_dirs():
            result.tmp_removed += sweep_orphan_tmps(directory, _TMP_PREFIX)
        return result

    def _tmp_dirs(self) -> Iterator[Path]:
        if self._objects.is_dir():
            yield from (d for d in self._objects.iterdir() if d.is_dir())
        if self._names.is_dir():
            yield self._names
