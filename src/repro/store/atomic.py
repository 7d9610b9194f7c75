"""Atomic file publication: temp file + ``os.replace``, one copy.

Every durable artifact this repo writes — workflow checkpoints,
content-store blobs, benchmark caches — follows the same discipline:
write into a uniquely-named temp file in the *target directory* (same
filesystem, so the final rename is atomic), then ``os.replace`` it
into place, unlinking the temp file on any failure.  Spill files are
not durable: they live and die inside one process
(:mod:`repro.store.spill`) and are written in place.
A crash mid-write leaves the previous version intact and at worst
orphans one temp file.

Those orphans are what :func:`sweep_orphan_tmps` cleans up, with the
two guards that make a sweep safe in a *shared* directory: only files
carrying the caller's temp prefix are candidates (a sibling process's
unrelated ``*.tmp`` is not ours to judge), and only files older than
:data:`ORPHAN_TMP_AGE_SECONDS` are deleted (a fresh prefix-matching
temp file is a sibling's write in flight, not an orphan).
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

#: How old (seconds since mtime) a temp file must be before the orphan
#: sweep may delete it.  An in-flight write lives for milliseconds; a
#: temp file this stale can only be the leftover of a killed process.
#: The age guard is what makes several writers sharing one directory
#: (e.g. concurrent jobs of the service) safe: one writer's sweep
#: cannot race another writer's write-in-progress out from under it.
ORPHAN_TMP_AGE_SECONDS = 60.0

#: Suffix shared by all in-flight temp files.
TMP_SUFFIX = ".tmp"


@contextmanager
def atomic_writer(
    path: Union[str, Path], tmp_prefix: str = ".atomic-"
) -> Iterator[IO[bytes]]:
    """Context manager yielding a binary handle; publishes on clean exit.

    The temp file is created in ``path``'s directory (created if
    missing) so the final ``os.replace`` stays within one filesystem
    and is therefore atomic.  If the body raises, the temp file is
    unlinked and the exception propagates — ``path`` is never left
    half-written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=tmp_prefix, suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            yield handle
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, tmp_prefix: str = ".atomic-"
) -> None:
    """Atomically replace ``path``'s contents with ``data``."""
    with atomic_writer(path, tmp_prefix=tmp_prefix) as handle:
        handle.write(data)


def sweep_orphan_tmps(
    directory: Union[str, Path],
    tmp_prefix: str = ".atomic-",
    age_seconds: float = ORPHAN_TMP_AGE_SECONDS,
) -> int:
    """Remove stale ``<tmp_prefix>*.tmp`` leftovers of hard-killed writes.

    Returns the number of files removed.  A missing directory is not an
    error (there is nothing to sweep); so is losing a race to another
    sweeper or to the file's own publication.
    """
    root = Path(directory)
    if not root.is_dir():
        return 0
    cutoff = time.time() - age_seconds
    removed = 0
    for entry in root.glob(tmp_prefix + "*" + TMP_SUFFIX):
        try:
            if entry.stat().st_mtime <= cutoff:
                entry.unlink()
                removed += 1
        except OSError:
            pass
    return removed
