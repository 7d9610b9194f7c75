"""Pickle-based workflow checkpoints.

After every completed stage, the runner persists the workflow's whole
progress — the state dictionary the stages communicate through, the
accumulated :class:`~repro.pregel.metrics.PipelineMetrics`, and the
position in the stage schedule — as one pickle file.  Pickling state
and metrics *together* is deliberate: objects referenced from both
(e.g. an :class:`~repro.assembler.results.AssemblyResult` holding the
pipeline metrics) keep their shared identity across the round-trip, so
a resumed run is bit-identical to an uninterrupted one.

Files are written atomically (temp file + ``os.replace``) so a crash
mid-checkpoint leaves the previous checkpoint intact; stale or foreign
files in the directory are skipped, not fatal, but a checkpoint that
*claims* to belong to the workflow being resumed and does not match its
stage schedule raises :class:`~repro.errors.CheckpointError` instead of
silently producing a hybrid run.
"""

from __future__ import annotations

import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import CheckpointError
from ..pregel.metrics import PipelineMetrics
from ..store.atomic import ORPHAN_TMP_AGE_SECONDS, atomic_writer, sweep_orphan_tmps

#: Bump when the checkpoint payload layout changes; old checkpoints are
#: then refused (a format mismatch is a mismatch, not a silent skip).
CHECKPOINT_FORMAT = 1

#: ``checkpoint-NNN-<workflow slug>-<stage slug>.pkl``.  The completed
#: count comes first so it parses unambiguously (slugs may themselves
#: contain dash-digit runs); the workflow slug namespaces files so
#: workflows sharing a directory never overwrite each other.
_FILE_PATTERN = re.compile(r"^checkpoint-(\d{3,})-(.+)\.pkl$")

#: Prefix of in-flight checkpoint temp files.  Distinguishes this
#: module's own temporaries from any other ``*.tmp`` a shared directory
#: might contain, so the orphan sweep never deletes a foreign file.
#: (``ORPHAN_TMP_AGE_SECONDS`` is re-exported from
#: :mod:`repro.store.atomic`, where the shared sweep now lives.)
_TMP_PREFIX = ".ckpt-"

__all__ = [
    "CHECKPOINT_FORMAT",
    "ORPHAN_TMP_AGE_SECONDS",
    "Checkpoint",
    "CheckpointStore",
    "state_fingerprint",
]


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "stage"


def state_fingerprint(state: Dict[str, Any]) -> Optional[str]:
    """Content hash of a workflow's *seed* state, or None if unhashable.

    Stage names alone cannot tell two runs of the same workflow apart —
    assembling a different read set or a different ``k`` yields the
    exact same schedule.  The runner therefore fingerprints the initial
    state and refuses to resume checkpoints written from different
    inputs/parameters.  States pickle deterministically for identical
    content here (dicts are insertion-ordered, the library's inputs are
    lists/dataclasses); a state that cannot be pickled at all simply
    gets no fingerprint, which disables the comparison rather than the
    run.
    """
    try:
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    import hashlib

    return hashlib.sha256(payload).hexdigest()


@dataclass
class Checkpoint:
    """Everything needed to continue a workflow after stage ``completed - 1``."""

    workflow: str
    stage_names: List[str]  # the full planned schedule, in execution order
    completed: int  # how many leading stages of the schedule have finished
    state: Dict[str, Any]
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    seed_fingerprint: Optional[str] = None  # hash of the run's initial state

    def payload(self) -> Dict[str, Any]:
        return {
            "format": CHECKPOINT_FORMAT,
            "workflow": self.workflow,
            "stage_names": list(self.stage_names),
            "completed": self.completed,
            "state": self.state,
            "metrics": self.metrics,
            "seed_fingerprint": self.seed_fingerprint,
        }


def _checkpoint_from(path: Path, payload: Dict[str, Any]) -> Checkpoint:
    """The checkpoint a workflow-matching payload holds, checked field by field.

    A payload that claims the workflow but lacks a field or holds one of
    the wrong type raises :class:`~repro.errors.CheckpointError` naming
    the file, like a format mismatch does.
    """
    stage_names = payload.get("stage_names")
    completed = payload.get("completed")
    problem = None
    if not isinstance(stage_names, (list, tuple)) or not all(
        isinstance(name, str) for name in stage_names
    ):
        problem = f"stage_names is {stage_names!r}, expected a list of names"
    elif type(completed) is not int or not 0 <= completed <= len(stage_names):
        problem = (
            f"completed is {completed!r}, expected an integer in "
            f"[0, {len(stage_names)}]"
        )
    elif not isinstance(payload.get("state"), dict):
        problem = "state is not a dict"
    elif not isinstance(payload.get("metrics"), PipelineMetrics):
        problem = "metrics is not a PipelineMetrics"
    if problem is not None:
        raise CheckpointError(
            f"checkpoint {path.name} is malformed: {problem} "
            "(re-run without --resume to start fresh)"
        )
    return Checkpoint(
        workflow=payload["workflow"],
        stage_names=list(stage_names),
        completed=completed,
        state=payload["state"],
        metrics=payload["metrics"],
        seed_fingerprint=payload.get("seed_fingerprint"),
    )


class CheckpointStore:
    """One directory of checkpoints for one workflow run."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self._swept_orphans = False

    def _sweep_orphans(self) -> None:
        """Remove stale ``.ckpt-*.tmp`` leftovers of hard-killed writes.

        A crash between ``mkstemp`` and ``os.replace`` (exactly the
        failure mode checkpoints exist for) orphans the temp file;
        nothing ever reads those, so the first write of a new store
        instance sweeps them before they accumulate.  The prefix and
        age guards that keep the sweep safe in a shared directory live
        in :func:`repro.store.atomic.sweep_orphan_tmps`.
        """
        if self._swept_orphans or not self.directory.is_dir():
            return
        self._swept_orphans = True
        sweep_orphan_tmps(self.directory, _TMP_PREFIX, ORPHAN_TMP_AGE_SECONDS)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> Path:
        """Atomically persist a checkpoint; returns the file written.

        The file name carries the workflow slug, so workflows sharing a
        directory never overwrite each other's checkpoints even when
        their stage names coincide.  A state that cannot be pickled (a
        lock, a local function) raises
        :class:`~repro.errors.CheckpointError` naming the stage, and
        leaves no temp file behind.
        """
        stage = checkpoint.stage_names[checkpoint.completed - 1]
        path = self.directory / (
            f"checkpoint-{checkpoint.completed:03d}"
            f"-{_slug(checkpoint.workflow)}-{_slug(stage)}.pkl"
        )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sweep_orphans()
            with atomic_writer(path, tmp_prefix=_TMP_PREFIX) as handle:
                pickle.dump(
                    checkpoint.payload(), handle, protocol=pickle.HIGHEST_PROTOCOL
                )
        except (OSError, pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"could not write checkpoint after stage {stage!r} "
                f"to {self.directory}: {exc}"
            ) from exc
        return path

    def clear(self, workflow_name: str) -> int:
        """Delete ``workflow_name``'s checkpoints; returns the count removed.

        The runner calls this when a run starts from stage 0 into a
        directory that already holds checkpoints: without it, a
        higher-numbered file from a *previous* run would survive the
        new run's lower-numbered overwrites and shadow it on resume —
        ``latest()`` would silently hand back the old run's state.
        Candidates are pre-filtered by the file name's workflow slug,
        then payload-verified before deletion (a slug prefix alone
        cannot distinguish workflow ``one`` from ``one-two``);
        unreadable slug-matching files go too — nobody can ever resume
        them.  Other workflows' checkpoints are kept.
        """
        if not self.directory.is_dir():
            return 0
        removed = 0
        for _, entry in self._candidates(workflow_name):
            payload = self._load(entry)
            if payload is not None and payload.get("workflow") != workflow_name:
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def latest(self, workflow_name: str) -> Optional[Checkpoint]:
        """The most advanced checkpoint of ``workflow_name``, or None.

        Candidates are ordered by the completed count in the file name,
        most advanced first, and only unpickled until one's payload
        confirms the workflow — so a resume costs one checkpoint load,
        not the whole directory, and an unreadable latest file
        (truncated, or pickled against a module that no longer imports)
        degrades to the previous one.
        """
        for _, entry in sorted(self._candidates(workflow_name), reverse=True):
            payload = self._load(entry)
            if payload is None or payload.get("workflow") != workflow_name:
                continue
            if payload.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"checkpoint {entry.name} uses format "
                    f"{payload.get('format')!r}, expected {CHECKPOINT_FORMAT} "
                    "(re-run without --resume to start fresh)"
                )
            return _checkpoint_from(entry, payload)
        return None

    def _candidates(self, workflow_name: str):
        """``(completed, path)`` pairs whose file name matches the workflow."""
        if not self.directory.is_dir():
            return []
        prefix = _slug(workflow_name) + "-"
        candidates = []
        for entry in self.directory.iterdir():
            match = _FILE_PATTERN.match(entry.name)
            if match and match.group(2).startswith(prefix):
                candidates.append((int(match.group(1)), entry))
        return candidates

    @staticmethod
    def _load(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ValueError,
            ImportError,
        ):
            return None
        if not isinstance(payload, dict):
            return None
        return payload
