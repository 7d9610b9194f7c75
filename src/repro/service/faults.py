"""Deterministic fault injection for the job service.

Robustness claims are only as good as the failures they were tested
against, so the failure modes the worker plane defends against — worker
death, a stalled heartbeat, a hung stage, a corrupted checkpoint, a
slow store — are injectable on demand.  A :class:`FaultPlan` is a list
of injectors, each naming *what* to break (``kind``), *where* (a stage
name or index), and *when* (which attempt numbers), so a chaos test can
say precisely "kill the worker at stage 2 of attempt 1" and assert the
recovery path byte-for-byte.

Plans travel as JSON in the ``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS='[{"kind": "kill_worker", "stage": 2, "attempts": [1]}]'

The environment is the one channel that reaches *spawned worker
processes* without any plumbing: the service inherits it to its
children, and each child re-reads the plan at startup.  Everything is
deterministic — injectors fire on exact (stage, attempt) matches, never
on randomness — so a chaos scenario either always reproduces or is not
a scenario.

Injector kinds:

``kill_worker``
    SIGKILL the worker process at the matched stage start.
``stall_heartbeat``
    Stop renewing the job's lease for the matched attempt; the lease
    expires and the reaper fences the worker out mid-run.
``hang_stage``
    Sleep ``seconds`` (default: forever) at the matched stage start —
    what a wedged backend looks like; the watchdog must kill it.
``corrupt_checkpoint``
    Overwrite the just-written checkpoint file with garbage, exercising
    the checkpoint layer's degrade-to-earlier-checkpoint path on resume.
``raise_error``
    Raise a transient ``RuntimeError`` at the matched stage start (the
    retryable-failure path, no process death involved).
``delay_store_writes``
    Sleep ``seconds`` before every event-log write, widening race
    windows that are otherwise microseconds wide.

This module is imported by the store and the worker on their hot paths,
so the disabled case must stay near-free: no ``REPRO_FAULTS`` in the
environment means an empty plan whose checks are attribute lookups.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

ENV_VAR = "REPRO_FAULTS"

#: Injector kinds a plan may name (anything else fails loudly).
FAULT_KINDS = (
    "kill_worker",
    "stall_heartbeat",
    "hang_stage",
    "corrupt_checkpoint",
    "raise_error",
    "delay_store_writes",
)


class FaultInjected(RuntimeError):
    """Raised by ``raise_error`` injectors."""


@dataclass
class FaultInjector:
    """One deterministic fault: what to break, where, and on which attempts."""

    kind: str
    stage: Optional[Union[int, str]] = None
    attempts: Optional[Sequence[int]] = None
    seconds: float = 0.0

    def matches(self, attempt: Optional[int]) -> bool:
        if self.attempts is None:
            return True
        return attempt in self.attempts

    def matches_stage(self, stage_name: Optional[str], index: Optional[int]) -> bool:
        if self.stage is None:
            return True
        if isinstance(self.stage, int):
            return index == self.stage
        return stage_name == self.stage

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultInjector":
        kind = payload.get("kind")
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; kinds: {', '.join(FAULT_KINDS)}"
            )
        unknown = sorted(set(payload) - {"kind", "stage", "attempts", "seconds"})
        if unknown:
            raise ValueError(f"unknown fault field(s): {', '.join(unknown)}")
        attempts = payload.get("attempts")
        if attempts is not None:
            attempts = tuple(int(a) for a in attempts)
        return cls(
            kind=kind,
            stage=payload.get("stage"),
            attempts=attempts,
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass
class FaultPlan:
    """An ordered list of injectors, consulted at the worker's fault points."""

    injectors: List[FaultInjector] = field(default_factory=list)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "FaultPlan":
        text = (environ if environ is not None else os.environ).get(ENV_VAR)
        if not text:
            return cls()
        return cls.from_json(text)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = [payload]
        if not isinstance(payload, list):
            raise ValueError(f"{ENV_VAR} must be a JSON list of injectors")
        return cls(injectors=[FaultInjector.from_dict(entry) for entry in payload])

    @property
    def enabled(self) -> bool:
        return bool(self.injectors)

    def _first(
        self,
        kind: str,
        attempt: Optional[int],
        stage_name: Optional[str] = None,
        index: Optional[int] = None,
    ) -> Optional[FaultInjector]:
        for injector in self.injectors:
            if (
                injector.kind == kind
                and injector.matches(attempt)
                and injector.matches_stage(stage_name, index)
            ):
                return injector
        return None

    # ------------------------------------------------------------------
    # fault points
    # ------------------------------------------------------------------
    def store_write_delay(self) -> float:
        """Seconds to sleep before an event-log write (0 = no fault)."""
        for injector in self.injectors:
            if injector.kind == "delay_store_writes":
                return injector.seconds
        return 0.0

    def stall_heartbeat(self, attempt: Optional[int]) -> bool:
        """True when this attempt's heartbeat renewals should be skipped."""
        return self._first("stall_heartbeat", attempt) is not None

    def on_stage_start(
        self,
        stage_name: str,
        index: int,
        attempt: Optional[int],
    ) -> None:
        """Fire stage-start faults: kill, hang, or raise.

        A ``kill_worker`` injector SIGKILLs the calling worker process —
        exit code -9, exactly what the supervisor must handle.
        """
        if self._first("kill_worker", attempt, stage_name, index) is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        injector = self._first("hang_stage", attempt, stage_name, index)
        if injector is not None:
            # "Forever" by default: a hang is the absence of progress,
            # and only the watchdog (or test timeout) should end it.
            time.sleep(injector.seconds or 3600.0)
        injector = self._first("raise_error", attempt, stage_name, index)
        if injector is not None:
            raise FaultInjected(
                f"injected transient error at stage {stage_name!r} (attempt {attempt})"
            )

    def on_checkpoint(
        self, path, stage_name: str, attempt: Optional[int]
    ) -> None:
        """Corrupt the just-written checkpoint file when matched."""
        injector = self._first("corrupt_checkpoint", attempt, stage_name, None)
        if injector is None:
            return
        try:
            with open(path, "wb") as handle:
                handle.write(b"\x00corrupted-by-fault-injection\x00")
        except OSError:
            pass
