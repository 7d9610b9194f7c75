"""The workflow builder: a named, ordered list of stages.

A :class:`Workflow` is the introspectable description of a multi-job
computation — the five assembly operations of the paper's Figure 10,
with scaffolding as an optional last stage, or any user-composed
strategy.  It says *what* runs in *which order*; the
:class:`~repro.workflow.runner.WorkflowRunner` decides *how* (backend,
workers, checkpointing).

Stages run in the order :meth:`Workflow.add` received them: the
paper's job chains are linear, and their run-time decisions are plain
``if``s inside a stage's function.  That order is part of the
workflow's contract, because checkpoints record their position in it.
A stage name is used once per workflow: names key checkpoints, stage
timings, events and fault injection.
"""

from __future__ import annotations

from typing import List

from ..errors import WorkflowError
from .stage import Stage


class Workflow:
    """A named, ordered list of :class:`~repro.workflow.stage.Stage` objects."""

    def __init__(self, name: str, description: str = "") -> None:
        if not name:
            raise WorkflowError("a workflow needs a non-empty name")
        self.name = name
        self.description = description
        self._stages: List[Stage] = []

    def add(self, stage: Stage) -> Stage:
        """Append a stage; returns it so calls can be chained into locals."""
        if stage.name in self.stage_names():
            raise WorkflowError(
                f"workflow {self.name!r} already has a stage named {stage.name!r}"
            )
        self._stages.append(stage)
        return stage

    def stages(self) -> List[Stage]:
        """The stages in execution order."""
        return list(self._stages)

    def stage(self, name: str) -> Stage:
        for stage in self._stages:
            if stage.name == name:
                return stage
        raise WorkflowError(f"workflow {self.name!r} has no stage named {name!r}")

    def stage_names(self) -> List[str]:
        """Stage names in execution order."""
        return [stage.name for stage in self._stages]

    def validate(self) -> None:
        """Raise :class:`~repro.errors.WorkflowError` on an empty workflow."""
        if not self._stages:
            raise WorkflowError(f"workflow {self.name!r} has no stages")

    def describe(self) -> str:
        """Multi-line listing of the stages (what ``--list-stages`` prints)."""
        lines = [f"workflow {self.name} ({len(self._stages)} stages)"]
        if self.description:
            lines.append(f"  {self.description}")
        for index, stage in enumerate(self._stages, start=1):
            lines.append(f"  {index:2d}. {stage.name}")
        return "\n".join(lines)
