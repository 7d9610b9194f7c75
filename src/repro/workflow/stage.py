"""The one stage type workflows are declared in: a name and a function.

A :class:`Stage` is one step of a workflow.  ``fn(ctx)`` runs against
a :class:`~repro.workflow.runner.WorkflowContext`: it reads and writes
``ctx.state``, and launches metered Pregel and mini-MapReduce jobs on
``ctx.executor`` (``run_pregel`` / ``run_mapreduce`` / ``convert``) —
the generalisation of the paper's in-memory job chaining.  A composite
operation (contig labeling runs end recognition, list ranking and an
optional fallback) is one stage whose function launches several jobs;
a run-time decision is a plain ``if`` inside the function.

Stages do not hold data: everything they read and write lives in the
context's ``state`` dictionary, which is what makes a workflow
checkpointable (the state is pickled between stages, the stages
themselves never are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import WorkflowError


@dataclass(frozen=True)
class Stage:
    """One named step of a workflow.

    Parameters
    ----------
    name:
        Unique (within a workflow) stage name; also the label used by
        progress events, checkpoints, and ``--list-stages``.
    fn:
        ``fn(ctx)`` does the stage's work against the workflow context.
    output:
        When given, ``fn``'s return value is stored under this state key.
    """

    name: str
    fn: Callable[["WorkflowContext"], Any]  # noqa: F821
    output: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("a stage needs a non-empty name")
