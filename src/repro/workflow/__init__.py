"""Declarative workflows over the Pregel+ substrate.

The paper's systems contribution is treating assembly as a *chain of
Pregel/MapReduce jobs with in-memory handoff* (Section II).  This
package is the public API for that idea: describe a computation as a
named, ordered list of stages, then execute it on one executor with
metering, lifecycle events, and checkpoint/resume.

* :class:`~repro.workflow.builder.Workflow` — the ordered stage list;
* :class:`~repro.workflow.stage.Stage` — a name and a function
  ``fn(ctx)`` that launches its Pregel and mini-MapReduce jobs on
  ``ctx.executor``;
* :class:`~repro.workflow.runner.WorkflowRunner` — execution with
  event subscribers and pickle checkpoints;
* :class:`~repro.workflow.executor.StageExecutor` — the shared engine
  + metrics substrate every stage runs on.

The assembler (:func:`repro.assembler.pipeline.build_assembly_workflow`)
is the in-tree workflow; paired-end scaffolding is its optional last
stage, and every new scenario is expected to plug in here.
"""

from .builder import Workflow
from .checkpoint import CHECKPOINT_FORMAT, Checkpoint, CheckpointStore
from .executor import ConversionResult, ConvertFunction, StageExecutor
from .runner import (
    EventSubscriber,
    WorkflowContext,
    WorkflowEvent,
    WorkflowRunner,
)
from .stage import Stage

__all__ = [
    "Workflow",
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "CheckpointStore",
    "ConversionResult",
    "ConvertFunction",
    "EventSubscriber",
    "StageExecutor",
    "WorkflowContext",
    "WorkflowEvent",
    "WorkflowRunner",
    "Stage",
]
