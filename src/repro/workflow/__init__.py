"""Declarative workflows over the Pregel+ substrate.

The paper's systems contribution is treating assembly as a *chain of
Pregel/MapReduce jobs with in-memory handoff* (Section II).  This
package is the public API for that idea: describe a computation as a
named, ordered list of typed stages, then execute it on one executor
with metering, lifecycle events, and checkpoint/resume.

* :class:`~repro.workflow.builder.Workflow` — the ordered stage list;
* :mod:`~repro.workflow.stage` — typed stage descriptors
  (:class:`PregelStage`, :class:`MapReduceStage`, :class:`ConvertStage`,
  :class:`BranchStage`, or your own :class:`Stage` subclass);
* :class:`~repro.workflow.runner.WorkflowRunner` — execution with
  event subscribers and pickle checkpoints;
* :class:`~repro.workflow.executor.StageExecutor` — the shared engine
  + metrics substrate every stage runs on.

The assembler (:func:`repro.assembler.pipeline.build_assembly_workflow`)
and the scaffolder
(:func:`repro.scaffold.scaffolder.build_scaffolding_workflow`) are the
two in-tree workflows; every new scenario is expected to plug in here.
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
from .stage import BranchStage, ConvertStage, MapReduceStage, PregelStage, Stage

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
    "BranchStage",
    "ConvertStage",
    "MapReduceStage",
    "PregelStage",
    "Stage",
]
