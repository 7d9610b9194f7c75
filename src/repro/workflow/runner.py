"""Workflow execution: one runner, one executor, optional checkpoints.

:class:`WorkflowRunner` executes a validated
:class:`~repro.workflow.builder.Workflow` stage by stage, in order, on
one :class:`~repro.workflow.executor.StageExecutor`.  It adds the two
operational features the declarative layer exists for:

* **lifecycle events** — every subscriber receives a
  :class:`WorkflowEvent` at each stage boundary, checkpoint and resume
  (the CLI uses them for progress lines, the job service for cancel and
  deadlines, tests for crash injection);
* **checkpoint/resume** — with a ``checkpoint_dir``, the whole workflow
  state is pickled after every stage;
  :meth:`WorkflowRunner.resume` (or ``run(..., resume=True)``) skips
  the completed prefix and continues bit-identically.

The :class:`WorkflowContext` passed to every stage carries the shared
``state`` dictionary and the runner's ``executor``, which stage bodies
hand to the operations they launch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import CheckpointError, WorkflowError
from ..runtime.base import collector_paused
from ..telemetry import get_profiler, get_registry, get_timeline, span
from .builder import Workflow
from .checkpoint import Checkpoint, CheckpointStore, state_fingerprint
from .executor import StageExecutor
from .stage import Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import RuntimeOptions


@dataclass
class WorkflowEvent:
    """One lifecycle event of a workflow run.

    The runner emits these to every subscriber
    (:meth:`WorkflowRunner.subscribe`) as the run progresses.  ``kind``
    is one of ``stage-start`` / ``stage-end`` / ``stage-skipped`` /
    ``checkpoint`` / ``progress``; the remaining fields are populated
    per kind (``seconds`` only on ``stage-end``, ``path`` only on
    ``checkpoint``, ``message`` only on ``progress``).  Subscriber
    exceptions abort the run — by design, so observers can cancel a
    workflow at an exact stage boundary (the job service's cooperative
    cancel works this way).
    """

    kind: str
    stage: Optional[Stage] = None
    index: int = 0
    total: int = 0
    seconds: float = 0.0
    path: Any = None
    message: str = ""


#: A workflow-event observer.
EventSubscriber = Callable[[WorkflowEvent], None]


class WorkflowContext:
    """What a stage sees while it runs: the shared state and the executor."""

    def __init__(
        self, executor: StageExecutor, state: Optional[Dict[str, Any]] = None
    ) -> None:
        self.executor = executor
        self.state: Dict[str, Any] = state if state is not None else {}

    def require(self, key: str) -> Any:
        """``state[key]`` with a workflow-level error on absence."""
        try:
            return self.state[key]
        except KeyError:
            raise WorkflowError(
                f"workflow state has no value for {key!r} — did an upstream "
                "stage that provides it run?"
            ) from None


class WorkflowRunner:
    """Executes workflows on an execution backend, with checkpointing.

    Takes :class:`~repro.runtime.base.RuntimeOptions` and/or its fields
    as keywords for the executor it builds; ``subscriber`` is
    registered first, as :meth:`subscribe` would.
    """

    def __init__(
        self,
        options: Optional["RuntimeOptions"] = None,
        checkpoint_dir=None,
        subscriber: Optional[EventSubscriber] = None,
        **overrides: Any,
    ) -> None:
        self._executor = StageExecutor(options, **overrides)
        self._subscribers: List[EventSubscriber] = [subscriber] if subscriber else []
        self._store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None

    @property
    def executor(self) -> StageExecutor:
        """The executor every stage runs on."""
        return self._executor

    @property
    def checkpoint_dir(self):
        return self._store.directory if self._store is not None else None

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: EventSubscriber) -> EventSubscriber:
        """Register an observer of :class:`WorkflowEvent` emissions.

        Subscribers run synchronously in registration order (the
        constructor's ``subscriber`` first); an exception from any
        subscriber aborts the run.  Returns ``subscriber`` so it can be
        used as a decorator.
        """
        self._subscribers.append(subscriber)
        return subscriber

    def _emit(self, event: WorkflowEvent) -> None:
        for subscriber in self._subscribers:
            subscriber(event)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run(
        self,
        workflow: Workflow,
        state: Optional[Dict[str, Any]] = None,
        resume: bool = False,
    ) -> WorkflowContext:
        """Execute ``workflow`` and return its final context.

        ``state`` seeds the context's state dictionary (inputs such as
        reads live there).  With ``resume=True`` and a matching
        checkpoint in the runner's checkpoint directory, the completed
        prefix is skipped and the persisted state takes over; without a
        checkpoint the workflow simply starts from the beginning.
        """
        return self._run(workflow, state, resume=resume, require_checkpoint=False)

    def resume(
        self,
        workflow: Workflow,
        state: Optional[Dict[str, Any]] = None,
    ) -> WorkflowContext:
        """Like ``run(resume=True)`` but a missing checkpoint is an error.

        ``state`` may be omitted entirely — the checkpoint's state takes
        over anyway.  When given, it must carry the same values as the
        original run's seed state; checkpoints record a fingerprint of
        it and a mismatch raises :class:`~repro.errors.CheckpointError`
        rather than silently returning the old run's results.
        """
        return self._run(workflow, state, resume=True, require_checkpoint=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    # The whole run, not only its Pregel jobs: construction, the chain
    # view and merging build long-lived objects by the thousand, and
    # every automatic full pass would re-walk all of them to free
    # nothing.  Cyclic garbage is reclaimed after the run.
    @collector_paused()
    def _run(
        self,
        workflow: Workflow,
        state: Optional[Dict[str, Any]],
        resume: bool,
        require_checkpoint: bool,
    ) -> WorkflowContext:
        workflow.validate()
        order = workflow.stages()
        names = [stage.name for stage in order]
        ctx = WorkflowContext(self._executor, dict(state or {}))
        registry = get_registry()
        checkpoint_seconds = registry.histogram(
            "repro_checkpoint_write_seconds",
            "Seconds spent writing workflow checkpoints.",
        )

        # The seed fingerprint ties checkpoints to this run's inputs:
        # stage names alone cannot tell two runs of the same workflow
        # over different data/parameters apart.  Resuming with an empty
        # seed state means "use the checkpoint's" and skips the check.
        fingerprint = (
            state_fingerprint(ctx.state)
            if self._store is not None and ctx.state
            else None
        )

        with span(
            f"workflow:{workflow.name}", stages=len(order), resume=resume
        ) as run_span:
            completed = 0
            if resume:
                completed, restored = self._load_resume_point(
                    workflow, names, fingerprint, require_checkpoint
                )
                if restored is not None:
                    ctx.state = restored.state
                    # Checkpoints written by the continued run must keep
                    # the original run's fingerprint, whatever seed state
                    # this call was (or was not) given.
                    fingerprint = restored.seed_fingerprint
                    self._executor.pipeline_metrics = restored.metrics
                    for index in range(completed):
                        self._emit(
                            WorkflowEvent(
                                "stage-skipped",
                                stage=order[index],
                                index=index,
                                total=len(order),
                            )
                        )
                    self._emit(
                        WorkflowEvent(
                            "progress",
                            message=(
                                f"resumed workflow {workflow.name!r}: skipping "
                                f"{completed}/{len(order)} completed stages"
                            ),
                        )
                    )
                    run_span.set(resumed_from=completed)

            if self._store is not None and completed == 0:
                # Starting from stage 0 into a directory with leftovers: a
                # previous run's higher-numbered checkpoints would outlive
                # this run's overwrites and shadow it on a later resume.
                self._store.clear(workflow.name)

            for index in range(completed, len(order)):
                stage = order[index]
                self._execute(stage, ctx, index, len(order))
                if self._store is not None:
                    save_started = time.perf_counter()
                    path = self._store.save(
                        Checkpoint(
                            workflow=workflow.name,
                            stage_names=names,
                            completed=index + 1,
                            state=ctx.state,
                            metrics=self._executor.pipeline_metrics,
                            seed_fingerprint=fingerprint,
                        )
                    )
                    checkpoint_seconds.observe(time.perf_counter() - save_started)
                    self._emit(
                        WorkflowEvent("checkpoint", stage=stage, path=path)
                    )
        registry.counter(
            "repro_workflow_runs_total",
            "Completed workflow runs, by workflow.",
            labelnames=("workflow",),
        ).labels(workflow.name).inc()
        return ctx

    def _load_resume_point(
        self,
        workflow: Workflow,
        names,
        fingerprint,
        require_checkpoint: bool,
    ):
        if self._store is None:
            raise CheckpointError(
                "cannot resume: the runner has no checkpoint directory"
            )
        checkpoint = self._store.latest(workflow.name)
        if checkpoint is None:
            if require_checkpoint:
                raise CheckpointError(
                    f"no checkpoint for workflow {workflow.name!r} "
                    f"in {self._store.directory}"
                )
            return 0, None
        if checkpoint.stage_names != names:
            raise CheckpointError(
                f"checkpoint in {self._store.directory} was written by a "
                f"differently-shaped run of workflow {workflow.name!r} "
                f"(stages {checkpoint.stage_names} != {names}); "
                "start fresh or point at a different directory"
            )
        if (
            fingerprint is not None
            and checkpoint.seed_fingerprint is not None
            and checkpoint.seed_fingerprint != fingerprint
        ):
            raise CheckpointError(
                f"checkpoint in {self._store.directory} was written by a run "
                f"of workflow {workflow.name!r} over different inputs or "
                "parameters; start fresh or point at a different directory"
            )
        return checkpoint.completed, checkpoint

    def _execute(
        self, stage: Stage, ctx: WorkflowContext, index: int, total: int
    ) -> None:
        self._emit(WorkflowEvent("stage-start", stage=stage, index=index, total=total))
        timeline = get_timeline()
        timeline.record("stage-start", stage=stage.name, index=index, total=total)
        started = time.perf_counter()
        # Stage-level profiling covers the master process; Pregel
        # worker processes profile their own compute and ship it back
        # through the barrier channel.
        with get_profiler().profile_block(f"stage:{stage.name}"):
            with span(f"stage:{stage.name}", index=index):
                value = stage.fn(ctx)
                if stage.output is not None:
                    ctx.state[stage.output] = value
        elapsed = time.perf_counter() - started
        timeline.record(
            "stage-end",
            stage=stage.name,
            index=index,
            total=total,
            seconds=round(elapsed, 6),
        )
        get_registry().histogram(
            "repro_workflow_stage_seconds",
            "Wall-clock seconds per workflow stage.",
            labelnames=("stage",),
        ).labels(stage.name).observe(elapsed)
        self._emit(
            WorkflowEvent(
                "stage-end", stage=stage, index=index, total=total, seconds=elapsed
            )
        )
