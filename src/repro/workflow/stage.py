"""Typed stage descriptors: the vocabulary workflows are declared in.

A :class:`Stage` is a *description* of one step of a workflow — it
carries a name and the logic to execute against a
:class:`~repro.workflow.runner.WorkflowContext`.  Stages do not hold
data: everything they read and write lives in the context's ``state``
dictionary, which is what makes a workflow checkpointable (the state is
pickled between stages, the stages themselves never are).

Four built-in kinds mirror the paper's job taxonomy:

* :class:`PregelStage` — one Pregel job, built from the current state;
* :class:`MapReduceStage` — one mini-MapReduce job;
* :class:`ConvertStage` — arbitrary in-memory computation between jobs
  (the generalisation of the paper's ``convert(v)`` handoff: anything
  from a pure vertex conversion to a composite assembly operation that
  itself launches several jobs on the context's executor);
* :class:`BranchStage` — a conditional sub-path, e.g. the contig
  labeling cycle fallback or the "any links found?" decision in
  scaffolding.

Composite operations that need richer behaviour can subclass
:class:`Stage` directly and implement :meth:`Stage.run`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from ..errors import WorkflowError
from ..pregel.engine import JobResult, PregelJob
from ..pregel.mapreduce import MapReduceResult


class Stage:
    """One named step of a workflow.

    Parameters
    ----------
    name:
        Unique (within a workflow, branch inner stages included) stage
        name; also the label used by progress events, checkpoints, and
        ``--list-stages``.
    """

    #: Short type tag shown by :meth:`describe` / ``--list-stages``.
    kind = "stage"

    def __init__(self, name: str) -> None:
        if not name:
            raise WorkflowError("a stage needs a non-empty name")
        self.name = name

    def run(self, ctx: "WorkflowContext") -> None:  # noqa: F821
        """Execute the stage against the workflow context."""
        raise NotImplementedError

    def names(self) -> List[str]:
        """This stage's name and those of any stages nested inside it."""
        return [self.name]

    def describe(self) -> str:
        """One-line human description (the stage type)."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def _store(ctx, output: Optional[str], value: Any) -> None:
    if output is not None:
        ctx.state[output] = value


class ConvertStage(Stage):
    """In-memory computation between jobs.

    ``fn(ctx)`` runs with full access to the context: it can read and
    write ``ctx.state``, and launch metered sub-jobs through
    ``ctx.executor`` (``run_pregel`` / ``run_mapreduce`` / ``convert``) — that
    is how composite operations (e.g. contig labeling, which runs end
    recognition plus list ranking plus an optional fallback) appear as
    a single named stage.  When ``output`` is given, the return value
    is stored under that state key.
    """

    kind = "convert"

    def __init__(
        self,
        name: str,
        fn: Callable[["WorkflowContext"], Any],  # noqa: F821
        output: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.fn = fn
        self.output = output

    def run(self, ctx) -> None:
        _store(ctx, self.output, self.fn(ctx))


class PregelStage(Stage):
    """One Pregel job.

    ``job_factory(ctx)`` builds the :class:`~repro.pregel.engine.PregelJob`
    from the current state (vertices typically come from an upstream
    stage's output).  The :class:`~repro.pregel.engine.JobResult` is
    handed to ``collect(ctx, result)`` when given, and/or stored under
    the ``output`` state key.
    """

    kind = "pregel"

    def __init__(
        self,
        name: str,
        job_factory: Callable[["WorkflowContext"], PregelJob],  # noqa: F821
        collect: Optional[Callable[["WorkflowContext", JobResult], Any]] = None,  # noqa: F821
        output: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.job_factory = job_factory
        self.collect = collect
        self.output = output

    def run(self, ctx) -> None:
        job = self.job_factory(ctx)
        if not isinstance(job, PregelJob):
            raise WorkflowError(
                f"stage {self.name!r}: job_factory must return a PregelJob, "
                f"got {type(job).__name__}"
            )
        result = ctx.executor.run_pregel(job)
        value: Any = result
        if self.collect is not None:
            value = self.collect(ctx, result)
        _store(ctx, self.output, value)


class MapReduceStage(Stage):
    """One mini-MapReduce job.

    ``records`` is either a state key naming an iterable produced by an
    upstream stage, or a callable ``records(ctx)`` returning the
    iterable.  ``map_fn``/``reduce_fn`` follow the
    :class:`~repro.pregel.mapreduce.MiniMapReduce` contract.
    """

    kind = "mapreduce"

    def __init__(
        self,
        name: str,
        records: Union[str, Callable[["WorkflowContext"], Iterable[Any]]],  # noqa: F821
        map_fn: Callable[..., Any],
        reduce_fn: Callable[..., Any],
        collect: Optional[Callable[["WorkflowContext", MapReduceResult], Any]] = None,  # noqa: F821
        output: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.records = records
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.collect = collect
        self.output = output

    def run(self, ctx) -> None:
        if callable(self.records):
            records = self.records(ctx)
        else:
            records = ctx.require(self.records)
        result = ctx.executor.run_mapreduce(
            self.name, records, self.map_fn, self.reduce_fn
        )
        value: Any = result
        if self.collect is not None:
            value = self.collect(ctx, result)
        _store(ctx, self.output, value)


class BranchStage(Stage):
    """A conditional sub-path inside a workflow.

    ``condition(ctx)`` is evaluated at run time; the matching list of
    inner stages then executes in order, sharing the outer context.
    The whole branch is one unit as far as checkpointing is concerned —
    a resume never restarts in the middle of a branch — but inner
    stages still emit the runner's stage events.  The decision is
    recorded under ``state["<name>/taken"]`` so reports and tests can
    see which path ran.
    """

    kind = "branch"

    def __init__(
        self,
        name: str,
        condition: Callable[["WorkflowContext"], bool],  # noqa: F821
        then_stages: Sequence[Stage] = (),
        else_stages: Sequence[Stage] = (),
    ) -> None:
        super().__init__(name)
        self.condition = condition
        self.then_stages: List[Stage] = list(then_stages)
        self.else_stages: List[Stage] = list(else_stages)
        seen = set()
        for stage_name in self.names():
            if stage_name in seen:
                raise WorkflowError(
                    f"branch {name!r} contains duplicate inner stage {stage_name!r}"
                )
            seen.add(stage_name)

    def run(self, ctx) -> None:
        taken = bool(self.condition(ctx))
        ctx.state[f"{self.name}/taken"] = taken
        for stage in self.then_stages if taken else self.else_stages:
            ctx.run_substage(stage)

    def names(self) -> List[str]:
        inner = self.then_stages + self.else_stages
        return [self.name] + [name for stage in inner for name in stage.names()]

    def describe(self) -> str:
        then_names = ", ".join(stage.name for stage in self.then_stages) or "—"
        else_names = ", ".join(stage.name for stage in self.else_stages) or "—"
        return f"{self.kind} then [{then_names}] else [{else_names}]"
