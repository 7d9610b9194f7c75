"""The runner's :class:`WorkflowEvent` stream, as subscribers see it.

Events are the only observer API: progress lines, stage timing, the job
service's cancellation and deadlines, and test crash injection are all
subscribers.  These tests pin what each event carries, the order
subscribers run in, and that a raising subscriber aborts the run.
"""

from __future__ import annotations

import pytest

from repro.workflow import (
    Stage,
    Workflow,
    WorkflowEvent,
    WorkflowRunner,
)


def _three_stage_workflow() -> Workflow:
    workflow = Workflow("observed")
    workflow.add(Stage("a", lambda ctx: 1, output="a"))
    workflow.add(Stage("b", lambda ctx: 2, output="b"))
    workflow.add(Stage("c", lambda ctx: 3, output="c"))
    return workflow


def test_stage_events_fire_in_order():
    events = []
    WorkflowRunner(num_workers=2, subscriber=events.append).run(
        _three_stage_workflow()
    )
    assert [(e.kind, e.stage.name, e.index, e.total) for e in events] == [
        ("stage-start", "a", 0, 3), ("stage-end", "a", 0, 3),
        ("stage-start", "b", 1, 3), ("stage-end", "b", 1, 3),
        ("stage-start", "c", 2, 3), ("stage-end", "c", 2, 3),
    ]


def test_stage_end_seconds_argument_still_passed():
    events = []
    WorkflowRunner(num_workers=2, subscriber=events.append).run(
        _three_stage_workflow()
    )
    seconds_seen = [e.seconds for e in events if e.kind == "stage-end"]
    assert len(seconds_seen) == 3
    assert all(value >= 0 for value in seconds_seen)


def test_checkpoint_and_skip_events_fire(tmp_path):
    checkpoints, skipped = [], []

    def record(event: WorkflowEvent):
        if event.kind == "checkpoint":
            assert event.path.is_file()
            checkpoints.append(event.stage.name)
        elif event.kind == "stage-skipped":
            skipped.append(event.stage.name)

    runner = WorkflowRunner(num_workers=2, subscriber=record, checkpoint_dir=tmp_path)
    runner.run(_three_stage_workflow())
    assert checkpoints == ["a", "b", "c"]
    assert skipped == []

    # Resume from a complete checkpoint: every stage arrives as skipped.
    resumed = WorkflowRunner(num_workers=2, subscriber=record, checkpoint_dir=tmp_path)
    resumed.run(_three_stage_workflow(), resume=True)
    assert skipped == ["a", "b", "c"]


def test_subscribers_run_in_registration_order():
    order = []

    def first(event: WorkflowEvent):
        if event.kind == "stage-start":
            order.append(("first", event.stage.name))

    runner = WorkflowRunner(num_workers=2, subscriber=first)

    @runner.subscribe
    def second(event: WorkflowEvent):
        if event.kind == "stage-start":
            order.append(("second", event.stage.name))

    runner.run(_three_stage_workflow())
    assert order == [
        ("first", "a"), ("second", "a"),
        ("first", "b"), ("second", "b"),
        ("first", "c"), ("second", "c"),
    ]


def test_subscriber_exception_aborts_the_run():
    # The service's cooperative cancellation rides on this: its
    # subscriber raises on stage-start to stop a job at a stage boundary.
    class Stop(Exception):
        pass

    def bomb(event: WorkflowEvent):
        if event.kind == "stage-start" and event.stage.name == "b":
            raise Stop()

    with pytest.raises(Stop):
        WorkflowRunner(num_workers=2, subscriber=bomb).run(_three_stage_workflow())
