"""Run-timeline parity and transport across execution backends.

The timeline's superstep events are recorded at the superstep barrier
on every backend (master-side, from the merged ``SuperstepMetrics``),
so serial and multiprocess runs of the same job — on either message
plane — must emit *identical* superstep event sequences once wall
-clock fields are stripped.  Worker resource samples ride the same
barrier counter channel as metric deltas, so a multiprocess run's
timeline must also carry per-worker samples merged into one recorder.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.pregel import PregelEngine, PregelJob, Vertex
from repro.telemetry import (
    NullTimeline,
    ResourceSampler,
    TimelineRecorder,
    get_timeline,
    read_timeline,
    use_timeline,
    write_timeline,
)


class RingVertex(Vertex):
    """Passes a token around a ring for a fixed number of supersteps."""

    def compute(self, messages, ctx):
        if ctx.superstep >= 3:
            self.vote_to_halt()
            return
        for target in self.edges:
            ctx.send(target, self.vertex_id)


def _ring_job(size: int = 40) -> PregelJob:
    return PregelJob(
        name="ring",
        vertices=[RingVertex(i, value=0, edges=[(i + 1) % size]) for i in range(size)],
    )


#: Wall-clock-dependent fields stripped before comparing sequences.
_TIMING_FIELDS = ("ts", "elapsed_seconds")


def _superstep_sequence(recorder) -> list:
    events = []
    for event in recorder.events():
        if event.get("kind") != "superstep":
            continue
        events.append(
            {k: v for k, v in event.items() if k not in _TIMING_FIELDS}
        )
    return events


def _run_with_timeline(backend: str, **engine_kwargs) -> TimelineRecorder:
    recorder = TimelineRecorder()
    with use_timeline(recorder):
        PregelEngine(num_workers=3, backend=backend, **engine_kwargs).run(_ring_job())
    return recorder


def test_superstep_events_identical_serial_vs_multiprocess():
    serial = _superstep_sequence(_run_with_timeline("serial"))
    multi = _superstep_sequence(_run_with_timeline("multiprocess"))
    assert serial, "serial run recorded no superstep events"
    assert serial == multi

    # The sequence is the documented shape: one event per superstep, in
    # order, carrying the merged counters.
    assert [event["superstep"] for event in serial] == list(range(len(serial)))
    assert all(event["job"] == "ring" for event in serial)
    assert sum(event["messages_sent"] for event in serial) > 0
    for field in (
        "active_vertices", "bytes_sent", "cross_worker_messages",
        "messages_delivered", "spill_events", "spill_bytes",
        "ledger_peak_bytes",
    ):
        assert all(field in event for event in serial)


def test_multiprocess_run_merges_worker_samples():
    recorder = _run_with_timeline("multiprocess")
    samples = [e for e in recorder.events() if e.get("kind") == "sample"]
    sources = {sample["source"] for sample in samples}
    # Each worker ships at least its final pre-barrier sample home.
    assert {"worker-0", "worker-1", "worker-2"} <= sources
    assert all(sample["rss_bytes"] > 0 for sample in samples)
    assert all(sample["pid"] > 0 for sample in samples)
    # The collector is paused in a worker process: a flat line per worker.
    for source in ("worker-0", "worker-1", "worker-2"):
        passes = {s["gc_collections"] for s in samples if s["source"] == source}
        assert len(passes) == 1


_SAMPLER = ResourceSampler(TimelineRecorder(), source="probe")


class _SamplingVertex(Vertex):
    """Allocates containers the collector would count, then samples."""

    def compute(self, messages, ctx):
        self.value = [[index] for index in range(2000)]
        _SAMPLER.sample_once()
        if ctx.superstep == 2:
            self.vote_to_halt()


def test_samples_count_collector_passes_flat_through_a_job():
    recorder = _SAMPLER.timeline
    recorder.drain_events()
    _SAMPLER.sample_once()
    gc.collect()
    _SAMPLER.sample_once()
    PregelEngine(num_workers=2, backend="serial").run(
        PregelJob(name="sampling", vertices=[_SamplingVertex(i) for i in range(4)])
    )
    passes = [event["gc_collections"] for event in recorder.events()]
    assert len(passes) == 2 + 3 * 4
    assert passes[1] > passes[0]  # cumulative, every generation counted
    assert len(set(passes[2:])) == 1  # 24 000 young lists, and not one pass


def test_timeline_disabled_records_nothing():
    assert isinstance(get_timeline(), NullTimeline)
    result = PregelEngine(num_workers=2, backend="serial").run(_ring_job(10))
    assert result.metrics.total_messages > 0
    assert len(get_timeline()) == 0


def test_write_and_read_round_trip_sorted_by_timestamp(tmp_path):
    recorder = TimelineRecorder()
    recorder.record("b", ts=2.0, value=1)
    recorder.record("a", ts=1.0, value=2)
    path = tmp_path / "deep" / "timeline.jsonl"
    write_timeline(recorder, path)

    events = read_timeline(path)
    assert [event["kind"] for event in events] == ["a", "b"]
    # JSONL: one parseable object per line, keys sorted for clean diffs.
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)


def test_read_timeline_skips_torn_final_line(tmp_path):
    path = tmp_path / "timeline.jsonl"
    path.write_text('{"kind": "a", "ts": 1.0}\n{"kind": "b", "ts"')
    assert [event["kind"] for event in read_timeline(path)] == ["a"]
