"""Tests for the mini-MapReduce extension, job chaining and metrics."""

from __future__ import annotations

import pytest

from repro.pregel import (
    ClusterProfile,
    CostModel,
    JobMetrics,
    MiniMapReduce,
    PipelineMetrics,
    PregelJob,
    SuperstepMetrics,
    Vertex,
    estimate_seconds,
)
from repro.workflow import StageExecutor


# ----------------------------------------------------------------------
# mini-MapReduce
# ----------------------------------------------------------------------
def test_word_count_mapreduce():
    records = ["a b a", "b c", "a"]
    result = MiniMapReduce(num_workers=3).run(
        records,
        map_fn=lambda line: [(word, 1) for word in line.split()],
        reduce_fn=lambda word, counts: [(word, sum(counts))],
    )
    assert dict(result.outputs) == {"a": 3, "b": 2, "c": 1}
    assert result.groups == 3


def test_mapreduce_filtering_reduce():
    records = list(range(100))
    result = MiniMapReduce(num_workers=4).run(
        records,
        map_fn=lambda value: [(value % 10, value)],
        reduce_fn=lambda key, values: [key] if sum(values) > 400 else [],
    )
    assert all(isinstance(output, int) for output in result.outputs)
    assert result.groups == 10


def test_mapreduce_map_can_emit_nothing():
    result = MiniMapReduce(num_workers=2).run(
        ["skip", "keep"],
        map_fn=lambda record: [] if record == "skip" else [(record, 1)],
        reduce_fn=lambda key, values: [key],
    )
    assert result.outputs == ["keep"]


def test_mapreduce_metrics_have_two_phases():
    result = MiniMapReduce(num_workers=2, name="mr").run(
        ["x"] * 10,
        map_fn=lambda record: [(record, 1)],
        reduce_fn=lambda key, values: [len(values)],
    )
    assert result.metrics.job_name == "mr"
    assert result.metrics.num_supersteps == 2
    assert result.metrics.loading_ops > 0


def test_mapreduce_mixed_key_types_sort():
    result = MiniMapReduce(num_workers=1).run(
        [1, 2],
        map_fn=lambda value: [((value, value), value), (value, value)],
        reduce_fn=lambda key, values: [key],
    )
    assert len(result.outputs) == 4


# ----------------------------------------------------------------------
# job chain
# ----------------------------------------------------------------------
class NoopVertex(Vertex):
    def compute(self, messages, ctx):
        self.vote_to_halt()


def test_job_chain_accumulates_metrics():
    chain = StageExecutor(num_workers=2)
    chain.run_mapreduce(
        "stage-1",
        records=[1, 2, 3],
        map_fn=lambda value: [(value, value)],
        reduce_fn=lambda key, values: values,
    )
    chain.run_pregel(PregelJob(name="stage-2", vertices=[NoopVertex(1), NoopVertex(2)]))
    assert [job.job_name for job in chain.pipeline_metrics.jobs] == ["stage-1", "stage-2"]
    assert chain.pipeline_metrics.total_supersteps >= 3


def test_job_chain_convert_shuffles_outputs():
    chain = StageExecutor(num_workers=4)
    vertices = [NoopVertex(i) for i in range(20)]
    conversion = chain.convert(
        "convert",
        vertices,
        convert_fn=lambda vertex: [NoopVertex(vertex.vertex_id + 1000)],
    )
    assert len(conversion.outputs) == 20
    assert conversion.metrics.job_name == "convert"
    assert chain.pipeline_metrics.jobs[-1] is conversion.metrics


# ----------------------------------------------------------------------
# metrics / cost model
# ----------------------------------------------------------------------
def _job_with_load(compute_per_worker, bytes_per_worker, name="job", workers=4):
    job = JobMetrics(job_name=name, num_workers=workers)
    step = SuperstepMetrics(superstep=0)
    step.worker_compute_ops = list(compute_per_worker)
    step.worker_bytes_sent = list(bytes_per_worker)
    step.worker_bytes_received = list(bytes_per_worker)
    step.compute_ops = sum(compute_per_worker)
    step.bytes_sent = sum(bytes_per_worker)
    job.add(step)
    return job


def test_job_metrics_totals():
    job = _job_with_load([10, 20], [100, 200], workers=2)
    assert job.total_compute_ops == 30
    assert job.total_bytes == 300
    assert job.summary()["supersteps"] == 1


def test_pipeline_metrics_lookup():
    pipeline = PipelineMetrics()
    pipeline.add(_job_with_load([1], [1], name="a", workers=1))
    pipeline.add(_job_with_load([1], [1], name="b", workers=1))
    pipeline.add(_job_with_load([1], [1], name="a", workers=1))
    assert pipeline.job("a").job_name == "a"
    assert pipeline.job("missing") is None
    assert len(pipeline.jobs_named("a")) == 2


def test_cost_model_charges_slowest_worker():
    balanced = _job_with_load([100, 100], [0, 0], workers=2)
    skewed = _job_with_load([190, 10], [0, 0], workers=2)
    model = CostModel()
    assert model.job_seconds(skewed) > model.job_seconds(balanced)


def test_cost_model_more_workers_cheaper_loading():
    profile = ClusterProfile()
    few = JobMetrics(job_name="few", num_workers=2, loading_ops=1_000_000)
    many = JobMetrics(job_name="many", num_workers=16, loading_ops=1_000_000)
    model = CostModel(profile)
    assert model.job_seconds(many) < model.job_seconds(few)


def test_estimate_seconds_accepts_various_shapes():
    job = _job_with_load([10], [10], workers=1)
    pipeline = PipelineMetrics()
    pipeline.add(job)
    assert estimate_seconds(job) > 0
    assert estimate_seconds(pipeline) == pytest.approx(estimate_seconds([job]))


def test_cluster_profiles():
    assert ClusterProfile.fast_network().seconds_per_byte < ClusterProfile.gigabit_cluster().seconds_per_byte
