"""Tests for the execution-backend interface, registry and plumbing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler
from repro.dna import simulate_dataset
from repro.dna.io_fastq import reads_from_strings
from repro.errors import (
    InvalidJobError,
    PipelineConfigError,
    PregelError,
    SuperstepLimitExceededError,
    UnknownBackendError,
    VertexNotFoundError,
)
from repro.pregel import PregelEngine, PregelJob, Vertex
from repro.telemetry import Tracer, use_tracer
from repro.workflow import StageExecutor
from repro.runtime import (
    ExecutionBackend,
    MultiprocessBackend,
    RuntimeOptions,
    SerialBackend,
    available_backends,
    create_backend,
)


class CountdownVertex(Vertex):
    """Stays active for ``value`` supersteps (module-level: picklable)."""

    def compute(self, messages, ctx):
        self.value -= 1
        if self.value <= 0:
            self.vote_to_halt()


class ForeverVertex(Vertex):
    def compute(self, messages, ctx):
        ctx.send(self.vertex_id, 1)


class BadSenderVertex(Vertex):
    def compute(self, messages, ctx):
        ctx.send(999, "hello")
        self.vote_to_halt()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_lists_both_builtin_backends():
    names = available_backends()
    assert "serial" in names
    assert "multiprocess" in names


def test_create_backend_by_name():
    backend = create_backend(backend="serial", num_workers=3)
    assert isinstance(backend, SerialBackend)
    assert backend.num_workers == 3


def test_create_backend_passes_instances_through():
    backend = SerialBackend(num_workers=2)
    assert create_backend(backend=backend) is backend


def test_unknown_backend_rejected():
    with pytest.raises(UnknownBackendError) as excinfo:
        create_backend(backend="hadoop")
    assert "serial" in str(excinfo.value)


def test_backend_rejects_non_positive_workers():
    with pytest.raises(InvalidJobError):
        SerialBackend(num_workers=0)
    with pytest.raises(InvalidJobError):
        MultiprocessBackend(num_workers=-1)


# ----------------------------------------------------------------------
# engine delegation
# ----------------------------------------------------------------------
def test_engine_defaults_to_serial_backend():
    engine = PregelEngine(num_workers=2)
    assert engine.backend_name == "serial"
    assert isinstance(engine.backend, ExecutionBackend)


def test_engine_accepts_backend_name_and_instance():
    assert PregelEngine(num_workers=2, backend="multiprocess").backend_name == "multiprocess"
    backend = SerialBackend(num_workers=5)
    engine = PregelEngine(num_workers=2, backend=backend)
    assert engine.backend is backend
    # An instance's worker count wins over the engine argument.
    assert engine.num_workers == 5


def test_engine_rejects_unknown_backend():
    with pytest.raises(UnknownBackendError):
        PregelEngine(num_workers=2, backend="bogus")


# ----------------------------------------------------------------------
# multiprocess backend semantics
# ----------------------------------------------------------------------
def test_multiprocess_runs_simple_job():
    vertices = [CountdownVertex(i, value=3) for i in range(10)]
    result = PregelEngine(num_workers=2, backend="multiprocess").run(
        PregelJob(name="countdown", vertices=vertices)
    )
    assert result.num_supersteps == 3
    assert all(vertex.value == 0 for vertex in result.vertices.values())


def test_multiprocess_empty_job_rejected():
    with pytest.raises(InvalidJobError):
        MultiprocessBackend(num_workers=2).run(PregelJob(name="empty", vertices=[]))


def test_multiprocess_superstep_limit_enforced():
    job = PregelJob(name="forever", vertices=[ForeverVertex(1)], max_supersteps=4)
    with pytest.raises(SuperstepLimitExceededError):
        MultiprocessBackend(num_workers=2).run(job)


def test_multiprocess_propagates_worker_exceptions():
    job = PregelJob(name="bad", vertices=[BadSenderVertex(1)])
    with pytest.raises(VertexNotFoundError):
        MultiprocessBackend(num_workers=2).run(job)


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
def test_job_chain_plumbs_backend():
    chain = StageExecutor(num_workers=2, backend="multiprocess")
    assert chain.backend == "multiprocess"
    assert chain.engine.backend_name == "multiprocess"


def _spans(tree, prefix):
    """Every span of a ``Span.to_dict()`` tree whose name starts with ``prefix``."""
    found = [tree] if tree["name"].startswith(prefix) else []
    for child in tree["children"]:
        found += _spans(child, prefix)
    return found


def _traced_assembly(config, reads):
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("root") as root:
        PPAAssembler(config).assemble(reads)
    return root.to_dict()


@pytest.mark.parametrize("labeling_method", ["sv", "list_ranking"])
def test_every_pregel_job_of_an_assembly_runs_under_the_configured_options(
    labeling_method,
):
    # A circular genome: every k-mer is <1-1>, so list ranking cannot
    # finish and falls back to simplified S-V — with "sv" labeling, the
    # two jobs that used to get a fresh default engine.
    cycle = "TCGCCTGATACGAGTCGGTTATCTTCGGAT"
    config = AssemblyConfig(
        k=5,
        coverage_threshold=0,
        tip_length_threshold=0,
        labeling_method=labeling_method,
        backend="multiprocess",
        num_workers=2,
        partitioner="prefix_range",
    )
    tree = _traced_assembly(config, reads_from_strings([cycle + cycle[:5]]))
    jobs = _spans(tree, "pregel:")
    assert any(job["name"] == "pregel:simplified-sv" for job in jobs)
    assert {
        (job["attributes"]["backend"], job["attributes"]["num_workers"]) for job in jobs
    } == {("multiprocess", 2)}


def test_memory_budget_reaches_the_sv_labeling_job():
    _genome, reads = simulate_dataset(genome_length=3000, seed=7)
    config = AssemblyConfig(
        k=15, labeling_method="sv", num_workers=2, memory_budget_mb=0.05
    )
    tree = _traced_assembly(config, reads)
    sv_jobs = [
        job for job in _spans(tree, "pregel:") if job["name"] == "pregel:simplified-sv"
    ]
    # The k-mer round's S-V job is the big one; the contig round's is
    # a few dozen vertices and fits any budget.
    assert _spans(sv_jobs[0], "spill:write")


def test_assembly_config_accepts_and_validates_backend():
    config = AssemblyConfig(k=15, backend="multiprocess")
    assert config.backend == "multiprocess"
    assert dataclasses.replace(config, backend="serial").backend == "serial"
    # One validator: the config rejects what RuntimeOptions rejects, in
    # the same words, wrapped as its own error class.
    for bad, message in [
        ({"num_workers": 0}, "num_workers must be positive, got 0"),
        ({"backend": "spark"}, "unknown execution backend 'spark'"),
        ({"partitioner": "round_robin"}, "unknown partitioner 'round_robin'"),
        ({"message_plane": "tcp"}, "unknown message plane 'tcp'"),
        ({"memory_budget_mb": 0}, "memory_budget_mb must be positive, got 0"),
        ({"memory_budget_mb": float("nan")}, "memory_budget_mb must be finite, got nan"),
        ({"memory_budget_mb": float("inf")}, "memory_budget_mb must be finite, got inf"),
    ]:
        # Every rejection is a ReproError, so the CLI and the service
        # report it as an invalid job instead of crashing on it later.
        with pytest.raises(PregelError) as from_options:
            RuntimeOptions(**bad)
        with pytest.raises(PipelineConfigError) as from_config:
            AssemblyConfig(k=15, **bad)
        assert message in str(from_options.value)
        assert str(from_config.value) == str(from_options.value)


def test_baselines_accept_and_validate_backend():
    from repro.baselines import AbyssLikeAssembler

    assembler = AbyssLikeAssembler(k=15, num_workers=2, backend="multiprocess")
    assert assembler.backend == "multiprocess"
    with pytest.raises(UnknownBackendError):
        AbyssLikeAssembler(k=15, num_workers=2, backend="spark")
