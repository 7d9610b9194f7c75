"""The cyclic collector is paused for the length of a Pregel job.

Every message is a young tuple that lives until the next barrier, the
worst case for a generational collector, and vertex programs free what
they allocate by reference count.  ``ExecutionBackend.run`` therefore
pauses automatic collection from just before ``launch`` until ``close``
has returned and puts back the state it found — on every exit path, for
nested and concurrent jobs, and in worker processes however they were
started.  Cyclic garbage made inside a job is reclaimed after it.

``WorkflowRunner`` holds the same pause over a whole workflow run, so
the stages between Pregel jobs (construction, the chain view, merging)
run without automatic collection too, and the jobs nested inside the
run do not switch it back on.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import weakref

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler, build_dbg
from repro.assembler import labeling
from repro.assembler.chain import build_chain_graph
from repro.dna.simulator import simulate_dataset
from repro.errors import SuperstepLimitExceededError, VertexNotFoundError
from repro.pregel import PregelJob, Vertex
from repro.runtime import MultiprocessBackend, SerialBackend
from repro.runtime.serial import _SerialSession
from repro.store.spill import SpillManager
from repro.workflow import StageExecutor

from test_launch_failure import _SecondStartFails, _job as _idle_job

SUPERSTEPS = 3


class ProbeVertex(Vertex):
    """Records whether the collector was enabled at every ``compute()``."""

    def compute(self, messages, ctx):
        self.value = self.value + [gc.isenabled()]
        if ctx.superstep + 1 < SUPERSTEPS:
            ctx.send(self.vertex_id ^ 1, ctx.superstep)
        else:
            self.vote_to_halt()


def _probe_job() -> PregelJob:
    return PregelJob(name="probe", vertices=[ProbeVertex(i, value=[]) for i in range(8)])


def _backends():
    yield "serial", lambda: SerialBackend(num_workers=4)
    yield "serial-budget", lambda: SerialBackend(num_workers=4, memory_budget_mb=0.0001)
    for method in ("fork", "spawn"):
        if method in multiprocessing.get_all_start_methods():
            yield f"multiprocess-{method}", lambda method=method: MultiprocessBackend(
                num_workers=2, start_method=method
            )


BACKENDS = dict(_backends())


@pytest.mark.parametrize("name", BACKENDS)
def test_every_compute_runs_with_the_collector_paused(name):
    assert gc.isenabled()
    result = BACKENDS[name]().run(_probe_job())
    assert gc.isenabled()
    seen = [vertex.value for vertex in result.vertices.values()]
    assert seen == [[False] * SUPERSTEPS] * 8


class _Forever(Vertex):
    def compute(self, messages, ctx):
        ctx.send(self.vertex_id, 0)


class _SendsToNobody(Vertex):
    def compute(self, messages, ctx):
        ctx.send(10**9, 0)
        self.vote_to_halt()


def _limit_exceeded():
    job = PregelJob(name="forever", vertices=[_Forever(0)], max_supersteps=3)
    with pytest.raises(SuperstepLimitExceededError):
        SerialBackend(num_workers=2).run(job)


def _unknown_target():
    job = PregelJob(name="nobody", vertices=[_SendsToNobody(0)])
    with pytest.raises(VertexNotFoundError):
        SerialBackend(num_workers=2).run(job)


def _failed_fork():
    backend = MultiprocessBackend(num_workers=2)
    backend._context = _SecondStartFails(backend._context)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        backend.run(_idle_job())


def _failed_adoption():
    def failing_spill(self, name, obj):
        raise OSError(28, "No space left on device")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpillManager, "spill", failing_spill)
        with pytest.raises(OSError, match="No space left on device"):
            SerialBackend(num_workers=2, memory_budget_mb=0.0001).run(_idle_job())


EXITS = {
    "normal-return": lambda: SerialBackend(num_workers=2).run(_probe_job()),
    "superstep-limit": _limit_exceeded,
    "vertex-not-found": _unknown_target,
    "failed-fork": _failed_fork,
    "failed-adoption": _failed_adoption,
}


@pytest.mark.parametrize("enabled_before", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("exit_path", EXITS)
def test_run_leaves_the_collector_as_it_found_it(exit_path, enabled_before):
    assert gc.isenabled()
    try:
        if not enabled_before:
            gc.disable()
        EXITS[exit_path]()
        assert gc.isenabled() == enabled_before
    finally:
        gc.enable()


# -- two jobs at once (the service's thread plane) ------------------------
_MEET = threading.Barrier(2)
_FAST_JOB_RETURNED = threading.Event()
_WAIT_SECONDS = 20


class _Rendezvous(Vertex):
    """Both jobs are inside ``run`` at once; the slow one outlives the fast one."""

    def compute(self, messages, ctx):
        _MEET.wait(timeout=_WAIT_SECONDS)
        if self.value == "slow":
            assert _FAST_JOB_RETURNED.wait(timeout=_WAIT_SECONDS)
        self.value = gc.isenabled()
        self.vote_to_halt()


def test_concurrent_jobs_pause_once_and_restore_once():
    assert gc.isenabled()
    _MEET.reset()
    _FAST_JOB_RETURNED.clear()
    results = {}

    def run(speed):
        job = PregelJob(name=speed, vertices=[_Rendezvous(0, value=speed)])
        results[speed] = SerialBackend(num_workers=1).run(job).vertices[0].value

    threads = {speed: threading.Thread(target=run, args=(speed,)) for speed in ("fast", "slow")}
    try:
        for thread in threads.values():
            thread.start()
        threads["fast"].join(timeout=_WAIT_SECONDS)
        assert not threads["fast"].is_alive()
        # The slow job is still between launch and close.
        assert not gc.isenabled()
    finally:
        _FAST_JOB_RETURNED.set()
        threads["slow"].join(timeout=_WAIT_SECONDS)
    assert not threads["slow"].is_alive()
    assert results == {"fast": False, "slow": False}
    assert gc.isenabled()


# -- no automatic collection between launch and collect -------------------
@pytest.fixture(scope="module")
def chain_pairs():
    """The chain of ``tests/runtime/test_spill_plane_work.py``."""
    _genome, reads = simulate_dataset(
        genome_length=3000, coverage=20.0, error_rate=0.005, seed=2018
    )
    config = AssemblyConfig(k=21, num_workers=16)
    executor = StageExecutor(num_workers=16)
    graph = build_dbg(reads, config, executor).graph
    return labeling._run_end_recognition(graph, build_chain_graph(graph), executor)


def test_list_ranking_triggers_no_automatic_collection(chain_pairs, monkeypatch):
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    launch, collect = _SerialSession.launch, _SerialSession.collect

    def counting_launch(self):
        gc.callbacks.append(count)
        launch(self)

    def counting_collect(self):
        gc.callbacks.remove(count)
        return collect(self)

    monkeypatch.setattr(_SerialSession, "launch", counting_launch)
    monkeypatch.setattr(_SerialSession, "collect", counting_collect)
    try:
        executor = StageExecutor(num_workers=16)
        labeling._run_bidirectional_list_ranking(chain_pairs, executor)
    finally:
        if count in gc.callbacks:
            gc.callbacks.remove(count)
    job = executor.pipeline_metrics.jobs[-1]
    assert job.num_supersteps >= 10 and job.total_messages > 10_000
    assert collections == []


# -- cyclic garbage is deferred, not leaked --------------------------------
class _Loop:
    def __init__(self):
        self.me = self


_SURVIVED_THE_JOB = []


class _MakesCycles(Vertex):
    """Drops one self-referential object per ``compute()``."""

    def compute(self, messages, ctx):
        self.value.append(weakref.ref(_Loop()))
        if ctx.superstep == 2:
            # Reference counting cannot free a cycle, and nothing else runs.
            _SURVIVED_THE_JOB.append(all(loop() is not None for loop in self.value))
            self.vote_to_halt()


def test_cycles_made_inside_a_job_are_reclaimed_after_it():
    del _SURVIVED_THE_JOB[:]
    vertices = [_MakesCycles(i, value=[]) for i in range(2000)]
    result = SerialBackend(num_workers=4).run(PregelJob(name="cycles", vertices=vertices))
    loops = [loop for vertex in result.vertices.values() for loop in vertex.value]
    assert len(loops) == 3 * 2000
    assert _SURVIVED_THE_JOB == [True] * 2000
    gc.collect()
    assert all(loop() is None for loop in loops)


# -- the whole workflow run ------------------------------------------------
@pytest.fixture(scope="module")
def small_reads():
    _genome, reads = simulate_dataset(
        genome_length=1500, coverage=10.0, error_rate=0.005, seed=7
    )
    return reads


def _assemble(reads, subscriber):
    config = AssemblyConfig(k=15, num_workers=2)
    return PPAAssembler(config).assemble(reads, subscriber=subscriber)


class _StageFailed(Exception):
    pass


@pytest.mark.parametrize("enabled_before", [True, False], ids=["caller-on", "caller-off"])
def test_every_stage_of_an_assembly_runs_with_the_collector_paused(small_reads, enabled_before):
    seen = []

    def subscriber(event):
        if event.kind in ("stage-start", "stage-end"):
            seen.append((event.kind, event.stage.name, gc.isenabled()))

    assert gc.isenabled()
    try:
        if not enabled_before:
            gc.disable()
        result = _assemble(small_reads, subscriber)
        assert gc.isenabled() == enabled_before
    finally:
        gc.enable()
    assert result.num_contigs() > 0
    # Labeling's Pregel jobs end inside the run: every stage-end after
    # them still finds the collector off.
    assert any(name.startswith("contig-labeling") for _kind, name, _on in seen), seen
    assert [on for _kind, _name, on in seen] == [False] * len(seen)


def _failing_reads(reads):
    yield from reads[:50]
    raise _StageFailed("the read source broke")


def _failing_subscriber(event):
    # Raised at a stage boundary after labeling's Pregel jobs have run.
    if event.kind == "stage-start" and event.stage.name.startswith("contig-merging"):
        raise _StageFailed(event.stage.name)


@pytest.mark.parametrize("enabled_before", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("failure", ["stage-raises", "subscriber-raises"])
def test_a_failed_assembly_leaves_the_collector_as_it_found_it(
    small_reads, failure, enabled_before
):
    if failure == "stage-raises":
        reads, subscriber = _failing_reads(small_reads), None
    else:
        reads, subscriber = small_reads, _failing_subscriber
    assert gc.isenabled()
    try:
        if not enabled_before:
            gc.disable()
        with pytest.raises(_StageFailed):
            _assemble(reads, subscriber)
        assert gc.isenabled() == enabled_before
    finally:
        gc.enable()
