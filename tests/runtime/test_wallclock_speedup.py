"""Real parallelism: multiprocess must beat serial on ≥2 cores.

The parity suite proves the multiprocess backend changes nothing
observable; this test proves it changes the one thing it exists for —
wall-clock time of compute-bound supersteps.  It only runs on hosts
with at least two cores (a single-core host cannot physically
parallelise, so it skips with that reason rather than asserting noise),
and only asserts when the serial baseline is long enough to dominate
process start-up costs on a loaded shared CI runner.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.pregel import PregelEngine, PregelJob, Vertex

NUM_VERTICES = 240
NUM_ROUNDS = 8
NUM_WORKERS = 4
WORK_PER_SUPERSTEP = 10_000

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="wall-clock speedup needs >=2 cores; a single-core host "
    "cannot parallelise, parity is covered elsewhere",
)


class BusyVertex(Vertex):
    """Burns a fixed arithmetic budget per superstep on a token ring."""

    def compute(self, messages, ctx):
        rounds_left, accumulator = self.value
        accumulator = (accumulator + sum(messages)) & 0x7FFFFFFF
        for _ in range(WORK_PER_SUPERSTEP):
            accumulator = (accumulator * 1103515245 + 12345) & 0x7FFFFFFF
        self.value = (rounds_left - 1, accumulator)
        if rounds_left > 1:
            ctx.send(self.edges[0], accumulator & 0xFF)
        self.vote_to_halt()


def _job():
    return PregelJob(
        name="busy-ring",
        vertices=[
            BusyVertex(i, value=(NUM_ROUNDS, i), edges=[(i + 1) % NUM_VERTICES])
            for i in range(NUM_VERTICES)
        ],
    )


def _timed(backend):
    engine = PregelEngine(num_workers=NUM_WORKERS, backend=backend)
    started = time.perf_counter()
    result = engine.run(_job())
    return result, time.perf_counter() - started


def test_multiprocess_beats_serial_on_compute_bound_work():
    serial_result, serial_seconds = _timed("serial")
    mp_result, mp_seconds = _timed("multiprocess")
    assert mp_result.vertex_values() == serial_result.vertex_values()
    if serial_seconds < 1.0:
        pytest.skip(
            f"serial baseline too fast ({serial_seconds:.2f}s) for a "
            "robust wall-clock comparison on a shared runner"
        )
    assert mp_seconds < serial_seconds, (
        f"multiprocess ({mp_seconds:.2f}s) should beat serial "
        f"({serial_seconds:.2f}s) on a {os.cpu_count()}-core host"
    )
