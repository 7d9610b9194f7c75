"""How fast is this machine right now, and how much of it was taken away?

The sandboxes this benchmark runs in share their host.  The builder's
alternated, for minutes at a time, between two speeds about 1.5x apart,
with bursts of stolen time on top in the slow phase; CPU time rose and
fell with wall time, counts and memory did not move.  Two sets of runs
of the same code an hour apart differed by 25-50 % in every raw timing,
which no bound can absorb and no estimator over the repetitions of one
run can remove, because a whole run sits inside one phase.  Two things
are done about it.

**Speed.**  Every timed piece of work sits between two gaps, and in each
gap a kernel runs a few times (three, in a real run): fixed work that
imports nothing from the program and therefore cannot be made faster by
a change to it.  A timing is reported as

    seconds * reference / (mean kernel CPU time in the two gaps around it)

that is, in seconds of a machine on which the kernel takes its reference
time.  The speed moves within a second as well as within an hour, so a
kernel sample is as noisy per second as a repetition is, and about a
fifth of a run is spent in kernels.

There are two kernels, because the slow phase does not slow all code
alike.  ``interpreter_kernel`` is an allocation-light pure-Python loop of
the same kind as the program's scalar Pregel loop (attribute reads,
tuples, a dict of lists, float adds); the ``label_*`` workloads, which
are that loop, keep a constant ratio to it from the fast third of a
25-minute series to the slow third (9.5, 9.4, 9.9).  ``ingest_deep`` is
half FASTQ parsing and half NumPy sorting, and NumPy slowed by 1.3x
where the interpreter slowed by 1.6x: its ratio to the interpreter kernel
fell from 13.1 to 11.2 between the thirds.  ``array_kernel`` sorts and
masks a cache-sized integer array in place, as DBG construction does
with k-mer codes; against the geometric mean of both kernels the ratio
stayed within 5 % (57.1, 54.4, 55.1).  A workload names the kernels it is
normalised by (``Workload.calibration``).

**Stolen time.**  The hypervisor reports, in the ``steal`` column of
``/proc/stat``, the time it ran something else while a virtual CPU
wanted to run.  CPU time does not contain it; wall time does, in bursts
that hit a 0.25 s kernel sample and a 3 s repetition very differently.
So wall time is first reduced by the share of busy CPU time that was
stolen while it elapsed (``Stopwatch``), and only then normalised.
Against dividing wall time by the kernel's wall time, this cut the
run-to-run spread of ``wall_s`` by a quarter on every workload.

The raw seconds are printed next to the normalised ones and kept, with
every kernel sample, in ``--out``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy

_VERTICES = 50000
_SUPERSTEPS = 20
_INBOXES = 4096


class _Vertex:
    __slots__ = ("value", "target")

    def __init__(self, index: int) -> None:
        self.value = 1.0
        self.target = index & (_INBOXES - 1)


def interpreter_kernel() -> None:
    """The scalar Pregel loop in miniature."""
    graph = [_Vertex(index) for index in range(_VERTICES)]
    inboxes: Dict[int, List[Tuple[int, float, int]]] = {}
    for superstep in range(_SUPERSTEPS):
        for vertex in graph:
            inboxes.setdefault(vertex.target, []).append(
                (vertex.target, vertex.value, superstep)
            )
        for target, messages in inboxes.items():
            total = 0.0
            for message in messages:
                total += message[1]
            graph[target].value = total / len(messages)
        inboxes.clear()


_CODES = 150_000
_ROUNDS = 40


def array_kernel() -> None:
    """Sort-based k-mer counting in miniature, in place and within the cache."""
    # Scrambled 40-bit codes; built here so that a process that never runs
    # this kernel does not carry them in its peak RSS.
    codes = (numpy.arange(_CODES, dtype=numpy.int64) * 0x9E3779B97F) & ((1 << 40) - 1)
    scratch = numpy.empty_like(codes)
    for _ in range(_ROUNDS):
        numpy.copyto(scratch, codes)
        scratch.sort()
        numpy.right_shift(scratch, 7, out=scratch)
        numpy.bitwise_and(scratch, 0xFFFFF, out=scratch)
        scratch.sort()


#: Kernel and its CPU seconds on the builder's machine in the fast phase.
#: The seconds are constants of the unit, like the length of the metre:
#: changing one rescales the timings normalised by it and nothing else.
KERNELS: Dict[str, Tuple[Callable[[], None], float]] = {
    "interpreter": (interpreter_kernel, 0.25),
    "array": (array_kernel, 0.1),
}


class Calibration:
    """Kernel samples from the gaps between the timed pieces of one process."""

    def __init__(self, kernels: Sequence[str], samples_per_gap: int) -> None:
        self._samples_per_gap = samples_per_gap
        self.cpu_samples: Dict[str, List[float]] = {name: [] for name in kernels}
        self.seconds_spent = 0.0
        self.gap()

    def gap(self) -> None:
        """Sample the machine's speed between two pieces of timed work."""
        started = time.perf_counter()
        for name, samples in self.cpu_samples.items():
            kernel = KERNELS[name][0]
            for _ in range(self._samples_per_gap):
                cpu_before = time.process_time()
                kernel()
                samples.append(time.process_time() - cpu_before)
        self.seconds_spent += time.perf_counter() - started

    def normalised(self, seconds: float) -> float:
        """``seconds`` that ended at the last gap and began at the one before.

        With several kernels, the geometric mean of their speeds.
        """
        speed = 1.0
        for name, samples in self.cpu_samples.items():
            recent = samples[-2 * self._samples_per_gap :]
            speed *= KERNELS[name][1] * len(recent) / sum(recent)
        return seconds * speed ** (1.0 / len(self.cpu_samples))


def _cpu_ticks() -> Tuple[int, int]:
    """(busy, stolen) clock ticks of all CPUs since boot; zeros off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(field) for field in stat.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq + steal, steal


class Stopwatch:
    """Wall seconds since it was started, with and without stolen time."""

    def __init__(self) -> None:
        self._ticks = _cpu_ticks()
        self._started = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """(raw wall seconds, wall seconds less the stolen share of busy time)."""
        raw = time.perf_counter() - self._started
        busy, stolen = (after - before for after, before in zip(_cpu_ticks(), self._ticks))
        stolen_share = stolen / busy if busy else 0.0
        return raw, raw * (1.0 - stolen_share)
