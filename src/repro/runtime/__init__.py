"""Pluggable execution runtimes for the Pregel engine.

The engine's BSP superstep loop is abstracted behind
:class:`~repro.runtime.base.ExecutionBackend` so the same job — and the
same assembly workflow — can run either on the exact in-process cluster
simulation (``"serial"``) or on real shared-nothing worker processes
(``"multiprocess"``).  Select a backend by name anywhere a worker count
is configured::

    PregelEngine(num_workers=4, backend="multiprocess")
    WorkflowRunner(num_workers=4, backend="multiprocess")
    AssemblyConfig(k=21, backend="multiprocess")

Both backends produce identical vertex states, aggregate histories and
metrics (see ``tests/runtime/``); the serial backend remains the
default because the paper's tables are reproduced from its exact
counters, while the multiprocess backend trades exact simulation for
wall-clock parallelism on multi-core hosts.
"""

from .base import (
    ExecutionBackend,
    RuntimeOptions,
    available_backends,
    create_backend,
    ensure_backend,
    register_backend,
)
from .multiprocess import MultiprocessBackend
from .serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "MultiprocessBackend",
    "RuntimeOptions",
    "SerialBackend",
    "available_backends",
    "create_backend",
    "ensure_backend",
    "register_backend",
]
