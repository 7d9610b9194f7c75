"""Mini-MapReduce: the paper's second extension to the Pregel+ API.

Section II describes two extensions PPA-assembler adds to Pregel+:

1. *in-memory job chaining* — handled by :mod:`repro.workflow`;
2. *mini-MapReduce during graph loading* — each input record may
   generate zero or more ``(key, value)`` pairs via a user-defined
   ``map`` function; the pairs are shuffled by key across workers,
   sorted, grouped, and each group is passed to a user-defined
   ``reduce`` function that emits output objects (typically vertices
   for the next Pregel job).

The implementation mirrors the distributed behaviour closely enough
for the cost model: map work is charged to the worker that owns the
input split, shuffle volume is charged to the destination worker, and
reduce work to the worker owning the key.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

from .metrics import JobMetrics, SuperstepMetrics
from .partitioner import HashPartitioner
from .vertex import _estimate_size

MapFunction = Callable[[Any], Iterable[Tuple[Any, Any]]]
ReduceFunction = Callable[[Any, List[Any]], Iterable[Any]]


@dataclass
class MapReduceResult:
    """Output records plus the accounting needed by the cost model."""

    outputs: List[Any]
    metrics: JobMetrics
    groups: int = 0


class MiniMapReduce:
    """Runs one map-shuffle-reduce round over in-memory records.

    Parameters
    ----------
    num_workers:
        Number of simulated workers; controls both shuffle partitioning
        and the per-worker load reported to the cost model.
    name:
        Job name used in metrics.
    """

    def __init__(self, num_workers: int = 4, name: str = "mini-mapreduce") -> None:
        self.num_workers = num_workers
        self.name = name
        self.partitioner = HashPartitioner(num_workers)

    def run(
        self,
        records: Iterable[Any],
        map_fn: MapFunction,
        reduce_fn: ReduceFunction,
    ) -> MapReduceResult:
        """Execute ``map_fn`` then ``reduce_fn`` and return outputs + metrics."""
        metrics = JobMetrics(job_name=self.name, num_workers=self.num_workers)

        # ---- map phase -------------------------------------------------
        # Input records are assigned round-robin to workers (modelling
        # HDFS splits); each worker buffers its emitted pairs per
        # destination worker, modelling local combining-free shuffle.
        per_destination: List[Dict[Any, List[Any]]] = [
            defaultdict(list) for _ in range(self.num_workers)
        ]
        map_ops_per_worker = [0] * self.num_workers
        shuffle_bytes_per_worker = [0] * self.num_workers

        for index, record in enumerate(records):
            source_worker = index % self.num_workers
            emitted = 0
            for key, value in map_fn(record):
                destination = self.partitioner.worker_for(key)
                per_destination[destination][key].append(value)
                shuffle_bytes_per_worker[destination] += _estimate_size(value)
                emitted += 1
            map_ops_per_worker[source_worker] += 1 + emitted

        # ---- reduce phase ----------------------------------------------
        outputs: List[Any] = []
        reduce_ops_per_worker = [0] * self.num_workers
        groups = 0
        for destination in range(self.num_workers):
            grouped = per_destination[destination]
            # Sorting by key models the sort-merge grouping the paper
            # describes ("these pairs are then sorted by key").
            for key in sorted(grouped, key=_sort_token):
                values = grouped[key]
                produced = list(reduce_fn(key, values))
                outputs.extend(produced)
                reduce_ops_per_worker[destination] += 1 + len(values) + len(produced)
                groups += 1

        # ---- metrics ----------------------------------------------------
        # The map and reduce phases are modelled as two "supersteps" so
        # the BSP cost model applies unchanged: each phase costs the
        # slowest worker plus a barrier.
        map_step = SuperstepMetrics(superstep=0)
        map_step.compute_ops = sum(map_ops_per_worker)
        map_step.worker_compute_ops = list(map_ops_per_worker)
        map_step.worker_bytes_sent = list(shuffle_bytes_per_worker)
        map_step.worker_bytes_received = list(shuffle_bytes_per_worker)
        map_step.bytes_sent = sum(shuffle_bytes_per_worker)
        map_step.messages_sent = sum(len(values) for grouped in per_destination for values in grouped.values())
        metrics.add(map_step)

        reduce_step = SuperstepMetrics(superstep=1)
        reduce_step.compute_ops = sum(reduce_ops_per_worker)
        reduce_step.worker_compute_ops = list(reduce_ops_per_worker)
        reduce_step.worker_bytes_sent = [0] * self.num_workers
        reduce_step.worker_bytes_received = [0] * self.num_workers
        metrics.add(reduce_step)

        metrics.loading_ops = sum(map_ops_per_worker) + sum(reduce_ops_per_worker)
        metrics.loading_bytes_shuffled = sum(shuffle_bytes_per_worker)

        return MapReduceResult(outputs=outputs, metrics=metrics, groups=groups)


def _sort_token(key: Any) -> Any:
    """Sort key that tolerates mixed int/tuple/str keys within one job."""
    if isinstance(key, tuple):
        return (1, key)
    if isinstance(key, str):
        return (2, key)
    return (0, (key,))
