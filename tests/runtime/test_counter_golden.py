"""Golden pin of every cost-model counter of one fixed-seed assembly.

The cost model that regenerates the paper's tables is a pure function
of the per-superstep counters, so a change to where or how they are
computed must leave every one of them — the per-worker vectors
included — exactly as it was.  The digests below were recorded at the
commit before cost accounting left the scalar superstep loop; a
mismatch means a counter moved, not that the pin is stale.

``list_ranking`` jobs have no combiner (received counters are what the
previous superstep routed); simplified S-V (``sv``) exercises the combiner
path (received counters are sized on receipt, after combining).  The
serial backend under a memory budget must not change a single counter,
so it shares the unbudgeted digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler
from repro.assembler.config import LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV
from repro.dna.simulator import simulate_dataset
from repro.store import process_spill_stats

#: (labeling_method, num_workers) -> SHA-256 over every SuperstepMetrics field.
GOLDEN = {
    (LABELING_LIST_RANKING, 4): "2bbcdf36be1f0156bf83b4d30dae9f5a12dd6c9ff65fc3b6c47376a59482aa5f",
    (LABELING_SIMPLIFIED_SV, 4): "b2dd4035284f89790ddb8b5f259aaeca148ad60d409e894d52b6a1a9e19bd3a4",
    (LABELING_LIST_RANKING, 2): "16d069c75a02a3cae87e1cde6c195b7fe17eb6dfdb0953159057fb1e9b1c7f57",
    (LABELING_SIMPLIFIED_SV, 2): "f7849d6934a2ed9d7615f906942244abdc883afeb017519dd854bea1d36b062b",
}

RUNTIMES = {
    "serial": dict(backend="serial", num_workers=4),
    "multiprocess-2": dict(backend="multiprocess", num_workers=2),
    "serial-budget": dict(backend="serial", num_workers=4, memory_budget_mb=0.25),
}


def counter_digest(pipeline_metrics) -> str:
    """SHA-256 over every field of every superstep of every job, in run order."""
    payload = [
        {
            "job": job.job_name,
            "workers": job.num_workers,
            "loading_ops": job.loading_ops,
            "loading_bytes_shuffled": job.loading_bytes_shuffled,
            "dump_ops": job.dump_ops,
            "supersteps": [dataclasses.asdict(step) for step in job.supersteps],
        }
        for job in pipeline_metrics.jobs
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def reads():
    _genome, reads = simulate_dataset(
        genome_length=3000, coverage=20.0, error_rate=0.005, seed=2018
    )
    return reads


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
@pytest.mark.parametrize("labeling_method", [LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV])
def test_every_superstep_counter_matches_the_recorded_digest(reads, labeling_method, runtime):
    options = RUNTIMES[runtime]
    config = AssemblyConfig(k=21, labeling_method=labeling_method, **options)
    spill_base = process_spill_stats().snapshot()
    result = PPAAssembler(config).assemble(reads)
    spilled = process_spill_stats().delta_since(spill_base)["spill_events"]
    assert (spilled > 0) == ("memory_budget_mb" in options)
    steps = [step for job in result.metrics.jobs for step in job.supersteps]
    # The pin is only worth something if the run has traffic to count.
    assert sum(step.messages_sent for step in steps) > 1000
    assert any(sum(step.worker_bytes_received) for step in steps)
    assert counter_digest(result.metrics) == GOLDEN[labeling_method, options["num_workers"]]
