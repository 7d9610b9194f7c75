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

A paired ``scaffold=True`` assembly pins the scaffolding jobs too
(link bundling, Hash-Min components, list-ranking order): its counter
digest and a hash of the scaffolds it emits were recorded before the
scaffolder became straight-line code on the assembly's executor, and
the serial and two-process backends share both.

Two more pins cover what the chain view and the merge stitcher produce
rather than what they count: the final graph of the list-ranking and
S-V assemblies (every contig record and every k-mer adjacency entry) and
the sorted contigs of each baseline assembler on the same reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.assembler import AssemblyConfig, PPAAssembler
from repro.assembler.config import LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV
from repro.baselines import BASELINES
from repro.dna.simulator import simulate_dataset, simulate_paired_dataset
from repro.store import process_spill_stats

#: (labeling_method, num_workers) -> SHA-256 over every SuperstepMetrics field.
GOLDEN = {
    (LABELING_LIST_RANKING, 4): "2bbcdf36be1f0156bf83b4d30dae9f5a12dd6c9ff65fc3b6c47376a59482aa5f",
    (LABELING_SIMPLIFIED_SV, 4): "b2dd4035284f89790ddb8b5f259aaeca148ad60d409e894d52b6a1a9e19bd3a4",
    (LABELING_LIST_RANKING, 2): "16d069c75a02a3cae87e1cde6c195b7fe17eb6dfdb0953159057fb1e9b1c7f57",
    (LABELING_SIMPLIFIED_SV, 2): "f7849d6934a2ed9d7615f906942244abdc883afeb017519dd854bea1d36b062b",
}

#: The paired scaffold=True assembly: counter digest over every job, and
#: SHA-256 over each scaffold's sequence and member tuples.
SCAFFOLD_COUNTER_GOLDEN = "d23927dde298b5cf4dcbb9955495f1f8d0f770c0aa629d18805a9fc1c97fea67"
SCAFFOLDS_GOLDEN = "fa0c10e1abd25c38b24c04a1e38422e6d15447cbac876c1adc906e33b8e251fd"

#: (labeling_method, k) -> SHA-256 over the final graph's contigs and k-mer
#: adjacencies.  At k=21 the reads assemble into one contig; k=11 leaves
#: ambiguous k-mers with via-contig adjacencies in the final graph.
GRAPH_GOLDEN = {
    (LABELING_LIST_RANKING, 21): "846a559e2bf9f5fd57b7c786207456c5ad1471f193e4f644ee98ab6a40226db9",
    (LABELING_SIMPLIFIED_SV, 21): "15959b348953c00e49a944ea5e16934fb4a76c3ba26640c4ff6786baf50d7864",
    (LABELING_LIST_RANKING, 11): "210e6cbee186c8b6f1311c0123e13e8ed48744c92c7457d98325a5491fcb395e",
    (LABELING_SIMPLIFIED_SV, 11): "da149d4336fc4db1b1858aa4cc5e34ca5378d933895fd288a8d684795149461a",
}

#: SHA-256 over the sorted contigs of every baseline in BASELINES.
BASELINES_GOLDEN = "2f8e8f6fcb02a3276e02956f21f6dffdbdca33357fe3f2ea51b976e8a02312db"

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


def scaffolds_digest(scaffolding) -> str:
    """SHA-256 over every scaffold's sequence and (contig, forward, gap, position) members."""
    payload = [
        [
            scaffold.sequence,
            [
                [member.contig, member.forward, member.gap_before, member.position]
                for member in scaffold.members
            ],
        ]
        for scaffold in scaffolding.scaffolds
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def graph_digest(graph) -> str:
    """SHA-256 over every contig record and every k-mer's adjacency entries."""
    payload = {
        "contigs": [
            [
                contig.contig_id,
                contig.sequence,
                contig.coverage,
                dataclasses.astuple(contig.in_end),
                dataclasses.astuple(contig.out_end),
                contig.member_kmers,
            ]
            for contig in sorted(graph.contigs.values(), key=lambda item: item.contig_id)
        ],
        "kmers": [
            [
                kmer_id,
                [
                    [
                        adjacency.neighbor_id,
                        adjacency.my_port,
                        adjacency.neighbor_port,
                        adjacency.coverage,
                        None
                        if adjacency.via_contig is None
                        else dataclasses.astuple(adjacency.via_contig),
                    ]
                    for adjacency in graph.kmers[kmer_id].adjacencies
                ],
            ]
            for kmer_id in sorted(graph.kmers)
        ],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


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


@pytest.mark.parametrize("k", [21, 11])
@pytest.mark.parametrize("labeling_method", [LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV])
def test_final_graph_matches_the_recorded_digest(reads, labeling_method, k):
    config = AssemblyConfig(k=k, labeling_method=labeling_method, num_workers=4)
    result = PPAAssembler(config).assemble(reads)
    assert result.graph.contigs
    assert (k == 11) == any(
        adjacency.via_contig is not None
        for vertex in result.graph.kmers.values()
        for adjacency in vertex.adjacencies
    )
    assert graph_digest(result.graph) == GRAPH_GOLDEN[labeling_method, k]


def test_baseline_contigs_match_the_recorded_digest(reads):
    payload = {
        name: sorted(assembler_class(k=21).assemble(reads).contigs)
        for name, assembler_class in sorted(BASELINES.items())
    }
    assert all(payload.values())
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == BASELINES_GOLDEN


@pytest.fixture(scope="module")
def pairs():
    _genome, pairs = simulate_paired_dataset(
        8000,
        coverage=20,
        insert_size_mean=600.0,
        insert_size_std=60.0,
        error_rate=0.005,
        repeat_fraction=0.08,
        repeat_length=120,
        seed=2018,
    )
    return pairs


@pytest.mark.parametrize("backend", ["serial", "multiprocess"])
def test_scaffolding_counters_and_scaffolds_match_the_recorded_digests(pairs, backend):
    config = AssemblyConfig(k=21, scaffold=True, backend=backend, num_workers=2)
    result = PPAAssembler(config).assemble_paired(pairs)
    scaffolding = result.scaffolding
    assert [
        job.job_name
        for job in result.metrics.jobs
        if job.job_name.startswith("scaffolding/")
    ] == [
        "scaffolding/link-bundling",
        "scaffolding/components-hash-min",
        "scaffolding/ordering-list-ranking",
    ]
    # The pin is only worth something if some contigs were joined.
    assert scaffolding.num_joined() > 0
    assert counter_digest(result.metrics) == SCAFFOLD_COUNTER_GOLDEN
    assert scaffolds_digest(scaffolding) == SCAFFOLDS_GOLDEN
