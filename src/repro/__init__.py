"""PPA-Assembler reproduction: scalable de novo genome assembly using Pregel.

Reproduction of Yan et al., "Scalable De Novo Genome Assembly Using
Pregel" (ICDE 2018).  The package is organised by subsystem:

* :mod:`repro.pregel` — the Pregel+ substrate (BSP engine, aggregators,
  combiners, mini-MapReduce, in-memory job chaining, cost model);
* :mod:`repro.workflow` — declarative workflows: typed stage
  descriptors composed into named, ordered lists, executed on one
  executor with metering, lifecycle events and checkpoint/resume;
* :mod:`repro.runtime` — pluggable execution backends for the
  superstep loop (serial simulation | real multiprocess workers);
* :mod:`repro.ppa` — the Practical Pregel Algorithms used as building
  blocks (list ranking, simplified/original S-V, Hash-Min);
* :mod:`repro.dna` — sequences, k-mer encoding, FASTQ IO, single- and
  paired-end read simulation and the Table I dataset profiles;
* :mod:`repro.dbg` — de Bruijn graph data structures (vertex IDs,
  adjacency bitmaps, polarity, k-mer/contig vertices);
* :mod:`repro.assembler` — the five assembly operations and the
  workflow driver (the paper's contribution);
* :mod:`repro.scaffold` — paired-end scaffolding: the PPA toolkit run
  on the contig-link graph, ordering contigs into gap-padded scaffolds;
* :mod:`repro.service` — the durable assembly job service: SQLite job
  queue, bounded worker pool resuming jobs from checkpoints, stdlib
  REST API and HTTP client (``repro-assemble serve``);
* :mod:`repro.baselines` — ABySS/Ray/SWAP/Spaler-style comparison
  assemblers;
* :mod:`repro.quality` — QUAST-style quality assessment;
* :mod:`repro.bench` — shared benchmark harness utilities.

Quickstart::

    from repro import AssemblyConfig, PPAAssembler
    from repro.dna import simulate_dataset

    genome, reads = simulate_dataset(genome_length=20_000, seed=7)
    result = PPAAssembler(AssemblyConfig(k=21)).assemble(reads)
    print(result.num_contigs(), result.largest_contig())
"""

from .assembler import (
    AssemblyConfig,
    AssemblyResult,
    PPAAssembler,
    assemble_reads,
    build_assembly_workflow,
)
from .errors import ReproError
from .workflow import Workflow, WorkflowEvent, WorkflowRunner

__version__ = "1.9.0"

__all__ = [
    "AssemblyConfig",
    "AssemblyResult",
    "PPAAssembler",
    "assemble_reads",
    "build_assembly_workflow",
    "ReproError",
    "Workflow",
    "WorkflowEvent",
    "WorkflowRunner",
    "__version__",
]
