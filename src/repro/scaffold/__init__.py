"""Paired-end scaffolding: the first workload built *on top of* the assembler.

PPA-assembler (the paper) stops at contig construction, but every
system it benchmarks against — ABySS, Ray, SWAP-Assembler — continues
to a *scaffolding* stage: paired-end reads whose two mates land on
different contigs reveal which contigs are adjacent in the genome, how
far apart they are (via the library's insert-size model), and in which
relative orientation.  This package adds that stage as a PPA workload:

* :mod:`repro.scaffold.mapping` — maps reads back onto the assembled
  contigs with unique seed k-mers (the contigs themselves become the
  reference);
* :mod:`repro.scaffold.links` — turns mapped pairs into contig-link
  evidence (which contig *ends* face each other, estimated gap) and
  bundles/filters it into a contig-link graph;
* :mod:`repro.scaffold.scaffolder` — the assembly workflow's
  ``scaffolding`` stage: runs the link graph through the PPA toolkit as
  a Pregel job chain: Hash-Min connected components
  (:mod:`repro.ppa.hash_min`) finds the scaffold membership, list
  ranking (:mod:`repro.ppa.list_ranking`) orders the contigs inside
  each scaffold path, and the stitcher emits gap-padded (``N``-run)
  scaffold sequences.

The contig-link graph is the second graph *type* the PPA toolkit runs
on — its vertices are the assembler's own output contigs rather than
k-mers — which is exactly the "PPAs compose into new workloads" claim
of the paper's toolkit design.

Quickstart::

    from repro import AssemblyConfig, PPAAssembler
    from repro.dna import simulate_paired_dataset

    genome, pairs = simulate_paired_dataset(40_000, insert_size_mean=600, seed=5)
    config = AssemblyConfig(k=21, scaffold=True)
    result = PPAAssembler(config).assemble_paired(pairs)
    print(len(result.contigs), "contigs ->", len(result.scaffolds), "scaffolds")
"""

from .links import (
    END_HEAD,
    END_TAIL,
    LinkBundle,
    PairLinkObservation,
    estimate_insert_size,
    select_links,
)
from .mapping import ContigSeedIndex, ReadMapping
from .scaffolder import (
    DEFAULT_INSERT_SIZE,
    Scaffold,
    ScaffoldMember,
    ScaffoldingResult,
    scaffold_contigs,
)

__all__ = [
    "END_HEAD",
    "END_TAIL",
    "LinkBundle",
    "PairLinkObservation",
    "estimate_insert_size",
    "select_links",
    "ContigSeedIndex",
    "ReadMapping",
    "DEFAULT_INSERT_SIZE",
    "Scaffold",
    "ScaffoldMember",
    "ScaffoldingResult",
    "scaffold_contigs",
]
