"""Spaler-style baseline assembler.

Spaler [Abu-Doleh & Çatalyürek 2015] maps genome assembly onto Spark
and GraphX.  Its contig-finding strategy — the one the paper singles
out as ad hoc — repeatedly *samples* a subset of unambiguous vertices,
breaks each unambiguous path at the sampled vertices to obtain
segments, merges segments that meet at a sampled boundary vertex, and
repeats until ⟨m-n⟩-typed vertices account for more than a third of
the graph.  The procedure gives no guarantee that the resulting paths
are maximal, so contigs can end up shorter than the DBG allows, and
every iteration is a full GraphX (Spark) pass, which is why the paper
expects it to be over an order of magnitude slower than a tailor-made
Pregel system (it is not open source, so Figure 12 does not include
it; this implementation exists so users can still compare the strategy
on the simulated substrate).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Set, Tuple

from ..assembler.chain import build_chain_graph, chain_neighbors
from ..assembler.merging import _stitch_group
from ..dbg.graph import DeBruijnGraph
from ..dbg.polarity import source_port, target_port
from ..dna.io_fastq import Read
from ..dna.kmer import extract_kplus1mers
from .base import BaselineAssembler, BaselineResult


class SpalerLikeAssembler(BaselineAssembler):
    """Spark-style sampled path splitting and segment merging."""

    name = "Spaler"

    def __init__(
        self,
        k: int = 21,
        num_workers: int = 4,
        coverage_threshold: int = 1,
        sample_fraction: float = 0.25,
        seed: int = 0,
        backend: str = "serial",
    ) -> None:
        super().__init__(k=k, num_workers=num_workers, backend=backend)
        self.coverage_threshold = coverage_threshold
        self.sample_fraction = sample_fraction
        self.seed = seed

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self, reads: Iterable[Read]) -> BaselineResult:
        reads = list(reads)
        graph = self._build_graph(reads)
        contigs, iterations = self._sampled_merge(graph)

        counters = {
            "reads": len(reads),
            "kmers": graph.kmer_count(),
            "graph_edges": graph.edge_count(),
            "spark_iterations": iterations,
            "contigs": len(contigs),
        }
        seconds = self._estimate_seconds(counters)
        return self._result(contigs, counters, seconds)

    def _build_graph(self, reads: List[Read]) -> DeBruijnGraph:
        graph = DeBruijnGraph(self.k)
        edges: Dict[Tuple[int, int, int, int], int] = {}
        for read in reads:
            for kp1 in extract_kplus1mers(read.sequence, self.k):
                key = (
                    kp1.prefix.kmer_id,
                    source_port(kp1.prefix.polarity_label()),
                    kp1.suffix.kmer_id,
                    target_port(kp1.suffix.polarity_label()),
                )
                edges[key] = edges.get(key, 0) + 1
        for (source, source_p, target, target_p), coverage in edges.items():
            if coverage > self.coverage_threshold:
                graph.add_edge(source, source_p, target, target_p, coverage)
        return graph

    def _sampled_merge(self, graph: DeBruijnGraph) -> Tuple[List[str], int]:
        """Iterative sampled segment merging (the Spaler heuristic).

        Every iteration breaks the chain graph at a random sample of
        vertices, stitches the segments between consecutive breaks, and
        treats each stitched segment as a single unit for the next
        iteration (represented here by keeping the segment's member set
        and re-sampling on segment boundaries).  Iterations stop when
        the segments stop growing — Spaler's own stop rule (ambiguous
        fraction > 1/3) is graph-dependent and usually fires earlier;
        both rules leave non-maximal contigs, which is the point.
        """
        rng = random.Random(self.seed)
        chain = build_chain_graph(graph, include_contigs=False)
        if not chain:
            return [], 0

        # Segment = ordered list of chain node IDs.  Start with singletons.
        segments: Dict[int, List[int]] = {node_id: [node_id] for node_id in chain}
        node_to_segment: Dict[int, int] = {node_id: node_id for node_id in chain}

        iterations = 0
        while iterations < 16:
            iterations += 1
            # Sample boundary vertices that are *not* allowed to merge
            # across this round; everything else merges with its chain
            # neighbour when both ends agree.
            sampled: Set[int] = {
                node_id for node_id in chain if rng.random() < self.sample_fraction
            }
            merged_any = False
            for node_id, element in chain.items():
                if node_id in sampled:
                    continue
                for neighbor_id in chain_neighbors(chain, element):
                    if neighbor_id in sampled:
                        continue
                    left_segment = node_to_segment[node_id]
                    right_segment = node_to_segment[neighbor_id]
                    if left_segment == right_segment:
                        continue
                    # Merge the two segments (order is recovered at stitch
                    # time from the chain ends, so concatenation order
                    # here does not matter).
                    segments[left_segment].extend(segments.pop(right_segment))
                    for member in segments[left_segment]:
                        node_to_segment[member] = left_segment
                    merged_any = True
            if not merged_any:
                break

        contigs: List[str] = []
        for member_ids in segments.values():
            merged, error = _stitch_group(chain, member_ids, graph.k)
            if merged is None or error is not None:
                continue
            if len(merged.sequence) >= self.k:
                contigs.append(merged.sequence)
        return contigs, iterations

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def _estimate_seconds(self, counters: Dict[str, int]) -> float:
        """Spark/GraphX-style cost: heavy per-iteration framework overhead.

        Each sampling iteration is a full GraphX superstep with RDD
        materialisation; the paper cites measurements that GraphX is
        "often over one order of magnitude slower than tailor-made
        Pregel-like systems", which the per-iteration constants reflect.
        """
        per_edge_iteration_seconds = 2.5e-5
        iteration_overhead_seconds = 15.0
        startup_seconds = 45.0

        iterations = counters["spark_iterations"] + 2
        compute = (
            counters["graph_edges"] * iterations * per_edge_iteration_seconds
            / max(self.num_workers, 1)
        )
        return startup_seconds + iterations * iteration_overhead_seconds + compute
