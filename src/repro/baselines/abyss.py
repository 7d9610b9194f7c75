"""ABySS-style baseline assembler.

ABySS [Simpson et al. 2009] distributes k-mers across MPI processes and
builds the de Bruijn graph by having every k-mer send messages to its
eight *possible* neighbours (each of A/C/G/T prepended or appended); an
edge is created whenever the probed k-mer exists, regardless of whether
the connecting (k+1)-mer was ever observed in a read.  Section V of the
paper points out that this inflates ambiguity — an edge appears between
"CA" and "AA" as soon as both 2-mers exist, even if "CAA" never occurs
— and therefore shortens contigs.  The same section reports that ABySS's
running time is insensitive to the number of workers (it batches
messages into 1 KB packets and is bottlenecked by its all-to-all
probing traffic), which is reflected in the cost formula below.

This reproduction implements exactly that strategy: k-mers are counted
from the reads (with the same coverage filter PPA-assembler uses, so
the comparison isolates the probing strategy), the graph is built by
probing all eight potential neighbours, unambiguous paths are stitched
into contigs, and short dangling tips are trimmed once (ABySS's
"PopBubbles/Trim" stages are far simpler than PPA-assembler's
operations; the simplification is conservative in ABySS's favour).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from ..dbg.graph import DeBruijnGraph
from ..dbg.polarity import PORT_IN, PORT_OUT
from ..dna.encoding import canonical_encoded
from ..dna.io_fastq import Read
from ..dna.kmer import extract_canonical_kmer_ids
from .base import BaselineAssembler, BaselineResult
from .walk import extract_unambiguous_contigs


class AbyssLikeAssembler(BaselineAssembler):
    """Distributed-hash-table DBG assembly with 8-neighbour probing."""

    name = "ABySS"

    def __init__(
        self,
        k: int = 21,
        num_workers: int = 4,
        coverage_threshold: int = 1,
        tip_length_threshold: int = 80,
        backend: str = "serial",
    ) -> None:
        super().__init__(k=k, num_workers=num_workers, backend=backend)
        self.coverage_threshold = coverage_threshold
        self.tip_length_threshold = tip_length_threshold

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self, reads: Iterable[Read]) -> BaselineResult:
        reads = list(reads)
        kmer_counts = self._count_kmers(reads)
        graph, probes = self._build_probed_graph(kmer_counts)
        ambiguous_before = len(graph.ambiguous_vertices())

        self._trim_tips(graph)
        contigs, ambiguous_after = extract_unambiguous_contigs(graph, min_length=self.k)

        counters = {
            "reads": len(reads),
            "kmers": len(kmer_counts),
            "probe_messages": probes,
            "graph_edges": graph.edge_count(),
            "ambiguous_vertices": ambiguous_before,
            "ambiguous_after_trim": ambiguous_after,
            "contigs": len(contigs),
        }
        seconds = self._estimate_seconds(counters)
        return self._result(contigs, counters, seconds)

    def _count_kmers(self, reads: List[Read]) -> Counter:
        counts: Counter = Counter()
        for read in reads:
            for kmer_id in extract_canonical_kmer_ids(read.sequence, self.k):
                counts[kmer_id] += 1
        return Counter(
            {kmer_id: count for kmer_id, count in counts.items() if count > self.coverage_threshold}
        )

    def _build_probed_graph(self, kmer_counts: Counter) -> Tuple[DeBruijnGraph, int]:
        """Create an edge for every *possible* neighbour that exists.

        Each canonical k-mer probes the four k-mers reachable by
        appending a base to its 3' end and the four reachable by
        prepending a base to its 5' end — eight messages per k-mer in
        the real system.  An edge is added when the probed canonical
        k-mer is present, which is precisely how spurious edges appear.
        """
        graph = DeBruijnGraph(self.k)
        probes = 0
        kmer_mask = (1 << (2 * self.k)) - 1
        tail_mask = (1 << (2 * (self.k - 1))) - 1

        for kmer_id, count in kmer_counts.items():
            for base_bits in range(4):
                probes += 2
                # Append to the 3' end (our PORT_OUT side).
                appended = ((kmer_id & tail_mask) << 2) | base_bits
                canonical_appended, was_rc = canonical_encoded(appended, self.k)
                if canonical_appended in kmer_counts:
                    neighbor_port = PORT_OUT if was_rc else PORT_IN
                    graph.add_edge(
                        kmer_id,
                        PORT_OUT,
                        canonical_appended,
                        neighbor_port,
                        coverage=min(count, kmer_counts[canonical_appended]),
                    )
                # Prepend to the 5' end (our PORT_IN side).
                prepended = (base_bits << (2 * (self.k - 1))) | (kmer_id >> 2)
                prepended &= kmer_mask
                canonical_prepended, was_rc = canonical_encoded(prepended, self.k)
                if canonical_prepended in kmer_counts:
                    neighbor_port = PORT_IN if was_rc else PORT_OUT
                    graph.add_edge(
                        kmer_id,
                        PORT_IN,
                        canonical_prepended,
                        neighbor_port,
                        coverage=min(count, kmer_counts[canonical_prepended]),
                    )
        return graph, probes

    def _trim_tips(self, graph: DeBruijnGraph) -> None:
        """One round of dead-end trimming (ABySS's Trim stage, simplified)."""
        max_tip_kmers = max(1, self.tip_length_threshold - self.k + 1)
        to_delete: List[int] = []
        for kmer_id, vertex in graph.kmers.items():
            if vertex.vertex_type() != "1":
                continue
            # Walk the dangling path; delete it if it is short.
            path = [kmer_id]
            current = vertex
            previous = None
            while len(path) <= max_tip_kmers:
                next_entries = [
                    adjacency
                    for adjacency in current.adjacencies
                    if adjacency.neighbor_id != previous and not adjacency.is_dead_end()
                ]
                if not next_entries:
                    break
                next_vertex = graph.kmers.get(next_entries[0].neighbor_id)
                if next_vertex is None or next_vertex.vertex_type() != "1-1":
                    break
                previous = current.kmer_id
                current = next_vertex
                path.append(current.kmer_id)
            if len(path) <= max_tip_kmers:
                to_delete.extend(path)
        for kmer_id in set(to_delete):
            graph.remove_kmer(kmer_id)

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def _estimate_seconds(self, counters: Dict[str, int]) -> float:
        """ABySS-style cost: probing traffic does not shrink with workers.

        Every k-mer sends eight probe messages; the messages are batched
        into packets but the *aggregate* traffic a worker must absorb is
        proportional to the total k-mer count because the distributed
        hash table is touched uniformly — adding workers adds almost as
        much traffic as it removes, which is why the paper observes flat
        (or worsening) scaling.  A small per-worker coordination term
        grows with the worker count to reproduce the "more workers can
        be slower" effect.
        """
        per_message_seconds = 2.5e-4
        per_kmer_compute_seconds = 1.5e-7
        coordination_seconds_per_worker = 0.4
        startup_seconds = 60.0

        probe_seconds = counters["probe_messages"] * per_message_seconds
        compute_seconds = (
            counters["kmers"] * per_kmer_compute_seconds * 8 / max(self.num_workers, 1)
        )
        coordination = coordination_seconds_per_worker * self.num_workers
        return startup_seconds + probe_seconds + compute_seconds + coordination
