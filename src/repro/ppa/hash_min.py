"""Hash-Min connected components: the non-PPA baseline.

Hash-Min floods the smallest known vertex ID through the graph: every
vertex keeps the minimum label it has seen and forwards improvements to
its neighbours.  It needs O(δ) supersteps (graph diameter), which for
the long path-like components of a de Bruijn graph is far worse than
the O(log n) bound of list ranking or S-V — this is why the paper's
contig labeling never uses it.  It is included as an ablation baseline
and as a simple oracle for tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..pregel import (
    ComputeContext,
    JobResult,
    PregelEngine,
    PregelJob,
    Vertex,
    min_combiner,
)
from .sv import GraphInput


class HashMinVertex(Vertex):
    """``value`` is the smallest component label seen so far."""

    def compute(self, messages: List[int], ctx: ComputeContext) -> None:
        if ctx.superstep == 0:
            # Seed the flood with our own ID.
            for neighbor in self.edges:
                ctx.send(neighbor, self.value)
            self.vote_to_halt()
            return

        best = min(messages) if messages else self.value
        if best < self.value:
            self.value = best
            for neighbor in self.edges:
                ctx.send(neighbor, best)
        self.vote_to_halt()


def run_hash_min(
    graph: GraphInput,
    num_workers: int = 4,
    engine: Optional[PregelEngine] = None,
) -> JobResult:
    """Label components by flooding minima; labels end up in ``vertex.value``."""
    vertices = [
        HashMinVertex(vertex_id, value=vertex_id, edges=list(neighbors))
        for vertex_id, neighbors in graph.adjacency.items()
    ]
    job = PregelJob(name="hash-min", vertices=vertices, combiner=min_combiner())
    if engine is None:
        engine = PregelEngine(num_workers=num_workers)
    return engine.run(job)


def components_from_result(result: JobResult) -> Dict[int, int]:
    """Extract ``vertex_id -> component label`` from a finished job."""
    return {vertex_id: vertex.value for vertex_id, vertex in result.vertices.items()}
