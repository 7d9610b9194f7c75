"""Sequential contig extraction shared by the baseline assemblers.

The baselines all end with some variant of "walk the maximal
unambiguous paths of a de Bruijn graph".  This module provides that
walk as a plain sequential routine (no Pregel): it derives the chain
view of the graph, groups chain nodes into connected components with a
union-find, and stitches each component with the same orientation-aware
stitcher PPA-assembler's merge operation uses — so differences between
the baselines and PPA-assembler come from the *graphs they build* and
the *error handling they skip*, not from unrelated stitching bugs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..assembler.chain import ChainElement, build_chain_graph, chain_neighbors
from ..assembler.merging import _stitch_group
from ..dbg.graph import DeBruijnGraph


def _union_find_components(chain: Dict[int, ChainElement]) -> Dict[int, List[int]]:
    parent: Dict[int, int] = {node_id: node_id for node_id in chain}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for node_id, element in chain.items():
        for neighbor_id in chain_neighbors(chain, element):
            union(node_id, neighbor_id)

    groups: Dict[int, List[int]] = {}
    for node_id in chain:
        groups.setdefault(find(node_id), []).append(node_id)
    return groups


def extract_unambiguous_contigs(
    graph: DeBruijnGraph,
    min_length: int = 0,
) -> Tuple[List[str], int]:
    """Stitch every maximal unambiguous path of ``graph`` into a contig.

    Returns ``(contig sequences, number of ambiguous vertices)``; the
    ambiguous-vertex count is a useful indicator of how fragmented the
    underlying graph is (ABySS's probing strategy inflates it).
    """
    chain = build_chain_graph(graph, include_contigs=False)
    groups = _union_find_components(chain)

    contigs: List[str] = []
    for member_ids in groups.values():
        merged, error = _stitch_group(chain, member_ids, graph.k)
        if error is not None or merged is None:
            continue
        if len(merged.sequence) >= min_length:
            contigs.append(merged.sequence)

    num_ambiguous = len(graph.ambiguous_vertices())
    return contigs, num_ambiguous
