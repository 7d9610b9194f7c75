"""Contig-to-reference alignment for reference-based quality metrics.

The paper evaluates sequencing quality with QUAST, which aligns every
contig against the known reference and derives misassembly counts,
genome fraction, mismatch/indel rates and so on.  QUAST itself is not
available offline, so this module implements the part of its analysis
the paper's tables use, with the same overall structure:

1. the reference is indexed by unique anchor k-mers;
2. each contig (in both orientations) collects anchor hits and the
   hits are clustered into *colinear chains* (consistent diagonal);
3. the best chain(s) become aligned blocks; a contig whose alignment
   needs two chains that disagree on position, orientation or spacing
   by more than 1 kbp is counted as misassembled (QUAST's "extensive
   misassembly" definition, scaled);
4. per-block mismatches and indels are counted with a banded
   Levenshtein alignment of the spanned sequences;
5. genome fraction is the fraction of reference positions covered by
   at least one aligned block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dna.sequence import reverse_complement
from ..errors import AlignmentError


@dataclass(frozen=True)
class AlignedBlock:
    """One colinear alignment between a contig region and the reference."""

    contig_start: int
    contig_end: int
    reference_start: int
    reference_end: int
    is_reverse: bool
    mismatches: int
    indels: int

    @property
    def contig_span(self) -> int:
        return self.contig_end - self.contig_start


@dataclass
class ContigAlignment:
    """Alignment outcome for one contig."""

    contig_length: int
    blocks: List[AlignedBlock] = field(default_factory=list)
    is_misassembled: bool = False
    unaligned_length: int = 0

    @property
    def aligned_length(self) -> int:
        return sum(block.contig_span for block in self.blocks)

    @property
    def largest_block(self) -> int:
        return max((block.contig_span for block in self.blocks), default=0)

    @property
    def mismatches(self) -> int:
        return sum(block.mismatches for block in self.blocks)

    @property
    def indels(self) -> int:
        return sum(block.indels for block in self.blocks)


class ReferenceAligner:
    """Seed-and-chain aligner against a single reference sequence."""

    def __init__(
        self,
        reference: str,
        anchor_k: int = 21,
        chain_tolerance: int = 12,
        min_block_length: Optional[int] = None,
        misassembly_gap: int = 1000,
    ) -> None:
        if len(reference) < anchor_k:
            raise AlignmentError(
                f"reference ({len(reference)} bp) is shorter than the anchor size {anchor_k}"
            )
        self.reference = reference
        self.anchor_k = anchor_k
        self.chain_tolerance = chain_tolerance
        self.min_block_length = min_block_length if min_block_length is not None else 2 * anchor_k
        self.misassembly_gap = misassembly_gap
        self._index = self._build_index(reference, anchor_k)

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    @staticmethod
    def _build_index(reference: str, k: int) -> Dict[str, int]:
        """Positions of anchor k-mers that occur exactly once in the reference.

        Repeated k-mers are dropped so that chains are never anchored on
        ambiguous positions (QUAST relies on a full aligner for this;
        unique anchors are the scaled-down equivalent).
        """
        positions: Dict[str, int] = {}
        duplicated: set = set()
        for start in range(len(reference) - k + 1):
            kmer = reference[start : start + k]
            if kmer in duplicated:
                continue
            if kmer in positions:
                del positions[kmer]
                duplicated.add(kmer)
            else:
                positions[kmer] = start
        return positions

    # ------------------------------------------------------------------
    # alignment
    # ------------------------------------------------------------------
    def align_contig(self, contig: str) -> ContigAlignment:
        """Align one contig and classify it."""
        alignment = ContigAlignment(contig_length=len(contig))
        if len(contig) < self.anchor_k:
            alignment.unaligned_length = len(contig)
            return alignment

        forward_chains = self._chains_for(contig, is_reverse=False)
        reverse_chains = self._chains_for(reverse_complement(contig), is_reverse=True)
        chains = forward_chains + reverse_chains
        if not chains:
            alignment.unaligned_length = len(contig)
            return alignment

        chains.sort(key=lambda chain: chain["span"], reverse=True)
        selected = self._select_non_overlapping(chains, len(contig))

        blocks = [self._chain_to_block(chain, contig) for chain in selected]
        alignment.blocks = blocks
        aligned = sum(block.contig_span for block in blocks)
        alignment.unaligned_length = max(0, len(contig) - aligned)
        alignment.is_misassembled = self._is_misassembled(selected, len(contig))
        return alignment

    def align_all(self, contigs: Sequence[str]) -> List[ContigAlignment]:
        return [self.align_contig(contig) for contig in contigs]

    # ------------------------------------------------------------------
    # chaining
    # ------------------------------------------------------------------
    def _chains_for(self, oriented_contig: str, is_reverse: bool) -> List[dict]:
        """Cluster anchor hits of one orientation into colinear chains."""
        k = self.anchor_k
        hits: List[Tuple[int, int]] = []  # (contig position, reference position)
        step = max(1, k // 3)
        last_start = len(oriented_contig) - k
        positions = list(range(0, last_start + 1, step))
        if positions and positions[-1] != last_start:
            positions.append(last_start)
        for contig_pos in positions:
            anchor = oriented_contig[contig_pos : contig_pos + k]
            reference_pos = self._index.get(anchor)
            if reference_pos is not None:
                hits.append((contig_pos, reference_pos))
        if not hits:
            return []

        # Group by diagonal (reference position minus contig position);
        # hits whose diagonals differ by at most the tolerance belong to
        # the same chain (small indels shift the diagonal slightly).
        hits.sort(key=lambda hit: hit[1] - hit[0])
        chains: List[dict] = []
        current: List[Tuple[int, int]] = [hits[0]]
        for hit in hits[1:]:
            previous_diagonal = current[-1][1] - current[-1][0]
            diagonal = hit[1] - hit[0]
            if abs(diagonal - previous_diagonal) <= self.chain_tolerance:
                current.append(hit)
            else:
                chains.append(self._finalise_chain(current, is_reverse))
                current = [hit]
        chains.append(self._finalise_chain(current, is_reverse))
        return [
            chain
            for chain in chains
            if chain["span"] >= self.min_block_length or chain["span"] >= len(oriented_contig)
        ]

    def _finalise_chain(self, hits: List[Tuple[int, int]], is_reverse: bool) -> dict:
        hits = sorted(hits)
        contig_start = hits[0][0]
        contig_end = hits[-1][0] + self.anchor_k
        reference_start = min(hit[1] for hit in hits)
        reference_end = max(hit[1] for hit in hits) + self.anchor_k
        return {
            "hits": hits,
            "contig_start": contig_start,
            "contig_end": contig_end,
            "reference_start": reference_start,
            "reference_end": reference_end,
            "span": contig_end - contig_start,
            "is_reverse": is_reverse,
        }

    @staticmethod
    def _select_non_overlapping(chains: List[dict], contig_length: int) -> List[dict]:
        """Greedy selection of chains that cover disjoint contig regions."""
        selected: List[dict] = []
        covered: List[Tuple[int, int]] = []
        for chain in chains:
            start, end = chain["contig_start"], chain["contig_end"]
            overlap = sum(
                max(0, min(end, existing_end) - max(start, existing_start))
                for existing_start, existing_end in covered
            )
            if overlap > 0.3 * (end - start):
                continue
            selected.append(chain)
            covered.append((start, end))
        return selected

    # ------------------------------------------------------------------
    # per-block statistics and misassembly classification
    # ------------------------------------------------------------------
    def _chain_to_block(self, chain: dict, contig: str) -> AlignedBlock:
        if chain["is_reverse"]:
            oriented = reverse_complement(contig)
        else:
            oriented = contig
        contig_segment = oriented[chain["contig_start"] : chain["contig_end"]]
        reference_segment = self.reference[chain["reference_start"] : chain["reference_end"]]
        mismatches, indels = _segment_differences(contig_segment, reference_segment)
        return AlignedBlock(
            contig_start=chain["contig_start"],
            contig_end=chain["contig_end"],
            reference_start=chain["reference_start"],
            reference_end=chain["reference_end"],
            is_reverse=chain["is_reverse"],
            mismatches=mismatches,
            indels=indels,
        )

    def _is_misassembled(self, chains: List[dict], contig_length: int) -> bool:
        """QUAST-style misassembly: two substantial blocks that cannot be joined.

        Two selected chains flag a misassembly when they map to
        positions more than ``misassembly_gap`` apart relative to their
        distance in the contig, map in different orientations, or
        overlap each other on the reference.
        """
        substantial = [
            chain for chain in chains if chain["span"] >= max(self.min_block_length, 0.1 * contig_length)
        ]
        if len(substantial) < 2:
            return False
        substantial.sort(key=lambda chain: chain["contig_start"])
        for left, right in zip(substantial, substantial[1:]):
            if left["is_reverse"] != right["is_reverse"]:
                return True
            contig_gap = right["contig_start"] - left["contig_end"]
            reference_gap = right["reference_start"] - left["reference_end"]
            if abs(reference_gap - contig_gap) > self.misassembly_gap:
                return True
            if reference_gap < -self.anchor_k:
                return True
        return False


def _segment_differences(contig_segment: str, reference_segment: str) -> Tuple[int, int]:
    """(mismatches, indels) between two aligned segments.

    Equal-length segments are compared position by position; otherwise
    the length difference is attributed to indels and mismatches are
    estimated over the common prefix/suffix consensus (a banded
    alignment would be exact but is unnecessary at the block sizes the
    chain step produces).
    """
    if len(contig_segment) == len(reference_segment):
        mismatches = sum(1 for a, b in zip(contig_segment, reference_segment) if a != b)
        return mismatches, 0
    shorter, longer = sorted((contig_segment, reference_segment), key=len)
    indels = len(longer) - len(shorter)
    # Compare against the best of the two ungapped placements (left- or
    # right-anchored) to avoid counting the shifted region as mismatches.
    left_anchored = sum(1 for a, b in zip(shorter, longer) if a != b)
    right_anchored = sum(1 for a, b in zip(reversed(shorter), reversed(longer)) if a != b)
    return min(left_anchored, right_anchored), indels
