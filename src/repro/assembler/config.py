"""Assembly configuration.

The knobs collected here are exactly the ones the paper exposes in its
experiment section: ``k`` (31 in the paper), the coverage threshold θ
used to drop low-coverage (k+1)-mers during DBG construction, the edit
distance threshold for bubble filtering (5 in the paper), the length
threshold for tip removing (80 in the paper), the contig-labeling
method (bidirectional list ranking or simplified S-V), and the number
of simulated workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..dna.encoding import MAX_K
from ..errors import PipelineConfigError, PregelError
from ..runtime import RuntimeOptions

#: Contig-labeling method names.
LABELING_LIST_RANKING = "list_ranking"
LABELING_SIMPLIFIED_SV = "sv"


@dataclass(frozen=True)
class AssemblyConfig:
    """Parameters of one assembly run.

    Attributes
    ----------
    k:
        k-mer size; the DBG is built from (k+1)-mers.  The paper uses
        31; the scaled-down benchmark datasets use smaller values so
        that repeats still occur at laptop scale.
    coverage_threshold:
        θ — (k+1)-mers observed at most this many times are discarded
        during DBG construction (they are almost certainly errors).
    tip_length_threshold:
        Dangling paths at most this long are removed as tips.
    bubble_edit_distance:
        Alternative paths between the same pair of ambiguous vertices
        are collapsed when their edit distance is below this value.
    labeling_method:
        ``"list_ranking"`` (default, the paper's preferred method) or
        ``"sv"`` for the simplified S-V alternative.
    error_correction_rounds:
        How many times to run the ④⑤ error-correction pair followed by
        re-labeling/merging (the paper's workflow uses one round:
        ①②③④⑤⑥②③).
    num_workers:
        Pregel workers (simulated slots under the serial backend, real
        worker processes under the multiprocess backend).
    backend:
        Execution runtime for every Pregel stage: ``"serial"`` (default,
        the exact in-process cluster simulation the paper's tables are
        reproduced from) or ``"multiprocess"`` (shared-nothing worker
        processes for wall-clock parallelism, at most
        :data:`~repro.runtime.base.MAX_PROCESS_WORKERS` of them).  Both
        produce identical contigs and metrics.
    message_plane:
        Read by nothing: multiprocess message batches always travel
        through the worker queues.  Still validated against
        :data:`~repro.runtime.base.MESSAGE_PLANES` (``"shm"`` or
        ``"queue"``), so a typo fails.
    use_vectorized:
        Run the NumPy batch kernels for the hot paths (DBG-construction
        phases and the columnar message batches).  Default on; contigs,
        aggregate histories and metrics are bit-identical either way,
        and off pins the scalar reference path.
    scaffold:
        Run the paired-end scaffolding stage (:mod:`repro.scaffold`)
        after the final contig merge.  Off by default — it only has
        evidence to work with when the assembler is fed read *pairs*
        (:meth:`~repro.assembler.pipeline.PPAAssembler.assemble_paired`).
    scaffold_min_links:
        Minimum number of read pairs that must support a contig link
        before scaffolding trusts it (2 by default; 1 admits chimeric
        single-pair joins).
    scaffold_insert_size:
        The paired-end library's insert size.  ``None`` (default) lets
        the stage estimate it from pairs whose mates map to the same
        contig, which is what real scaffolders do.
    memory_budget_mb:
        Soft cap, in megabytes, on the live bytes the assembly holds in
        memory at once.  ``None`` (default) is unlimited.  When set,
        DBG construction takes reads in smaller chunks (it never
        spills), and the serial backend spills idle worker partitions
        and delivered inboxes to disk (:mod:`repro.store`);
        multiprocess workers keep their partitions and message batches
        in memory, so on that backend nothing spills.  Results are bit-identical at any budget;
        only peak memory and wall-clock change.  A float so tests can
        force heavy spilling on tiny datasets (e.g. ``0.05``).
    """

    k: int = 21
    coverage_threshold: int = 1
    tip_length_threshold: int = 80
    bubble_edit_distance: int = 5
    labeling_method: str = LABELING_LIST_RANKING
    error_correction_rounds: int = 1
    num_workers: int = 4
    backend: str = "serial"
    message_plane: str = "shm"
    use_vectorized: bool = True
    scaffold: bool = False
    scaffold_min_links: int = 2
    scaffold_insert_size: Optional[float] = None
    memory_budget_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise PipelineConfigError(f"k must be in [1, {MAX_K}], got {self.k}")
        if self.k % 2 == 0:
            # Even k allows palindromic k-mers (a k-mer equal to its own
            # reverse complement), which makes the canonical-vertex DBG
            # ill-defined; assemblers — including the paper's k = 31 —
            # therefore use odd k only.
            raise PipelineConfigError(f"k must be odd to avoid palindromic k-mers, got {self.k}")
        if self.coverage_threshold < 0:
            raise PipelineConfigError(
                f"coverage_threshold must be non-negative, got {self.coverage_threshold}"
            )
        if self.tip_length_threshold < 0:
            raise PipelineConfigError(
                f"tip_length_threshold must be non-negative, got {self.tip_length_threshold}"
            )
        if self.bubble_edit_distance < 0:
            raise PipelineConfigError(
                f"bubble_edit_distance must be non-negative, got {self.bubble_edit_distance}"
            )
        if self.labeling_method not in (LABELING_LIST_RANKING, LABELING_SIMPLIFIED_SV):
            raise PipelineConfigError(
                f"labeling_method must be {LABELING_LIST_RANKING!r} or "
                f"{LABELING_SIMPLIFIED_SV!r}, got {self.labeling_method!r}"
            )
        if self.error_correction_rounds < 0:
            raise PipelineConfigError(
                f"error_correction_rounds must be non-negative, got {self.error_correction_rounds}"
            )
        if self.scaffold_min_links < 1:
            raise PipelineConfigError(
                f"scaffold_min_links must be at least 1, got {self.scaffold_min_links}"
            )
        insert_size = self.scaffold_insert_size
        if insert_size is not None and not (math.isfinite(insert_size) and insert_size > 0):
            raise PipelineConfigError(
                f"scaffold_insert_size must be finite and positive, got {insert_size}"
            )
        try:
            self.runtime
        except PregelError as exc:
            raise PipelineConfigError(str(exc)) from None

    @property
    def runtime(self) -> RuntimeOptions:
        """The Pregel-runtime knobs of this config as one validated value.

        This is the only place the flat fields become runtime options;
        :class:`~repro.assembler.pipeline.PPAAssembler` hands the result
        to its :class:`~repro.workflow.WorkflowRunner` and nothing
        downstream names a field.
        """
        return RuntimeOptions(
            num_workers=self.num_workers,
            backend=self.backend,
            columnar_messages=self.use_vectorized,
            message_plane=self.message_plane,
            memory_budget_mb=self.memory_budget_mb,
        )

    def paper_defaults(self) -> "AssemblyConfig":
        """The exact parameter values used in the paper's experiments."""
        return replace(
            self,
            k=31,
            bubble_edit_distance=5,
            tip_length_threshold=80,
        )

    def with_scaffolding(
        self,
        scaffold: bool = True,
        min_links: Optional[int] = None,
        insert_size: Optional[float] = None,
    ) -> "AssemblyConfig":
        """Copy of this config with the scaffolding stage toggled/tuned."""
        return replace(
            self,
            scaffold=scaffold,
            scaffold_min_links=(
                self.scaffold_min_links if min_links is None else min_links
            ),
            scaffold_insert_size=(
                self.scaffold_insert_size if insert_size is None else insert_size
            ),
        )
