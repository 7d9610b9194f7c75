"""PPA-assembler: the paper's primary contribution.

The five operations of Figure 10 (DBG construction, contig labeling,
contig merging, bubble filtering, tip removing) plus the workflow
driver that chains them the way the paper's experiments do
(①②③④⑤⑥②③).  Each operation takes a
:class:`~repro.workflow.executor.StageExecutor` (or a workflow context) so its Pregel / mini-MapReduce cost
is recorded for the Figure 12 cost model, and users can compose the
operations into their own strategies.
"""

from .bubble import BubbleResult, filter_bubbles
from .chain import ChainElement, build_chain_graph
from .config import (
    LABELING_LIST_RANKING,
    LABELING_SIMPLIFIED_SV,
    AssemblyConfig,
)
from .construction import ConstructionResult, build_dbg
from .labeling import LabelingResult, label_contigs
from .merging import MergingResult, merge_contigs
from .pipeline import (
    PPAAssembler,
    assemble_reads,
    build_assembly_workflow,
)
from .pruning import PruningResult, prune_low_coverage_contigs
from .results import AssemblyResult, StageSummary
from .tips import TipRemovalResult, remove_tips

__all__ = [
    "BubbleResult",
    "filter_bubbles",
    "ChainElement",
    "build_chain_graph",
    "LABELING_LIST_RANKING",
    "LABELING_SIMPLIFIED_SV",
    "AssemblyConfig",
    "ConstructionResult",
    "build_dbg",
    "LabelingResult",
    "label_contigs",
    "MergingResult",
    "merge_contigs",
    "PPAAssembler",
    "assemble_reads",
    "build_assembly_workflow",
    "PruningResult",
    "prune_low_coverage_contigs",
    "AssemblyResult",
    "StageSummary",
    "TipRemovalResult",
    "remove_tips",
]
