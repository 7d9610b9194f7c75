"""The one message path of the Pregel engine: combiners and the routing pair.

Messages sent during superstep *s* are delivered at the start of
superstep *s+1*.  Every execution backend moves them with the same two
functions: :func:`route_outbox` groups one worker's outbox into a batch
per destination worker, and :func:`merge_batches` folds the batches a
worker received, in sender-id order, into its per-vertex inbox.  An
optional :class:`Combiner` merges messages addressed to the same vertex
sender-side, which is how real Pregel systems (and the paper's Pregel+)
reduce network traffic; the raw (pre-combine) message and byte totals
the paper reports are counted where messages are sent, in
:class:`~repro.pregel.vertex.ComputeContext`.

Columnar batch path
-------------------
Jobs whose messages are plain integers (the common case: vertex IDs
and counts) can skip per-message Python work entirely.  A qualifying
outbox is routed as two parallel ``uint64`` arrays with a vectorized
hash, duplicates are combined with a segment-reduce, and the per-vertex
inboxes are materialised only on receipt — reproducing the scalar
path's results *bit for bit*:

* inbox keys appear in first-occurrence order, matching the scalar
  dict-insertion order;
* only ``min``/``sum`` combiners are vectorized, for which integer
  reassociation is exact (a ``sum`` whose total could wrap 64 bits
  falls back to Python arithmetic);
* delivered targets and values are converted back to Python ints.

Outboxes that do not qualify (non-int payloads, custom combiners, tiny
batches) are routed as scalar ``(target, message)`` lists — with the
destination workers still hashed in one array operation when the
targets are plain integers — and a receiver holding both kinds folds
them pair by pair in Python.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Batches smaller than this stay on the scalar path: array conversion
#: has fixed overhead, and tiny batches are the realm of unit tests
#: that assert on scalar internals.
COLUMNAR_MIN_BATCH = 64

#: Combiner kinds with an exact vectorized segment-reduce.
_VECTOR_KINDS = ("min", "sum")


class Combiner:
    """Merges messages destined for the same vertex.

    ``combine`` must be associative and commutative.  A combiner is an
    optimisation only: algorithms must produce the same result with or
    without it (property-based tests in ``tests/pregel`` check this for
    the PPA primitives).

    ``kind`` optionally names a vectorizable reduction (``"min"`` or
    ``"sum"``); combiners without a kind always combine through the
    Python callable.
    """

    def __init__(self, combine: Callable[[Any, Any], Any], kind: Optional[str] = None) -> None:
        self._combine = combine
        self.kind = kind

    def combine(self, left: Any, right: Any) -> Any:
        return self._combine(left, right)


def _combine_add(left: Any, right: Any) -> Any:
    # Module-level (not a lambda) so the combiner stays picklable for
    # multiprocess backends under the ``spawn`` start method.
    return left + right


def min_combiner() -> Combiner:
    """Combiner keeping only the smallest message (e.g. for hash-min CC)."""
    return Combiner(min, kind="min")


def sum_combiner() -> Combiner:
    """Combiner summing numeric messages."""
    return Combiner(_combine_add, kind="sum")


# ----------------------------------------------------------------------
# columnar helpers
# ----------------------------------------------------------------------
def combiner_vectorizable(combiner: Optional[Combiner]) -> bool:
    """True when a job's combining step has an exact array reduction."""
    return combiner is None or getattr(combiner, "kind", None) in _VECTOR_KINDS


def _uint64_column(items):
    """``items`` as a uint64 array, or ``None`` unless every one fits the lane.

    Only plain ``int`` qualifies (bools and floats would silently coerce
    and corrupt byte accounting / values), and only non-negative ones:
    on NumPy < 2.0 ``np.array`` silently wraps negative Python ints into
    the uint64 lane instead of raising OverflowError.
    """
    if set(map(type, items)) != {int} or min(items) < 0:
        return None
    try:
        return np.array(items, dtype=np.uint64)
    except OverflowError:
        return None


def combine_columns(targets, values, kind: str):
    """Segment-reduce duplicate targets; first-occurrence order.

    Returns ``(unique_targets, combined_values)`` ordered by each
    target's first appearance — the order the scalar combining dict
    would hold them in.  Returns ``None`` when a ``sum`` could exceed
    the uint64 lane (the caller then folds in Python, where ints do
    not wrap).
    """
    if targets.size <= 1:
        return targets, values
    if kind == "sum" and values.size and int(values.max()) >= (1 << 63) // values.size:
        return None
    sort_index = np.argsort(targets, kind="stable")
    sorted_targets = targets[sort_index]
    sorted_values = values[sort_index]
    run_starts = np.flatnonzero(
        np.concatenate(([True], sorted_targets[1:] != sorted_targets[:-1]))
    )
    if kind == "min":
        reduced = np.minimum.reduceat(sorted_values, run_starts)
    else:
        reduced = np.add.reduceat(sorted_values, run_starts)
    # The stable sort keeps each run in posting order, so the run head's
    # original index is the target's first occurrence.
    first_seen = sort_index[run_starts]
    order = np.argsort(first_seen, kind="stable")
    return sorted_targets[run_starts][order], reduced[order]


def group_columns(targets, values):
    """Group values per target, preserving scalar-path ordering.

    Yields ``(target, [values...])`` with targets in first-occurrence
    order and each value list in posting order — exactly the structure
    the scalar per-vertex grouping dict produces.  Everything yielded
    is plain Python ints.
    """
    sort_index = np.argsort(targets, kind="stable")
    sorted_targets = targets[sort_index]
    sorted_values = values[sort_index].tolist()
    run_starts = np.flatnonzero(
        np.concatenate(([True], sorted_targets[1:] != sorted_targets[:-1]))
    )
    run_ends = np.concatenate((run_starts[1:], [sorted_targets.size]))
    first_seen = sort_index[run_starts]
    order = np.argsort(first_seen, kind="stable")
    keys = sorted_targets[run_starts].tolist()
    starts = run_starts.tolist()
    ends = run_ends.tolist()
    for run in order.tolist():
        yield keys[run], sorted_values[starts[run] : ends[run]]


# ----------------------------------------------------------------------
# the routing pair
# ----------------------------------------------------------------------
#: Marker tag of a columnar batch: ``("cols", targets, values)``.
COLS = "cols"


def is_cols(batch) -> bool:
    return isinstance(batch, tuple) and len(batch) == 3 and batch[0] == COLS


def route_outbox(
    outbox: List[Tuple[int, Any]],
    sizes: List[int],
    partitioner,
    combiner: Optional[Combiner],
    columnar: bool = True,
) -> Tuple[Dict[int, Any], List[int], List[int]]:
    """Group an outbox into per-destination batches, combining sender-side.

    With a combiner, each destination batch carries at most one message
    per target vertex — this happens *before* a batch leaves its worker,
    so combined traffic is what crosses a process boundary, exactly like
    the sender-side combining of real Pregel systems.

    Qualifying integer outboxes become columnar batches
    ``("cols", targets, values)`` — two ndarrays pickle orders of
    magnitude faster than millions of tuples — preserving the scalar
    batches' first-occurrence ordering so receivers fold identically.
    When only the targets are plain integers the batches stay scalar,
    but the destination hash is still computed for the whole outbox at
    once.

    Returns ``(batches, routed_messages, routed_bytes)``.  The two lists
    hold, per destination worker, how many raw (pre-combine) outbox
    messages were routed to it and the sum of their ``sizes`` (the
    cost-model size of each outbox entry, as recorded when it was sent).
    They are what the destination receives next superstep unless a
    combiner merges messages on the way, and everything routed to a
    worker other than the sender is the cross-worker traffic.
    """
    num_workers = partitioner.num_workers
    targets = values = None
    if columnar and len(outbox) >= COLUMNAR_MIN_BATCH:
        target_column, message_column = zip(*outbox)
        targets = _uint64_column(target_column)
        if targets is not None and combiner_vectorizable(combiner):
            values = _uint64_column(message_column)

    if targets is None:
        worker_for = partitioner.worker_for
        destinations = [worker_for(target_id) for target_id, _ in outbox]
        routed_messages = [0] * num_workers
        routed_bytes = [0] * num_workers
        for destination, size in zip(destinations, sizes):
            routed_messages[destination] += 1
            routed_bytes[destination] += size
    else:
        raw_destinations = partitioner.worker_for_array(targets)
        routed_messages = np.bincount(raw_destinations, minlength=num_workers).tolist()
        # bincount weighs in float64, which is exact here: one
        # superstep's bytes stay far below 2**53.
        routed_bytes = (
            np.bincount(raw_destinations, weights=sizes, minlength=num_workers)
            .astype(np.int64)
            .tolist()
        )
        if values is not None:
            batches = _columnar_batches(targets, values, raw_destinations, partitioner, combiner)
            if batches is not None:
                return batches, routed_messages, routed_bytes
        destinations = raw_destinations.tolist()

    # Scalar batches, keyed in first-routed order.
    if combiner is None:
        batches = {destination: [] for destination in dict.fromkeys(destinations)}
        for pair, destination in zip(outbox, destinations):
            batches[destination].append(pair)
        return batches, routed_messages, routed_bytes
    combined: Dict[int, Dict[int, Any]] = {
        destination: {} for destination in dict.fromkeys(destinations)
    }
    for (target_id, message), destination in zip(outbox, destinations):
        slot = combined[destination]
        if target_id in slot:
            slot[target_id] = combiner.combine(slot[target_id], message)
        else:
            slot[target_id] = message
    batches = {destination: list(slot.items()) for destination, slot in combined.items()}
    return batches, routed_messages, routed_bytes


def _columnar_batches(targets, values, raw_destinations, partitioner, combiner):
    """Columnar batch per destination worker, combined sender-side.

    ``raw_destinations`` are the workers of the raw ``targets``.
    Returns ``None`` when a ``sum`` could wrap the uint64 lane (the
    caller then combines in Python, where ints do not wrap).
    """
    destinations = raw_destinations
    if combiner is not None:
        combined = combine_columns(targets, values, combiner.kind)
        if combined is None:
            return None
        targets, values = combined
        # The raw array is only reusable when combining removed nothing.
        if targets.size != raw_destinations.size:
            destinations = partitioner.worker_for_array(targets)
    batches: Dict[int, Any] = {}
    for destination in np.unique(destinations).tolist():
        selector = destinations == destination
        batches[destination] = (COLS, targets[selector], values[selector])
    return batches


def _batch_pairs(batch):
    """Iterate a batch as ``(target, message)`` pairs.

    Accepts both the scalar tuple-list format and the columnar
    ``("cols", targets, values)`` format; columnar values come back as
    plain Python ints, so folding is identical either way.
    """
    if is_cols(batch):
        return zip(batch[1].tolist(), batch[2].tolist())
    return iter(batch)


def merge_batches(
    batches_by_sender: Dict[int, Any],
    num_workers: int,
    combiner: Optional[Combiner],
) -> Dict[int, List[Any]]:
    """Fold sender batches into a per-vertex inbox, in sender-id order.

    The fixed sender order makes the fold sequence a deterministic
    function of the job, so every backend delivers the same inbox for
    any associative combine function.

    When every non-empty batch is columnar and the combiner has an
    exact array reduction, the fold itself is vectorized: the batches
    are concatenated in sender-id order and segment-reduced, which
    preserves the scalar fold's first-occurrence key order and (for
    ``min``/``sum`` without uint64 overflow) its exact values.
    """
    ordered = [batches_by_sender.get(sender, ()) for sender in range(num_workers)]
    if combiner_vectorizable(combiner):
        columnar_parts = []
        all_columnar = True
        for batch in ordered:
            if is_cols(batch):
                columnar_parts.append(batch)
            elif len(batch):
                all_columnar = False
                break
        if all_columnar and columnar_parts:
            targets = np.concatenate([batch[1] for batch in columnar_parts])
            values = np.concatenate([batch[2] for batch in columnar_parts])
            if combiner is None:
                return {
                    target: messages
                    for target, messages in group_columns(targets, values)
                }
            combined = combine_columns(targets, values, combiner.kind)
            if combined is not None:
                return {
                    target: [message]
                    for target, message in zip(
                        combined[0].tolist(), combined[1].tolist()
                    )
                }
            # A sum could wrap the uint64 lane: fold exactly in Python.
    inbox: Dict[int, List[Any]] = {}
    for batch in ordered:
        for target_id, message in _batch_pairs(batch):
            if combiner is not None and target_id in inbox:
                inbox[target_id] = [combiner.combine(inbox[target_id][0], message)]
            else:
                inbox.setdefault(target_id, []).append(message)
    return inbox
