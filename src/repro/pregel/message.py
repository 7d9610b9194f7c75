"""The message path of the Pregel engine: combiners, hashing and delivery.

Messages sent during superstep *s* are delivered at the start of
superstep *s+1*.  Every execution backend hashes a worker's outbox with
:func:`hash_destinations`, which also totals what was routed to each
destination worker.  What happens next depends on where the receiver
lives:

* the serial backend runs its workers in id order in one process, so
  :func:`deliver_outbox` folds each worker's outbox straight into the
  next superstep's per-vertex inboxes as soon as the worker has run;
* the multiprocess backend groups each outbox into one batch per
  destination worker with :func:`group_batches`, ships the batches,
  and the receiver folds them in sender-id order with
  :func:`merge_batches`.

Both give the same inboxes, key order included: appending senders in
id order is exactly the sender-id fold.  A batch is a list of
``(target, message)`` pairs.  An optional :class:`Combiner` merges
messages addressed to the same vertex sender-side, which is how real
Pregel systems (and the paper's Pregel+) reduce network traffic; the
raw (pre-combine) message and byte totals the paper reports are
counted where messages are sent, in
:class:`~repro.pregel.vertex.ComputeContext`.

An outbox of at least :data:`ARRAY_HASH_MIN_BATCH` messages whose
targets are all plain non-negative integers below 2**64 has its
destination workers hashed in one
:meth:`~repro.pregel.partitioner.HashPartitioner.worker_for_array`
call; any other outbox is hashed message by message.  Both give the
same destinations, so the inboxes are identical either way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Outboxes shorter than this hash their destinations one message at a
#: time: the array conversion has a fixed cost that small outboxes do
#: not repay.
ARRAY_HASH_MIN_BATCH = 64


class Combiner:
    """Merges messages destined for the same vertex.

    ``combine`` must be associative and commutative.  A combiner is an
    optimisation only: algorithms must produce the same result with or
    without it (property-based tests in ``tests/pregel`` check this for
    the PPA primitives).
    """

    def __init__(self, combine: Callable[[Any, Any], Any]) -> None:
        self._combine = combine

    def combine(self, left: Any, right: Any) -> Any:
        return self._combine(left, right)


def _combine_add(left: Any, right: Any) -> Any:
    # Module-level (not a lambda) so the combiner stays picklable for
    # multiprocess backends under the ``spawn`` start method.
    return left + right


def min_combiner() -> Combiner:
    """Combiner keeping only the smallest message (e.g. for hash-min CC)."""
    return Combiner(min)


def sum_combiner() -> Combiner:
    """Combiner summing numeric messages."""
    return Combiner(_combine_add)


def _uint64_targets(outbox):
    """The outbox's targets as a uint64 array, or ``None`` unless every one fits.

    Only plain ``int`` qualifies (a bool or float would silently
    coerce), and only non-negative ones: on NumPy < 2.0 ``np.array``
    silently wraps negative Python ints into the uint64 lane instead of
    raising OverflowError.
    """
    targets = next(zip(*outbox))
    if set(map(type, targets)) != {int} or min(targets) < 0:
        return None
    try:
        return np.array(targets, dtype=np.uint64)
    except OverflowError:
        return None


def hash_destinations(
    outbox: List[Tuple[int, Any]], sizes: List[int], partitioner
) -> Tuple[List[int], List[int], List[int]]:
    """The destination worker of every outbox entry, and the routed totals.

    Returns ``(destinations, routed_messages, routed_bytes)``.  The two
    lists hold, per destination worker, how many raw (pre-combine)
    outbox messages were routed to it and the sum of their ``sizes``
    (the cost-model size of each outbox entry, as recorded when it was
    sent).  They are what the destination receives next superstep
    unless a combiner merges messages on the way, and everything routed
    to a worker other than the sender is the cross-worker traffic.
    """
    num_workers = partitioner.num_workers
    targets = _uint64_targets(outbox) if len(outbox) >= ARRAY_HASH_MIN_BATCH else None
    if targets is None:
        worker_for = partitioner.worker_for
        destinations = [worker_for(target_id) for target_id, _ in outbox]
        routed_messages = [0] * num_workers
        routed_bytes = [0] * num_workers
        for destination, size in zip(destinations, sizes):
            routed_messages[destination] += 1
            routed_bytes[destination] += size
        return destinations, routed_messages, routed_bytes
    raw_destinations = partitioner.worker_for_array(targets)
    routed_messages = np.bincount(raw_destinations, minlength=num_workers).tolist()
    # bincount weighs in float64, which is exact here: one superstep's
    # bytes stay far below 2**53.
    routed_bytes = (
        np.bincount(raw_destinations, weights=sizes, minlength=num_workers)
        .astype(np.int64)
        .tolist()
    )
    return raw_destinations.tolist(), routed_messages, routed_bytes


def group_batches(
    outbox: List[Tuple[int, Any]],
    destinations: List[int],
    combiner: Optional[Combiner],
) -> Dict[int, List[Tuple[int, Any]]]:
    """Group an outbox into per-destination batches, combining sender-side.

    With a combiner, each destination batch carries at most one message
    per target vertex — this happens *before* a batch leaves its worker,
    so combined traffic is what crosses a process boundary, exactly like
    the sender-side combining of real Pregel systems.  Batches are keyed
    in first-routed order.
    """
    if combiner is None:
        batches = {destination: [] for destination in dict.fromkeys(destinations)}
        for pair, destination in zip(outbox, destinations):
            batches[destination].append(pair)
        return batches
    combined: Dict[int, Dict[int, Any]] = {
        destination: {} for destination in dict.fromkeys(destinations)
    }
    for (target_id, message), destination in zip(outbox, destinations):
        slot = combined[destination]
        if target_id in slot:
            slot[target_id] = combiner.combine(slot[target_id], message)
        else:
            slot[target_id] = message
    return {destination: list(slot.items()) for destination, slot in combined.items()}


def _fold(
    inbox: Dict[int, List[Any]],
    batch: List[Tuple[int, Any]],
    combiner: Optional[Combiner],
) -> None:
    """Append one sender's batch to ``inbox``, combining where it can."""
    for target_id, message in batch:
        if combiner is not None and target_id in inbox:
            inbox[target_id] = [combiner.combine(inbox[target_id][0], message)]
        else:
            inbox.setdefault(target_id, []).append(message)


def merge_batches(
    batches_by_sender: Dict[int, List[Tuple[int, Any]]],
    num_workers: int,
    combiner: Optional[Combiner],
) -> Dict[int, List[Any]]:
    """Fold sender batches into a per-vertex inbox, in sender-id order.

    The fixed sender order makes the fold sequence a deterministic
    function of the job, so every backend delivers the same inbox for
    any associative combine function.
    """
    inbox: Dict[int, List[Any]] = {}
    for sender in range(num_workers):
        _fold(inbox, batches_by_sender.get(sender, ()), combiner)
    return inbox


def deliver_outbox(
    inboxes: List[Dict[int, List[Any]]],
    outbox: List[Tuple[int, Any]],
    destinations: List[int],
    combiner: Optional[Combiner],
) -> None:
    """Fold one sender's outbox into ``inboxes[destination]``, in place.

    ``inboxes`` holds one per-vertex inbox per worker.  Called once per
    sender in sender-id order, this builds exactly the inboxes
    :func:`group_batches` + :func:`merge_batches` deliver — vertices
    keyed in first-delivered order — without building the per-sender
    batches when there is no combiner.  With one, the sender's messages
    are combined first (:func:`group_batches`), so a combine that is
    not associative in floating point, such as a float sum, folds in
    the same order too.
    """
    if combiner is not None:
        for destination, batch in group_batches(outbox, destinations, combiner).items():
            _fold(inboxes[destination], batch, combiner)
        return
    for (target_id, message), destination in zip(outbox, destinations):
        inbox = inboxes[destination]
        messages = inbox.get(target_id)
        if messages is None:
            inbox[target_id] = [message]
        else:
            messages.append(message)
