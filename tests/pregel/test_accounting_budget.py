"""Call budget of the cost accounting in the scalar superstep loop.

Timing-free regression guard: pricing messages for the cost model must
stay out of the way of the algorithm.  Every message is sized once,
when it is sent (what a worker receives is known from what was routed
to it), and a worker builds one ``ComputeContext`` per superstep, not
one per vertex.
"""

from __future__ import annotations

import random
import sys

from repro.ppa.list_ranking import ListNode, run_list_ranking
from repro.pregel import PregelEngine
from repro.pregel import vertex as vertex_module
from repro.pregel.vertex import ComputeContext

NUM_NODES = 2000
NUM_WORKERS = 4


def _shuffled_chain(num_nodes, seed):
    order = list(range(num_nodes))
    random.Random(seed).shuffle(order)
    return [
        ListNode(node_id=node, value=1.0, predecessor=order[index - 1] if index else None)
        for index, node in enumerate(order)
    ]


def test_list_ranking_sizes_each_message_once_and_builds_one_context_per_worker_superstep(
    monkeypatch,
):
    original = vertex_module._estimate_size
    calls = {"depth": 0, "top_level": 0, "contexts": 0}

    def counting_estimator(message):
        # Sizing a container (or a Response's payload) re-enters the
        # estimator; only the entry for the message itself counts.
        if calls["depth"] == 0:
            calls["top_level"] += 1
        calls["depth"] += 1
        try:
            return original(message)
        finally:
            calls["depth"] -= 1

    # ``from .vertex import _estimate_size`` binds the name per module.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "_estimate_size", None) is original:
            monkeypatch.setattr(module, "_estimate_size", counting_estimator)

    original_init = ComputeContext.__init__

    def counting_init(self, *args, **kwargs):
        calls["contexts"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(ComputeContext, "__init__", counting_init)

    result = run_list_ranking(
        _shuffled_chain(NUM_NODES, seed=5),
        engine=PregelEngine(num_workers=NUM_WORKERS, backend="serial"),
    )

    messages = result.metrics.total_messages
    assert messages > NUM_NODES  # the job has traffic worth budgeting
    assert 0 < calls["top_level"] <= messages
    assert 0 < calls["contexts"] <= NUM_WORKERS * result.num_supersteps
