"""Ablation — the AggregateProjectTop fusion (paper §4.3).

The same IC5-style aggregation (count posts per forum, top-k) executed

* unfused on the factorized executor: Aggregate forces de-factoring into a
  flat block and a block-based hash aggregation; vs
* fused (AggregateTopK): direct index-vector counting on the f-Tree, no
  tuple ever enumerated.

This isolates exactly what the paper's IC5 column in Table 2 attributes to
fusion (435 MB -> 1.6 KB there).
"""

from __future__ import annotations

from repro.obs.clock import now

import numpy as np

from conftest import dataset_for, emit
from repro.exec.base import ExecStats
from repro.exec import execute_factorized
from repro.plan import (
    AggSpec,
    Aggregate,
    AggregateTopK,
    Expand,
    GetProperty,
    Limit,
    LogicalPlan,
    NodeScan,
    OrderBy,
)
from repro.storage.catalog import Direction

ROUNDS = 5
TOP = 20


def plans():
    base = [
        NodeScan("forum", "Forum"),
        GetProperty("forum", "id", "forumId"),
        Expand("forum", "msg", "CONTAINER_OF", Direction.OUT, to_label="Message"),
    ]
    unfused = LogicalPlan(
        base
        + [
            Aggregate(["forumId"], [AggSpec("posts", "count")]),
            OrderBy([("posts", False), ("forumId", True)]),
            Limit(TOP),
        ],
        returns=["forumId", "posts"],
    )
    fused = LogicalPlan(
        base
        + [
            AggregateTopK(
                ["forumId"], [AggSpec("posts", "count")],
                [("posts", False), ("forumId", True)], TOP,
            )
        ],
        returns=["forumId", "posts"],
    )
    return unfused, fused


def test_ablation_fused_aggregation(benchmark):
    dataset = dataset_for("SF300")
    view = dataset.store.read_view()
    unfused, fused = plans()

    def run():
        out = {}
        for mode, plan in (("unfused", unfused), ("fused", fused)):
            stats = ExecStats()
            started = now()
            for _ in range(ROUNDS):
                rows = execute_factorized(plan, view, {}, stats).rows
            out[mode] = (
                (now() - started) / ROUNDS * 1e3,
                stats.peak_intermediate_bytes,
                rows,
            )
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert out["unfused"][2] == out["fused"][2], "fusion must preserve results"

    reduction = 1 - out["fused"][1] / out["unfused"][1]
    lines = [
        "",
        "== Ablation: AggregateProjectTop fusion (posts per forum, SF300) ==",
        f"{'mode':10}{'time ms':>10}{'peak bytes':>12}",
        f"{'unfused':10}{out['unfused'][0]:>10.2f}{out['unfused'][1]:>12}",
        f"{'fused':10}{out['fused'][0]:>10.2f}{out['fused'][1]:>12}",
        f"peak-intermediate reduction from fusion: {reduction * 100:.1f}%",
    ]
    emit(
        lines,
        archive="ablation_fused_aggregation.txt",
        data={
            "scale": "SF300",
            "rounds": ROUNDS,
            "top_k": TOP,
            "unfused": {"time_ms": out["unfused"][0], "peak_bytes": out["unfused"][1]},
            "fused": {"time_ms": out["fused"][0], "peak_bytes": out["fused"][1]},
            "peak_reduction": reduction,
        },
    )

    assert out["fused"][1] < out["unfused"][1]
    assert out["fused"][0] < out["unfused"][0] * 1.1
