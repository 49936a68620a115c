"""Figure 3 — operator-level runtime breakdown of long-running queries.

The paper profiles the flat executor and finds the Expand operator
dominates ("accounting for nearly half of the total execution time"), with
Select/Project contributing much of the rest.  We reproduce the per-operator
breakdown on the same query class and assert Expand is the single most
expensive operator overall.
"""

from __future__ import annotations

from conftest import dataset_for, emit, make_engine, params_for
from repro.exec.base import ExecStats
from repro.ldbc import REGISTRY

LONG_RUNNING = ("IC1", "IC3", "IC5", "IC6", "IC9")
DRAWS = 4


def test_fig03_operator_breakdown(benchmark):
    dataset = dataset_for("SF100")
    engine = make_engine(dataset.store, "GES")

    def profile():
        per_query: dict[str, dict[str, float]] = {}
        for name in LONG_RUNNING:
            stats = ExecStats()
            for params in params_for(dataset, name, DRAWS):
                REGISTRY[name].fn(engine, params, stats)
            per_query[name] = dict(stats.op_times)
        return per_query

    per_query = benchmark.pedantic(profile, rounds=1, iterations=1)

    lines = ["", "== Figure 3: operator-level breakdown (GES flat, SF100) =="]
    overall: dict[str, float] = {}
    for name, op_times in per_query.items():
        total = sum(op_times.values())
        top = sorted(op_times.items(), key=lambda kv: -kv[1])[:4]
        shares = "  ".join(f"{op}={seconds / total * 100:4.1f}%" for op, seconds in top)
        lines.append(f"{name:5} {shares}")
        for op, seconds in op_times.items():
            overall[op] = overall.get(op, 0.0) + seconds
    total = sum(overall.values())
    dominant = max(overall, key=lambda op: overall[op])
    lines.append(
        f"overall dominant operator: {dominant} "
        f"({overall[dominant] / total * 100:.1f}% of operator time)"
    )
    emit(
        lines,
        archive="fig03_operator_breakdown.txt",
        data={
            "figure": "fig03",
            "variant": "GES",
            "scale": "SF100",
            "per_query_op_seconds": per_query,
            "dominant_operator": dominant,
            "dominant_share": overall[dominant] / total,
        },
    )

    # Paper shape: Expand dominates the flat executor's runtime.
    assert dominant == "Expand"
    assert overall[dominant] / total >= 0.3
