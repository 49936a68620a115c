"""Ablation — pointer-based join (paper §5).

Compares the same single-hop Expand with the pointer-based lazy neighbor
column (the default fast path) against a forced eager materialization of
neighbor ids, on both time and intermediate footprint.  The paper claims
the (pointer, size) representation "dramatically accelerates the join
processing"; the footprint side is the starker effect here: 16 bytes per
source instead of 8 bytes per neighbor.
"""

from __future__ import annotations

from repro.obs.clock import now

from conftest import dataset_for, emit
from repro.core.lazy import LazyNeighborColumn
from repro.exec.base import ExecStats, ExecutionContext
from repro.exec.pipeline import PipelineState, dispatch
from repro.plan import Expand, LogicalPlan, NodeScan, resolve_labels
from repro.storage.catalog import Direction

ROUNDS = 5


def expand_pipeline(dataset, force_eager: bool):
    """Person -> authored messages over the whole person table."""
    ops = [
        NodeScan("p", "Person"),
        Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
    ]
    plan = LogicalPlan(ops)
    view = dataset.store.read_view()
    ctx = ExecutionContext(view, {})
    ctx.var_labels = resolve_labels(plan, view.schema)
    state = PipelineState()
    for op in ops:
        dispatch(state, op, ctx)
    column = state.tree.node_of("m").block.column("m")
    assert isinstance(column, LazyNeighborColumn)
    if force_eager:
        column.values()  # materialize, as a non-pointer join would
    return state.tree.nbytes


def test_ablation_pointer_join(benchmark):
    dataset = dataset_for("SF300")

    def run():
        timings = {}
        footprints = {}
        for mode, eager in (("pointer", False), ("eager", True)):
            started = now()
            for _ in range(ROUNDS):
                footprints[mode] = expand_pipeline(dataset, force_eager=eager)
            timings[mode] = (now() - started) / ROUNDS * 1e3
        return timings, footprints

    timings, footprints = benchmark.pedantic(run, rounds=1, iterations=1)

    reduction = 1 - footprints["pointer"] / footprints["eager"]
    lines = [
        "",
        "== Ablation: pointer-based join (Expand Person->Message, SF300) ==",
        f"{'mode':10}{'time ms':>10}{'tree bytes':>12}",
        f"{'pointer':10}{timings['pointer']:>10.2f}{footprints['pointer']:>12}",
        f"{'eager':10}{timings['eager']:>10.2f}{footprints['eager']:>12}",
        f"intermediate-size reduction from pointer join: {reduction * 100:.1f}%",
    ]
    emit(
        lines,
        archive="ablation_pointer_join.txt",
        data={
            "scale": "SF300",
            "rounds": ROUNDS,
            "pointer": {"time_ms": timings["pointer"], "tree_bytes": footprints["pointer"]},
            "eager": {"time_ms": timings["eager"], "tree_bytes": footprints["eager"]},
            "size_reduction": reduction,
        },
    )

    assert footprints["pointer"] < footprints["eager"]
    assert timings["pointer"] <= timings["eager"] * 1.2
