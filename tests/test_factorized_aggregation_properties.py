"""Property tests of the one aggregate kernel: weighting a node's entries
by ``tuples_through`` (index-vector counting, no enumeration) must agree
with running the same kernel unweighted over the fully de-factored
relation — plus the INT64-exactness regression across every engine."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.volcano import VolcanoEngine
from repro.core import Column, FBlock, FTree, IndexVector, materialize
from repro.exec import execute_factorized, execute_flat
from repro.exec.aggregate import aggregate, tuples_through
from repro.plan import (
    AggSpec,
    Aggregate,
    Expand,
    GetProperty,
    Limit,
    LogicalPlan,
    NodeScan,
    OrderBy,
    optimize,
)
from repro.storage import GraphStore
from repro.storage.catalog import (
    Direction,
    EdgeLabelDef,
    GraphSchema,
    PropertyDef,
    VertexLabelDef,
)
from repro.types import DataType


@st.composite
def two_level_trees(draw) -> FTree:
    """root(group, value) -> child(payload): the aggregation shape."""
    n_root = draw(st.integers(1, 6))
    groups = draw(st.lists(st.integers(0, 2), min_size=n_root, max_size=n_root))
    values = draw(st.lists(st.integers(-5, 5), min_size=n_root, max_size=n_root))
    root = FBlock(
        [Column("g", DataType.INT64, groups), Column("v", DataType.INT64, values)]
    )
    tree = FTree.single("r", root)
    tree.root.and_selection(
        np.asarray(
            draw(st.lists(st.booleans(), min_size=n_root, max_size=n_root)), dtype=bool
        )
    )
    n_child = draw(st.integers(0, 8))
    child = FBlock([Column("c", DataType.INT64, list(range(n_child)))])
    starts, ends = [], []
    for _ in range(n_root):
        start = draw(st.integers(0, n_child))
        starts.append(start)
        ends.append(draw(st.integers(start, n_child)))
    node = tree.add_child(tree.root, "c", child, IndexVector(np.asarray(starts), np.asarray(ends)))
    if n_child:
        node.and_selection(
            np.asarray(
                draw(st.lists(st.booleans(), min_size=n_child, max_size=n_child)),
                dtype=bool,
            )
        )
    return tree


AGGS = [
    AggSpec("cnt", "count"),
    AggSpec("total", "sum", "v"),
    AggSpec("lo", "min", "v"),
    AggSpec("hi", "max", "v"),
    AggSpec("mean", "avg", "v"),
    AggSpec("distinct", "count_distinct", "v"),
]


def on_node(tree: FTree, node, group_by: list[str], aggs: list[AggSpec]):
    """The kernel over one node's entries, weighted by tuple multiplicity."""
    return aggregate(node.block, group_by, aggs, tuples_through(tree, node))


def oracle(tree: FTree, group_by: list[str], aggs: list[AggSpec]):
    """The kernel, unweighted, over the fully materialized relation."""
    return aggregate(materialize(tree), group_by, aggs)


def as_row_set(block) -> set:
    out = set()
    for row in block.to_pylist():
        out.add(tuple(round(v, 9) if isinstance(v, float) else v for v in row))
    return out


@settings(max_examples=80, deadline=None)
@given(two_level_trees())
def test_grouped_aggregates_match_flat_oracle(tree: FTree):
    fast = on_node(tree, tree.root, ["g"], AGGS)
    expected = oracle(tree, ["g"], AGGS)
    assert as_row_set(fast) == as_row_set(expected)


@settings(max_examples=60, deadline=None)
@given(two_level_trees())
def test_global_count_matches_num_tuples(tree: FTree):
    fast = on_node(tree, tree.root, [], [AggSpec("n", "count")])
    assert fast.to_pylist() == [(tree.num_tuples(),)]


@settings(max_examples=60, deadline=None)
@given(two_level_trees())
def test_count_on_child_node_matches_oracle(tree: FTree):
    node = tree.node_of("c")
    fast = on_node(tree, node, ["c"], [AggSpec("n", "count")])
    expected = oracle(tree, ["c"], [AggSpec("n", "count")])
    assert as_row_set(fast) == as_row_set(expected)


def volcano_reference(tree: FTree, group_by: list[str], aggs: list[AggSpec]) -> set:
    """Volcano's tuple-at-a-time aggregate over the enumerated relation."""
    from repro.baselines.volcano import _aggregate

    flat = materialize(tree)
    rows = [dict(zip(flat.schema, row)) for row in flat.to_pylist()]
    columns = group_by + [a.out for a in aggs]
    return {
        tuple(round(row[c], 9) if isinstance(row[c], float) else row[c] for c in columns)
        for row in _aggregate(rows, group_by, aggs, {})
    }


@settings(max_examples=60, deadline=None)
@given(two_level_trees())
def test_kernel_matches_volcano_reference(tree: FTree):
    assert as_row_set(oracle(tree, ["g"], AGGS)) == volcano_reference(tree, ["g"], AGGS)


# -- INT64 sums are exact (regression: float64 bincount rounded above 2**53) ------


def big_sum_store() -> GraphStore:
    """Three persons, v = [2**53, 1, 1], everyone KNOWS the other two."""
    schema = GraphSchema()
    schema.add_vertex_label(
        VertexLabelDef(
            "Person",
            [
                PropertyDef("id", DataType.INT64),
                PropertyDef("g", DataType.INT64),
                PropertyDef("v", DataType.INT64),
            ],
            primary_key="id",
        )
    )
    schema.add_edge_label(EdgeLabelDef("KNOWS", "Person", "Person"))
    store = GraphStore(schema)
    store.bulk_load_vertices(
        "Person",
        {
            "id": np.arange(3),
            "g": np.asarray([0, 0, 1]),
            "v": np.asarray([2**53, 1, 1], dtype=np.int64),
        },
    )
    store.bulk_load_edges(
        "KNOWS",
        "Person",
        "Person",
        np.asarray([0, 0, 1, 1, 2, 2]),
        np.asarray([1, 2, 0, 2, 0, 1]),
    )
    return store


def rows_on_every_engine(store: GraphStore, plan: LogicalPlan) -> list[tuple]:
    fused_plan = optimize(plan)
    # The fused plan is what reaches the weighted (node-local) kernel call.
    assert any(op.op_name == "AggregateTopK" for op in fused_plan.ops)
    view = store.read_view()
    flat = execute_flat(plan, view).rows
    assert execute_factorized(plan, view).rows == flat
    assert execute_factorized(fused_plan, view).rows == flat
    assert VolcanoEngine(store).execute(plan).rows == flat
    return flat


def test_int64_sum_is_exact_on_every_engine():
    plan = LogicalPlan(
        [
            NodeScan("p", "Person"),
            GetProperty("p", "v", "v"),
            Aggregate([], [AggSpec("total", "sum", "v")]),
            OrderBy([("total", True)]),
            Limit(1),
        ],
        returns=["total"],
    )
    assert rows_on_every_engine(big_sum_store(), plan) == [(2**53 + 2,)]


def test_weighted_grouped_int64_sum_is_exact_on_every_engine():
    """A child node makes every person's ``tuples_through`` weight 2."""
    plan = LogicalPlan(
        [
            NodeScan("p", "Person"),
            GetProperty("p", "g", "g"),
            GetProperty("p", "v", "v"),
            Expand("p", "f", "KNOWS", Direction.OUT),
            Aggregate(["g"], [AggSpec("total", "sum", "v"), AggSpec("n", "count")]),
            OrderBy([("g", True)]),
            Limit(10),
        ],
        returns=["g", "total", "n"],
    )
    assert rows_on_every_engine(big_sum_store(), plan) == [
        (0, 2 * (2**53 + 1), 4),
        (1, 2, 2),
    ]
