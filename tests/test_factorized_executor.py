"""Tests of the factorized executor's specific behaviours: pointer-join
laziness, selection-vector filtering, de-factor triggers, node-local
order-by, and the fused operators."""

import numpy as np
import pytest

from repro.core.lazy import LazyNeighborColumn
from repro.exec import ExecStats, execute_factorized, execute_flat
from repro.exec.base import ExecutionContext
from repro.exec.aggregate import tuples_through
from repro.exec.pipeline import PipelineState, dispatch
from repro.plan import (
    AggSpec,
    Aggregate,
    AggregateTopK,
    Col,
    Distinct,
    Expand,
    Filter,
    GetProperty,
    Limit,
    LogicalPlan,
    NodeByIdSeek,
    NodeScan,
    OrderBy,
    Project,
    TopK,
    lit,
    optimize,
    resolve_labels,
)
from repro.storage.catalog import Direction


def run_fact(store, ops, returns=None, params=None, stats=None):
    return execute_factorized(
        LogicalPlan(ops, returns=returns), store.read_view(), params, stats
    )


def state_after(store, ops, params=None):
    """Run a prefix of operators, returning the raw pipeline state."""
    plan = LogicalPlan(ops)
    view = store.read_view()
    ctx = ExecutionContext(view, params)
    ctx.var_labels = resolve_labels(plan, view.schema)
    state = PipelineState()
    for op in ops:
        dispatch(state, op, ctx)
    return state, ctx


class TestPointerJoin:
    def test_expand_produces_lazy_column(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeByIdSeek("p", "Person", lit(0)),
                Expand("p", "f", "KNOWS", Direction.OUT),
            ],
        )
        node = state.tree.node_of("f")
        column = node.block.column("f")
        assert isinstance(column, LazyNeighborColumn)
        assert not column.is_materialized

    def test_lazy_column_bytes_are_reference_sized(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeByIdSeek("p", "Person", lit(0)),
                Expand("p", "f", "KNOWS", Direction.OUT),
            ],
        )
        column = state.tree.node_of("f").block.column("f")
        assert column.nbytes == 16  # one (ptr, len) reference per parent entry

    def test_get_property_materializes(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeByIdSeek("p", "Person", lit(0)),
                Expand("p", "f", "KNOWS", Direction.OUT),
                GetProperty("f", "age", "age"),
            ],
        )
        assert state.tree.node_of("f").block.column("f").is_materialized

    def test_edge_props_use_general_path(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeByIdSeek("p", "Person", lit(0)),
                Expand("p", "f", "KNOWS", Direction.OUT, edge_props={"since": "since"}),
            ],
        )
        assert not isinstance(
            state.tree.node_of("f").block.column("f"), LazyNeighborColumn
        )

    def test_selection_prunes_expansion(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeScan("p", "Person"),
                GetProperty("p", "age", "age"),
                Filter(Col("age") > lit(100)),  # nobody passes
                Expand("p", "f", "KNOWS", Direction.OUT),
            ],
        )
        assert len(state.tree.node_of("f").block.column("f")) == 0


class TestFilter:
    def test_node_local_filter_updates_selection(self, micro_store):
        state, ctx = state_after(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                Filter(Col("len") > lit(125)),
            ],
        )
        node = state.tree.node_of("len")
        assert node.num_valid == 3
        assert ctx.stats.defactor_count == 0

    def test_multi_node_filter_defactors(self, micro_store):
        state, ctx = state_after(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                Expand("m", "c", "HAS_CREATOR", Direction.OUT, to_label="Person"),
                GetProperty("c", "age", "age"),
                Filter(Col("len") > Col("age")),
            ],
        )
        assert state.tree is None
        assert ctx.stats.defactor_count == 1

    def test_selective_get_property_skips_invalid(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                Filter(Col("len") > lit(125)),
                GetProperty("m", "id", "mid"),
            ],
        )
        node = state.tree.node_of("mid")
        values = node.block.column("mid").values()
        from repro.types import NULL_INT

        invalid = np.flatnonzero(~node.selection)
        assert all(values[i] == NULL_INT for i in invalid)


class TestAggregates:
    def test_plain_aggregate_defactors(self, micro_store):
        stats = ExecStats()
        run_fact(
            micro_store,
            [
                NodeScan("m", "Message"),
                Expand("m", "c", "HAS_CREATOR", Direction.OUT, to_label="Person"),
                GetProperty("c", "id", "cid"),
                Aggregate(["cid"], [AggSpec("n", "count")]),
            ],
            stats=stats,
        )
        assert stats.defactor_count == 1

    def test_fused_aggregate_stays_factorized(self, micro_store):
        stats = ExecStats()
        result = run_fact(
            micro_store,
            [
                NodeScan("p", "Person"),
                GetProperty("p", "id", "pid"),
                Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
                AggregateTopK(["pid"], [AggSpec("n", "count")], [("n", False), ("pid", True)], 3),
            ],
            returns=["pid", "n"],
            stats=stats,
        )
        assert stats.defactor_count == 0
        assert result.rows == [(2, 2), (3, 2), (1, 1)]

    def test_tuples_through_matches_counts(self, micro_store):
        state, _ = state_after(
            micro_store,
            [
                NodeScan("p", "Person"),
                Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
            ],
        )
        tree = state.tree
        through_root = tuples_through(tree, tree.root)
        # Persons 0 and 4... creators: p1:1, p2:2, p3:2, p4:1, p0:0.
        assert through_root.tolist() == [0, 1, 2, 2, 1]
        assert int(through_root.sum()) == tree.num_tuples()


class TestOrderByLimit:
    def ops(self):
        return [
            NodeScan("m", "Message"),
            GetProperty("m", "length", "len"),
            GetProperty("m", "id", "mid"),
            OrderBy([("len", False), ("mid", True)]),
            Limit(3),
        ]

    def test_node_local_order_limit_no_defactor(self, micro_store):
        stats = ExecStats()
        result = run_fact(micro_store, self.ops(), returns=["mid", "len"], stats=stats)
        assert result.rows == [(103, 200), (100, 140), (105, 130)]
        assert stats.defactor_count == 0

    def test_matches_flat(self, micro_store):
        plan = LogicalPlan(self.ops(), returns=["mid", "len"])
        flat = execute_flat(plan, micro_store.read_view())
        fact = execute_factorized(plan, micro_store.read_view())
        assert flat.rows == fact.rows

    def test_order_without_limit_defactors(self, micro_store):
        stats = ExecStats()
        result = run_fact(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                OrderBy([("len", True)]),
            ],
            returns=["len"],
            stats=stats,
        )
        assert [r[0] for r in result.rows] == [90, 120, 123, 130, 140, 200]
        assert stats.defactor_count == 1

    def test_multi_node_order_defactors(self, micro_store):
        stats = ExecStats()
        run_fact(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                Expand("m", "c", "HAS_CREATOR", Direction.OUT, to_label="Person"),
                GetProperty("c", "age", "age"),
                OrderBy([("len", True), ("age", True)]),
                Limit(2),
            ],
            stats=stats,
        )
        assert stats.defactor_count == 1

    def test_fused_top_k(self, micro_store):
        stats = ExecStats()
        result = run_fact(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                GetProperty("m", "id", "mid"),
                Project([("mid", Col("mid")), ("len", Col("len"))]),
                TopK([("len", False), ("mid", True)], 2),
            ],
            returns=["mid", "len"],
            stats=stats,
        )
        assert result.rows == [(103, 200), (100, 140)]
        assert stats.defactor_count == 0


class TestLimitAndDistinct:
    def test_limit_via_enumeration(self, micro_store):
        stats = ExecStats()
        result = run_fact(
            micro_store,
            [NodeScan("m", "Message"), GetProperty("m", "id", "mid"), Limit(2)],
            returns=["mid"],
            stats=stats,
        )
        assert result.rows == [(100,), (101,)]
        assert stats.defactor_count == 0

    def test_distinct_defactors(self, micro_store):
        stats = ExecStats()
        result = run_fact(
            micro_store,
            [
                NodeScan("p", "Person"),
                GetProperty("p", "firstName", "n"),
                Distinct(["n"]),
            ],
            stats=stats,
        )
        assert sorted(r[0] for r in result.rows) == ["A", "B", "C", "E"]
        assert stats.defactor_count == 1


class TestMemoryAdvantage:
    def test_factorized_peak_below_flat_on_fanout(self, micro_store):
        """The structural claim of the paper on a 2-hop expansion."""
        ops = [
            NodeByIdSeek("p", "Person", lit(0)),
            Expand("p", "f", "KNOWS", Direction.OUT, max_hops=2, exclude_start=True),
            Expand("f", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
            GetProperty("m", "length", "len"),
            Filter(Col("len") > lit(100)),
            GetProperty("m", "id", "mid"),
            Project([("mid", Col("mid")), ("len", Col("len"))]),
            OrderBy([("len", False), ("mid", True)]),
            Limit(2),
        ]
        plan = LogicalPlan(ops, returns=["mid", "len"])
        flat_stats, fact_stats = ExecStats(), ExecStats()
        flat = execute_flat(plan, micro_store.read_view(), stats=flat_stats)
        fact = execute_factorized(plan, micro_store.read_view(), stats=fact_stats)
        assert flat.rows == fact.rows
        assert fact_stats.peak_intermediate_bytes < flat_stats.peak_intermediate_bytes
