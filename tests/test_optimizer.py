"""Tests for the operator-fusion rewrite rules (paper §4.3)."""

import pytest

from repro.plan import (
    AggSpec,
    Aggregate,
    AggregateTopK,
    Col,
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
    param,
)
from repro.plan.optimizer import (
    aggregate_project_top,
    filter_push_down,
    top_k,
)
from repro.storage.catalog import Direction


def seek_expand_ops():
    return [
        NodeByIdSeek("p", "Person", param("pid")),
        Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
    ]


class TestFilterPushDown:
    def test_filter_over_fetched_property_fuses(self):
        plan = LogicalPlan(
            seek_expand_ops()
            + [
                GetProperty("m", "length", "len"),
                Filter(Col("len") > lit(100)),
            ]
        )
        out = filter_push_down(plan)
        names = [op.op_name for op in out.ops]
        assert "Filter" not in names
        assert "GetProperty" not in names
        expand = out.ops[1]
        assert expand.neighbor_filter is not None
        assert expand.neighbor_props == {"len": "length"}

    def test_filter_on_to_var_itself_fuses(self):
        plan = LogicalPlan(seek_expand_ops() + [Filter(Col("m") > lit(0))])
        out = filter_push_down(plan)
        assert [op.op_name for op in out.ops] == ["NodeByIdSeek", "Expand"]

    def test_multi_hop_not_fused(self):
        plan = LogicalPlan(
            [
                NodeByIdSeek("p", "Person", param("pid")),
                Expand("p", "f", "KNOWS", Direction.OUT, max_hops=2, exclude_start=True),
                GetProperty("f", "age", "age"),
                Filter(Col("age") > lit(18)),
            ]
        )
        out = filter_push_down(plan)
        assert any(op.op_name == "Filter" for op in out.ops)

    def test_filter_spanning_two_vars_not_fused(self):
        plan = LogicalPlan(
            seek_expand_ops()
            + [
                GetProperty("p", "age", "pAge"),
                GetProperty("m", "length", "len"),
                Filter((Col("len") > Col("pAge"))),
            ]
        )
        out = filter_push_down(plan)
        assert any(op.op_name == "Filter" for op in out.ops)

    def test_two_filters_both_fuse(self):
        plan = LogicalPlan(
            seek_expand_ops()
            + [
                GetProperty("m", "length", "len"),
                Filter(Col("len") > lit(10)),
                Filter(Col("m") > lit(0)),
            ]
        )
        out = filter_push_down(plan)
        assert not any(op.op_name == "Filter" for op in out.ops)


class TestTopK:
    def test_order_limit_fused(self):
        plan = LogicalPlan(
            [NodeScan("p", "Person"), OrderBy([("p", True)]), Limit(5)]
        )
        out = top_k(plan)
        assert isinstance(out.ops[1], TopK)
        assert out.ops[1].n == 5

    def test_order_without_limit_untouched(self):
        plan = LogicalPlan([NodeScan("p", "Person"), OrderBy([("p", True)])])
        out = top_k(plan)
        assert [op.op_name for op in out.ops] == ["NodeScan", "OrderBy"]


class TestAggregateProjectTop:
    def ops(self, with_project=True):
        ops = [
            NodeScan("p", "Person"),
            GetProperty("p", "age", "age"),
            Aggregate(["age"], [AggSpec("cnt", "count")]),
        ]
        if with_project:
            ops.append(Project([("age", Col("age")), ("cnt", Col("cnt"))]))
        ops += [OrderBy([("cnt", False)]), Limit(3)]
        return ops

    def test_fused_with_project(self):
        out = aggregate_project_top(LogicalPlan(self.ops(True)))
        fused = [op for op in out.ops if isinstance(op, AggregateTopK)]
        assert len(fused) == 1
        assert fused[0].project_items is not None
        assert fused[0].n == 3

    def test_fused_without_project(self):
        out = aggregate_project_top(LogicalPlan(self.ops(False)))
        assert any(isinstance(op, AggregateTopK) for op in out.ops)

    def test_project_with_external_column_blocks_fusion(self):
        ops = [
            NodeScan("p", "Person"),
            GetProperty("p", "age", "age"),
            GetProperty("p", "id", "pid"),
            Aggregate(["age"], [AggSpec("cnt", "count")]),
            Project([("other", Col("pid"))]),
            OrderBy([("other", True)]),
            Limit(3),
        ]
        out = aggregate_project_top(LogicalPlan(ops))
        assert not any(isinstance(op, AggregateTopK) for op in out.ops)


class TestEndToEndSemantics:
    def test_optimized_plan_equals_unoptimized(self, micro_engines):
        """The full rule set must not change results (paper Fig. 8 query)."""
        from repro.plan import LogicalPlan

        ops = [
            NodeByIdSeek("p", "Person", param("pid")),
            Expand("p", "f", "KNOWS", Direction.OUT, max_hops=2, exclude_start=True),
            Expand("f", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
            GetProperty("m", "length", "len"),
            Filter(Col("len") > lit(110)),
            GetProperty("m", "id", "mid"),
            Project([("mid", Col("mid")), ("len", Col("len"))]),
            OrderBy([("len", False), ("mid", True)]),
            Limit(3),
        ]
        plan = LogicalPlan(ops, returns=["mid", "len"])
        optimized = optimize(plan)
        assert plan_has_fusions(optimized)
        engine = micro_engines["GES_f*"]
        baseline = micro_engines["GES"]
        assert (
            engine.execute(plan, {"pid": 0}).rows
            == baseline.execute(plan, {"pid": 0}).rows
        )


def plan_has_fusions(plan: LogicalPlan) -> bool:
    names = {op.op_name for op in plan.ops}
    return "TopK" in names or "AggregateTopK" in names
