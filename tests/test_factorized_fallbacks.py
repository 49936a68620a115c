"""Tests pinning the factorized executor's fallback decision points:
pending-order flushes, AggregateTopK over multi-node groups (a narrow
materialize feeding the aggregate kernel), and block-based continuation
after de-factoring."""

import numpy as np
import pytest

from repro.baselines.volcano import VolcanoEngine
from repro.exec import ExecStats, execute_factorized, execute_flat
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
    lit,
)
from repro.storage.catalog import Direction


def both(store, ops, returns=None, params=None, stats=None):
    plan = LogicalPlan(ops, returns=returns)
    flat = execute_flat(plan, store.read_view(), params)
    fact = execute_factorized(plan, store.read_view(), params, stats)
    assert flat.rows == fact.rows
    return fact


class TestPendingOrderFlush:
    def test_order_then_filter_flushes_sorted(self, micro_store):
        """A non-Limit operator after a node-local OrderBy must apply the
        deferred sort before continuing block-based."""
        stats = ExecStats()
        result = both(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                GetProperty("m", "id", "mid"),
                OrderBy([("len", True)]),
                Filter(Col("len") > lit(100)),
            ],
            returns=["mid", "len"],
            stats=stats,
        )
        lengths = [r[1] for r in result.rows]
        assert lengths == sorted(lengths)
        assert stats.defactor_count == 1

    def test_order_then_end_of_plan_flushes(self, micro_store):
        result = both(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                OrderBy([("len", False)]),
            ],
            returns=["len"],
        )
        assert [r[0] for r in result.rows] == [200, 140, 130, 123, 120, 90]

    def test_order_then_limit_covering_everything(self, micro_store):
        result = both(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                OrderBy([("len", True)]),
                Limit(100),
            ],
            returns=["len"],
        )
        assert len(result.rows) == 6

    def test_ordered_limit_with_upstream_filter(self, micro_store):
        stats = ExecStats()
        result = both(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                Filter(Col("len") >= lit(123)),
                GetProperty("m", "id", "mid"),
                OrderBy([("len", True), ("mid", True)]),
                Limit(2),
            ],
            returns=["mid", "len"],
            stats=stats,
        )
        assert result.rows == [(101, 123), (105, 130)]
        assert stats.defactor_count == 0


class TestStreamingAggregateTopK:
    def test_multi_node_group_keys_stream(self, micro_store):
        """Group keys spanning nodes cannot use index-vector counting; the
        fused operator materializes just the group/argument attributes
        instead — still without a recorded de-factor."""
        stats = ExecStats()
        result = both(
            micro_store,
            [
                NodeScan("p", "Person"),
                GetProperty("p", "firstName", "name"),
                Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
                GetProperty("m", "length", "len"),
                AggregateTopK(
                    ["name"],
                    [AggSpec("n", "count"), AggSpec("longest", "max", "len")],
                    [("n", False), ("name", True)],
                    3,
                ),
            ],
            returns=["name", "n", "longest"],
            stats=stats,
        )
        assert [(r[0], r[1]) for r in result.rows] == [("B", 3), ("C", 2), ("E", 1)]
        assert result.rows[0][2] == 200  # longest message by a "B"
        assert stats.defactor_count == 0

    def test_streaming_aggregate_min_avg_distinct(self, micro_store):
        """The cross-node aggregate: group key and argument live in different
        f-Tree nodes, so only those attributes are materialized before the
        aggregate kernel runs — checked against the Volcano reference."""
        ops = [
            NodeScan("p", "Person"),
            GetProperty("p", "firstName", "name"),
            Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message"),
            GetProperty("m", "length", "len"),
            AggregateTopK(
                ["name"],
                [
                    AggSpec("lo", "min", "len"),
                    AggSpec("mean", "avg", "len"),
                    AggSpec("d", "count_distinct", "len"),
                ],
                [("name", True)],
                10,
            ),
        ]
        returns = ["name", "lo", "mean", "d"]
        stats = ExecStats()
        result = both(micro_store, ops, returns=returns, stats=stats)
        reference = VolcanoEngine(micro_store).execute(LogicalPlan(ops, returns=returns))
        assert result.rows == reference.rows
        by_name = {r[0]: r for r in result.rows}
        assert by_name["C"][1] == 120  # min(123, 120)
        assert by_name["C"][3] == 2
        assert stats.defactor_count == 0  # a narrow materialize, not a de-factor

    def test_global_aggregate_top_k(self, micro_store):
        result = both(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                AggregateTopK([], [AggSpec("total", "sum", "len")], [("total", True)], 1),
            ],
            returns=["total"],
        )
        assert result.rows == [(803,)]


class TestBlockBasedContinuation:
    def test_many_ops_after_defactor(self, micro_store):
        """Once flat, the whole remaining pipeline runs block-based."""
        stats = ExecStats()
        result = both(
            micro_store,
            [
                NodeScan("m", "Message"),
                GetProperty("m", "length", "len"),
                Expand("m", "c", "HAS_CREATOR", Direction.OUT, to_label="Person"),
                GetProperty("c", "age", "age"),
                Filter(Col("len") > Col("age")),  # spans nodes -> de-factor
                Project([("score", Col("len") - Col("age")), ("age", Col("age"))]),
                Filter(Col("score") > lit(90)),
                OrderBy([("score", False)]),
                Limit(3),
            ],
            returns=["score", "age"],
            stats=stats,
        )
        assert stats.defactor_count == 1
        scores = [r[0] for r in result.rows]
        assert scores == sorted(scores, reverse=True)

    def test_vertex_expand_feeding_multi_hop(self, micro_store):
        from repro.plan import VertexExpand

        result = both(
            micro_store,
            [
                VertexExpand(
                    "p", "Person", lit(0),
                    Expand("p", "f", "KNOWS", Direction.OUT, max_hops=2,
                           exclude_start=True),
                ),
                GetProperty("f", "id", "fid"),
                Project([("fid", Col("fid"))]),
                OrderBy([("fid", True)]),
            ],
            returns=["fid"],
        )
        assert [r[0] for r in result.rows] == [1, 2, 3, 4]
