"""Tests for logical plan construction and label resolution."""

import pytest

from repro.errors import PlanError
from repro.plan import (
    AggSpec,
    Expand,
    GetProperty,
    Limit,
    LogicalPlan,
    NodeByIdSeek,
    NodeScan,
    OrderBy,
    lit,
    plan_summary,
    resolve_labels,
)
from repro.storage.catalog import Direction


class TestValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError):
            LogicalPlan([])

    def test_invalid_hop_range(self):
        with pytest.raises(PlanError):
            Expand("a", "b", "E", Direction.OUT, min_hops=2, max_hops=1)

    def test_zero_min_hops_rejected(self):
        with pytest.raises(PlanError):
            Expand("a", "b", "E", Direction.OUT, min_hops=0, max_hops=1)

    def test_edge_props_on_multi_hop_rejected(self):
        with pytest.raises(PlanError):
            Expand("a", "b", "E", Direction.OUT, max_hops=2, edge_props={"x": "y"})

    def test_optional_multi_hop_rejected(self):
        with pytest.raises(PlanError):
            Expand("a", "b", "E", Direction.OUT, max_hops=2, optional=True)

    def test_unknown_aggregate_fn(self):
        with pytest.raises(PlanError):
            AggSpec("out", "median", "x")

    def test_aggregate_arg_required(self):
        with pytest.raises(PlanError):
            AggSpec("out", "sum", None)

    def test_count_star_allowed(self):
        assert AggSpec("out", "count", None).arg is None


class TestResolveLabels:
    def test_seek_and_expand(self, micro_schema):
        plan = LogicalPlan(
            [
                NodeByIdSeek("p", "Person", lit(0)),
                Expand("p", "f", "KNOWS", Direction.OUT),
                Expand("f", "m", "HAS_CREATOR", Direction.IN),
            ]
        )
        labels = resolve_labels(plan, micro_schema)
        assert labels == {"p": "Person", "f": "Person", "m": "Message"}

    def test_unbound_expand_rejected(self, micro_schema):
        plan = LogicalPlan([Expand("ghost", "x", "KNOWS", Direction.OUT)])
        with pytest.raises(PlanError):
            resolve_labels(plan, micro_schema)

    def test_explicit_to_label_wins(self, micro_schema):
        plan = LogicalPlan(
            [
                NodeScan("m", "Message"),
                Expand("m", "t", "HAS_TAG", Direction.OUT, to_label="Tag"),
            ]
        )
        assert resolve_labels(plan, micro_schema)["t"] == "Tag"


class TestSummary:
    def test_plan_summary(self, micro_schema):
        plan = LogicalPlan(
            [
                NodeByIdSeek("p", "Person", lit(0)),
                GetProperty("p", "age", "age"),
                OrderBy([("age", True)]),
                Limit(5),
            ]
        )
        assert plan_summary(plan) == "NodeByIdSeek -> GetProperty -> OrderBy -> Limit"
