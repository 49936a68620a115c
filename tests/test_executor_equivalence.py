"""Cross-engine equivalence: flat, factorized, fused, and Volcano must agree.

Random pipelines are generated over the micro schema with hypothesis; each
one runs on all four engines (the fused variant through the full optimizer)
and the result row lists must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.volcano import VolcanoEngine
from repro.exec import execute_factorized, execute_flat
from repro.plan import (
    AggSpec,
    Aggregate,
    BoolOp,
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
    lit,
    optimize,
)
from repro.storage.catalog import Direction

from tests.conftest import build_micro_store

STORE = build_micro_store()
VOLCANO = VolcanoEngine(STORE)


def _comparable(rows: list[tuple]) -> list[tuple]:
    """NaN is not equal to itself; stand a marker in for it that is, and
    that is still distinct from NULL (None)."""
    return [tuple("NaN" if v != v else v for v in row) for row in rows]


def run_everywhere(plan: LogicalPlan, params=None) -> None:
    view = STORE.read_view()
    flat = _comparable(execute_flat(plan, view, params).rows)
    fact = _comparable(execute_factorized(plan, view, params).rows)
    fused = _comparable(execute_factorized(optimize(plan), view, params).rows)
    volcano = _comparable(VOLCANO.execute(plan, params).rows)
    assert fact == flat, f"factorized != flat: {fact} vs {flat}"
    assert fused == flat, f"fused != flat: {fused} vs {flat}"
    assert volcano == flat, f"volcano != flat: {volcano} vs {flat}"


# -- random plan strategy ---------------------------------------------------------


@st.composite
def random_plans(draw) -> tuple[LogicalPlan, dict]:
    ops = []
    start_kind = draw(st.sampled_from(["seek", "scan"]))
    if start_kind == "seek":
        ops.append(NodeByIdSeek("p", "Person", lit(draw(st.integers(0, 5)))))
    else:
        ops.append(NodeScan("p", "Person"))

    current_var, current_label = "p", "Person"
    fetched: list[tuple[str, str]] = []  # (column, dtype kind)

    for step in range(draw(st.integers(0, 3))):
        choice = draw(st.sampled_from(["knows", "messages", "prop", "filter"]))
        if choice == "knows" and current_label == "Person":
            hops = draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]))
            to_var = f"f{step}"
            ops.append(
                Expand(current_var, to_var, "KNOWS", Direction.OUT,
                       min_hops=hops[0], max_hops=hops[1],
                       exclude_start=hops[1] > 1)
            )
            current_var, current_label = to_var, "Person"
        elif choice == "messages" and current_label == "Person":
            to_var = f"m{step}"
            ops.append(
                Expand(current_var, to_var, "HAS_CREATOR", Direction.IN,
                       to_label="Message")
            )
            current_var, current_label = to_var, "Message"
        elif choice == "prop":
            if current_label == "Person":
                prop = draw(st.sampled_from(["age", "id"]))
            else:
                prop = draw(st.sampled_from(["length", "id"]))
            out = f"{current_var}_{prop}"
            if all(c != out for c, _ in fetched):
                ops.append(GetProperty(current_var, prop, out))
                fetched.append((out, "int"))
        elif choice == "filter" and fetched:
            column = draw(st.sampled_from([c for c, _ in fetched]))
            threshold = draw(st.integers(0, 150))
            direction = draw(st.booleans())
            expr = Col(column) > lit(threshold) if direction else Col(column) <= lit(threshold)
            ops.append(Filter(expr))

    # A deterministic tail: fetch an id, sort by it, maybe limit/distinct.
    ops.append(GetProperty(current_var, "id", "sort_id"))
    tail = draw(st.sampled_from(["sort", "sort_limit", "distinct", "aggregate"]))
    if tail == "sort":
        ops.append(OrderBy([("sort_id", draw(st.booleans()))]))
        returns = ["sort_id"]
    elif tail == "sort_limit":
        ops.append(OrderBy([("sort_id", draw(st.booleans()))]))
        ops.append(Limit(draw(st.integers(1, 5))))
        returns = ["sort_id"]
    elif tail == "distinct":
        ops.append(Distinct(["sort_id"]))
        ops.append(OrderBy([("sort_id", True)]))
        returns = ["sort_id"]
    else:
        ops.append(Aggregate([], [AggSpec("n", "count"),
                                  AggSpec("lo", "min", "sort_id")]))
        returns = ["n", "lo"]
    return LogicalPlan(ops, returns=returns), {}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_plans())
def test_random_plans_agree(plan_and_params):
    plan, params = plan_and_params
    run_everywhere(plan, params)


# -- targeted equivalence scenarios ---------------------------------------------------


def test_paper_figure8_query_on_all_engines():
    plan = LogicalPlan(
        [
            NodeByIdSeek("p", "Person", lit(0)),
            Expand("p", "f", "KNOWS", Direction.OUT, max_hops=2, exclude_start=True),
            Expand("f", "msg", "HAS_CREATOR", Direction.IN, to_label="Message"),
            GetProperty("f", "id", "fid"),
            GetProperty("msg", "id", "mid"),
            GetProperty("msg", "length", "len"),
            Filter(Col("len") > lit(125)),
            Project([("fid", Col("fid")), ("mid", Col("mid")), ("len", Col("len"))]),
            OrderBy([("len", False), ("fid", True)]),
            Limit(2),
        ],
        returns=["fid", "mid", "len"],
    )
    run_everywhere(plan)


AGGREGATES = ["count(*)", "count", "sum", "min", "max", "avg", "count_distinct"]


@pytest.mark.parametrize("arg", ["len", "age", "active", "score"])
@pytest.mark.parametrize("rows", ["inner", "null-bearing", "empty"])
@pytest.mark.parametrize("group_by", [[], ["name"]], ids=["ungrouped", "grouped"])
@pytest.mark.parametrize("fn", AGGREGATES)
def test_grouped_aggregate_on_all_engines(fn, group_by, rows, arg):
    """Every aggregate function, ungrouped and grouped, over three inputs:
    plain rows, a NULL-bearing argument column with one all-NULL group (the
    optional expand leaves person "A" without a message), and no rows at
    all.  ``age`` sits on the person node, so the fused plan aggregates it
    weighted by tuple multiplicity; ``len`` sits on the message node, so a
    grouped aggregate over it spans f-Tree nodes.  ``active`` is a BOOL
    with an all-False group, and ``score`` a float with a group of
    [-inf, +inf] (its sum and avg are NaN, not NULL) and a group of one
    +inf."""
    ops = [
        NodeScan("p", "Person"),
        GetProperty("p", "firstName", "name"),
        GetProperty("p", "age", "age"),
        GetProperty("p", "active", "active"),
        Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message",
               optional=rows == "null-bearing"),
        GetProperty("m", "length", "len"),
        GetProperty("m", "score", "score"),
    ]
    if rows == "empty":
        ops.append(Filter(Col("len") > lit(10_000)))
    agg = AggSpec("out", "count") if fn == "count(*)" else AggSpec("out", fn, arg)
    ops += [
        Aggregate(group_by, [agg]),
        OrderBy([(name, True) for name in group_by] + [("out", True)]),
        Limit(100),  # lets the optimizer fuse AggregateTopK
    ]
    run_everywhere(LogicalPlan(ops, returns=group_by + ["out"]))


def test_multi_node_conjunction_filter_on_all_engines():
    plan = LogicalPlan(
        [
            NodeScan("m", "Message"),
            GetProperty("m", "length", "len"),
            Expand("m", "t", "HAS_TAG", Direction.OUT, to_label="Tag"),
            GetProperty("t", "name", "tag"),
            Filter(BoolOp("and", [Col("len") > lit(100), Col("tag") == lit("x")])),
            GetProperty("m", "id", "mid"),
            Project([("mid", Col("mid")), ("tag", Col("tag"))]),
            OrderBy([("mid", True)]),
        ],
        returns=["mid", "tag"],
    )
    run_everywhere(plan)


def test_optional_expand_on_all_engines():
    plan = LogicalPlan(
        [
            NodeScan("p", "Person"),
            Expand("p", "m", "HAS_CREATOR", Direction.IN, to_label="Message",
                   optional=True),
            GetProperty("p", "id", "pid"),
            GetProperty("m", "id", "mid"),
            Project([("pid", Col("pid")), ("mid", Col("mid"))]),
            OrderBy([("pid", True), ("mid", True)]),
        ],
        returns=["pid", "mid"],
    )
    view = STORE.read_view()
    flat = execute_flat(plan, view).rows
    fact = execute_factorized(plan, view).rows
    volcano = VOLCANO.execute(plan).rows
    assert flat == fact == volcano
    assert (0, None) in flat  # person 0 authored nothing
