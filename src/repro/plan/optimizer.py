"""Rule-based plan rewrites: the operator-fusion optimizations of GES_f*
(paper §4.3, "Operator Fusion").

Three rules, applied in a fixed order:

* **FilterPushDown** — folds a Filter (and the GetProperty ops feeding it)
  into the producing Expand, so rejected neighbors never enter the f-Block.
  This is the paper's example of moving the ``msg.len > 125`` filter behind
  the message expansion.
* **AggregateProjectTop** — fuses Aggregate [+ Project] + OrderBy + Limit
  into one streaming operator (hash aggregation + bounded heap), the fusion
  the paper credits for IC5/IC6.
* **TopK** — fuses OrderBy + Limit into a bounded-heap top-k.

The paper's seek-then-expand fusion has no rule of its own: NodeByIdSeek
starts a one-vertex f-Tree and the Expand after it already reaches the
neighbor set directly, so fusing the two would save one operator dispatch
and nothing else.

Every rule is semantics-preserving; ``tests/test_optimizer.py`` and the
variant-equivalence suite check rewritten plans against unrewritten ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .expressions import BoolOp
from .logical import (
    Aggregate,
    AggregateTopK,
    Expand,
    Filter,
    GetProperty,
    Limit,
    LogicalOp,
    LogicalPlan,
    OrderBy,
    Project,
    TopK,
)

RewriteRule = Callable[[LogicalPlan], LogicalPlan]


def filter_push_down(plan: LogicalPlan) -> LogicalPlan:
    """Fold Filters into the Expand that produces their columns."""
    ops = list(plan.ops)
    changed = True
    while changed:
        changed = False
        for i, op in enumerate(ops):
            if not isinstance(op, Filter):
                continue
            rewrite = _try_fuse_filter(ops, i)
            if rewrite is not None:
                ops = rewrite
                changed = True
                break
    return plan.with_ops(ops)


def _try_fuse_filter(ops: list[LogicalOp], filter_idx: int) -> list[LogicalOp] | None:
    """Attempt to fuse ops[filter_idx] into an earlier Expand."""
    filter_op = ops[filter_idx]
    assert isinstance(filter_op, Filter)
    needed = filter_op.expr.columns()

    # Walk backwards collecting GetProperty producers until we hit the Expand.
    getters: dict[str, GetProperty] = {}
    j = filter_idx - 1
    while j >= 0:
        op = ops[j]
        if isinstance(op, GetProperty):
            getters[op.out] = op
            j -= 1
            continue
        break
    if j < 0 or not isinstance(ops[j], Expand):
        return None
    expand = ops[j]
    assert isinstance(expand, Expand)
    if expand.is_multi_hop or expand.optional:
        return None

    # Every filtered column must be available *during* the expansion:
    # the destination variable itself, an edge property projected by the
    # expand, or a property of the destination vertex fetched right after.
    available = {expand.to_var} | set(expand.edge_props) | set(expand.neighbor_props)
    fused_getters: list[GetProperty] = []
    for name in needed:
        if name in available:
            continue
        getter = getters.get(name)
        if getter is None or getter.var != expand.to_var:
            return None
        fused_getters.append(getter)

    new_expand = replace(
        expand,
        edge_props=dict(expand.edge_props),
        neighbor_props={
            **expand.neighbor_props,
            **{g.out: g.prop for g in fused_getters},
        },
        neighbor_filter=(
            filter_op.expr
            if expand.neighbor_filter is None
            else BoolOp("and", [expand.neighbor_filter, filter_op.expr])
        ),
    )
    out: list[LogicalOp] = []
    fused_ids = {id(g) for g in fused_getters}
    for k, op in enumerate(ops):
        if k == filter_idx or id(op) in fused_ids:
            continue
        out.append(new_expand if k == j else op)
    return out


def aggregate_project_top(plan: LogicalPlan) -> LogicalPlan:
    """Fuse Aggregate [+ Project] + OrderBy + Limit into AggregateTopK."""
    ops = list(plan.ops)
    for i, op in enumerate(ops):
        if not isinstance(op, Aggregate):
            continue
        j = i + 1
        project: Project | None = None
        if j < len(ops) and isinstance(ops[j], Project):
            project = ops[j]  # type: ignore[assignment]
            j += 1
        if j + 1 >= len(ops) + 1:
            continue
        if j < len(ops) and isinstance(ops[j], OrderBy) and j + 1 < len(ops) and isinstance(
            ops[j + 1], Limit
        ):
            order = ops[j]
            limit = ops[j + 1]
            assert isinstance(order, OrderBy) and isinstance(limit, Limit)
            if project is not None and not _project_is_post_aggregate(project, op):
                continue
            fused = AggregateTopK(
                group_by=list(op.group_by),
                aggs=list(op.aggs),
                keys=list(order.keys),
                n=limit.n,
                project_items=list(project.items) if project is not None else None,
            )
            return plan.with_ops(ops[:i] + [fused] + ops[j + 2 :])
    return plan


def _project_is_post_aggregate(project: Project, aggregate: Aggregate) -> bool:
    produced = set(aggregate.group_by) | {a.out for a in aggregate.aggs}
    for _, expr in project.items:
        if not expr.columns() <= produced:
            return False
    return True


def top_k(plan: LogicalPlan) -> LogicalPlan:
    """Fuse OrderBy immediately followed by Limit into TopK."""
    ops: list[LogicalOp] = []
    i = 0
    while i < len(plan.ops):
        op = plan.ops[i]
        nxt = plan.ops[i + 1] if i + 1 < len(plan.ops) else None
        if isinstance(op, OrderBy) and isinstance(nxt, Limit):
            ops.append(TopK(list(op.keys), nxt.n))
            i += 2
            continue
        ops.append(op)
        i += 1
    return plan.with_ops(ops)


#: Rule order matters: pushdown first (it needs the raw
#: Expand/GetProperty shape), then the aggregation/top-k fusions.
DEFAULT_RULES: list[RewriteRule] = [
    filter_push_down,
    aggregate_project_top,
    top_k,
]


def optimize(plan: LogicalPlan, rules: list[RewriteRule] | None = None) -> LogicalPlan:
    """Apply fusion rules, producing the GES_f* physical pipeline."""
    for rule in rules if rules is not None else DEFAULT_RULES:
        plan = rule(plan)
    return plan
