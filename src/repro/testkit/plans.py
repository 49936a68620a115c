"""Logical-plan / expression JSON serde.

Corpus entries must be self-contained: a failing (graph, query) pair is
stored as plain JSON and rebuilt years later without the generator that
produced it.  This module round-trips every operator and expression the
query generator emits (and the full executor surface, fused operators
included) through ``dict`` payloads.

NaN literals survive the trip: Python's :mod:`json` writes the ``NaN``
token and reads it back by default.
"""

from __future__ import annotations

from typing import Any

from ..errors import PlanError
from ..plan.expressions import (
    Arith,
    BoolOp,
    Cmp,
    Col,
    Expr,
    Func,
    InSet,
    IsNull,
    Lit,
    Not,
    Param,
)
from ..plan.logical import (
    Aggregate,
    AggregateTopK,
    AggSpec,
    Distinct,
    Expand,
    Filter,
    GetProperty,
    Limit,
    LogicalOp,
    LogicalPlan,
    NodeByIdSeek,
    NodeByRows,
    NodeScan,
    OrderBy,
    ProcedureCall,
    Project,
    TopK,
)
from ..storage.catalog import Direction

_LIT_TYPES = (bool, int, float, str, type(None))


def serialize_expr(expr: Expr) -> dict[str, Any]:
    """One expression node as a plain dict (recursing into operands)."""
    if isinstance(expr, Col):
        return {"kind": "col", "name": expr.name}
    if isinstance(expr, Lit):
        if isinstance(expr.value, (frozenset, set, tuple, list)):
            # Set/sequence literals (InSet operands): canonical sorted list.
            container = "frozenset" if isinstance(expr.value, (frozenset, set)) else "tuple"
            items = list(expr.value)
            if not all(isinstance(v, _LIT_TYPES) for v in items):
                raise PlanError(f"literal {expr.value!r} is not JSON-serializable")
            try:
                items = sorted(items)
            except TypeError:
                items = sorted(items, key=repr)
            return {"kind": "lit", "value": items, "container": container}
        if not isinstance(expr.value, _LIT_TYPES):
            raise PlanError(f"literal {expr.value!r} is not JSON-serializable")
        return {"kind": "lit", "value": expr.value}
    if isinstance(expr, Param):
        return {"kind": "param", "name": expr.name}
    if isinstance(expr, Cmp):
        return {
            "kind": "cmp",
            "op": expr.op,
            "left": serialize_expr(expr.left),
            "right": serialize_expr(expr.right),
        }
    if isinstance(expr, BoolOp):
        return {
            "kind": "bool",
            "op": expr.op,
            "operands": [serialize_expr(o) for o in expr.operands],
        }
    if isinstance(expr, Not):
        return {"kind": "not", "operand": serialize_expr(expr.operand)}
    if isinstance(expr, Arith):
        return {
            "kind": "arith",
            "op": expr.op,
            "left": serialize_expr(expr.left),
            "right": serialize_expr(expr.right),
        }
    if isinstance(expr, InSet):
        return {
            "kind": "inset",
            "operand": serialize_expr(expr.operand),
            "values": serialize_expr(expr.values),
            "negate": expr.negate,
        }
    if isinstance(expr, IsNull):
        return {
            "kind": "isnull",
            "operand": serialize_expr(expr.operand),
            "negate": expr.negate,
        }
    if isinstance(expr, Func):
        return {
            "kind": "func",
            "name": expr.name,
            "args": [serialize_expr(a) for a in expr.args],
        }
    raise PlanError(f"cannot serialize expression {expr!r}")


def deserialize_expr(data: dict[str, Any]) -> Expr:
    """Inverse of :func:`serialize_expr`."""
    kind = data["kind"]
    if kind == "col":
        return Col(data["name"])
    if kind == "lit":
        container = data.get("container")
        if container == "frozenset":
            return Lit(frozenset(data["value"]))
        if container == "tuple":
            return Lit(tuple(data["value"]))
        return Lit(data["value"])
    if kind == "param":
        return Param(data["name"])
    if kind == "cmp":
        return Cmp(
            data["op"], deserialize_expr(data["left"]), deserialize_expr(data["right"])
        )
    if kind == "bool":
        return BoolOp(data["op"], [deserialize_expr(o) for o in data["operands"]])
    if kind == "not":
        return Not(deserialize_expr(data["operand"]))
    if kind == "arith":
        return Arith(
            data["op"], deserialize_expr(data["left"]), deserialize_expr(data["right"])
        )
    if kind == "inset":
        return InSet(
            deserialize_expr(data["operand"]),
            deserialize_expr(data["values"]),
            negate=data["negate"],
        )
    if kind == "isnull":
        return IsNull(deserialize_expr(data["operand"]), negate=data["negate"])
    if kind == "func":
        return Func(data["name"], [deserialize_expr(a) for a in data["args"]])
    raise PlanError(f"unknown expression kind {kind!r}")


def serialize_op(op: LogicalOp) -> dict[str, Any]:
    """One pipeline operator as a plain dict."""
    if isinstance(op, NodeByIdSeek):
        return {
            "op": "NodeByIdSeek",
            "var": op.var,
            "label": op.label,
            "key": serialize_expr(op.key),
        }
    if isinstance(op, NodeScan):
        return {"op": "NodeScan", "var": op.var, "label": op.label}
    if isinstance(op, NodeByRows):
        return {
            "op": "NodeByRows",
            "var": op.var,
            "label": op.label,
            "rows_param": op.rows_param,
        }
    if isinstance(op, Expand):
        return {
            "op": "Expand",
            "from_var": op.from_var,
            "to_var": op.to_var,
            "edge_label": op.edge_label,
            "direction": op.direction.value,
            "min_hops": op.min_hops,
            "max_hops": op.max_hops,
            "to_label": op.to_label,
            "exclude_start": op.exclude_start,
            "optional": op.optional,
            "edge_props": dict(op.edge_props),
            "neighbor_filter": (
                serialize_expr(op.neighbor_filter)
                if op.neighbor_filter is not None
                else None
            ),
            "neighbor_props": dict(op.neighbor_props),
        }
    if isinstance(op, GetProperty):
        return {"op": "GetProperty", "var": op.var, "prop": op.prop, "out": op.out}
    if isinstance(op, Filter):
        return {"op": "Filter", "expr": serialize_expr(op.expr)}
    if isinstance(op, Project):
        return {
            "op": "Project",
            "items": [[name, serialize_expr(expr)] for name, expr in op.items],
        }
    if isinstance(op, Aggregate):
        return {
            "op": "Aggregate",
            "group_by": list(op.group_by),
            "aggs": [[a.out, a.fn, a.arg] for a in op.aggs],
        }
    if isinstance(op, AggregateTopK):
        return {
            "op": "AggregateTopK",
            "group_by": list(op.group_by),
            "aggs": [[a.out, a.fn, a.arg] for a in op.aggs],
            "keys": [[name, asc] for name, asc in op.keys],
            "n": op.n,
            "project_items": (
                [[name, serialize_expr(expr)] for name, expr in op.project_items]
                if op.project_items is not None
                else None
            ),
        }
    if isinstance(op, OrderBy):
        return {"op": "OrderBy", "keys": [[name, asc] for name, asc in op.keys]}
    if isinstance(op, TopK):
        return {
            "op": "TopK",
            "keys": [[name, asc] for name, asc in op.keys],
            "n": op.n,
        }
    if isinstance(op, Limit):
        return {"op": "Limit", "n": op.n}
    if isinstance(op, Distinct):
        return {"op": "Distinct", "cols": list(op.cols) if op.cols is not None else None}
    if isinstance(op, ProcedureCall):
        return {
            "op": "ProcedureCall",
            "name": op.name,
            "args": {name: serialize_expr(expr) for name, expr in op.args.items()},
        }
    raise PlanError(f"cannot serialize operator {op.op_name}")


def deserialize_op(data: dict[str, Any]) -> LogicalOp:
    """Inverse of :func:`serialize_op`."""
    name = data["op"]
    if name == "NodeByIdSeek":
        return NodeByIdSeek(data["var"], data["label"], deserialize_expr(data["key"]))
    if name == "NodeScan":
        return NodeScan(data["var"], data["label"])
    if name == "NodeByRows":
        return NodeByRows(data["var"], data["label"], data["rows_param"])
    if name == "Expand":
        return Expand(
            data["from_var"],
            data["to_var"],
            data["edge_label"],
            direction=Direction(data["direction"]),
            min_hops=data["min_hops"],
            max_hops=data["max_hops"],
            to_label=data["to_label"],
            exclude_start=data["exclude_start"],
            optional=data["optional"],
            edge_props=dict(data["edge_props"]),
            neighbor_filter=(
                deserialize_expr(data["neighbor_filter"])
                if data["neighbor_filter"] is not None
                else None
            ),
            neighbor_props=dict(data["neighbor_props"]),
        )
    if name == "GetProperty":
        return GetProperty(data["var"], data["prop"], data["out"])
    if name == "Filter":
        return Filter(deserialize_expr(data["expr"]))
    if name == "Project":
        return Project([(n, deserialize_expr(e)) for n, e in data["items"]])
    if name == "Aggregate":
        return Aggregate(
            list(data["group_by"]), [AggSpec(out, fn, arg) for out, fn, arg in data["aggs"]]
        )
    if name == "AggregateTopK":
        return AggregateTopK(
            list(data["group_by"]),
            [AggSpec(out, fn, arg) for out, fn, arg in data["aggs"]],
            [(n, asc) for n, asc in data["keys"]],
            data["n"],
            project_items=(
                [(n, deserialize_expr(e)) for n, e in data["project_items"]]
                if data["project_items"] is not None
                else None
            ),
        )
    if name == "OrderBy":
        return OrderBy([(n, asc) for n, asc in data["keys"]])
    if name == "TopK":
        return TopK([(n, asc) for n, asc in data["keys"]], data["n"])
    if name == "Limit":
        return Limit(data["n"])
    if name == "Distinct":
        return Distinct(list(data["cols"]) if data["cols"] is not None else None)
    if name == "ProcedureCall":
        return ProcedureCall(
            data["name"],
            {n: deserialize_expr(e) for n, e in data["args"].items()},
        )
    raise PlanError(f"unknown operator kind {name!r}")


def serialize_plan(plan: LogicalPlan) -> dict[str, Any]:
    """A whole plan as a JSON-ready dict."""
    return {
        "ops": [serialize_op(op) for op in plan.ops],
        "returns": list(plan.returns) if plan.returns is not None else None,
        "description": plan.description,
    }


def deserialize_plan(data: dict[str, Any]) -> LogicalPlan:
    """Inverse of :func:`serialize_plan`."""
    return LogicalPlan(
        [deserialize_op(op) for op in data["ops"]],
        returns=list(data["returns"]) if data["returns"] is not None else None,
        description=data.get("description", ""),
    )
