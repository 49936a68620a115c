"""A Volcano-style tuple-at-a-time row executor — the competitor stand-in.

The paper's §6.3 comparison targets systems (Neo4j, AgensGraph, GraphDB,
PostgreSQL-based stacks) whose executors "process graph data in a
relational manner, with operators digesting inputs and generating results
as sets of tuples".  Those systems cannot run offline here, so this module
implements that architecture faithfully instead: every operator consumes
and produces Python row dictionaries one tuple at a time, with no columnar
batching, no factorization, and per-tuple property lookups.  It executes
the exact same logical plans and the same 29 LDBC queries as the GES
variants, so Figure 15 / Table 4 compare *architectures* on equal ground.

See DESIGN.md ("Substitutions") for why this preserves the paper's claim
shape.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..engine.config import EngineConfig
from ..errors import ExecutionError
from ..exec.base import ExecStats, QueryResult
from ..obs.clock import now
from ..exec.procedures import get_procedure
from ..resilience.watchdog import Deadline, current_deadline, deadline_scope
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
    resolve_labels,
)
from ..storage.graph import GraphReadView, GraphStore
from ..txn.transaction import Transaction, TransactionManager
from ..types import is_null

Row = dict[str, Any]

#: Rough per-value footprint of a Python dict row (pointer + box overhead),
#: used for the intermediate-size accounting.
_VALUE_BYTES = 64


class VolcanoEngine:
    """Engine facade with the same surface the LDBC queries use."""

    def __init__(self, store: GraphStore) -> None:
        self.store = store
        self.txn_manager = TransactionManager(store)
        self.config = EngineConfig(name="Volcano", executor="volcano", optimizer="none")

    @property
    def variant(self) -> str:
        return "Volcano"

    def plan(self, query: LogicalPlan) -> LogicalPlan:
        return query  # no rewrites: flat relational pipeline as-is

    def read_view(self) -> GraphReadView:
        if self.txn_manager.versions.current() > 0:
            return self.txn_manager.read_view()
        return self.txn_manager.latest_view()

    def transaction(self) -> Transaction:
        return self.txn_manager.begin()

    def execute(
        self,
        plan: LogicalPlan,
        params: Mapping[str, Any] | None = None,
        view: GraphReadView | None = None,
        stats: ExecStats | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        params = dict(params or {})
        stats = stats if stats is not None else ExecStats()
        view = view if view is not None else self.read_view()
        labels = resolve_labels(plan, view.schema)
        started = now()
        rows: list[Row] = []
        explicit = Deadline.after(timeout) if timeout is not None else None
        with deadline_scope(explicit) as deadline:
            for op in plan.ops:
                if deadline is not None:
                    deadline.check()
                op_start = now()
                rows = _dispatch(rows, op, view, params, labels)
                width = len(rows[0]) if rows else 0
                stats.record_op(
                    op.op_name, now() - op_start, len(rows) * width * _VALUE_BYTES
                )
        stats.total_seconds += now() - started
        columns = plan.returns or (list(rows[0].keys()) if rows else [])
        # NULLs are already Python None throughout the row pipeline — the
        # storage layer surfaces validity natively, so no sentinel scrubbing
        # happens at the result boundary.
        out = [tuple(row[c] for c in columns) for row in rows]
        stats.rows_out = len(out)
        return QueryResult(columns, out, stats)


def _dispatch(
    rows: list[Row],
    op: LogicalOp,
    view: GraphReadView,
    params: dict[str, Any],
    labels: dict[str, str],
) -> list[Row]:
    if isinstance(op, NodeByIdSeek):
        row = view.vertex_by_key(op.label, int(op.key.eval_row({}, params)))
        return [{op.var: row}] if row is not None else []
    if isinstance(op, NodeScan):
        return [{op.var: int(r)} for r in view.all_rows(op.label)]
    if isinstance(op, NodeByRows):
        return [{op.var: int(r)} for r in params[op.rows_param]]
    if isinstance(op, ProcedureCall):
        args = {name: expr.eval_row({}, params) for name, expr in op.args.items()}
        block = get_procedure(op.name)(view, args)
        return [dict(zip(block.schema, row)) for row in block.rows()]
    if isinstance(op, Expand):
        return _expand(rows, op, view, params, labels)
    if isinstance(op, GetProperty):
        label = labels[op.var]
        out = []
        for row in rows:
            vertex = row[op.var]
            if vertex is None:
                value = None
            else:
                value = view.get_property(label, int(vertex), op.prop)
            out.append({**row, op.out: value})
        return out
    if isinstance(op, Filter):
        return [row for row in rows if op.expr.eval_row(row, params)]
    if isinstance(op, Project):
        return [
            {name: expr.eval_row(row, params) for name, expr in op.items} for row in rows
        ]
    if isinstance(op, Aggregate):
        return _aggregate(rows, op.group_by, op.aggs, params)
    if isinstance(op, OrderBy):
        return _sort(rows, op.keys)
    if isinstance(op, Limit):
        return rows[: op.n]
    if isinstance(op, Distinct):
        cols = op.cols if op.cols is not None else (list(rows[0]) if rows else [])
        seen: set[tuple] = set()
        out = []
        for row in rows:
            key = tuple(row[c] for c in cols)
            if key not in seen:
                seen.add(key)
                out.append({c: row[c] for c in cols})
        return out
    if isinstance(op, TopK):
        return _sort(rows, op.keys)[: op.n]
    if isinstance(op, AggregateTopK):
        out = _aggregate(rows, op.group_by, op.aggs, params)
        if op.project_items is not None:
            out = [
                {name: expr.eval_row(row, params) for name, expr in op.project_items}
                for row in out
            ]
        return _sort(out, op.keys)[: op.n]
    raise ExecutionError(f"volcano executor cannot handle {op.op_name}")


def _expand(
    rows: list[Row],
    op: Expand,
    view: GraphReadView,
    params: dict[str, Any],
    labels: dict[str, str],
) -> list[Row]:
    from_label = labels[op.from_var]
    keys = view.schema.expand_keys(op.edge_label, op.direction, from_label, op.to_label)
    # Tuple-at-a-time expansion is the engine's long pole, so the ambient
    # deadline is ticked per source tuple (strided), not just per operator.
    deadline = current_deadline()
    out: list[Row] = []
    for row in rows:
        if deadline is not None:
            deadline.tick()
        source = row[op.from_var]
        matched = False
        if source is not None:
            for neighbor_row in _neighbors(view, keys, int(source), op, params):
                out.append({**row, **neighbor_row})
                matched = True
        if op.optional and not matched:
            filler: Row = {op.to_var: None}
            for name in op.edge_props:
                filler[name] = None
            for name in op.neighbor_props:
                filler[name] = None
            out.append({**row, **filler})
    return out


def _neighbors(
    view: GraphReadView,
    keys: list,
    source: int,
    op: Expand,
    params: dict[str, Any],
) -> Iterator[Row]:
    to_label = op.to_label
    if op.is_multi_hop:
        seen = {source}
        frontier = [source]
        reached: list[int] = []
        for depth in range(1, op.max_hops + 1):
            next_frontier: list[int] = []
            for current in frontier:
                for key in keys:
                    for neighbor in view.neighbors(key, current):
                        neighbor = int(neighbor)
                        if neighbor in seen:
                            continue
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
                        if depth >= op.min_hops:
                            reached.append(neighbor)
            frontier = next_frontier
        for vertex in sorted(reached):
            yield {op.to_var: vertex}
        return
    for key in keys:
        adjacency = view.adjacency(key)
        for slot in view.neighbor_slots(key, source):
            target = adjacency.target_at(int(slot))
            candidate: Row = {op.to_var: target}
            for out_name, prop in op.edge_props.items():
                candidate[out_name] = adjacency.prop_at(prop, int(slot))
            for out_name, prop in op.neighbor_props.items():
                candidate[out_name] = view.get_property(
                    to_label or key.dst_label, target, prop
                )
            if op.neighbor_filter is not None and not op.neighbor_filter.eval_row(
                candidate, params
            ):
                continue
            yield candidate


def _aggregate(
    rows: list[Row], group_by: list[str], aggs: list[AggSpec], params: dict[str, Any]
) -> list[Row]:
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        groups.setdefault(tuple(row[g] for g in group_by), []).append(row)
    if not group_by and not groups:
        groups[()] = []
    out: list[Row] = []
    for key, members in groups.items():
        result: Row = dict(zip(group_by, key))
        for agg in aggs:
            result[agg.out] = _eval_agg(agg, members)
        out.append(result)
    return out


def _eval_agg(agg: AggSpec, members: list[Row]) -> Any:
    if agg.fn == "count" and agg.arg is None:
        return len(members)
    # NULLs (None from the validity-aware storage reads and optional fills,
    # or a NaN float) are skipped — the same mask the block-based
    # aggregation applies.
    values = [row[agg.arg] for row in members if not is_null(row.get(agg.arg))]
    if agg.fn == "count":
        return len(values)
    if agg.fn == "count_distinct":
        return len(set(values))
    if not values:
        return None if agg.fn != "sum" else 0
    if agg.fn == "sum":
        return sum(values)
    if agg.fn == "min":
        return min(values)
    if agg.fn == "max":
        return max(values)
    if agg.fn == "avg":
        return sum(values) / len(values)
    raise ExecutionError(f"unknown aggregate {agg.fn!r}")


class _Desc:
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


def _sort(rows: list[Row], keys: list[tuple[str, bool]]) -> list[Row]:
    def value_key(value: Any) -> tuple:
        # None (optional fill) is not comparable to concrete values; rank
        # NULLs as a class of their own, before every non-NULL value.
        return (0, 0) if is_null(value) else (1, value)

    def sort_key(row: Row) -> tuple:
        return tuple(
            value_key(row[name]) if ascending else _Desc(value_key(row[name]))
            for name, ascending in keys
        )

    return sorted(rows, key=sort_key)
