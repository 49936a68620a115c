"""Logical operator pipeline — the IR handed from the frontend/optimizer to
the executors (paper §2.1, §4.3).

A :class:`LogicalPlan` is a linear pipeline of unary operators, matching the
paper's execution examples (Fig. 8): a seek/scan source, a chain of Expand /
GetProperty / Filter steps, then Project / Aggregate / OrderBy / Limit.
Binary patterns the LDBC workload needs (semi/anti joins against a computed
vertex set) are expressed as :class:`Filter` with ``InSet`` expressions over
a prior stage's result, which is how the reference LDBC implementations
structure them too.

The same plan object executes on every engine variant: flat (GES),
factorized (GES_f), and fused (GES_f*); the fused operators
(:class:`TopK`, :class:`AggregateTopK`, Expand with ``neighbor_filter``)
are produced by :mod:`repro.plan.optimizer` rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import PlanError
from ..storage.catalog import Direction, GraphSchema
from .expressions import Expr


class LogicalOp:
    """Base class for pipeline operators."""

    @property
    def op_name(self) -> str:
        return type(self).__name__


@dataclass
class NodeByIdSeek(LogicalOp):
    """Locate one vertex by its primary-key property (paper's NodeByIdSeek)."""

    var: str
    label: str
    key: Expr


@dataclass
class NodeScan(LogicalOp):
    """Scan all live vertices of one label."""

    var: str
    label: str


@dataclass
class NodeByRows(LogicalOp):
    """Start the pipeline from a precomputed row set bound as a parameter.

    Used to glue multi-stage LDBC queries together: stage N+1 starts from
    vertex rows stage N computed.
    """

    var: str
    label: str
    rows_param: str


@dataclass
class Expand(LogicalOp):
    """Traverse an edge label from ``from_var`` to new variable ``to_var``.

    ``min_hops``/``max_hops`` support variable-length patterns
    (``KNOWS*1..2``); multi-hop expansion always deduplicates reached
    vertices and optionally excludes the start set, which is the LDBC
    "friends and friends of friends" semantics.

    ``edge_props`` projects edge properties onto output columns during the
    expansion (they are aligned with the adjacency slots, so fetching them
    later would be impossible).

    ``neighbor_filter`` / ``neighbor_props`` are populated by the
    FilterPushDown fusion rule: the predicate is evaluated against neighbor
    vertex properties *during* expansion so rejected neighbors never enter
    the intermediate result.
    """

    from_var: str
    to_var: str
    edge_label: str
    direction: Direction = Direction.OUT
    min_hops: int = 1
    max_hops: int = 1
    to_label: str | None = None
    exclude_start: bool = False
    optional: bool = False
    edge_props: dict[str, str] = field(default_factory=dict)
    neighbor_filter: Expr | None = None
    neighbor_props: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_hops < 1 or self.max_hops < self.min_hops:
            raise PlanError(
                f"invalid hop range {self.min_hops}..{self.max_hops} on Expand"
            )
        if self.max_hops > 1 and self.edge_props:
            raise PlanError("edge properties cannot be projected across multi-hop Expand")
        if self.optional and self.max_hops > 1:
            raise PlanError("optional Expand must be single-hop")

    @property
    def is_multi_hop(self) -> bool:
        return self.max_hops > 1


@dataclass
class GetProperty(LogicalOp):
    """Append a vertex property of ``var`` as output column ``out``."""

    var: str
    prop: str
    out: str


@dataclass
class Filter(LogicalOp):
    """Keep tuples satisfying a boolean expression."""

    expr: Expr


@dataclass
class Project(LogicalOp):
    """Restrict/compute the output schema: ``items`` are (name, expr)."""

    items: list[tuple[str, Expr]]


@dataclass
class AggSpec:
    """One aggregate: ``fn`` over ``arg`` (None = count(*)), named ``out``."""

    out: str
    fn: str  # count | count_distinct | sum | min | max | avg
    arg: str | None = None

    _FNS = ("count", "count_distinct", "sum", "min", "max", "avg")

    def __post_init__(self) -> None:
        if self.fn not in self._FNS:
            raise PlanError(f"unknown aggregate function {self.fn!r}")
        if self.fn != "count" and self.arg is None:
            raise PlanError(f"aggregate {self.fn} requires an argument column")


@dataclass
class Aggregate(LogicalOp):
    """Group-by + aggregates."""

    group_by: list[str]
    aggs: list[AggSpec]


@dataclass
class OrderBy(LogicalOp):
    """Multi-key sort; keys are (column, ascending)."""

    keys: list[tuple[str, bool]]


@dataclass
class Limit(LogicalOp):
    n: int


@dataclass
class Distinct(LogicalOp):
    """Distinct over ``cols`` (None = whole schema), projecting onto them."""

    cols: list[str] | None = None


@dataclass
class ProcedureCall(LogicalOp):
    """Stored-procedure source (IC13/IC14 shortest-path style operators).

    The procedure runs directly against the graph read view; its output is a
    flat block.  Per the paper (Table 2 note), intermediate data inside a
    procedure is not factorizable and is excluded from memory accounting.
    """

    name: str
    args: dict[str, Expr] = field(default_factory=dict)


# -- fused operators (created by the optimizer, paper §4.3) --------------------


@dataclass
class TopK(LogicalOp):
    """Fused OrderBy+Limit: bounded-heap top-k over streamed tuples."""

    keys: list[tuple[str, bool]]
    n: int


@dataclass
class AggregateTopK(LogicalOp):
    """Fused Aggregate → Project → OrderBy → Limit (AggregateProjectTop).

    Streams the enumeration into a hash table, then selects the top-k
    groups — no flat block is ever materialized.
    """

    group_by: list[str]
    aggs: list[AggSpec]
    keys: list[tuple[str, bool]]
    n: int
    project_items: list[tuple[str, Expr]] | None = None


@dataclass
class LogicalPlan:
    """A linear pipeline plus the ordered output schema."""

    ops: list[LogicalOp]
    returns: list[str] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.ops:
            raise PlanError("a plan needs at least one operator")

    def with_ops(self, ops: Sequence[LogicalOp]) -> "LogicalPlan":
        return LogicalPlan(list(ops), self.returns, self.description)


def resolve_labels(plan: LogicalPlan, schema: GraphSchema) -> dict[str, str]:
    """Map every vertex variable in *plan* to its label.

    Raises :class:`PlanError` when an Expand's destination label is
    ambiguous and not pinned with ``to_label``.
    """
    labels: dict[str, str] = {}
    for op in plan.ops:
        if isinstance(op, (NodeByIdSeek, NodeScan, NodeByRows)):
            labels[op.var] = op.label
        elif isinstance(op, Expand):
            if op.from_var not in labels:
                raise PlanError(f"Expand from unbound variable {op.from_var!r}")
            if op.to_label is not None:
                labels[op.to_var] = op.to_label
                continue
            keys = schema.expand_keys(op.edge_label, op.direction, labels[op.from_var])
            destinations = {k.dst_label for k in keys}
            if len(destinations) != 1:
                raise PlanError(
                    f"ambiguous destination for Expand[{op.edge_label}] "
                    f"from {labels[op.from_var]!r}: {sorted(destinations)}"
                )
            labels[op.to_var] = next(iter(destinations))
    return labels


def plan_summary(plan: LogicalPlan) -> str:
    """One-line operator chain, for logs and test assertions."""
    return " -> ".join(op.op_name for op in plan.ops)
