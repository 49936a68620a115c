"""Seeded random query / update-batch generation.

The generator walks a :class:`~repro.storage.catalog.GraphSchema` and emits
:class:`~repro.plan.logical.LogicalPlan` pipelines covering the executor
surface: seeks (hit and miss), scans, chained and multi-hop expands over
polymorphic edge names, optional match, edge-property projection, fused
neighbor filters, boolean filter trees, aggregation (also grouped on one
branch of two expands from the source), DISTINCT, ORDER BY and LIMIT.  A second entry point emits Cypher *text* for the subset the
frontend parses, so the differential oracle also exercises parse + bind +
plan-cache keying on query strings.

Everything is drawn from one stdlib :class:`random.Random`, so a seed fully
determines the output on every platform and across process restarts.

Cross-engine determinism rules baked into the generator (each engine is
free in how it orders NULLs and breaks ties, so the generator only emits
queries whose *bags* are engine-independent):

* ``ORDER BY`` keys are integer-typed, never NULL-bearing floats/strings;
* ``LIMIT`` is only attached when the sort keys cover every vertex
  variable (ties are then fully duplicate rows) and no edge-property
  column — the one column kind not functionally determined by the vertex
  variables — is returned; descending keys must be non-nullable;
* columns tainted by ``OPTIONAL MATCH`` never feed filters or sort keys
  (engines represent their NULLs differently mid-pipeline);
* ``sum``/``avg`` arguments are integer columns (exact arithmetic on every
  engine), ``group_by`` columns are never floats (NaN grouping).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..plan.expressions import (
    Arith,
    BoolOp,
    Cmp,
    Col,
    Expr,
    InSet,
    IsNull,
    Lit,
    Not,
    Param,
)
from ..plan.logical import (
    Aggregate,
    AggSpec,
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
)
from ..storage.catalog import Direction, GraphSchema
from ..storage.graph import VertexRef
from ..txn.transaction import TransactionManager
from ..types import DataType
from .graphgen import PK_STRIDE, PROFILES, GraphProfile, GraphSpec, _draw_value
from .plans import deserialize_plan, serialize_plan

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass
class GeneratedQuery:
    """One generated query: a plan, Cypher text, or both."""

    plan: LogicalPlan | None = None
    cypher: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    features: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "plan": serialize_plan(self.plan) if self.plan is not None else None,
            "cypher": self.cypher,
            "params": self.params,
            "features": self.features,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "GeneratedQuery":
        return cls(
            plan=deserialize_plan(data["plan"]) if data["plan"] is not None else None,
            cypher=data.get("cypher"),
            params=dict(data.get("params") or {}),
            features=list(data.get("features") or []),
        )

    def describe(self) -> str:
        if self.cypher is not None:
            return self.cypher
        assert self.plan is not None
        return " -> ".join(op.op_name for op in self.plan.ops)


@dataclass
class _ColumnInfo:
    name: str
    dtype: DataType
    tainted: bool  # produced under OPTIONAL MATCH (engine-specific NULL form)
    kind: str  # "var" | "prop" | "edge"


class QueryGenerator:
    """Draws random queries over one schema/graph."""

    def __init__(self, schema: GraphSchema, rng: random.Random) -> None:
        self.schema = schema
        self.rng = rng

    # -- plan-level generation ---------------------------------------------------

    def query(self, spec: GraphSpec) -> GeneratedQuery:
        """One random :class:`LogicalPlan` query valid over *spec*."""
        rng = self.rng
        ops: list[Any] = []
        features: list[str] = []
        params: dict[str, Any] = {}
        vars: dict[str, tuple[str, bool]] = {}  # name -> (label, tainted)
        columns: list[_ColumnInfo] = []
        counter = {"v": 0, "c": 0}

        def fresh(prefix: str) -> str:
            name = f"{prefix}{counter[prefix]}"
            counter[prefix] += 1
            return name

        # Source: scan, or a primary-key seek (sometimes deliberately missing).
        label = rng.choice(list(self.schema.vertex_labels))
        var = fresh("v")
        if rng.random() < 0.3:
            key = self._seek_key(spec, label)
            key_expr: Expr
            if rng.random() < 0.4:
                params["pk"] = key
                key_expr = Param("pk")
                features.append("param")
            else:
                key_expr = Lit(key)
            ops.append(NodeByIdSeek(var, label, key_expr))
            features.append("seek")
        else:
            ops.append(NodeScan(var, label))
            features.append("scan")
        vars[var] = (label, False)
        columns.append(_ColumnInfo(var, DataType.INT64, False, "var"))

        if rng.random() < 0.1:
            returns = self._branching_aggregate(spec, ops, var, vars, columns, fresh, features)
            if returns is not None:
                plan = LogicalPlan(ops, returns=returns, description="fuzz")
                return GeneratedQuery(plan=plan, params=params, features=features)

        # Expansion chain.
        for _ in range(rng.randint(0, 3)):
            step = self._draw_expand(spec, vars, columns, fresh, features)
            if step is None:
                break
            ops.append(step)

        # Mid-pipeline property fetches.
        for _ in range(rng.randint(0, 3)):
            fetch = self._draw_get_property(vars, fresh)
            if fetch is None:
                break
            ops.append(fetch)
            label, tainted = vars[fetch.var]
            dtype = self.schema.vertex_label(label).property(fetch.prop).dtype
            columns.append(_ColumnInfo(fetch.out, dtype, tainted, "prop"))
            features.append("get-property")

        # Filter over untainted columns.
        if rng.random() < 0.55:
            predicate = self._draw_predicate(spec, columns, params, features)
            if predicate is not None:
                ops.append(Filter(predicate))
                features.append("filter")

        returns = self._terminal(ops, columns, features)
        plan = LogicalPlan(ops, returns=returns, description="fuzz")
        return GeneratedQuery(plan=plan, params=params, features=features)

    # -- pieces -------------------------------------------------------------------

    def _seek_key(self, spec: GraphSpec, label: str) -> int:
        """An existing primary key most of the time, a missing one sometimes."""
        rng = self.rng
        stride = list(self.schema.vertex_labels).index(label) + 1
        n = spec.vertex_count(label)
        if n == 0 or rng.random() < 0.2:
            return stride * PK_STRIDE + n + rng.randint(50, 500)  # miss
        return stride * PK_STRIDE + rng.randrange(n)

    def _draw_expand(self, spec, vars, columns, fresh, features, from_var=None, optional_ok=True):
        rng = self.rng
        candidates = []
        for var, (label, tainted) in vars.items():
            # Never expand from an optional variable; *from_var* pins the source.
            if tainted or from_var not in (None, var):
                continue
            for edef in self.schema.iter_edge_definitions():
                if edef.src_label == label:
                    candidates.append((var, edef, Direction.OUT, edef.dst_label))
                if edef.dst_label == label:
                    candidates.append((var, edef, Direction.IN, edef.src_label))
        if not candidates:
            return None
        from_var, edef, direction, to_label = rng.choice(candidates)
        to_var = fresh("v")
        optional = optional_ok and rng.random() < 0.2
        multi_hop = (
            not optional
            and edef.src_label == edef.dst_label
            and rng.random() < 0.35
        )
        kwargs: dict[str, Any] = {
            "direction": direction,
            "to_label": to_label,
            "optional": optional,
        }
        if multi_hop:
            kwargs["min_hops"] = rng.randint(1, 2)
            kwargs["max_hops"] = rng.randint(kwargs["min_hops"], 3)
            features.append("multi-hop")
        elif edef.properties and rng.random() < 0.35:
            prop = rng.choice(edef.properties)
            out = fresh("c")
            kwargs["edge_props"] = {out: prop.name}
            columns.append(
                _ColumnInfo(out, prop.dtype, optional, "edge")
            )
            features.append("edge-props")
        if optional:
            features.append("optional")
        if direction is Direction.IN:
            features.append("expand-in")
        features.append("expand")
        vars[to_var] = (to_label, optional)
        columns.append(_ColumnInfo(to_var, DataType.INT64, optional, "var"))
        return Expand(from_var, to_var, edef.name, **kwargs)

    def _branching_aggregate(self, spec, ops, root, vars, columns, fresh, features):
        """Two expands from *root*, then an aggregate grouped on the first.

        The f-Tree branches and the aggregate's attributes live on a
        non-root node, so GES_f*'s fused AggregateTopK weights that node's
        entries by whole-tree tuple counts, sibling branch included (the
        sibling term of ``tuples_through``).  None when *root* has no edge.
        """
        rng = self.rng
        branches = []
        for _ in range(2):
            step = self._draw_expand(
                spec, vars, columns, fresh, features, from_var=root, optional_ok=False
            )
            if step is None:
                return None
            branches.append(step)
        ops.extend(branches)
        group, sibling = branches[0].to_var, branches[1].to_var
        if rng.random() < 0.5:
            # Deselects some sibling entries, so its range counts vary.
            ops.append(Filter(Cmp(rng.choice(_CMP_OPS), Col(sibling), Lit(rng.randint(0, 12)))))
            features.append("filter")
        fn = rng.choice(("count", "count_distinct", "sum", "min", "max", "avg"))
        ops.append(Aggregate([group], [AggSpec("a0", "count", None), AggSpec("a1", fn, group)]))
        # Group keys are unique vertex ids: the order and the cut are total.
        ops.append(OrderBy([(group, rng.random() < 0.7)]))
        ops.append(Limit(rng.randint(1, 6)))
        features += ["branch-aggregate", "aggregate", "order-by", "limit"]
        return [group, "a0", "a1"]

    def _draw_get_property(self, vars, fresh):
        rng = self.rng
        var = rng.choice(list(vars))
        label, tainted = vars[var]
        props = [
            p
            for p in self.schema.vertex_label(label).properties
            # BOOL NULLs have no optional-fill representation shared by the
            # row and block engines, so skip bools on tainted variables.
            if not (tainted and p.dtype is DataType.BOOL)
        ]
        if not props:
            return None
        prop = rng.choice(props)
        return GetProperty(var, prop.name, fresh("c"))

    def _draw_predicate(self, spec, columns, params, features) -> Expr | None:
        rng = self.rng
        usable = [c for c in columns if not c.tainted]
        if not usable:
            return None
        terms = [
            self._draw_term(spec, rng.choice(usable), params, features)
            for _ in range(rng.randint(1, 2))
        ]
        if len(terms) == 1:
            expr = terms[0]
        else:
            expr = BoolOp(rng.choice(("and", "or")), terms)
        if rng.random() < 0.15:
            expr = Not(expr)
        return expr

    def _draw_term(self, spec, info: _ColumnInfo, params, features) -> Expr:
        rng = self.rng
        col = Col(info.name)
        if rng.random() < 0.15:
            features.append("isnull")
            return IsNull(col, negate=rng.random() < 0.5)
        if info.kind == "var":
            return Cmp(rng.choice(_CMP_OPS), col, Lit(rng.randint(0, 12)))
        if info.dtype is DataType.STRING:
            literal = rng.choice(["a", "ab", "x", "zzz", ""])
            return Cmp(rng.choice(("==", "!=")), col, Lit(literal))
        if info.dtype is DataType.BOOL:
            return Cmp("==", col, Lit(rng.random() < 0.5))
        if info.dtype is DataType.FLOAT64:
            return Cmp(rng.choice(_CMP_OPS), col, Lit(round(rng.uniform(-5, 5), 2)))
        # Integer columns: comparisons, parameters, or set membership.
        if rng.random() < 0.2:
            features.append("inset")
            values = {rng.randint(-5, 60) for _ in range(rng.randint(2, 4))}
            return InSet(col, Lit(frozenset(values)), negate=rng.random() < 0.3)
        if rng.random() < 0.3:
            name = f"p{len(params)}"
            params[name] = rng.randint(-5, 60)
            features.append("param")
            return Cmp(rng.choice(_CMP_OPS), col, Param(name))
        return Cmp(rng.choice(_CMP_OPS), col, Lit(rng.randint(-5, 60)))

    # -- terminal shapes -----------------------------------------------------------

    def _terminal(self, ops, columns, features) -> list[str]:
        rng = self.rng
        shape = rng.choices(
            ("plain", "aggregate", "order", "distinct"), weights=(4, 3, 3, 1)
        )[0]
        if shape == "aggregate":
            out = self._terminal_aggregate(ops, columns, features)
            if out is not None:
                return out
            shape = "plain"
        if shape == "order":
            out = self._terminal_order(ops, columns, features)
            if out is not None:
                return out
            shape = "plain"
        if shape == "distinct":
            cols = [
                c.name
                for c in columns
                if not c.tainted and c.dtype in (DataType.INT64, DataType.STRING)
            ]
            if cols:
                keep = rng.sample(cols, rng.randint(1, len(cols)))
                ops.append(Distinct(keep))
                features.append("distinct")
                return keep
            shape = "plain"
        return self._terminal_plain(ops, columns, features)

    def _terminal_plain(self, ops, columns, features) -> list[str]:
        rng = self.rng
        names = [c.name for c in columns]
        keep = rng.sample(names, rng.randint(1, len(names)))
        if rng.random() < 0.3:
            items: list[tuple[str, Expr]] = [(name, Col(name)) for name in keep]
            ints = [
                c.name
                for c in columns
                if c.name in keep and not c.tainted
                and (c.kind == "var" or c.dtype is DataType.INT64)
            ]
            if ints:
                source = rng.choice(ints)
                items.append(
                    ("k0", Arith("+", Col(source), Lit(rng.randint(0, 5))))
                )
                features.append("arith")
            ops.append(Project(items))
            features.append("project")
            keep = [name for name, _ in items]
        return keep

    def _terminal_aggregate(self, ops, columns, features) -> list[str] | None:
        rng = self.rng
        group_pool = [
            c
            for c in columns
            if not c.tainted
            and (c.kind == "var" or c.dtype in (DataType.INT64, DataType.STRING, DataType.BOOL))
        ]
        group_by = [
            c.name for c in rng.sample(group_pool, min(rng.randint(0, 2), len(group_pool)))
        ]
        int_args = [
            c.name for c in columns if c.kind == "var" or c.dtype is DataType.INT64
        ]
        minmax_args = [
            c.name
            for c in columns
            if c.kind == "var" or c.dtype in (DataType.INT64, DataType.STRING)
        ]
        count_args = [
            c.name for c in columns if not (c.tainted and c.dtype is DataType.BOOL)
        ]
        aggs: list[AggSpec] = []
        for i in range(rng.randint(1, 2)):
            out = f"a{i}"
            fn = rng.choice(("count", "count", "count_distinct", "sum", "min", "max", "avg"))
            if fn == "count":
                arg = rng.choice([None] + count_args) if count_args else None
            elif fn in ("sum", "avg"):
                if not int_args:
                    fn, arg = "count", None
                else:
                    arg = rng.choice(int_args)
            elif fn in ("min", "max"):
                if not minmax_args:
                    fn, arg = "count", None
                else:
                    arg = rng.choice(minmax_args)
            else:  # count_distinct
                if not count_args:
                    fn, arg = "count", None
                else:
                    arg = rng.choice(count_args)
            aggs.append(AggSpec(out, fn, arg))
        ops.append(Aggregate(group_by, aggs))
        features.append("aggregate")
        returns = group_by + [a.out for a in aggs]

        if group_by and rng.random() < 0.6:
            # Sort over every group column (group keys are unique, so the
            # order — and any LIMIT cut — is total and engine-independent).
            by_name = {c.name: c for c in columns}
            keys = []
            limit_ok = True
            for name in rng.sample(group_by, len(group_by)):
                info = by_name[name]
                nullable = info.kind != "var"
                if info.dtype is DataType.STRING and nullable:
                    limit_ok = False  # string NULL ordering is engine-specific
                asc = True if nullable else rng.random() < 0.7
                keys.append((name, asc))
            ops.append(OrderBy(keys))
            features.append("order-by")
            if limit_ok and rng.random() < 0.6:
                ops.append(Limit(rng.randint(1, 6)))
                features.append("limit")
        return returns

    def _terminal_order(self, ops, columns, features) -> list[str] | None:
        rng = self.rng
        int_cols = [
            c
            for c in columns
            if not c.tainted and (c.kind == "var" or c.dtype is DataType.INT64)
        ]
        if not int_cols:
            return None
        var_cols = [c for c in columns if c.kind == "var"]
        any_tainted = any(c.tainted for c in columns)
        want_limit = rng.random() < 0.6 and not any_tainted
        if want_limit:
            # Keys must cover every variable so surviving ties are duplicate
            # rows; edge-property columns are not functions of the variables,
            # so they must not be returned under a LIMIT.
            keys = [(c.name, rng.random() < 0.7) for c in rng.sample(var_cols, len(var_cols))]
            key_names = {name for name, _ in keys}
            extra = [
                c.name
                for c in columns
                if c.kind != "edge" and c.name not in key_names and rng.random() < 0.5
            ]
            returns = sorted(key_names) + extra
            ops.append(OrderBy(keys))
            ops.append(Limit(rng.randint(1, 8)))
            features += ["order-by", "limit"]
            return returns
        keys = [
            (c.name, rng.random() < 0.7)
            for c in rng.sample(int_cols, rng.randint(1, min(2, len(int_cols))))
        ]
        ops.append(OrderBy(keys))
        features.append("order-by")
        key_names = [name for name, _ in keys]
        extra = [
            c.name for c in columns if c.name not in key_names and rng.random() < 0.4
        ]
        return key_names + extra

    # -- Cypher-text generation ------------------------------------------------------

    def cypher_query(self, spec: GraphSpec) -> GeneratedQuery:
        """A random query as Cypher text (frontend + plan-cache coverage)."""
        rng = self.rng
        params: dict[str, Any] = {}
        features = ["cypher"]
        label = rng.choice(
            [l for l in self.schema.vertex_labels if spec.vertex_count(l)]
            or list(self.schema.vertex_labels)
        )
        vdef = self.schema.vertex_label(label)
        pattern = f"(a:{label}"
        if rng.random() < 0.4:
            key = self._seek_key(spec, label)
            if rng.random() < 0.5:
                params["pk"] = key
                pattern += f" {{{vdef.primary_key}: $pk}}"
                features.append("param")
            else:
                pattern += f" {{{vdef.primary_key}: {key}}}"
            features.append("seek")
        pattern += ")"

        vars: list[tuple[str, str]] = [("a", label)]
        current = label
        for i in range(rng.randint(0, 2)):
            outgoing = [
                e for e in self.schema.iter_edge_definitions() if e.src_label == current
            ]
            incoming = [
                e for e in self.schema.iter_edge_definitions() if e.dst_label == current
            ]
            if not outgoing and not incoming:
                break
            use_out = bool(outgoing) and (not incoming or rng.random() < 0.6)
            edef = rng.choice(outgoing if use_out else incoming)
            next_label = edef.dst_label if use_out else edef.src_label
            var = f"v{i}"
            hops = ""
            if use_out and edef.src_label == edef.dst_label and rng.random() < 0.3:
                lo = rng.randint(1, 2)
                hops = f"*{lo}..{rng.randint(lo, 3)}"
                features.append("multi-hop")
            arrow = (
                f"-[:{edef.name}{hops}]->" if use_out else f"<-[:{edef.name}]-"
            )
            pattern += f"{arrow}({var}:{next_label})"
            vars.append((var, next_label))
            current = next_label
            features.append("expand")

        where = ""
        if rng.random() < 0.5:
            var, vlabel = rng.choice(vars)
            int_props = [
                p
                for p in self.schema.vertex_label(vlabel).properties
                if p.dtype is DataType.INT64
            ]
            if int_props:
                prop = rng.choice(int_props)
                clause = rng.choice(
                    [
                        # Non-negative literals only: the frontend grammar has
                        # no unary minus.
                        f"{var}.{prop.name} {rng.choice(('<', '>', '<=', '>='))} {rng.randint(0, 60)}",
                        f"{var}.{prop.name} IS NOT NULL",
                    ]
                )
                where = f" WHERE {clause}"
                features.append("filter")

        shape = rng.random()
        if shape < 0.3:
            returns = ", ".join(f"id({v}) AS i_{v}" for v, _ in vars)
            order = ", ".join(f"i_{v}" + (" DESC" if rng.random() < 0.3 else "") for v, _ in vars)
            text = (
                f"MATCH {pattern}{where} RETURN {returns} "
                f"ORDER BY {order} LIMIT {rng.randint(1, 8)}"
            )
            features += ["order-by", "limit"]
        elif shape < 0.55:
            text = f"MATCH {pattern}{where} RETURN count(*) AS n"
            features.append("aggregate")
        else:
            var, vlabel = rng.choice(vars)
            props = list(self.schema.vertex_label(vlabel).properties)
            prop = rng.choice(props)
            returns = f"id({vars[0][0]}) AS i0, {var}.{prop.name} AS p0"
            text = f"MATCH {pattern}{where} RETURN {returns}"
        return GeneratedQuery(cypher=text, params=params, features=features)


# -- update batches (IU-style write mixes) -----------------------------------------


@dataclass
class UpdateBatch:
    """A staged write mix applied as ONE transaction (all-or-nothing)."""

    ops: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {"ops": self.ops}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "UpdateBatch":
        return cls(ops=list(data["ops"]))

    def apply(self, manager: TransactionManager) -> int:
        """Stage every op in one transaction and commit; returns the version."""
        txn = manager.begin()
        try:
            for op in self.ops:
                kind = op["kind"]
                if kind == "add_vertex":
                    txn.add_vertex(op["label"], op["props"])
                elif kind == "add_edge":
                    txn.add_edge(
                        op["edge_label"],
                        VertexRef(op["src_label"], op["src_row"]),
                        VertexRef(op["dst_label"], op["dst_row"]),
                        op.get("props") or {},
                    )
                elif kind == "remove_edge":
                    txn.remove_edge(
                        op["edge_label"],
                        VertexRef(op["src_label"], op["src_row"]),
                        VertexRef(op["dst_label"], op["dst_row"]),
                    )
                elif kind == "set_prop":
                    txn.set_vertex_property(
                        op["label"], op["row"], op["name"], op["value"]
                    )
                else:
                    raise ValueError(f"unknown update op {kind!r}")
            return txn.commit()
        except BaseException:
            if not txn._done:
                txn.abort()
            raise


class UpdateGenerator:
    """Draws randomized IU-style update batches against a growing graph.

    The generator tracks row counts and live edges itself so batches stay
    valid as earlier batches commit.
    """

    def __init__(
        self,
        schema: GraphSchema,
        rng: random.Random,
        spec: GraphSpec,
        profile: GraphProfile | str = "default",
    ) -> None:
        self.schema = schema
        self.rng = rng
        self.profile = PROFILES[profile] if isinstance(profile, str) else profile
        self._counts = {label: spec.vertex_count(label) for label in schema.vertex_labels}
        self._base = dict(self._counts)  # counts committed before current batch
        self._edges: list[dict[str, Any]] = []
        for group in spec.edges:
            for src, dst in zip(group["src"], group["dst"]):
                self._edges.append(
                    {
                        "edge_label": group["label"],
                        "src_label": group["src_label"],
                        "src_row": src,
                        "dst_label": group["dst_label"],
                        "dst_row": dst,
                    }
                )

    def batch(self, size: int | None = None) -> UpdateBatch:
        rng = self.rng
        size = size if size is not None else rng.randint(1, 6)
        # Edges and property writes may only target rows that exist *before*
        # this batch commits: copy-on-write pre-images are captured before
        # same-batch vertex inserts apply.
        self._base = dict(self._counts)
        ops: list[dict[str, Any]] = []
        for _ in range(size):
            ops.append(self._draw_op())
        return UpdateBatch(ops)

    def _draw_op(self) -> dict[str, Any]:
        rng = self.rng
        kind = rng.choices(
            ("add_vertex", "add_edge", "remove_edge", "set_prop"),
            weights=(2, 4, 1, 3),
        )[0]
        if kind == "remove_edge" and not self._edges:
            kind = "add_edge"
        if kind == "add_vertex":
            labels = list(self.schema.vertex_labels)
            label = rng.choice(labels)
            vdef = self.schema.vertex_label(label)
            stride = labels.index(label) + 1
            row = self._counts[label]
            props: dict[str, Any] = {}
            for prop in vdef.properties:
                if prop.name == vdef.primary_key:
                    props[prop.name] = stride * PK_STRIDE + row
                else:
                    props[prop.name] = _draw_value(rng, prop.dtype, self.profile)
            self._counts[label] = row + 1
            return {"kind": "add_vertex", "label": label, "props": props}
        if kind == "add_edge":
            usable = [
                e
                for e in self.schema.iter_edge_definitions()
                if self._base[e.src_label] and self._base[e.dst_label]
            ]
            if not usable:
                return self._fallback_set_prop()
            edef = rng.choice(usable)
            op = {
                "kind": "add_edge",
                "edge_label": edef.name,
                "src_label": edef.src_label,
                "src_row": rng.randrange(self._base[edef.src_label]),
                "dst_label": edef.dst_label,
                "dst_row": rng.randrange(self._base[edef.dst_label]),
                "props": {
                    p.name: _draw_value(rng, p.dtype, self.profile)
                    for p in edef.properties
                },
            }
            self._edges.append({k: op[k] for k in (
                "edge_label", "src_label", "src_row", "dst_label", "dst_row"
            )})
            return op
        if kind == "remove_edge":
            edge = self._edges.pop(rng.randrange(len(self._edges)))
            return {"kind": "remove_edge", **edge}
        return self._fallback_set_prop()

    def _fallback_set_prop(self) -> dict[str, Any]:
        rng = self.rng
        labels = [l for l in self.schema.vertex_labels if self._base[l]]
        if not labels:
            # Degenerate all-empty graph: stage a vertex instead.
            return self._draw_vertex_insert()
        label = rng.choice(labels)
        vdef = self.schema.vertex_label(label)
        props = [p for p in vdef.properties if p.name != vdef.primary_key]
        if not props:
            return self._draw_vertex_insert()
        prop = rng.choice(props)
        return {
            "kind": "set_prop",
            "label": label,
            "row": rng.randrange(self._base[label]),
            "name": prop.name,
            "value": _draw_value(rng, prop.dtype, self.profile),
        }

    def _draw_vertex_insert(self) -> dict[str, Any]:
        labels = list(self.schema.vertex_labels)
        label = self.rng.choice(labels)
        vdef = self.schema.vertex_label(label)
        stride = labels.index(label) + 1
        row = self._counts[label]
        props = {
            p.name: (
                stride * PK_STRIDE + row
                if p.name == vdef.primary_key
                else _draw_value(self.rng, p.dtype, self.profile)
            )
            for p in vdef.properties
        }
        self._counts[label] = row + 1
        return {"kind": "add_vertex", "label": label, "props": props}
