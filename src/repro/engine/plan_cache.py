"""Parameterized query plan cache for the engine service.

The LDBC SNB workload — like most production graph-service traffic — is a
small set of parameterized query templates fired over and over, so the
parse → bind → optimize pipeline is pure overhead on every operation after
the first.  :class:`PlanCache` amortizes it: a bounded LRU mapping

    (query fingerprint, parser, optimizer, schema fingerprint) → physical plan

Caching a *physical* plan across executions is safe here because parameters
(:class:`~repro.plan.expressions.Param`) are bound at execution time, plans
are immutable once built (no executor mutates an op), and the schema
fingerprint in the key pins the catalog the plan was compiled against —
a schema change makes every old key unreachable, and the service
additionally drops the whole cache the first time it notices a new
fingerprint.

Two kinds of query keys exist:

* Cypher text — keyed on its literal-free *shape*
  (:func:`repro.frontend.cypher.lexer.normalize`): every INT / FLOAT /
  STRING literal in a WHERE clause or a ``{...}`` property map becomes a
  hidden ``$__lit<i>`` parameter, so texts that differ only in those
  values share one plan.  ``LIMIT n``, hop bounds and projection literals
  stay in the text: they fix the plan's structure or a column's name.
  :func:`bind_literals` puts lifted values back into a plan handed to a
  caller;
* pre-built :class:`~repro.plan.logical.LogicalPlan` objects (the LDBC
  query templates) — :func:`plan_fingerprint` derives a structural key.
  Plans embedding non-scalar literal payloads (e.g. a ``Lit`` holding an
  array computed by a previous stage) are **uncacheable**: their repr is
  not guaranteed to round-trip the payload, so caching them could alias
  two different plans.  ``plan_fingerprint`` returns ``None`` for those
  and the service compiles them normally.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

import numpy as np

from ..resilience import faults
from ..plan.expressions import Expr, Lit, Param
from ..plan.logical import AggSpec, LogicalOp, LogicalPlan
from ..storage.catalog import Direction

#: Literal payload types whose repr is exact and stable.
_SCALAR_TYPES = (bool, int, float, str, bytes, type(None), np.generic)


def _value_key(value: Any) -> str | None:
    """Stable structural key of one op/expr attribute, or None (uncacheable)."""
    if isinstance(value, Expr):
        return _expr_key(value)
    if isinstance(value, LogicalOp):
        return _node_key(value)
    if isinstance(value, AggSpec):
        return _node_key(value)
    if isinstance(value, Direction):
        return f"Direction.{value.name}"
    if isinstance(value, _SCALAR_TYPES):
        return repr(value)
    if isinstance(value, (list, tuple)):
        parts = [_value_key(v) for v in value]
        if any(p is None for p in parts):
            return None
        return f"[{','.join(parts)}]"  # type: ignore[arg-type]
    if isinstance(value, dict):
        parts = []
        for k in sorted(value, key=repr):
            sub = _value_key(value[k])
            if sub is None:
                return None
            parts.append(f"{k!r}:{sub}")
        return f"{{{','.join(parts)}}}"
    return None


def _expr_key(expr: Expr) -> str | None:
    if isinstance(expr, Lit) and not isinstance(expr.value, _SCALAR_TYPES):
        return None  # data-bearing literal: repr may truncate/alias
    return _node_key(expr)


def _node_key(node: Any) -> str | None:
    """Key an op/expr/spec from its instance state (all are plain objects)."""
    parts = []
    for name in sorted(vars(node)):
        sub = _value_key(vars(node)[name])
        if sub is None:
            return None
        parts.append(f"{name}={sub}")
    return f"{type(node).__name__}({','.join(parts)})"


def bind_literals(plan: LogicalPlan, values: Mapping[str, Any]) -> LogicalPlan:
    """A copy of *plan* with every ``Param`` named in *values* replaced by a
    ``Lit`` of its value (the attribute walk :func:`_node_key` does)."""
    return plan.with_ops([_bind(op, values) for op in plan.ops])


def _bind(value: Any, values: Mapping[str, Any]) -> Any:
    if isinstance(value, Param):
        return Lit(values[value.name]) if value.name in values else value
    if isinstance(value, (Expr, LogicalOp, AggSpec)):
        node = copy.copy(value)
        for name, sub in vars(value).items():
            vars(node)[name] = _bind(sub, values)
        return node
    if isinstance(value, (list, tuple)):
        return type(value)(_bind(v, values) for v in value)
    if isinstance(value, dict):
        return {k: _bind(v, values) for k, v in value.items()}
    return value


_MISSING = object()


def plan_fingerprint(plan: LogicalPlan) -> str | None:
    """Structural fingerprint of a logical plan, or None when uncacheable.

    Two invocations of the same parameterized query template build plans
    with identical fingerprints (parameters live behind ``Param`` nodes);
    plans that embed per-invocation data in literals fingerprint to None.

    The result is memoized on the plan instance, so prepared templates
    (one :class:`LogicalPlan` reused across executions) pay the structural
    walk exactly once.  Plans must not be mutated after first execution —
    nothing in the engine does.
    """
    cached = getattr(plan, "_fingerprint", _MISSING)
    if cached is not _MISSING:
        return cached  # type: ignore[return-value]
    ops = [_node_key(op) for op in plan.ops]
    if any(k is None for k in ops):
        fingerprint: str | None = None
    else:
        returns = "None" if plan.returns is None else ",".join(plan.returns)
        fingerprint = f"{';'.join(ops)}|returns={returns}"  # type: ignore[arg-type]
    plan._fingerprint = fingerprint  # type: ignore[attr-defined]
    return fingerprint


@dataclass
class PlanCacheStats:
    """Cumulative cache counters (monotonic over the cache's lifetime)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """Bounded LRU of compiled physical plans."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[Hashable, LogicalPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> LogicalPlan | None:
        """The cached physical plan for *key*, refreshing its LRU position.

        Fault site ``plan_cache.lookup``: an injected failure here raises
        ``TransientError``, which the service degrades to an uncached
        compile (the cache is an optimization, never required).
        """
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("plan_cache.lookup")
        plan = self._entries.get(key)
        if plan is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return plan

    def store(self, key: Hashable, plan: LogicalPlan) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = plan
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry (schema change); returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += 1
        return dropped

    def describe(self) -> dict[str, Any]:
        """Summary for ``GES.describe()`` and the CLI."""
        return {
            "enabled": True,
            "size": len(self._entries),
            "capacity": self.capacity,
            **self.stats.as_dict(),
        }
