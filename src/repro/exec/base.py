"""Execution infrastructure shared by all engine variants.

Holds the per-query :class:`ExecStats` (operator timings, peak intermediate
size — the instrumentation behind the paper's Figure 3 and Table 2), the
:class:`ExecutionContext` threading the graph read view and parameters
through operators, and the :class:`QueryResult` returned to callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..core.fblock import FBlock
from ..core.flatblock import FlatBlock
from ..errors import ExecutionError
from ..obs.clock import now
from ..obs.tracing import SpanTracer
from ..resilience import faults
from ..resilience.watchdog import current_deadline
from ..storage.graph import GraphReadView
from ..types import DataType


class ExecStats:
    """Per-query execution statistics.

    * ``op_times`` — cumulative seconds per operator name (Figure 3).
    * ``peak_intermediate_bytes`` — max footprint of the structure passed
      between operators (Table 2).  Stored-procedure internals are excluded
      per the paper's accounting note.
    * ``defactor_count`` — how often the executor had to fall back from the
      f-Tree to a flat block.
    * ``degrade_count`` — how often the service stepped down a rung of the
      resilience degradation ladder while answering this query (executor
      fallback, uncached compile, …).
    * ``compile_seconds`` / ``stage_times`` — time the service spent turning
      query text or a logical plan into the physical pipeline, broken down
      by compile stage (``parse`` / ``bind`` / ``optimize``); lets the
      benchmark harness report compilation overhead separately from
      execution.
    * ``plan_cache_hits`` / ``plan_cache_misses`` — plan-cache outcomes of
      the compiles behind this query (untouched when the cache is off).
    * ``flat_tuples`` / ``ftree_slots`` — accumulated whenever an f-Tree is
      flattened: output tuple count vs. the f-Tree entries ("slots") that
      encoded them.  Their quotient is the factorization compression ratio
      (FDB-style), exported as ``ges_compression_ratio``.
    * ``trace`` — the per-query span tree (:mod:`repro.obs.tracing`) when
      tracing is on; the flat aggregates above are the derived view of it
      kept for backward compatibility and always-on cheap accounting.
    """

    def __init__(self) -> None:
        self.op_times: dict[str, float] = {}
        self.op_sequence: list[tuple[str, float, int]] = []
        self.peak_intermediate_bytes = 0
        self.defactor_count = 0
        self.degrade_count = 0
        self.rows_out = 0
        self.total_seconds = 0.0
        self.compile_seconds = 0.0
        self.stage_times: dict[str, float] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.flat_tuples = 0
        self.ftree_slots = 0
        #: Every degradation reason noted for this query, in order —
        #: the always-on companion to ``degrade_count`` so the flight
        #: recorder can explain fallbacks without tracing enabled.
        self.degrade_reasons: list[str] = []
        self.trace: SpanTracer | None = None

    def begin_trace(self, name: str = "query") -> SpanTracer:
        """Attach a span tracer, making this query's execution traced.

        Idempotent: an already-attached tracer is kept (multi-stage LDBC
        queries thread one ExecStats through several ``execute`` calls, all
        landing under one root span).
        """
        if self.trace is None:
            self.trace = SpanTracer(name)
        return self.trace

    def record_op(self, name: str, seconds: float, out_bytes: int) -> None:
        self.op_times[name] = self.op_times.get(name, 0.0) + seconds
        self.op_sequence.append((name, seconds, out_bytes))
        if out_bytes > self.peak_intermediate_bytes:
            self.peak_intermediate_bytes = out_bytes

    def note_bytes(self, nbytes: int) -> None:
        if nbytes > self.peak_intermediate_bytes:
            self.peak_intermediate_bytes = nbytes

    def note_defactor(self) -> None:
        self.defactor_count += 1
        if self.trace is not None:
            attrs = self.trace.current.attrs
            attrs["defactor"] = attrs.get("defactor", 0) + 1

    def note_degrade(self, reason: str) -> None:
        """Account one step down the degradation ladder (and tag the span)."""
        self.degrade_count += 1
        self.degrade_reasons.append(reason)
        if self.trace is not None:
            attrs = self.trace.current.attrs
            attrs["degraded"] = attrs.get("degraded", 0) + 1
            attrs["degrade_reason"] = reason

    def note_compression(self, flat_tuples: int, ftree_slots: int) -> None:
        """Account one f-Tree flattening: tuples produced vs. slots held."""
        self.flat_tuples += flat_tuples
        self.ftree_slots += ftree_slots

    @property
    def compression_ratio(self) -> float:
        """Flat tuple count ÷ f-Tree slot count (>1 ⇒ factorization won);
        nan when nothing was ever flattened (e.g. the flat executor)."""
        if not self.ftree_slots:
            return float("nan")
        return self.flat_tuples / self.ftree_slots

    def record_compile(
        self,
        seconds: float,
        stages: Mapping[str, float] | None = None,
        cache_hit: bool | None = None,
    ) -> None:
        """Account one compile of this query's pipeline.

        ``cache_hit`` is None when the plan cache is disabled (no outcome
        to count), else whether the compile was served from the cache.
        """
        self.compile_seconds += seconds
        for name, stage_seconds in (stages or {}).items():
            self.stage_times[name] = self.stage_times.get(name, 0.0) + stage_seconds
        if cache_hit is True:
            self.plan_cache_hits += 1
        elif cache_hit is False:
            self.plan_cache_misses += 1

    @property
    def cache_hit(self) -> bool:
        """True when every compile behind this query hit the plan cache."""
        return self.plan_cache_hits > 0 and self.plan_cache_misses == 0

    def merge(self, other: "ExecStats") -> None:
        """Fold another query stage's stats into this one.

        Every data field must be carried here — the round-trip test in
        ``tests/test_observability.py`` populates *all* public fields via
        reflection and asserts merging into a fresh ExecStats loses
        nothing, so a future field missed here fails loudly.
        """
        for name, seconds in other.op_times.items():
            self.op_times[name] = self.op_times.get(name, 0.0) + seconds
        self.op_sequence.extend(other.op_sequence)
        self.peak_intermediate_bytes = max(
            self.peak_intermediate_bytes, other.peak_intermediate_bytes
        )
        self.defactor_count += other.defactor_count
        self.degrade_count += other.degrade_count
        self.rows_out += other.rows_out
        self.total_seconds += other.total_seconds
        self.compile_seconds += other.compile_seconds
        for name, seconds in other.stage_times.items():
            self.stage_times[name] = self.stage_times.get(name, 0.0) + seconds
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_misses += other.plan_cache_misses
        self.flat_tuples += other.flat_tuples
        self.ftree_slots += other.ftree_slots
        self.degrade_reasons.extend(other.degrade_reasons)
        if other.trace is not None:
            if self.trace is None:
                self.trace = other.trace
            else:
                self.trace.adopt(other.trace)

    def dominant_operator(self) -> tuple[str, float]:
        """(name, share of total op time) of the costliest operator."""
        total = sum(self.op_times.values())
        if not total:
            return ("", 0.0)
        name = max(self.op_times, key=lambda k: self.op_times[k])
        return (name, self.op_times[name] / total)

    def __repr__(self) -> str:
        return (
            f"ExecStats(total={self.total_seconds * 1e3:.2f}ms, "
            f"peak={self.peak_intermediate_bytes}B, defactor={self.defactor_count})"
        )


@dataclass
class QueryResult:
    """Final rows of a query plus its execution statistics."""

    columns: list[str]
    rows: list[tuple[Any, ...]]
    stats: ExecStats = field(default_factory=ExecStats)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def column_values(self, name: str) -> list[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"result has no column {name!r}") from None
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class ExecutionContext:
    """Everything an operator needs: the read view, params, stats, labels."""

    def __init__(
        self,
        view: GraphReadView,
        params: Mapping[str, Any] | None = None,
        stats: ExecStats | None = None,
    ) -> None:
        self.view = view
        self.params: dict[str, Any] = dict(params or {})
        self.stats = stats if stats is not None else ExecStats()
        # Cached so hot paths pay one attribute read, not two, to decide
        # whether spans exist for this query.
        self.tracing = self.stats.trace is not None
        # Ambient per-query deadline, captured once; None when unbounded.
        self.deadline = current_deadline()
        self.var_labels: dict[str, str] = {}

    def label_of(self, var: str) -> str:
        try:
            return self.var_labels[var]
        except KeyError:
            raise ExecutionError(f"unbound vertex variable {var!r}") from None


class OpTimer:
    """Context manager timing one operator and recording the output size.

    When the query is traced, each OpTimer additionally opens one span
    under the current one; :meth:`annotate` attaches operator attributes
    (rows, f-Block count, …) to it.  Untraced queries never allocate a
    span — the only extra cost is a None check on enter and exit.
    """

    def __init__(self, ctx: ExecutionContext, name: str) -> None:
        self.ctx = ctx
        self.name = name
        self._start = 0.0
        self.out_bytes = 0
        self._span = None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to this operator's span (no-op untraced)."""
        if self._span is not None:
            self._span.attrs.update(attrs)

    def __enter__(self) -> "OpTimer":
        # Operator boundaries are the coarse cancellation points: a query
        # past its deadline stops before the next operator rather than
        # running the pipeline to completion.
        deadline = self.ctx.deadline
        if deadline is not None:
            deadline.check()
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("executor.operator")
        if self.ctx.tracing:
            self._span = self.ctx.stats.trace.begin(self.name)
        self._start = now()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.ctx.stats.record_op(self.name, now() - self._start, self.out_bytes)
        if self._span is not None:
            self._span.attrs.setdefault("out_bytes", self.out_bytes)
            self.ctx.stats.trace.end()


class BlockResolver:
    """Column resolver over a :class:`FlatBlock` or one f-Block (node-local
    filter/projection) for expression evaluation."""

    def __init__(self, block: FlatBlock | FBlock) -> None:
        self._block = block

    def resolve(self, name: str) -> np.ndarray:
        return self._block.array(name)

    def dtype_of(self, name: str) -> DataType:
        return self._block.dtype(name)

    def validity_of(self, name: str) -> np.ndarray | None:
        return self._block.validity(name)


class ArraysResolver:
    """Column resolver over a plain dict of arrays (Expand-time filters)."""

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        dtypes: Mapping[str, DataType],
        validity: Mapping[str, np.ndarray | None] | None = None,
    ) -> None:
        self._arrays = arrays
        self._dtypes = dtypes
        self._validity = validity or {}

    def resolve(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise ExecutionError(f"no column {name!r} in expansion scope") from None

    def dtype_of(self, name: str) -> DataType:
        return self._dtypes.get(name, DataType.INT64)

    def validity_of(self, name: str) -> np.ndarray | None:
        return self._validity.get(name)


def result_from_flat(
    block: FlatBlock, returns: Sequence[str] | None, stats: ExecStats
) -> QueryResult:
    """Build the final :class:`QueryResult` from a flat block.

    NULLs surface as Python None: ``to_pylist`` consults each column's
    validity bitmap, so no sentinel scrubbing happens at this boundary.
    """
    columns = list(returns) if returns is not None else block.schema
    missing = [c for c in columns if not block.has_column(c)]
    if missing:
        raise ExecutionError(f"plan returns unknown columns {missing}")
    rows = block.to_pylist(columns)
    stats.rows_out = len(rows)
    return QueryResult(columns, rows, stats)
