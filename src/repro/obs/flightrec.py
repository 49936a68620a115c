"""The always-on flight recorder: the last N queries, debuggable after the fact.

Tracing (:mod:`repro.obs.tracing`) answers "where did *this* query spend
its time" — but only when it was switched on *before* the query ran, and
the tree evaporates when the caller drops the stats object.  The flight
recorder closes that gap: every :meth:`~repro.engine.service.GraphEngineService.execute`
call appends one compact :class:`FlightRecord` to a bounded ring, and any
query slower than the recorder's ``slow_ms`` (50 ms) is *additionally* pinned
in a separate slow-query ring so a burst of fast queries cannot evict the
interesting one.  When something was slow or wrong five minutes ago, the
evidence is still in process memory.

Ring semantics:

* ``recent`` — a ``deque(maxlen=N)``: the last N completed queries, FIFO
  eviction, no exceptions.
* ``slow`` — a second ``deque(maxlen=N)``: only queries whose service
  time exceeded the threshold.  A slow query appears in both rings; it
  survives in ``slow`` after ``recent`` has cycled past it.

Cost model: recording is a handful of attribute reads, one tuple copy of
the per-operator sequence (~10 entries), and a deque append — no
serialization, no span allocation, no clock reads beyond the one the
engine already took.  Span trees are retained *by reference* when the
query happened to be traced and serialized only at :meth:`dump` time, so
the disabled-tracing hot path stays inside the <5 % overhead budget
established for the observability substrate (measured by
``benchmarks/bench_ablation_flightrec.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .clock import wall_time
from .tracing import Span

#: Version stamp on every dump so downstream parsers can detect drift.
FLIGHT_DUMP_SCHEMA_VERSION = 2


class FlightRecord:
    """One completed query, as the flight recorder remembers it."""

    __slots__ = (
        "sequence", "query", "variant", "wall_time", "seconds", "rows",
        "slow", "ops", "trace_root", "stats_snapshot", "metrics_snapshot",
    )

    def __init__(
        self,
        sequence: int,
        query: str,
        variant: str,
        wall_time: float,
        seconds: float,
        rows: int,
        slow: bool,
        ops: tuple[tuple[str, float, int], ...],
        trace_root: Span | None,
        stats_snapshot: dict[str, Any],
        metrics_snapshot: dict[str, float],
    ) -> None:
        self.sequence = sequence
        self.query = query
        self.variant = variant
        self.wall_time = wall_time
        self.seconds = seconds
        self.rows = rows
        self.slow = slow
        self.ops = ops
        self.trace_root = trace_root
        self.stats_snapshot = stats_snapshot
        self.metrics_snapshot = metrics_snapshot

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (span tree serialized lazily, here)."""
        from .export import span_tree_json

        return {
            "sequence": self.sequence,
            "query": self.query,
            "variant": self.variant,
            "wall_time": self.wall_time,
            "seconds": self.seconds,
            "ms": self.seconds * 1e3,
            "rows": self.rows,
            "slow": self.slow,
            "ops": [
                {"op": name, "seconds": seconds, "out_bytes": out_bytes}
                for name, seconds, out_bytes in self.ops
            ],
            "stats": dict(self.stats_snapshot),
            "metrics": dict(self.metrics_snapshot),
            "span_tree": (
                span_tree_json(self.trace_root)
                if self.trace_root is not None
                else None
            ),
        }

    def __repr__(self) -> str:
        flag = " SLOW" if self.slow else ""
        return (
            f"FlightRecord(#{self.sequence} {self.variant} "
            f"{self.seconds * 1e3:.2f}ms rows={self.rows}{flag})"
        )


class FlightRecorder:
    """Bounded ring of the last N queries plus every slow one."""

    def __init__(self, capacity: int = 64, slow_ms: float = 50.0) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self.recent: deque[FlightRecord] = deque(maxlen=capacity)
        self.slow: deque[FlightRecord] = deque(maxlen=capacity)
        self.recorded = 0  # lifetime count, not bounded by the ring
        self.slow_recorded = 0

    def record(
        self,
        query: str,
        variant: str,
        seconds: float,
        rows: int,
        stats: Any,
        metrics_snapshot: dict[str, float] | None = None,
    ) -> FlightRecord:
        """Append one completed query (cheap; called on every execute)."""
        self.recorded += 1
        slow = seconds * 1e3 > self.slow_ms
        record = FlightRecord(
            sequence=self.recorded,
            query=query,
            variant=variant,
            wall_time=wall_time(),
            seconds=seconds,
            rows=rows,
            slow=slow,
            # Copied: multi-stage queries keep appending to the same stats.
            ops=tuple(stats.op_sequence),
            trace_root=stats.trace.root if stats.trace is not None else None,
            stats_snapshot={
                "compile_seconds": stats.compile_seconds,
                "peak_intermediate_bytes": stats.peak_intermediate_bytes,
                "defactor_count": stats.defactor_count,
                "plan_cache_hits": stats.plan_cache_hits,
                "plan_cache_misses": stats.plan_cache_misses,
                "flat_tuples": stats.flat_tuples,
                "ftree_slots": stats.ftree_slots,
                # Copied: the list on stats keeps growing on multi-stage use.
                "degrade_reasons": list(stats.degrade_reasons),
            },
            metrics_snapshot=dict(metrics_snapshot or {}),
        )
        self.recent.append(record)
        if slow:
            self.slow_recorded += 1
            self.slow.append(record)
        return record

    def dump(self, last: int | None = None) -> dict[str, Any]:
        """JSON-ready snapshot of both rings (newest last).

        *last* trims the ``recent`` ring to its newest entries; the slow
        ring is always dumped whole (it exists precisely so slow queries
        cannot be trimmed away).
        """
        recent = list(self.recent)
        if last is not None:
            recent = recent[-last:]
        return {
            "schema_version": FLIGHT_DUMP_SCHEMA_VERSION,
            "capacity": self.capacity,
            "slow_ms": self.slow_ms,
            "recorded": self.recorded,
            "slow_recorded": self.slow_recorded,
            "recent": [r.to_dict() for r in recent],
            "slow": [r.to_dict() for r in self.slow],
        }

    def clear(self) -> None:
        """Drop both rings (lifetime counters keep counting)."""
        self.recent.clear()
        self.slow.clear()


def render_flight_dump(dump: dict[str, Any], ops: bool = True) -> str:
    """Human-readable rendering of a :meth:`FlightRecorder.dump`."""
    lines = [
        f"flight recorder: {dump['recorded']} queries recorded "
        f"({dump['slow_recorded']} slow > {dump['slow_ms']:g} ms), "
        f"ring capacity {dump['capacity']}",
    ]
    for ring in ("recent", "slow"):
        records = dump[ring]
        lines.append(f"{ring} ({len(records)}):")
        for record in records:
            flag = " SLOW" if record["slow"] else ""
            traced = " [traced]" if record.get("span_tree") else ""
            stats = record.get("stats", {})
            lines.append(
                f"  #{record['sequence']:<5} {record['variant']:<8} "
                f"{record['ms']:>9.3f} ms  rows={record['rows']}"
                f"{flag}{traced}  {record['query']}"
            )
            reasons = stats.get("degrade_reasons") or []
            if reasons:
                lines.append(f"      degraded: {', '.join(reasons)}")
            if ops:
                for op in record["ops"]:
                    lines.append(
                        f"      {op['op']:<20} {op['seconds'] * 1e3:>9.3f} ms"
                        f"  out={op['out_bytes']}B"
                    )
    return "\n".join(lines)
