"""Per-query span tracing (the structured replacement for flat op timings).

One query produces one tree of timed spans::

    query
    ├─ compile            (parse / bind / optimize children, or a cache hit)
    └─ execute
       ├─ NodeByIdSeek    rows=1 out_bytes=80
       ├─ Expand          fblocks=2 out_bytes=4096
       └─ TopK            defactor=1 rows=10

The span tree is the full-fidelity record of where a query spent its time;
the flat aggregates on :class:`~repro.exec.base.ExecStats` (``op_times``,
``stage_times``, ``peak_intermediate_bytes``, …) are the derived view kept
for backward compatibility and for cheap always-on accounting.

Tracing is opt-in per query (``EngineConfig.tracing``, or
``GES.explain_analyze`` forcing it for one execution).  When it is off, no
:class:`Span` is ever allocated: the executors check a single
``trace is not None`` per operator, so the three paper variants' relative
benchmark numbers are unaffected (the overhead budget in DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Iterator

from .clock import now


class Span:
    """One timed region of a query with attributes and child spans."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float | None = None) -> None:
        self.name = name
        self.start = start if start is not None else now()
        self.end: float | None = None
        self.attrs: dict[str, Any] = {}
        self.children: list["Span"] = []

    @classmethod
    def completed(
        cls, name: str, start: float, end: float, **attrs: Any
    ) -> "Span":
        """A span whose interval is already known (synthesized stages)."""
        span = cls(name, start)
        span.end = end
        span.attrs.update(attrs)
        return span

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def finish(self, at: float | None = None) -> "Span":
        """Close the span (idempotent: the first close wins)."""
        if self.end is None:
            self.end = at if at is not None else now()
        return self

    def walk(self) -> Iterator[tuple[int, "Span"]]:
        """Pre-order (depth, span) traversal of this subtree."""
        stack: list[tuple[int, Span]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def span_count(self) -> int:
        """Total number of spans in this subtree (itself included)."""
        return sum(1 for _ in self.walk())

    def find(self, name: str) -> "Span | None":
        """First span named *name* in pre-order, or None."""
        for _, span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation of this subtree."""
        return {
            "name": self.name,
            "seconds": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class SpanTracer:
    """Stack-based recorder building one query's span tree.

    ``begin``/``end`` bracket nested regions; ``add`` attaches an
    already-measured child to the currently open span.  The tracer is
    deliberately forgiving: ``end`` on an empty stack is a no-op, and
    ``finish`` closes anything left open, so an exception mid-query still
    yields a well-formed (if truncated) tree.
    """

    __slots__ = ("root", "_stack")

    def __init__(self, name: str = "query") -> None:
        self.root = Span(name)
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open span (the root when nothing else is open)."""
        return self._stack[-1] if self._stack else self.root

    def begin(self, name: str) -> Span:
        """Open a child span under the current one and make it current."""
        span = Span(name)
        self.current.children.append(span)
        self._stack.append(span)
        return span

    def end(self, **attrs: Any) -> Span | None:
        """Close the current span, folding *attrs* into it."""
        if len(self._stack) <= 1:
            return None  # never pop the root
        span = self._stack.pop()
        span.attrs.update(attrs)
        return span.finish()

    def add(self, name: str, start: float, end: float, **attrs: Any) -> Span:
        """Attach a completed child span to the current span."""
        span = Span.completed(name, start, end, **attrs)
        self.current.children.append(span)
        return span

    def touch(self) -> None:
        """Extend the root span's end to now (multi-stage queries)."""
        self.root.end = now()

    def finish(self) -> Span:
        """Close every open span and return the root."""
        while len(self._stack) > 1:
            self._stack.pop().finish()
        self.root.finish()
        return self.root

    def adopt(self, other: "SpanTracer") -> None:
        """Merge another tracer's children under this root (stats merge)."""
        self.root.children.extend(other.root.children)
        other_end = other.root.end
        if other_end is not None and (
            self.root.end is None or other_end > self.root.end
        ):
            self.root.end = other_end
