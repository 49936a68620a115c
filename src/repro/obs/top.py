"""`repro top` — a live text dashboard over the metrics registry.

One frame (:func:`render_top_frame`) is a pure function of the process
metrics registry and the structured event log, so the same renderer
serves three masters:

* the interactive ``repro top`` loop (redrawn every ``--interval``
  seconds while a workload runs);
* the one-shot ``repro top --once`` mode CI calls to assert the
  dashboard renders without error on a real workload;
* tests, which render a frame into a string and grep it.

Sections: per-variant query service (throughput, in-flight gauge,
latency percentiles straight from the log-bucketed histograms) and the
newest structured events.  Everything shown is pulled from instruments other
subsystems already maintain — the dashboard adds no bookkeeping of its
own to any hot path.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, TextIO

from .events import EventLog, get_event_log, render_events
from .metrics import MetricsRegistry, get_registry

#: ANSI: clear screen + cursor home (the live loop's "redraw").
_CLEAR = "\x1b[2J\x1b[H"


def _fmt_ms(seconds: float) -> str:
    if seconds != seconds:  # NaN: histogram empty
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def _series(
    registry: MetricsRegistry, name: str
) -> list[tuple[dict[str, str], Any]]:
    """(labels-dict, instrument) pairs of one family ([] when absent)."""
    family = registry.get(name)
    if family is None:
        return []
    return [(dict(labels), inst) for labels, inst in sorted(family.instruments.items())]


def _value(registry: MetricsRegistry, name: str, **labels: str) -> float | None:
    """One instrument's current value, or None when it does not exist."""
    for have, inst in _series(registry, name):
        if all(have.get(k) == v for k, v in labels.items()):
            return float(inst.value)
    return None


def _query_lines(registry: MetricsRegistry) -> list[str]:
    lines: list[str] = []
    for labels, counter in _series(registry, "ges_queries_total"):
        variant = labels.get("variant", "?")
        inflight = _value(registry, "ges_queries_inflight", variant=variant)
        line = f"  {variant:<8} served={int(counter.value)}"
        if inflight is not None:
            line += f" inflight={int(inflight)}"
        hist = None
        for hlabels, inst in _series(registry, "ges_query_seconds"):
            if hlabels.get("variant") == variant:
                hist = inst
                break
        if hist is not None and hist.count:
            line += (
                f"  p50={_fmt_ms(hist.percentile(50))}"
                f" p95={_fmt_ms(hist.percentile(95))}"
                f" p99={_fmt_ms(hist.percentile(99))}"
            )
        lines.append(line)
    return lines or ["  (no queries served yet)"]


def render_top_frame(
    registry: MetricsRegistry | None = None,
    events: EventLog | None = None,
    event_limit: int = 8,
) -> str:
    """One dashboard frame as text (pure read of registry + event log)."""
    registry = registry if registry is not None else get_registry()
    events = events if events is not None else get_event_log()
    lines = ["ges top — process observability"]
    lines.append("queries:")
    lines.extend(_query_lines(registry))
    tail = events.tail(event_limit)
    lines.append(f"recent events ({len(tail)} of {events.emitted} emitted):")
    if tail:
        lines.append(render_events(tail, indent="  "))
    else:
        lines.append("  (none)")
    return "\n".join(lines)


def run_top(
    work: Callable[[], None],
    interval_s: float = 0.5,
    out: TextIO | None = None,
    registry: MetricsRegistry | None = None,
    events: EventLog | None = None,
) -> None:
    """Redraw the dashboard every *interval_s* while *work* runs.

    *work* executes on a daemon thread; the loop clears the terminal and
    re-renders until it finishes, then prints one final frame.  An
    exception inside *work* propagates after the final frame.
    """
    import sys

    stream = out if out is not None else sys.stdout
    failure: list[BaseException] = []

    def runner() -> None:
        try:
            work()
        except BaseException as exc:  # surfaced after the final frame
            failure.append(exc)

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    while thread.is_alive():
        stream.write(_CLEAR + render_top_frame(registry, events) + "\n")
        stream.flush()
        thread.join(timeout=interval_s)
    stream.write(_CLEAR + render_top_frame(registry, events) + "\n")
    stream.flush()
    if failure:
        raise failure[0]
