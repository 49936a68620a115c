"""Structured lifecycle event log: what *happened* to the service, in order.

Metrics answer "how much" and spans answer "where did this query spend its
time"; neither answers "what happened to the service" — a checkpoint was
written, recovery replayed the WAL, a query degraded, a chaos fault fired.
Those are discrete lifecycle *events*, and this module records them as one process-wide, append-only sequence:

* every event gets a monotonically increasing ``seq`` under one lock, so
  the log is a total order even when emitters race across threads;
* events are held in a bounded ring (the flight-recorder discipline: recent
  history is always in process memory, no unbounded growth);
* an optional JSONL sink mirrors every event to disk as it is emitted —
  one JSON object per line, the standard structured-log interchange shape.

Determinism: an event's identity is ``(kind, attrs)``; ``seq`` ordering is
deterministic whenever the emitting code is (the seeded chaos campaign,
the deterministic stress scheduler).  Wall-clock timestamps ride along for
operators but are excluded from determinism comparisons — tests compare
``(kind, attrs)`` sequences, never timestamps.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Callable, Iterable

from .clock import wall_time

#: Version stamp on every serialized event so downstream parsers can
#: detect drift (the flight-recorder convention).
EVENT_SCHEMA_VERSION = 1

class Event:
    """One lifecycle event: sequence number, wall time, kind, attributes."""

    __slots__ = ("seq", "wall", "kind", "attrs")

    def __init__(self, seq: int, wall: float, kind: str, attrs: dict[str, Any]) -> None:
        self.seq = seq
        self.wall = wall
        self.kind = kind
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "wall": self.wall, "kind": self.kind, **self.attrs}

    def identity(self) -> tuple[str, tuple[tuple[str, Any], ...]]:
        """The deterministic projection of this event: kind + sorted attrs,
        without the sequence number and wall time."""
        return (self.kind, tuple(sorted(self.attrs.items())))

    def __repr__(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        return f"Event(#{self.seq} {self.kind}{' ' + attrs if attrs else ''})"


class EventLog:
    """Bounded, totally ordered ring of lifecycle events + optional sink."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("event log capacity must be positive")
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._sink: Callable[[str], None] | None = None
        self._sink_path: str | None = None
        self.emitted = 0  # lifetime count, not bounded by the ring

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, **attrs: Any) -> Event:
        """Append one event (thread-safe; cheap when no sink is attached)."""
        with self._lock:
            self._seq += 1
            self.emitted += 1
            event = Event(self._seq, wall_time(), kind, attrs)
            self._ring.append(event)
            sink = self._sink
        if sink is not None:
            try:
                sink(json.dumps(event.to_dict(), default=str))
            except Exception:
                pass  # a broken sink must never take the service down
        return event

    # -- reading ------------------------------------------------------------

    def tail(self, n: int | None = None) -> list[Event]:
        """The newest *n* events (all retained events when n is None)."""
        with self._lock:
            events = list(self._ring)
        if n is not None:
            events = events[-n:]
        return events

    def dump(self) -> dict[str, Any]:
        """JSON-ready snapshot of the retained ring (newest last)."""
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "capacity": self.capacity,
            "emitted": self.emitted,
            "events": [e.to_dict() for e in self.tail()],
        }

    def to_jsonl(self) -> str:
        """The retained ring as JSON Lines (one event per line)."""
        return "\n".join(
            json.dumps(e.to_dict(), default=str) for e in self.tail()
        )

    # -- lifecycle ----------------------------------------------------------

    def set_sink(self, path: str | None) -> None:
        """Mirror every future event to *path* as JSONL (None detaches).

        The file is opened in append mode and each line is flushed as it
        is written, so a crash loses at most the in-flight event.
        """
        with self._lock:
            if path is None:
                self._sink = None
                self._sink_path = None
                return
            handle = open(path, "a", encoding="utf-8")

            def write(line: str, _handle=handle) -> None:
                _handle.write(line + "\n")
                _handle.flush()

            self._sink = write
            self._sink_path = path

    @property
    def sink_path(self) -> str | None:
        return self._sink_path

    def clear(self) -> None:
        """Drop the ring and rewind the sequence (tests, seeded campaigns).

        Rewinding ``seq`` is what makes seeded campaigns comparable run to
        run: same seed, same code path, same event sequence numbers.
        """
        with self._lock:
            self._ring.clear()
            self._seq = 0


#: The process-wide default event log every subsystem emits into.
EVENTS = EventLog()


def get_event_log() -> EventLog:
    """The process-wide default :class:`EventLog`."""
    return EVENTS


def emit(kind: str, **attrs: Any) -> Event:
    """Emit one event into the process-wide log (module-level sugar)."""
    return EVENTS.emit(kind, **attrs)


def render_events(
    events: Iterable[Event | dict[str, Any]], indent: str = ""
) -> str:
    """Human-readable one-line-per-event rendering (CLI ``top``, dumps)."""
    lines = []
    for event in events:
        if isinstance(event, Event):
            event = event.to_dict()
        seq = event.get("seq", "?")
        kind = event.get("kind", "unknown")
        attrs = " ".join(
            f"{k}={v}"
            for k, v in event.items()
            if k not in ("seq", "wall", "kind")
        )
        lines.append(f"{indent}#{seq:<6} {kind:<18} {attrs}".rstrip())
    return "\n".join(lines)
