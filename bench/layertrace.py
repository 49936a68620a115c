"""Outside-in layer tracing: spans recorded from the benchmark's own files.

Nothing under ``src/`` is edited.  A traced engine is an ordinary
:class:`~repro.GES` whose layer boundaries are wrapped through public
injection points: a :class:`~repro.engine.registry.ModuleRegistry` whose
parser, optimizer and executor modules are timed, and instance-level
wrappers on ``execute``, ``plan_cache.lookup/store``, ``read_view``,
``transaction`` (whose transactions get a timed ``commit``) and the
WAL's ``log_commit``.  The LDBC query function is the root span of an
operation.

A span is ``[name, start, end, parent, op_id]``; ``name`` starts with the
``src/repro`` package that owns the work (``engine.execute``,
``exec.run``, ``durability.log_commit``).  Self time is a span's duration
minus its children's; a layer's share is its summed self time over the
total operation time the harness measured around the root spans.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from repro import GES, EngineConfig
from repro.engine.registry import ModuleRegistry, default_registry
from repro.obs.clock import now

#: ``_compile_stages`` calls the parser slot only for a name other than "cypher".
TIMED_PARSER = "cypher-timed"

#: Layers a span name can start with (packages under ``src/repro``).
LAYERS = ("ldbc", "engine", "frontend", "plan", "exec", "storage", "txn", "durability")


class Tracer:
    """In-memory span recorder for one traced segment."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* recorded as a span called *name*; *on_result* sees its
        return value after the span has closed."""
        spans, stack = self.spans, self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def reset(self) -> None:
        """Forget everything recorded so far (after warming a traced engine)."""
        self.spans.clear()
        self.counts.clear()

    def self_seconds(self) -> tuple[Counter[str], Counter[str]]:
        """(summed self time, span count) per span name."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        seconds: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for span, self_time in zip(self.spans, own):
            seconds[span[0]] += self_time
            calls[span[0]] += 1
        return seconds, calls

    def write_jsonl(self, path: Path) -> None:
        """One span per line, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op_id": op_id,
                        }
                    )
                    + "\n"
                )


def timed_registry(tracer: Tracer) -> ModuleRegistry:
    """The default modules, each recorded as a span of its layer."""
    base = default_registry()
    registry = ModuleRegistry()
    registry.register(
        "frontend",
        "parser",
        TIMED_PARSER,
        tracer.wrap("frontend.compile", base.resolve("frontend", "parser", "cypher")),
    )

    def count_rows(result: Any) -> None:
        tracer.counts["exec.rows_out"] += len(result)

    for name in base.available("execution", "executor"):
        module = base.resolve("execution", "executor", name)
        registry.register(
            "execution", "executor", name, tracer.wrap("exec.run", module, count_rows)
        )
    for name in base.available("execution", "optimizer"):
        module = base.resolve("execution", "optimizer", name)
        registry.register(
            "execution", "optimizer", name, tracer.wrap("plan.optimize", module)
        )
    return registry


def timed_config(config: EngineConfig) -> EngineConfig:
    """*config* with the parser slot pointed at the timed parser."""
    return dataclasses.replace(config, parser=TIMED_PARSER)


def instrument(engine: GES, tracer: Tracer) -> None:
    """Wrap the service-level boundaries of *engine* (this instance only)."""
    engine.execute = tracer.wrap("engine.execute", engine.execute)
    cache = engine.plan_cache
    cache.lookup = tracer.wrap("engine.plan_cache.lookup", cache.lookup)
    cache.store = tracer.wrap("engine.plan_cache.store", cache.store)

    def count_view(view: Any) -> None:
        if view.version is not None:
            tracer.counts["storage.versioned_views"] += 1

    engine.read_view = tracer.wrap("storage.read_view", engine.read_view, count_view)

    begin = engine.transaction

    def transaction() -> Any:
        txn = begin()
        txn.commit = tracer.wrap("txn.commit", txn.commit)
        return txn

    engine.transaction = transaction
    wal = engine.txn_manager.wal
    if wal is not None:
        wal.log_commit = tracer.wrap("durability.log_commit", wal.log_commit)
