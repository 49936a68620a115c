"""Routing between pooled and in-process execution.

The coordinator sits inside :meth:`GraphEngineService._execute_guarded`
when ``config.workers > 1``.  For each read query it

1. exports (or reuses) the pinned snapshot into shared memory,
2. tries partitioned **scatter-gather** when the plan decomposes
   (:func:`~repro.parallel.partition.analyze_plan`) and the source is
   large enough to be worth splitting,
3. otherwise offloads the **whole query** to one warm worker,
4. and returns ``None`` — *run in-process* — whenever pooled execution
   is impossible (foreign store, unserializable plan, worker crash or
   pool exhaustion).  Fallbacks are counted, never silent: the reason
   lands in ``ExecStats.degrade_reasons`` and the engine's pooled
   fallback counter.

Library errors raised inside a worker (bad filter expression, unknown
property, cooperative :class:`~repro.errors.QueryTimeout`, …) propagate
to the caller exactly as the in-process path would raise them —
only *infrastructure* failures trigger the in-process fallback.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import (
    GesError,
    PlanError,
    QueryTimeout,
    StorageError,
    WorkerCrash,
    WorkerError,
)
from ..exec.base import ExecStats, QueryResult
from ..obs.clock import now
from ..plan.logical import LogicalPlan
from ..resilience.watchdog import current_deadline
from ..storage.graph import GraphReadView
from ..testkit.plans import serialize_plan
from .partition import analyze_plan
from .pool import (
    DEFAULT_TASK_TIMEOUT_S,
    SnapshotTask,
    WorkerPool,
    merge_obs_payload,
    merge_stats_payload,
    raise_worker_reply,
    shared_pool,
)
from .scatter import scatter_execute
from .shm import SnapshotExporter

#: Failures that mean "the pool couldn't serve this", not "the query is
#: wrong" — the coordinator answers them by falling back in-process.
_FALLBACK_ERRORS = (WorkerCrash, WorkerError, PlanError, StorageError)


class ParallelCoordinator:
    """Pooled-execution routing for one engine instance."""

    def __init__(self, engine: Any) -> None:
        config = engine.config
        self.engine = engine
        self.workers = int(config.workers)
        self.partitions = int(config.partitions) or self.workers
        self.kind = config.partition_kind
        self.scatter_min_rows = int(config.scatter_min_rows)
        self.ship_obs = bool(config.metrics)
        self.exporter = SnapshotExporter(engine.store)
        # Routing counters (introspection + tests).
        self.pooled_queries = 0
        self.scatter_queries = 0
        self.whole_queries = 0
        self.fallbacks = 0

    @property
    def pool(self) -> WorkerPool:
        """The process-wide pool for this worker count (lazy, shared)."""
        return shared_pool(self.workers)

    # -- execution ----------------------------------------------------------

    def try_execute(
        self,
        query: str | LogicalPlan,
        physical: LogicalPlan,
        view: GraphReadView,
        params: Mapping[str, Any] | None,
        stats: ExecStats,
    ) -> QueryResult | None:
        """Run *physical* on the pool, or None to request in-process.

        ``None`` always means "the in-process path must run this"; typed
        query errors and :class:`QueryTimeout` raise through unchanged.
        """
        engine = self.engine
        if view.store is not engine.store:
            # A view over some other store: the exporter's staleness key
            # and pin lifecycle are tied to *our* store, so don't pool it.
            return None
        deadline = current_deadline()
        if deadline is not None:
            deadline.check()  # raises QueryTimeout when already expired
            timeout_s = deadline.remaining()
        else:
            timeout_s = DEFAULT_TASK_TIMEOUT_S  # pipe-level backstop
        try:
            snapshot = self.exporter.acquire(view)
        except GesError as exc:
            self._fall_back(stats, f"export:{type(exc).__name__}")
            return None
        started = now()
        # The dispatch span opens *before* the workers run so that the
        # grafted worker subtrees (and any in-process suffix operators)
        # nest under it; _count / the error paths close it with the route
        # taken, so explain_analyze always shows a well-formed tree.
        if stats.trace is not None:
            stats.trace.begin("pooled")
        try:
            analysis = analyze_plan(
                physical, order_preserving=self.kind == "range"
            )
            if analysis is not None:
                result = scatter_execute(
                    physical,
                    analysis,
                    view,
                    params,
                    stats,
                    self.pool,
                    snapshot,
                    num_partitions=self.partitions,
                    kind=self.kind,
                    timeout_s=timeout_s,
                    min_rows=self.scatter_min_rows,
                    obs=self.ship_obs,
                )
                if result is not None:
                    stats.total_seconds += now() - started
                    self._count(stats, "scatter", partitions=self.partitions)
                    self.scatter_queries += 1
                    return result
            return self._run_whole(
                query, snapshot, params, stats, timeout_s, started
            )
        except QueryTimeout:
            self._end_span(stats, outcome="timeout")
            raise
        except _FALLBACK_ERRORS as exc:
            self._end_span(stats, outcome="fallback")
            self._fall_back(stats, type(exc).__name__)
            return None
        finally:
            self.exporter.release(snapshot)

    def _run_whole(
        self,
        query: str | LogicalPlan,
        snapshot: Any,
        params: Mapping[str, Any] | None,
        stats: ExecStats,
        timeout_s: float,
        started: float,
    ) -> QueryResult:
        """Offload the complete query to one warm worker."""
        engine = self.engine
        payload: dict[str, Any] = {
            "op": "exec",
            "mode": "whole",
            "executor": engine.config.executor,
            "optimizer": engine.config.optimizer,
            "params": dict(params) if params else None,
            "snapshot_id": snapshot.snapshot_id,
            "version": snapshot.manifest["version"],
            "timeout_s": timeout_s,
        }
        if self.ship_obs:
            payload["obs"] = True
        if stats.trace is not None:
            payload["trace"] = True
        if isinstance(query, str):
            payload["cypher"] = query
        else:
            payload["plan"] = serialize_plan(query)  # PlanError -> fallback
        dispatched = now()
        reply = self.pool.run(
            SnapshotTask(
                payload,
                snapshot_id=snapshot.snapshot_id,
                manifest=snapshot.manifest,
            ),
            timeout_s=timeout_s,
        )
        if not reply.get("ok"):
            raise_worker_reply(reply)
        merge_stats_payload(stats, reply.get("stats"))
        extra = {"mode": "whole"}
        if reply.get("plan_cache"):
            extra["plan_cache"] = reply["plan_cache"]
        merge_obs_payload(stats, reply.get("obs"), dispatched, **extra)
        rows = [tuple(row) for row in reply["rows"]]
        stats.rows_out = len(rows)
        stats.total_seconds += now() - started
        self._count(stats, "whole")
        self.whole_queries += 1
        return QueryResult(list(reply["columns"]), rows, stats)

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, stats: ExecStats, mode: str, **attrs: Any) -> None:
        self.pooled_queries += 1
        counter = getattr(self.engine, "_m_pooled", None)
        if counter is not None:
            counter.inc()
        stats.route = mode
        self._end_span(stats, mode=mode, workers=self.workers, **attrs)

    def _end_span(self, stats: ExecStats, **attrs: Any) -> None:
        if stats.trace is not None:
            stats.trace.end(**attrs)

    def _fall_back(self, stats: ExecStats, reason: str) -> None:
        self.fallbacks += 1
        stats.note_degrade(f"pooled:{reason}")
        counter = getattr(self.engine, "_m_pool_fallbacks", None)
        if counter is not None:
            counter.inc()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release every exported segment (the shared pool stays up)."""
        self.exporter.release_all()

    def describe(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "partitions": self.partitions,
            "partition_kind": self.kind,
            "scatter_min_rows": self.scatter_min_rows,
            "pooled_queries": self.pooled_queries,
            "scatter_queries": self.scatter_queries,
            "whole_queries": self.whole_queries,
            "fallbacks": self.fallbacks,
            "exports": self.exporter.exports_total,
            "export_reuses": self.exporter.reuses_total,
        }
