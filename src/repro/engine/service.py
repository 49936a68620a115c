"""The Graph Engine Service facade — the library's main entry point.

A :class:`GraphEngineService` (aliased :class:`GES`) composes modules from
the registry according to its :class:`~repro.engine.config.EngineConfig`,
owns the graph store and transaction manager, and executes queries given as
Cypher text or pre-built logical plans.

Typical use::

    from repro import GES, EngineConfig

    ges = GES(schema, config=EngineConfig.ges_f_star())
    ges.load(...)                       # or mutate via ges.transaction()
    result = ges.execute(
        "MATCH (p:Person)-[:KNOWS*1..2]->(f) WHERE id(p) = $pid "
        "RETURN id(f) ORDER BY id(f) LIMIT 10",
        {"pid": 42},
    )
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Mapping

from typing import Callable, TypeVar

from ..errors import AdmissionRejected, GesError, QueryTimeout, StorageError
from ..exec.base import ExecStats, QueryResult
from ..obs.clock import now
from ..obs.events import EVENTS
from ..obs.flightrec import FlightRecorder
from ..obs.metrics import REGISTRY
from ..obs.tracing import Span
from ..plan.logical import LogicalPlan
from ..resilience.admission import AdmissionController
from ..resilience.degrade import with_fallback
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import Deadline, pop_deadline, push_deadline
from ..storage.catalog import GraphSchema
from ..storage.graph import GraphReadView, GraphStore
from ..storage.memory_pool import MemoryPool
from ..txn.transaction import Transaction, TransactionManager
from .config import EngineConfig
from .plan_cache import PlanCache, plan_fingerprint
from .registry import ModuleRegistry, default_registry

T = TypeVar("T")

#: EWMA weight of the newest observation when updating the per-engine
#: estimate of a query's peak intermediate footprint (admission control).
_MEM_EWMA_ALPHA = 0.2


class GraphEngineService:
    """One configured GES instance over one graph."""

    def __init__(
        self,
        schema: GraphSchema | GraphStore,
        config: EngineConfig | None = None,
        registry: ModuleRegistry | None = None,
        pool: MemoryPool | None = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig.ges_f_star()
        self.registry = registry if registry is not None else default_registry()
        if isinstance(schema, GraphStore):
            self.store = schema
        else:
            self.store = GraphStore(schema)
        self.txn_manager = TransactionManager(self.store, pool)
        self._parse = self.registry.resolve("frontend", "parser", self.config.parser)
        self._execute = self.registry.resolve(
            "execution", "executor", self.config.executor
        )
        self._optimize = self.registry.resolve(
            "execution", "optimizer", self.config.optimizer
        )
        self.plan_cache: PlanCache | None = (
            PlanCache() if self.config.plan_cache else None
        )
        self._schema_fingerprint = self.store.schema.fingerprint()
        self.flight: FlightRecorder | None = (
            FlightRecorder(self.config.flight_recorder, self.config.slow_query_ms)
            if self.config.flight_recorder > 0
            else None
        )
        # Degradation ladder: a factorized executor gets the flat executor
        # pre-resolved as its fallback rung (resolution is init-time; the
        # query path only ever sees a bound callable or None).
        self._fallback_execute = (
            self.registry.resolve("execution", "executor", "flat")
            if self.config.degrade and self.config.executor == "factorized"
            else None
        )
        self.retry_policy: RetryPolicy | None = (
            RetryPolicy(
                attempts=self.config.retry_attempts,
                backoff_ms=self.config.retry_backoff_ms,
                seed=self.config.retry_seed,
            )
            if self.config.retry_attempts > 1
            else None
        )
        pool_ref = self.txn_manager.pool
        self.admission: AdmissionController | None = (
            AdmissionController(
                max_concurrent=self.config.max_concurrent_queries,
                queue_limit=self.config.admission_queue_limit,
                memory_budget_bytes=self.config.memory_budget_bytes,
                pool_bytes=lambda: pool_ref.pooled_bytes,
            )
            if self.config.max_concurrent_queries > 0
            or self.config.memory_budget_bytes > 0
            else None
        )
        #: EWMA of observed peak intermediate bytes — the admission
        #: controller's estimate of what the next query will need.
        self._mem_ewma = 0.0
        # Pooled execution (repro.parallel): read queries route to a
        # shared-memory worker pool when workers > 1; in-process otherwise.
        if self.config.workers > 1:
            from ..parallel import ParallelCoordinator

            self.parallel: Any = ParallelCoordinator(self)
        else:
            self.parallel = None
        #: :class:`repro.durability.DurabilityManager` when this engine is
        #: backed by a durable directory (see :meth:`open`); None otherwise.
        self.durability: Any = None
        #: Forensics of the recovery that produced this engine, when opened
        #: from an existing database directory.
        self.recovery: Any = None
        self._init_metrics()

    @classmethod
    def open(
        cls,
        path: str | Path,
        config: EngineConfig | None = None,
        registry: ModuleRegistry | None = None,
        pool: MemoryPool | None = None,
        schema: GraphSchema | GraphStore | None = None,
    ) -> "GraphEngineService":
        """Open a durable database directory — or create one from *schema*.

        When *path* already holds a database, recovery runs first: the
        newest checkpoint whose manifest verifies is loaded and the WAL
        tail replays up to the first torn record (see
        :mod:`repro.durability.recovery`); the recovered engine exposes
        the forensic account as ``service.recovery``.  When *path* is
        fresh, *schema* seeds checkpoint epoch 0.

        Every subsequent :meth:`transaction` commit is WAL-logged before
        it applies, in ``config.durability`` mode (``"fsync"`` unless set;
        ``EngineConfig(durability=None)`` still means durable here —
        opening a database directory *is* opting in).
        """
        from ..durability import DurabilityManager, recover

        config = config if config is not None else EngineConfig.ges_f_star()
        mode = config.durability or "fsync"
        config = dataclasses.replace(config, durability=mode)
        db = Path(path)
        if (db / "GESDB.json").exists():
            result = recover(db)
            service = cls(result.store, config=config, registry=registry, pool=pool)
            service.txn_manager.versions.advance_to(result.version)
            service.durability = DurabilityManager.attach(
                db,
                result,
                mode=mode,
                batch_every=config.wal_batch_every,
                keep=config.checkpoint_keep,
            )
            service.recovery = result
        else:
            if schema is None:
                raise StorageError(
                    f"{db} is not a GES database; pass schema= to create one"
                )
            service = cls(schema, config=config, registry=registry, pool=pool)
            service.durability = DurabilityManager.initialise(
                db,
                service.store,
                mode=mode,
                batch_every=config.wal_batch_every,
                keep=config.checkpoint_keep,
            )
        service.txn_manager.wal = service.durability
        return service

    def checkpoint(self) -> Any:
        """Fold the WAL into a fresh checkpoint at the current version.

        Takes the commit guard, so the snapshot is a transaction boundary:
        no commit is ever half-in.  Requires a durable engine
        (:meth:`open`); raises :class:`StorageError` otherwise.
        """
        if self.durability is None:
            raise StorageError("engine has no durability attached; use GES.open")
        with self.txn_manager._commit_guard:
            return self.durability.checkpoint(
                self.store, self.txn_manager.versions.current()
            )

    def _init_metrics(self) -> None:
        """Bind this instance's engine-level instruments (one lookup each,
        so the per-query path touches pre-resolved objects only)."""
        if not self.config.metrics:
            self._m_queries = None
            self._m_timeouts = None
            self._m_rejections = None
            self._m_retries = None
            self._m_degraded = None
            self._m_pooled = None
            self._m_pool_fallbacks = None
            self._m_inflight = None
            return
        variant = self.config.name
        self._m_queries = REGISTRY.counter(
            "ges_queries_total", "Queries served, by engine variant.",
            variant=variant,
        )
        self._m_latency = REGISTRY.histogram(
            "ges_query_seconds", "End-to-end query service time.",
            variant=variant,
        )
        self._m_cache_hits = REGISTRY.counter(
            "ges_plan_cache_hits_total", "Plan-cache hits.", variant=variant
        )
        self._m_cache_misses = REGISTRY.counter(
            "ges_plan_cache_misses_total", "Plan-cache misses.", variant=variant
        )
        self._m_defactor = REGISTRY.counter(
            "ges_defactor_total",
            "Times the factorized executor fell back to a flat block.",
            variant=variant,
        )
        self._m_compression = REGISTRY.histogram(
            "ges_compression_ratio",
            "Flat tuple count / f-Tree slot count at each flattening.",
            lowest=1e-3,
            variant=variant,
        )
        self._m_timeouts = REGISTRY.counter(
            "ges_query_timeouts_total",
            "Queries cancelled by the watchdog deadline.",
            variant=variant,
        )
        self._m_rejections = REGISTRY.counter(
            "ges_admission_rejected_total",
            "Queries refused by the admission controller.",
            variant=variant,
        )
        self._m_retries = REGISTRY.counter(
            "ges_retries_total",
            "Re-attempts of retryable failures (aborts, lock timeouts, transients).",
            variant=variant,
        )
        self._m_degraded = REGISTRY.counter(
            "ges_degraded_queries",
            "Queries answered a rung down the degradation ladder.",
            variant=variant,
        )
        self._m_inflight = REGISTRY.gauge(
            "ges_queries_inflight",
            "Queries currently executing, by engine variant.",
            variant=variant,
        )
        if self.config.workers > 1:
            self._m_pooled = REGISTRY.counter(
                "ges_pooled_queries_total",
                "Queries served on the worker pool.",
                variant=variant,
            )
            self._m_pool_fallbacks = REGISTRY.counter(
                "ges_pooled_fallbacks_total",
                "Pooled queries that fell back to in-process execution.",
                variant=variant,
            )
        else:
            self._m_pooled = None
            self._m_pool_fallbacks = None

    # -- queries --------------------------------------------------------------

    def compile(self, query: str) -> LogicalPlan:
        """Parse + bind Cypher text (without optimizing or executing)."""
        logical, _ = self._compile_stages(query)
        return logical

    def _compile_stages(self, query: str) -> tuple[LogicalPlan, dict[str, float]]:
        """Parse + bind with per-stage timings.

        The built-in Cypher frontend is timed per stage (parse vs bind);
        custom parser modules are opaque, so they land under ``parse``.
        """
        if self.config.parser == "cypher":
            from ..frontend.cypher import Binder, parse_cypher

            started = now()
            tree = parse_cypher(query)
            parsed = now()
            logical = Binder(self.store.schema).bind(tree)
            bound = now()
            return logical, {"parse": parsed - started, "bind": bound - parsed}
        started = now()
        logical = self._parse(query, self.store.schema)
        return logical, {"parse": now() - started}

    def _cache_key(self, query: str | LogicalPlan) -> tuple[Any, ...] | None:
        """Plan-cache key for *query*, or None when it must not be cached.

        A changed schema fingerprint drops the whole cache first, so stale
        plans can never be served after DDL.
        """
        if self.plan_cache is None:
            return None
        fingerprint = self.store.schema.fingerprint()
        if fingerprint != self._schema_fingerprint:
            self.plan_cache.invalidate()
            self._schema_fingerprint = fingerprint
        if isinstance(query, str):
            query_key: str | None = query
        else:
            query_key = plan_fingerprint(query)
        if query_key is None:
            return None
        return (query_key, self.config.parser, self.config.optimizer, fingerprint)

    def plan(
        self, query: str | LogicalPlan, stats: ExecStats | None = None
    ) -> LogicalPlan:
        """The physical pipeline this instance would run for *query*.

        Served from the plan cache when possible; compile timings and the
        cache outcome are recorded into *stats* when given.  Traced stats
        additionally get a ``compile`` span (children: parse/bind/optimize,
        or a bare cache-hit marker).
        """
        started = now()
        key = self._cache_key(query)
        if key is not None:
            try:
                cached = self.plan_cache.lookup(key)  # type: ignore[union-attr]
            except GesError:
                # Degradation ladder: a faulting plan cache costs one
                # uncached compile, never the query.
                if not self.config.degrade:
                    raise
                self._note_degraded(stats, "plan_cache")
                key = None
                cached = None
            if cached is not None:
                if stats is not None:
                    stats.record_compile(now() - started, cache_hit=True)
                    if stats.trace is not None:
                        stats.trace.add("compile", started, now(), cache="hit")
                return cached
        if isinstance(query, str):
            logical, stages = self._compile_stages(query)
        else:
            logical, stages = query, {}
        optimize_started = now()
        physical = self._optimize(logical)
        stages["optimize"] = now() - optimize_started
        if key is not None:
            self.plan_cache.store(key, physical)  # type: ignore[union-attr]
        if stats is not None:
            stats.record_compile(
                now() - started,
                stages,
                cache_hit=False if self.plan_cache is not None else None,
            )
            if stats.trace is not None:
                span = stats.trace.add("compile", started, now())
                if self.plan_cache is not None:
                    span.attrs["cache"] = "miss"
                # Stage spans are synthesized back-to-back from the measured
                # durations (the stages themselves ran sequentially).
                at = started
                for stage_name, stage_seconds in stages.items():
                    span.children.append(
                        Span.completed(stage_name, at, at + stage_seconds)
                    )
                    at += stage_seconds
        return physical

    def execute(
        self,
        query: str | LogicalPlan,
        params: Mapping[str, Any] | None = None,
        view: GraphReadView | None = None,
        stats: ExecStats | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Run a query and return its rows plus execution statistics.

        Reads run against a snapshot view when any write has committed
        (non-blocking MV2PL reads); before the first write the unversioned
        fast path is used.

        With ``config.tracing`` on (or a tracer already attached to
        *stats*, as :meth:`explain_analyze` does) the call records a span
        tree; engine-level metrics are updated either way when
        ``config.metrics`` is on.

        The resilience layer wraps the call when configured: admission
        control outermost (``AdmissionRejected`` on overload), then the
        watchdog deadline (*timeout* seconds, defaulting to
        ``config.query_timeout_ms``; ``QueryTimeout`` on expiry), then the
        retry policy for retryable failures.  With everything at its
        defaults the fast path below is unchanged.
        """
        if stats is None:
            stats = ExecStats()
        if self.config.tracing and stats.trace is None:
            stats.begin_trace()
        timeout_s = timeout
        if timeout_s is None and self.config.query_timeout_ms > 0:
            timeout_s = self.config.query_timeout_ms / 1e3
        if (
            timeout_s is None
            and self.retry_policy is None
            and self.admission is None
        ):
            return self._execute_guarded(query, params, view, stats)
        deadline = (
            Deadline.after(timeout_s) if timeout_s is not None else None
        )
        admission = self.admission
        estimate = 0
        prev, effective = push_deadline(deadline)
        try:
            if admission is not None:
                estimate = self._mem_estimate()
                admission._acquire(estimate)
            try:
                if self.retry_policy is None:
                    return self._execute_guarded(query, params, view, stats)
                return self.retry_policy.run(
                    lambda: self._execute_guarded(query, params, view, stats),
                    deadline=effective,
                    on_retry=self._count_retry,
                )
            finally:
                if admission is not None:
                    admission._release(estimate)
        except QueryTimeout:
            if self._m_timeouts is not None:
                self._m_timeouts.inc()
            raise
        except AdmissionRejected:
            if self._m_rejections is not None:
                self._m_rejections.inc()
            raise
        finally:
            pop_deadline(prev)

    def _execute_guarded(
        self,
        query: str | LogicalPlan,
        params: Mapping[str, Any] | None,
        view: GraphReadView | None,
        stats: ExecStats,
    ) -> QueryResult:
        """One execution attempt: compile, execute (with the degradation
        ladder's executor fallback), record metrics and the flight entry —
        with the in-flight gauge held around it."""
        gauge = self._m_inflight
        if gauge is not None:
            gauge.add(1)
        try:
            started = now()
            measured = self._m_queries is not None
            if measured:
                pre_hits = stats.plan_cache_hits
                pre_misses = stats.plan_cache_misses
                pre_defactor = stats.defactor_count
                pre_tuples = stats.flat_tuples
                pre_slots = stats.ftree_slots
            physical = self.plan(query, stats=stats)
            if view is None:
                view = self.read_view()
            result = (
                self.parallel.try_execute(query, physical, view, params, stats)
                if self.parallel is not None
                else None
            )
            if result is None:  # in-process path (workers == 1, or pool fallback)
                stats.route = "in-process"
                if self._fallback_execute is None:
                    result = self._execute(physical, view, params, stats)
                else:
                    result = with_fallback(
                        lambda: self._execute(physical, view, params, stats),
                        lambda: self._fallback_execute(physical, view, params, stats),
                        on_degrade=lambda exc: self._note_degraded(
                            stats, f"executor:{type(exc).__name__}"
                        ),
                    )
            if stats.trace is not None:
                stats.trace.touch()
                stats.trace.root.attrs["rows"] = len(result)
            if measured:
                self._m_queries.inc()
                self._m_latency.observe(now() - started)
                if stats.plan_cache_hits > pre_hits:
                    self._m_cache_hits.inc(stats.plan_cache_hits - pre_hits)
                if stats.plan_cache_misses > pre_misses:
                    self._m_cache_misses.inc(stats.plan_cache_misses - pre_misses)
                if stats.defactor_count > pre_defactor:
                    self._m_defactor.inc(stats.defactor_count - pre_defactor)
                slots = stats.ftree_slots - pre_slots
                if slots > 0:
                    self._m_compression.observe(
                        (stats.flat_tuples - pre_tuples) / slots
                    )
            if self.flight is not None:
                self.flight.record(
                    query=query if isinstance(query, str) else _plan_label(query),
                    variant=self.config.name,
                    seconds=now() - started,
                    rows=len(result),
                    stats=stats,
                    metrics_snapshot=self._metrics_snapshot(),
                )
            self._mem_ewma += _MEM_EWMA_ALPHA * (
                stats.peak_intermediate_bytes - self._mem_ewma
            )
            return result
        finally:
            if gauge is not None:
                gauge.add(-1)

    def _mem_estimate(self) -> int:
        """Estimated peak intermediate footprint of the next query (EWMA of
        what this engine has observed so far; 0 until the first query)."""
        return int(self._mem_ewma)

    def _note_degraded(self, stats: ExecStats | None, reason: str) -> None:
        if stats is not None:
            stats.note_degrade(reason)
        if self._m_degraded is not None:
            self._m_degraded.inc()
        EVENTS.emit("degraded", reason=reason, variant=self.config.name)

    def _count_retry(self, _attempt: int, _exc: BaseException) -> None:
        if self._m_retries is not None:
            self._m_retries.inc()

    def _metrics_snapshot(self) -> dict[str, float] | None:
        """Cheap point-in-time read of this engine's pre-bound counters
        (attribute loads only — no registry lookups on the query path)."""
        if self._m_queries is None:
            return None
        return {
            "ges_queries_total": self._m_queries.value,
            "ges_plan_cache_hits_total": self._m_cache_hits.value,
            "ges_plan_cache_misses_total": self._m_cache_misses.value,
            "ges_defactor_total": self._m_defactor.value,
        }

    def explain_analyze(
        self, query: str | LogicalPlan, params: Mapping[str, Any] | None = None
    ) -> str:
        """EXPLAIN ANALYZE: run *query* with tracing forced, render the profile.

        Returns the per-operator span tree with timings plus a summary
        line (rows, peak intermediate bytes, defactor count, compression
        ratio) — the introspection surface behind the CLI ``profile``
        command.  Tracing is forced for this execution only; the engine's
        ``config.tracing`` setting is untouched.
        """
        from ..obs.export import render_span_tree

        stats = ExecStats()
        stats.begin_trace()
        result = self.execute(query, params, stats=stats)
        return "\n".join(
            [
                f"EXPLAIN ANALYZE ({self.config.name})",
                render_span_tree(stats.trace.finish()),
                profile_summary(stats),
            ]
        )

    def explain(self, query: str | LogicalPlan) -> str:
        """A human-readable description of the physical pipeline.

        One line per operator, marking the fused operators this
        configuration's optimizer produced.
        """
        from ..plan.logical import (
            AggregateTopK,
            Expand,
            Filter,
            TopK,
            VertexExpand,
            plan_summary,
        )

        physical = self.plan(query)
        lines = [f"physical plan ({self.config.name}): {plan_summary(physical)}"]
        for i, op in enumerate(physical.ops):
            detail = ""
            if isinstance(op, Expand):
                detail = f" {op.from_var}-[:{op.edge_label}]-{op.to_var}"
                if op.is_multi_hop:
                    detail += f" *{op.min_hops}..{op.max_hops}"
                if op.neighbor_filter is not None:
                    detail += " [fused filter]"
            elif isinstance(op, VertexExpand):
                detail = f" seek {op.seek_var} + expand [fused]"
            elif isinstance(op, (TopK, AggregateTopK)):
                detail = f" n={op.n} [fused]"
            elif isinstance(op, Filter):
                detail = f" {op.expr!r}"
            lines.append(f"  {i + 1}. {op.op_name}{detail}")
        return "\n".join(lines)

    # -- views & transactions ------------------------------------------------------

    def read_view(self) -> GraphReadView:
        """The view queries run against: snapshot once writes exist."""
        if self.txn_manager.versions.current() > 0:
            return self.txn_manager.read_view()
        return self.txn_manager.latest_view()

    def transaction(self) -> Transaction:
        """Begin a write transaction (MV2PL; see :mod:`repro.txn`)."""
        return self.txn_manager.begin()

    def with_transaction(self, fn: Callable[[Transaction], T]) -> T:
        """Run ``fn(txn)`` in a fresh transaction and commit it.

        On a retryable failure (``TransactionAborted`` / ``LockTimeout`` /
        injected transient) the whole unit — begin, stage, commit — is
        re-attempted under the engine's retry policy; each attempt gets a
        *fresh* transaction, so partial staging from a failed attempt can
        never leak into the next.  Without a retry policy this is plain
        transactional sugar.
        """

        def attempt() -> T:
            txn = self.transaction()
            try:
                out = fn(txn)
                txn.commit()
                return out
            except BaseException:
                if not txn.done:
                    txn.abort()
                raise

        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.run(attempt, on_retry=self._count_retry)

    def close(self) -> None:
        """Release pooled-execution resources (exported shm segments).

        The shared worker pool itself stays warm for other engines; it is
        stopped by :func:`repro.parallel.shutdown_shared_pools` or at
        interpreter exit.  Safe to call on a non-pooled engine.  A durable
        engine also syncs and closes its WAL writer — after ``close()``
        returns, every batch-mode commit is on disk.
        """
        if self.parallel is not None:
            self.parallel.close()
        if self.durability is not None:
            self.durability.close()

    # -- introspection ---------------------------------------------------------------

    @property
    def variant(self) -> str:
        """Which paper variant this configuration corresponds to."""
        return self.config.name

    def describe(self) -> dict[str, Any]:
        """Human-readable engine/module/graph summary."""
        return {
            "variant": self.config.name,
            "executor": self.config.executor,
            "optimizer": self.config.optimizer,
            "vertices": self.store.vertex_count,
            "edges": self.store.edge_count,
            "plan_cache": (
                self.plan_cache.describe()
                if self.plan_cache is not None
                else {"enabled": False}
            ),
            "flight_recorder": (
                {
                    "capacity": self.flight.capacity,
                    "slow_ms": self.flight.slow_ms,
                    "recorded": self.flight.recorded,
                    "slow_recorded": self.flight.slow_recorded,
                }
                if self.flight is not None
                else {"enabled": False}
            ),
            "parallel": (
                self.parallel.describe()
                if self.parallel is not None
                else {"enabled": False}
            ),
            "resilience": {
                "query_timeout_ms": self.config.query_timeout_ms,
                "retry": (
                    {
                        "attempts": self.retry_policy.attempts,
                        "backoff_ms": self.retry_policy.backoff_ms,
                        "seed": self.retry_policy.seed,
                    }
                    if self.retry_policy is not None
                    else {"enabled": False}
                ),
                "admission": (
                    self.admission.describe()
                    if self.admission is not None
                    else {"enabled": False}
                ),
                "degrade": self.config.degrade,
            },
            "durability": (
                self.durability.describe()
                if self.durability is not None
                else {"enabled": False}
            ),
            "modules": self.registry.describe(),
        }


def _plan_label(plan: LogicalPlan) -> str:
    """Compact flight-recorder label for a plan-form query (no Cypher text
    to show; the operator chain identifies the template)."""
    from ..plan.logical import plan_summary

    return f"<plan: {plan_summary(plan)}>"


def profile_summary(stats: ExecStats) -> str:
    """One-line footer for EXPLAIN ANALYZE / CLI ``profile`` output."""
    parts = [
        f"rows={stats.rows_out}",
        f"total={stats.total_seconds * 1e3:.3f}ms",
        f"compile={stats.compile_seconds * 1e3:.3f}ms",
        f"peak_intermediate={stats.peak_intermediate_bytes}B",
        f"defactor={stats.defactor_count}",
    ]
    if stats.ftree_slots:
        parts.append(f"compression={stats.compression_ratio:.2f}x")
    if stats.plan_cache_hits or stats.plan_cache_misses:
        parts.append(
            f"plan_cache={stats.plan_cache_hits}h/{stats.plan_cache_misses}m"
        )
    return "-- " + " ".join(parts)


#: Short alias used throughout examples and benchmarks.
GES = GraphEngineService


def open_all_variants(store: GraphStore) -> dict[str, GraphEngineService]:
    """The three paper variants sharing one store (ablation harness)."""
    return {
        "GES": GraphEngineService(store, EngineConfig.ges()),
        "GES_f": GraphEngineService(store, EngineConfig.ges_f()),
        "GES_f*": GraphEngineService(store, EngineConfig.ges_f_star()),
    }
