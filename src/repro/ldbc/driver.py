"""The LDBC SNB Interactive benchmark driver.

Reproduces the protocol of §2.2/§6: the driver builds an operation stream
mixing IC/IS/IU queries according to the spec frequencies, fires them at
the system under test, logs per-operation latency, audits the run (all
operations answered, result sanity), and computes a throughput score.

Throughput scoring follows the Time-Compression-Ratio rule: the reported
ops/s is the highest arrival rate at which at most 5 % of operations start
more than one second late.  We measure real single-worker service times by
executing the whole stream, then find that rate with the discrete-event
N-server simulation from :mod:`repro.exec.runtime` (the substitution for
the paper's 96-vCPU cluster; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..engine.service import GraphEngineService
from ..errors import DriverError, GesError
from ..exec.base import ExecStats
from ..resilience.watchdog import Deadline, deadline_scope
from ..exec.runtime import simulate_service
from ..obs.clock import now
from ..obs.metrics import Histogram, REGISTRY as METRICS
from .datagen import SnbDataset
from .params import CATEGORY_MIX, INTERLEAVES, ParameterGenerator
from .queries import REGISTRY  # noqa: F401  (imports register all queries)
from .queries.common import queries_of

#: LDBC audit rule: an operation is delayed when it starts late.  The spec
#: uses 1 s on full-scale graphs; since mini-scale service times are ~1000x
#: smaller, the bound is compressed with the same ratio as the data (a
#: fixed floor keeps it meaningful for sub-millisecond mixes).
ON_TIME_FLOOR_SECONDS = 0.005
ON_TIME_SERVICE_MULTIPLIER = 10.0
MAX_DELAYED_FRACTION = 0.05


@dataclass
class Operation:
    """One scheduled benchmark operation."""

    index: int
    name: str
    category: str
    params: dict[str, Any]


@dataclass
class OperationLog:
    """Measured outcome of one operation.

    ``error`` is None on success; on a typed engine failure (timeout,
    aborted transaction, …) it carries the error
    class name plus message and ``rows`` is 0 — per-query error
    accounting instead of the whole run aborting (LDBC SNB measures
    sustainable throughput under an SLA *with* an error budget).
    """

    name: str
    category: str
    service_seconds: float
    rows: int
    peak_bytes: int
    compile_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    error: str | None = None


@dataclass
class DriverReport:
    """Everything a benchmark run produced."""

    variant: str
    scale: str
    logs: list[OperationLog] = field(default_factory=list)
    wall_seconds: float = 0.0

    # -- basic aggregates -----------------------------------------------------

    def latencies(self, name: str | None = None, category: str | None = None) -> np.ndarray:
        values = [
            log.service_seconds
            for log in self.logs
            if (name is None or log.name == name)
            and (category is None or log.category == category)
        ]
        return np.asarray(values, dtype=np.float64)

    def mean_latency_ms(self, name: str) -> float:
        lat = self.latencies(name)
        return float(lat.mean() * 1e3) if len(lat) else float("nan")

    def percentile_latency_ms(self, name: str, pct: float) -> float:
        """Exact percentile over the raw samples, in milliseconds.

        Well-defined on degenerate streams: nan with no samples, the
        sample itself with exactly one.
        """
        lat = self.latencies(name)
        return float(np.percentile(lat, pct) * 1e3) if len(lat) else float("nan")

    # -- histogram-primitive view (repro.obs.metrics) -------------------------

    def latency_histogram(
        self, name: str | None = None, category: str | None = None
    ) -> Histogram:
        """The matching operations' latencies folded into a log-bucketed
        :class:`~repro.obs.metrics.Histogram` (the primitive the metrics
        registry exports)."""
        histogram = Histogram()
        for value in self.latencies(name, category):
            histogram.observe(float(value))
        return histogram

    def latency_summary(
        self, name: str | None = None, category: str | None = None
    ) -> dict[str, float]:
        """n / mean / p50 / p95 / p99 milliseconds via the histogram primitives.

        Defined for every stream shape: all-nan percentiles on an empty
        selection, exact values on a singleton (the histogram clamps its
        estimates to the observed range).
        """
        histogram = self.latency_histogram(name, category)
        summary = histogram.summary()
        return {
            "n": int(summary["count"]),
            "mean_ms": summary["mean"] * 1e3,
            "p50_ms": summary["p50"] * 1e3,
            "p95_ms": summary["p95"] * 1e3,
            "p99_ms": summary["p99"] * 1e3,
            "errors": self.error_count(name, category),
        }

    def error_count(
        self, name: str | None = None, category: str | None = None
    ) -> int:
        """How many matching operations failed (typed engine errors)."""
        return len(
            [
                log
                for log in self.logs
                if log.error is not None
                and (name is None or log.name == name)
                and (category is None or log.category == category)
            ]
        )

    def count(self, category: str | None = None) -> int:
        return len([log for log in self.logs if category is None or log.category == category])

    @property
    def closed_loop_throughput(self) -> float:
        """Back-to-back ops/s on one worker (no scheduling)."""
        total = sum(log.service_seconds for log in self.logs)
        return len(self.logs) / total if total > 0 else 0.0

    # -- compile-pipeline breakdown ------------------------------------------

    @property
    def compile_seconds(self) -> float:
        """Total time spent in parse/bind/optimize (or cache lookups)."""
        return sum(log.compile_seconds for log in self.logs)

    @property
    def compile_fraction(self) -> float:
        """Share of total service time that was compilation."""
        total = sum(log.service_seconds for log in self.logs)
        return self.compile_seconds / total if total > 0 else 0.0

    @property
    def plan_cache_hit_rate(self) -> float:
        """Plan-cache hit rate over every compile in the run (0 when the
        cache was disabled — no lookups happen)."""
        hits = sum(log.plan_cache_hits for log in self.logs)
        misses = sum(log.plan_cache_misses for log in self.logs)
        total = hits + misses
        return hits / total if total else 0.0

    # -- LDBC TCR throughput score -----------------------------------------------

    def throughput_score(self, workers: int = 1) -> float:
        """Best sustainable ops/s: ≤5 % of operations start too late.

        The audit simulation runs over the finite measured stream, so the
        result is additionally capped at the steady-state service capacity
        ``workers / mean_service`` — a finite backlog can hide inside a
        short run, but no system sustains more than its capacity.
        """
        services = np.asarray([log.service_seconds for log in self.logs])
        if len(services) == 0:
            return 0.0
        capacity = workers / max(float(services.mean()), 1e-9)
        low = 1e-3
        high = capacity * 4
        while self._feasible(services, high, workers) and high < capacity * 64:
            high *= 2
        for _ in range(40):
            mid = (low + high) / 2
            if self._feasible(services, mid, workers):
                low = mid
            else:
                high = mid
        return min(low, capacity)

    @staticmethod
    def _feasible(services: np.ndarray, rate: float, workers: int) -> bool:
        n = len(services)
        arrivals = np.arange(n) / rate
        sim = simulate_service(arrivals, services, workers)
        start_delay = sim.completion_times - services - arrivals
        on_time = max(
            ON_TIME_FLOOR_SECONDS, ON_TIME_SERVICE_MULTIPLIER * float(services.mean())
        )
        delayed = (start_delay > on_time).mean()
        return bool(delayed <= MAX_DELAYED_FRACTION)

    def throughput_trace(
        self, rate: float, workers: int, window_seconds: float = 10.0
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Windowed completed-ops/s per category at a given arrival rate
        (the Figure 14 stability trace).  An empty report yields an empty
        mapping (there is no window to histogram)."""
        if not self.logs:
            return {}
        services = np.asarray([log.service_seconds for log in self.logs])
        arrivals = np.arange(len(services)) / rate
        sim = simulate_service(arrivals, services, workers)
        horizon = float(sim.completion_times.max())
        edges = np.arange(0.0, horizon + window_seconds, window_seconds)
        if len(edges) < 2:  # sub-window stream: one window covers it all
            edges = np.asarray([0.0, window_seconds])
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        categories = {log.category for log in self.logs} | {"ALL"}
        for category in sorted(categories):
            mask = np.asarray(
                [category in ("ALL", log.category) for log in self.logs]
            )
            counts, _ = np.histogram(sim.completion_times[mask], bins=edges)
            out[category] = (edges[:-1], counts / window_seconds)
        return out


class BenchmarkDriver:
    """Builds the operation mix and fires it at one engine."""

    def __init__(
        self,
        engine: GraphEngineService,
        dataset: SnbDataset,
        seed: int = 7,
        include_updates: bool = True,
        include_shorts: bool = True,
        query_timeout: float | None = None,
    ) -> None:
        self.engine = engine
        self.dataset = dataset
        self.seed = seed
        self.include_updates = include_updates
        self.include_shorts = include_shorts
        #: Per-operation deadline in seconds (None = unbounded); installed
        #: as the ambient watchdog deadline around each operation.
        self.query_timeout = query_timeout

    def build_schedule(self, num_operations: int) -> list[Operation]:
        """The operation mix: IC per spec interleaves, IS bursts, IU stream."""
        rng = np.random.default_rng(self.seed)
        gen = ParameterGenerator(self.dataset, seed=self.seed)

        ic_defs = queries_of("IC")
        ic_weights = np.asarray([1.0 / INTERLEAVES[q.name] for q in ic_defs])
        ic_weights /= ic_weights.sum()
        is_defs = queries_of("IS")
        iu_defs = queries_of("IU")

        category_names = ["IC"]
        category_weights = [CATEGORY_MIX["IC"]]
        if self.include_shorts:
            category_names.append("IS")
            category_weights.append(CATEGORY_MIX["IS"])
        if self.include_updates:
            category_names.append("IU")
            category_weights.append(CATEGORY_MIX["IU"])
        weights = np.asarray(category_weights, dtype=float)
        weights /= weights.sum()

        operations: list[Operation] = []
        for index in range(num_operations):
            category = str(rng.choice(category_names, p=weights))
            if category == "IC":
                query = ic_defs[int(rng.choice(len(ic_defs), p=ic_weights))]
            elif category == "IS":
                query = is_defs[int(rng.integers(0, len(is_defs)))]
            else:
                query = iu_defs[int(rng.integers(0, len(iu_defs)))]
            operations.append(
                Operation(index, query.name, query.category, gen.params_for(query.name))
            )
        return operations

    def run(self, num_operations: int = 200) -> DriverReport:
        """Execute the stream back-to-back, measuring true service times.

        Each operation's latency also lands in the process metrics
        registry (``ges_ldbc_latency_seconds{category,query}`` plus the
        per-category operation counter), so a CLI ``metrics`` export after
        a run carries per-LDBC-query-type p50/p95/p99.
        """
        operations = self.build_schedule(num_operations)
        report = DriverReport(
            variant=self.engine.variant, scale=self.dataset.info.scale.name
        )
        metrics_on = getattr(self.engine, "config", None) is None or self.engine.config.metrics
        latency_hists: dict[str, Histogram] = {}
        category_counters: dict[str, Any] = {}
        wall_start = now()
        for op in operations:
            definition = REGISTRY[op.name]
            stats = ExecStats()
            deadline = (
                Deadline.after(self.query_timeout, label=op.name)
                if self.query_timeout is not None
                else None
            )
            started = now()
            failure: str | None = None
            rows: list = []
            try:
                with deadline_scope(deadline):
                    rows = definition.fn(self.engine, op.params, stats)
            except GesError as exc:
                # Typed engine failures (timeouts, aborts) are part of a
                # benchmark run under load: account them per-operation and
                # keep the run going.
                failure = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # raw exception: the run itself is broken
                error = DriverError(f"{op.name} failed with params {op.params}")
                # Attach the engine's flight recorder: the recent ring holds
                # exactly the operations leading up to this failure.
                flight = getattr(self.engine, "flight", None)
                error.flight_dump = flight.dump() if flight is not None else None
                raise error from exc
            elapsed = now() - started
            report.logs.append(
                OperationLog(
                    op.name,
                    op.category,
                    elapsed,
                    len(rows),
                    stats.peak_intermediate_bytes,
                    compile_seconds=stats.compile_seconds,
                    plan_cache_hits=stats.plan_cache_hits,
                    plan_cache_misses=stats.plan_cache_misses,
                    error=failure,
                )
            )
            if metrics_on:
                hist = latency_hists.get(op.name)
                if hist is None:
                    hist = METRICS.histogram(
                        "ges_ldbc_latency_seconds",
                        "Per-LDBC-query service time.",
                        category=op.category,
                        query=op.name,
                    )
                    latency_hists[op.name] = hist
                hist.observe(elapsed)
                counter = category_counters.get(op.category)
                if counter is None:
                    counter = METRICS.counter(
                        "ges_ldbc_operations_total",
                        "LDBC operations executed, by category.",
                        category=op.category,
                    )
                    category_counters[op.category] = counter
                counter.inc()
                if failure is not None:
                    METRICS.counter(
                        "ges_ldbc_errors_total",
                        "LDBC operations that failed with a typed engine error.",
                        category=op.category,
                    ).inc()
        report.wall_seconds = now() - wall_start
        self._audit(report, operations)
        return report

    @staticmethod
    def _audit(report: DriverReport, operations: list[Operation]) -> None:
        """The driver-side validity checks (paper §2.2: 'audits the
        correctness and latency of the queries')."""
        if len(report.logs) != len(operations):
            raise DriverError("operation count mismatch — run is invalid")
        if any(log.service_seconds < 0 for log in report.logs):
            raise DriverError("negative latency measured — run is invalid")
