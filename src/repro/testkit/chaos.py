"""The ``repro chaos`` campaign: seeded fault injection, checked answers.

The campaign drives the resilience layer end-to-end: a seeded
:class:`~repro.resilience.faults.FaultPlan` is installed over every named
fault site (memory-pool acquire, lock acquisition, plan-cache lookup,
operator execution) while generated queries and IU-style update batches
run against a resilient engine (``GES_f*`` with retry, degradation, and a
generous watchdog deadline).  Every query's answer is checked against a
*reference* run — the flat ``GES`` engine with fault injection off, over
the same read view — so the campaign asserts the paper-service contract
under failure:

* an injected fault is either **absorbed** (retried, degraded, or
  satisfied by a direct allocation) and the answer still matches the
  reference bag, or it is **surfaced** as a typed
  :class:`~repro.errors.GesError`;
* a fault is **never** a wrong answer and **never** a raw (untyped)
  exception;
* the store survives the campaign intact — a post-chaos pass of the
  PR-3 :class:`~repro.testkit.oracle.DifferentialOracle` (faults off)
  re-checks cross-engine agreement on fresh queries.

Concurrency is covered by folding in seeded
:func:`~repro.testkit.stress.run_stress` runs with faults installed:
writers retry injected commit failures and the snapshot-isolation
invariants must hold regardless.

Everything is keyed off ``ChaosConfig.seed`` via string-seeded
``random.Random`` streams, so one seed reproduces one exact campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..engine.config import EngineConfig
from ..engine.service import GraphEngineService
from ..errors import GesError
from ..ldbc.validation import rows_bag
from ..obs.clock import now
from ..resilience.faults import (
    KILL_SITES,
    SITES,
    TRANSIENT,
    FaultPlan,
    FaultRule,
    fault_scope,
)
from ..resilience.retry import RetryPolicy, RetryStats
from .graphgen import fuzz_schema, random_graph_spec, store_from_spec
from .oracle import DifferentialOracle
from .querygen import QueryGenerator, UpdateGenerator
from .stress import StressConfig, run_stress


@dataclass
class ChaosConfig:
    """Knobs for one campaign; the seed fixes all randomness."""

    seed: int = 0
    iterations: int = 100
    graphs: int = 2
    profile: str = "default"
    #: Per-site probability that a hit fires an injected transient.
    fault_probability: float = 0.05
    #: Retry budget given to the resilient engine (and to update batches).
    retry_attempts: int = 6
    #: Watchdog budget for every chaos query.  Generous by default: the
    #: deadline-check path runs at every operator boundary without timing
    #: out healthy queries, which keeps same-seed campaigns deterministic.
    query_timeout_ms: float = 10_000.0
    #: Every n-th iteration applies an update batch instead of a query.
    update_every: int = 4
    #: Seeded concurrency-stress runs folded into the campaign.
    stress_runs: int = 2
    #: Kill -9 crash-recovery sweeps (each covers every crash site; see
    #: :mod:`repro.testkit.crashtest`).  0 keeps the campaign fork-free.
    crash_runs: int = 0
    #: Fresh queries re-checked by the differential oracle afterwards.
    oracle_checks: int = 8
    verbose: bool = False


@dataclass
class ChaosViolation:
    """One broken invariant — a wrong answer or a raw exception."""

    kind: str  # "rows" | "columns" | "raw" | "phantom" | "stress" | "oracle" | "crash" | "snapshot"
    graph: int
    iteration: int
    query: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] graph {self.graph} iter {self.iteration}: "
            f"{self.detail} (query: {self.query})"
        )


@dataclass
class ChaosReport:
    """Outcome of one campaign."""

    seed: int = 0
    queries: int = 0
    updates: int = 0
    ok: int = 0
    #: Typed GesError surfaces, counted by exception class name.
    typed_errors: dict[str, int] = field(default_factory=dict)
    #: Faults fired, per site, summed over graphs.
    fired: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    degraded: int = 0
    timeouts: int = 0
    direct_allocs: int = 0
    update_retries: int = 0
    stress_fault_retries: int = 0
    stress_dropped_batches: int = 0
    #: Kill -9 crash-recovery runs folded in (and how many actually died).
    crash_runs: int = 0
    crash_kills: int = 0
    snapshot_checks: int = 0
    oracle_queries: int = 0
    elapsed_s: float = 0.0
    violations: list[ChaosViolation] = field(default_factory=list)

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    @property
    def absorbed(self) -> int:
        """Faults that never reached the caller."""
        return (
            self.retries
            + self.degraded
            + self.direct_allocs
            + self.update_retries
            + self.stress_fault_retries
        )

    @property
    def surfaced(self) -> int:
        return sum(self.typed_errors.values())

    @property
    def passed(self) -> bool:
        if self.violations:
            return False
        # Accounting sanity: if faults fired, they must show up somewhere —
        # absorbed by retry/degrade/direct-alloc or surfaced typed.  (Exact
        # equality is not claimed: a degraded attempt may itself absorb a
        # second fault before the original error propagates.)
        if self.total_fired > 0 and self.absorbed + self.surfaced == 0:
            return False
        return True

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        surfaced = ", ".join(
            f"{name} x{count}" for name, count in sorted(self.typed_errors.items())
        )
        return (
            f"{status}: seed {self.seed}: {self.queries} queries + "
            f"{self.updates} updates, {self.total_fired} faults fired, "
            f"{self.absorbed} absorbed ({self.retries} retried, "
            f"{self.degraded} degraded, {self.direct_allocs} direct allocs, "
            f"{self.update_retries + self.stress_fault_retries} write retries), "
            f"{self.surfaced} surfaced typed ({surfaced or 'none'}), "
            f"{self.oracle_queries} oracle re-checks, "
            f"{self.crash_runs} crash runs ({self.crash_kills} kills), "
            f"{len(self.violations)} violations [{self.elapsed_s:.2f}s]"
        )


def _chaos_plan(config: ChaosConfig, graph: int) -> FaultPlan:
    """Probability faults on every transient site the campaign can reach."""
    rules = tuple(
        FaultRule(site=site, probability=config.fault_probability)
        for site, effect in SITES.items()
        # Kill sites only ever fire in the crash harness's forked child.
        # No snapshot I/O happens inside the loop; those sites get their
        # own dedicated coverage (snapshot-save check, crash harness).
        if effect == TRANSIENT and site not in ("snapshot.load", "snapshot.save")
    )
    return FaultPlan(rules=rules, seed=config.seed * 1_000 + graph)


def _counter_value(counter) -> float:
    return counter.value if counter is not None else 0.0


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """One seeded chaos campaign; see the module docstring for invariants."""
    config = config if config is not None else ChaosConfig()
    report = ChaosReport(seed=config.seed)
    started = now()

    schema = fuzz_schema()
    seed = config.seed
    graphs = max(1, min(config.graphs, config.iterations or 1))
    per_graph = -(-max(1, config.iterations) // graphs)

    update_policy = RetryPolicy(
        attempts=max(config.retry_attempts, 8), backoff_ms=0.0, seed=seed
    )

    for g in range(graphs):
        spec = random_graph_spec(
            random.Random(f"{seed}:chaos:graph:{g}"),
            schema,
            config.profile,
            seed=seed,
        )
        store = store_from_spec(spec)
        reference = GraphEngineService(store, EngineConfig.ges())
        resilient = GraphEngineService(
            store,
            EngineConfig.ges_f_star(
                query_timeout_ms=config.query_timeout_ms,
                retry_attempts=config.retry_attempts,
                retry_backoff_ms=0.0,
                retry_seed=seed,
                degrade=True,
            ),
        )
        plan = _chaos_plan(config, g)
        qgen = QueryGenerator(schema, random.Random(f"{seed}:chaos:queries:{g}"))
        ugen = UpdateGenerator(
            schema, random.Random(f"{seed}:chaos:updates:{g}"), spec, config.profile
        )
        flow = random.Random(f"{seed}:chaos:flow:{g}")
        manager = resilient.txn_manager

        retries0 = _counter_value(resilient._m_retries)
        degraded0 = _counter_value(resilient._m_degraded)
        timeouts0 = _counter_value(resilient._m_timeouts)
        allocs0 = manager.pool.direct_allocs
        updates_alive = True

        for i in range(per_graph):
            do_update = (
                updates_alive
                and config.update_every > 0
                and i % config.update_every == config.update_every - 1
            )
            if do_update:
                report.updates += 1
                batch = ugen.batch()
                stats = RetryStats()
                try:
                    with fault_scope(plan):
                        update_policy.run(
                            lambda: batch.apply(manager), on_retry=stats.record
                        )
                except GesError as exc:
                    # Retries exhausted: the batch was aborted whole.  The
                    # update generator's internal model now leads the store,
                    # so stop issuing updates for this graph — later batches
                    # could target rows that were never created.
                    name = type(exc).__name__
                    report.typed_errors[name] = report.typed_errors.get(name, 0) + 1
                    updates_alive = False
                except Exception as exc:  # noqa: BLE001 — the check itself
                    report.violations.append(
                        ChaosViolation(
                            "raw", g, i, "update batch",
                            f"raw exception {type(exc).__name__}: {exc}",
                        )
                    )
                report.update_retries += stats.retries
                continue

            report.queries += 1
            query = (
                qgen.cypher_query(spec) if flow.random() < 0.3 else qgen.query(spec)
            )
            runnable = query.plan if query.plan is not None else query.cypher
            view = store.read_view(manager.versions.current(), manager.overlay)

            expected_rows = None
            expected_error: str | None = None
            try:
                expected_rows = reference.execute(runnable, query.params, view=view)
            except GesError as exc:
                expected_error = type(exc).__name__
            except Exception as exc:  # noqa: BLE001
                report.violations.append(
                    ChaosViolation(
                        "raw", g, i, query.describe(),
                        f"reference raised raw {type(exc).__name__}: {exc}",
                    )
                )
                continue

            try:
                with fault_scope(plan):
                    result = resilient.execute(runnable, query.params, view=view)
            except GesError as exc:
                name = type(exc).__name__
                report.typed_errors[name] = report.typed_errors.get(name, 0) + 1
                continue
            except Exception as exc:  # noqa: BLE001
                report.violations.append(
                    ChaosViolation(
                        "raw", g, i, query.describe(),
                        f"raw exception {type(exc).__name__}: {exc}",
                    )
                )
                continue

            if expected_error is not None:
                report.violations.append(
                    ChaosViolation(
                        "phantom", g, i, query.describe(),
                        f"returned {len(result.rows)} rows where the "
                        f"reference raised {expected_error}",
                    )
                )
                continue
            if list(result.columns) != list(expected_rows.columns):
                report.violations.append(
                    ChaosViolation(
                        "columns", g, i, query.describe(),
                        f"{result.columns!r} != {expected_rows.columns!r}",
                    )
                )
                continue
            if rows_bag(result.rows) != rows_bag(expected_rows.rows):
                report.violations.append(
                    ChaosViolation(
                        "rows", g, i, query.describe(),
                        f"wrong answer under faults: {len(result.rows)} vs "
                        f"{len(expected_rows.rows)} reference rows",
                    )
                )
                continue
            report.ok += 1

        report.retries += int(_counter_value(resilient._m_retries) - retries0)
        report.degraded += int(_counter_value(resilient._m_degraded) - degraded0)
        report.timeouts += int(_counter_value(resilient._m_timeouts) - timeouts0)
        report.direct_allocs += manager.pool.direct_allocs - allocs0
        for site, stats_by_site in plan.summary().items():
            report.fired[site] = report.fired.get(site, 0) + stats_by_site["fired"]

        # Post-chaos integrity: with faults OFF, every engine variant must
        # still agree on fresh queries over the mutated store.
        oracle = DifferentialOracle(store)
        final_view = store.read_view(manager.versions.current(), manager.overlay)
        for k in range(config.oracle_checks):
            probe = qgen.query(spec)
            report.oracle_queries += 1
            for mismatch in oracle.check(probe, view=final_view):
                report.violations.append(
                    ChaosViolation(
                        "oracle", g, -1, probe.describe(),
                        f"post-chaos divergence: {mismatch}",
                    )
                )

    # Concurrency under faults: seeded stress runs with injection on the
    # lock and pool sites; writers must retry and invariants must hold.
    stress_rules = (
        FaultRule(site="locks.acquire", probability=config.fault_probability * 2),
        FaultRule(site="memory_pool.acquire", probability=config.fault_probability),
    )
    for s in range(config.stress_runs):
        stress = run_stress(
            StressConfig(
                seed=seed * 10_000 + s,
                faults=FaultPlan(rules=stress_rules, seed=seed * 10_000 + s),
            )
        )
        report.stress_fault_retries += stress.fault_retries
        report.stress_dropped_batches += stress.dropped_batches
        for violation in stress.violations:
            report.violations.append(
                ChaosViolation("stress", -1, s, f"stress seed {seed * 10_000 + s}",
                               violation)
            )

    # Snapshot-save atomicity under injected faults: a failed save must
    # surface typed and leave the target path untouched — no half-written
    # snapshot, no stray temp dirs — and a clean retry must then succeed.
    if store is not None:
        _check_snapshot_save(config, store, report)

    # Kill -9 crash-recovery sweeps: every durability crash site, child
    # murdered mid-protocol, parent recovers and compares differentially.
    if config.crash_runs > 0:
        from .crashtest import CrashConfig, run_crash

        for c in range(config.crash_runs):
            for site in KILL_SITES:
                crash = run_crash(
                    CrashConfig(
                        seed=seed * 100 + c,
                        kill_point=site,
                        batches=12,
                        checkpoint_every=4,
                        profile=config.profile,
                    )
                )
                report.crash_runs += 1
                if crash.killed:
                    report.crash_kills += 1
                for violation in crash.violations:
                    report.violations.append(
                        ChaosViolation(
                            "crash", -1, c, f"kill -9 @ {site}", violation
                        )
                    )

    report.elapsed_s = now() - started
    return report


def _check_snapshot_save(
    config: ChaosConfig, store, report: ChaosReport
) -> None:
    """Injected ``snapshot.save`` failures must never strand bytes."""
    import tempfile
    from pathlib import Path

    from ..errors import TransientError
    from ..storage.io import load_graph, save_graph

    plan = FaultPlan(
        rules=(FaultRule(site="snapshot.save", probability=1.0, max_fires=1),),
        seed=config.seed,
    )
    report.snapshot_checks += 1
    with tempfile.TemporaryDirectory(prefix="ges-chaos-snap-") as tdir:
        target = Path(tdir) / "snap"
        try:
            with fault_scope(plan):
                save_graph(store, target)
            report.violations.append(
                ChaosViolation(
                    "snapshot", -1, 0, "save_graph",
                    "snapshot.save fault rule (p=1.0) did not fire",
                )
            )
        except TransientError:
            pass
        leftovers = sorted(p.name for p in Path(tdir).iterdir())
        if leftovers:
            report.violations.append(
                ChaosViolation(
                    "snapshot", -1, 0, "save_graph",
                    f"failed save left bytes behind: {leftovers}",
                )
            )
        # Faults exhausted (max_fires=1): the retry must produce a
        # complete, loadable snapshot at the same target.
        try:
            with fault_scope(plan):
                save_graph(store, target)
            load_graph(target)
        except Exception as exc:  # noqa: BLE001 — the check itself
            report.violations.append(
                ChaosViolation(
                    "snapshot", -1, 0, "save_graph",
                    f"post-fault retry failed: {type(exc).__name__}: {exc}",
                )
            )
