"""Tests for the service resilience layer (PR 5).

Covers the watchdog deadline plumbing across all four executor variants,
bounded retry with deterministic jitter, the graceful-degradation ladder,
seeded fault injection, corrupt-snapshot handling, driver error accounting,
and the chaos campaign itself.
"""

from __future__ import annotations

import json
import os
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from repro import EngineConfig, GES
from repro.baselines import VolcanoEngine
from repro.engine.registry import ModuleRegistry, default_registry
from repro.exec.base import ExecStats
from repro.errors import (
    GesError,
    QueryTimeout,
    StorageError,
    TransientError,
)
from repro.ldbc import BenchmarkDriver, generate
from repro.ldbc.queries import REGISTRY as LDBC_REGISTRY, LdbcQueryDef
from repro.ldbc.validation import rows_bag
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    fault_scope,
)
from repro.resilience.retry import RetryStats
from repro.resilience.watchdog import TICK_STRIDE
from repro.storage.graph import VertexRef
from repro.storage.io import load_graph, save_graph, write_manifest
from repro.testkit import ChaosConfig, StressConfig, run_chaos, run_stress

LONG_QUERY = "MATCH (a:Person)-[:KNOWS*1..3]->(b) RETURN id(b)"


# -- watchdog ---------------------------------------------------------------------


class TestDeadline:
    def test_fresh_deadline_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert deadline.remaining() > 0
        deadline.check()  # must not raise

    def test_expired_deadline_raises_typed(self):
        deadline = Deadline.after(0.0, label="IC5")
        assert deadline.expired()
        with pytest.raises(QueryTimeout, match="IC5"):
            deadline.check()

    def test_timeout_is_a_ges_error(self):
        with pytest.raises(GesError):
            Deadline.after(0.0).check()

    def test_tick_checks_within_one_stride(self):
        deadline = Deadline.after(0.0)
        with pytest.raises(QueryTimeout):
            for _ in range(TICK_STRIDE + 1):
                deadline.tick()

    def test_no_ambient_deadline_by_default(self):
        assert current_deadline() is None

    def test_scope_installs_and_restores(self):
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline) as active:
            assert active is deadline
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_nested_scope_keeps_sooner_expiry(self):
        outer = Deadline.after(0.001)
        inner = Deadline.after(3600.0)
        with deadline_scope(outer):
            with deadline_scope(inner) as active:
                # The outer deadline expires first and must stay in force.
                assert active.expires_at == outer.expires_at
            assert current_deadline() is outer

    def test_none_scope_leaves_outer_in_force(self):
        outer = Deadline.after(60.0)
        with deadline_scope(outer):
            with deadline_scope(None) as active:
                assert active is outer


# -- fault injection --------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="site"):
            FaultRule(site="nonsense.site", probability=0.5)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="locks.acquire", probability=1.5)

    def test_negative_every_nth_rejected(self):
        # every_nth=-2 would otherwise fire on every even hit.
        with pytest.raises(ValueError, match="every_nth"):
            FaultRule(site="locks.acquire", every_nth=-2)

    def test_negative_max_fires_rejected(self):
        # max_fires=-1 would otherwise silence a probability=1.0 rule.
        with pytest.raises(ValueError, match="max_fires"):
            FaultRule(site="locks.acquire", probability=1.0, max_fires=-1)

    def test_duplicate_sites_rejected(self):
        rules = (
            FaultRule(site="locks.acquire", every_nth=1),
            FaultRule(site="locks.acquire", every_nth=2),
        )
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(rules=rules)

    def test_every_nth_fires_deterministically(self):
        plan = FaultPlan(rules=(FaultRule(site="locks.acquire", every_nth=3),))
        fired = []
        for i in range(9):
            try:
                plan.fire("locks.acquire")
            except TransientError:
                fired.append(i)
        assert fired == [2, 5, 8]

    def test_max_fires_caps_injection(self):
        plan = FaultPlan(
            rules=(FaultRule(site="locks.acquire", every_nth=1, max_fires=2),)
        )
        fired = 0
        for _ in range(10):
            try:
                plan.fire("locks.acquire")
            except TransientError:
                fired += 1
        assert fired == 2

    def test_probability_stream_is_seeded(self):
        def fires(seed):
            plan = FaultPlan(
                rules=(FaultRule(site="locks.acquire", probability=0.5),), seed=seed
            )
            out = []
            for i in range(50):
                try:
                    plan.fire("locks.acquire")
                except TransientError:
                    out.append(i)
            return out

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)

    def test_fault_scope_installs_and_restores(self):
        from repro.resilience import faults

        plan = FaultPlan()
        assert faults.ACTIVE is None
        with fault_scope(plan):
            assert faults.ACTIVE is plan
        assert faults.ACTIVE is None

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan(rules=(FaultRule(site="locks.acquire", every_nth=1),))
        plan.fire("plan_cache.lookup")  # not in the plan: must be a no-op

    def test_kill_site_sigkills_on_its_hit(self):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: three hits, the third one kills
            try:
                os.close(read_fd)
                plan = FaultPlan(
                    [FaultRule("commit.applied", every_nth=3, max_fires=1)]
                )
                for _ in range(3):
                    plan.fire("commit.applied")
                    os.write(write_fd, b".")
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            survived = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert survived == b".."


class TestSiteCatalog:
    """``faults.SITES`` and the site literals in the code name the same set."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    CALL = re.compile(r"\b(?:maybe_)?fire\(\s*\"([^\"]+)\"")

    def _call_sites(self) -> dict[str, list[str]]:
        found: dict[str, list[str]] = {}
        for path in sorted(self.SRC.rglob("*.py")):
            for site in self.CALL.findall(path.read_text()):
                found.setdefault(site, []).append(str(path.relative_to(self.SRC)))
        return found

    def test_every_fired_site_is_in_the_catalog(self):
        from repro.resilience.faults import SITES

        unknown = {s: p for s, p in self._call_sites().items() if s not in SITES}
        assert not unknown, f"sites fired but not in faults.SITES: {unknown}"

    def test_every_catalog_site_has_a_call_site(self):
        from repro.resilience.faults import SITES

        missing = sorted(set(SITES) - set(self._call_sites()))
        assert not missing, f"faults.SITES entries no code fires: {missing}"

    def test_every_site_raises_or_kills(self):
        # FaultPlan.fire treats any effect but KILL as transient.
        from repro.resilience.faults import KILL, SITES, TRANSIENT

        assert set(SITES.values()) == {TRANSIENT, KILL}


# -- retry -----------------------------------------------------------------------


class TestRetryPolicy:
    def test_succeeds_after_transients(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("injected")
            return "ok"

        stats = RetryStats()
        policy = RetryPolicy(attempts=5, backoff_ms=0.0)
        assert policy.run(flaky, on_retry=stats.record) == "ok"
        assert calls["n"] == 3
        assert stats.retries == 2

    def test_non_retryable_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5, backoff_ms=0.0).run(broken)
        assert calls["n"] == 1

    def test_attempts_exhausted_raises_last_error(self):
        def always():
            raise TransientError("forever")

        with pytest.raises(TransientError):
            RetryPolicy(attempts=3, backoff_ms=0.0).run(always)

    def test_expired_deadline_suppresses_retry(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise TransientError("injected")

        with pytest.raises(TransientError):
            RetryPolicy(attempts=5, backoff_ms=0.0).run(
                flaky, deadline=Deadline.after(0.0)
            )
        assert calls["n"] == 1

    def test_jitter_is_deterministic_per_seed(self):
        from random import Random

        policy = RetryPolicy(seed=3)
        a = [policy.delay_ms(k, Random("3:retry")) for k in range(1, 5)]
        b = [policy.delay_ms(k, Random("3:retry")) for k in range(1, 5)]
        assert a == b

    def test_backoff_is_capped(self):
        from random import Random

        policy = RetryPolicy(backoff_ms=10.0, multiplier=10.0, max_backoff_ms=25.0)
        assert policy.delay_ms(5, Random(0)) <= 25.0

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


# -- timeout matrix: all four variants honor a near-zero deadline ----------------


class TestTimeoutMatrix:
    @pytest.mark.parametrize("variant", ["GES", "GES_f", "GES_f*"])
    def test_near_zero_deadline_cancels(self, micro_store, variant):
        config = {
            "GES": EngineConfig.ges,
            "GES_f": EngineConfig.ges_f,
            "GES_f*": EngineConfig.ges_f_star,
        }[variant]()
        engine = GES(micro_store, config)
        baseline = rows_bag(engine.execute(LONG_QUERY).rows)
        with pytest.raises(QueryTimeout):
            engine.execute(LONG_QUERY, timeout=1e-9)
        # Cancellation left the engine clean: no lock is still held and the
        # identical query still returns the full answer.
        locks = engine.txn_manager.locks
        assert not any(locks.is_locked(key) for key in list(locks._locks))
        assert rows_bag(engine.execute(LONG_QUERY).rows) == baseline

    def test_volcano_honors_timeout(self, micro_store):
        engine = VolcanoEngine(micro_store)
        plan = GES(micro_store).compile(LONG_QUERY)
        baseline = rows_bag(engine.execute(plan).rows)
        with pytest.raises(QueryTimeout):
            engine.execute(plan, timeout=1e-9)
        assert rows_bag(engine.execute(plan).rows) == baseline

    def test_config_level_timeout(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f_star(query_timeout_ms=1e-6))
        with pytest.raises(QueryTimeout):
            engine.execute(LONG_QUERY)

    def test_generous_deadline_does_not_fire(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f_star())
        result = engine.execute(LONG_QUERY, timeout=60.0)
        assert len(result.rows) > 0

    def test_volcano_respects_ambient_deadline(self, micro_store):
        engine = VolcanoEngine(micro_store)
        plan = GES(micro_store).compile(LONG_QUERY)
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(QueryTimeout):
                engine.execute(plan)


# -- degradation ladder ----------------------------------------------------------


def _ladder_registry(factorized=None, flat=None):
    """The default modules, with the factorized and flat executor slots
    replaced by *factorized* / *flat* where given; every executor call is
    counted in the returned dict."""
    base = default_registry()
    registry = ModuleRegistry()
    for layer, component in (("frontend", "parser"), ("execution", "optimizer")):
        for name in base.available(layer, component):
            module = base.resolve(layer, component, name)
            registry.register(layer, component, name, module)
    calls = {"factorized": 0, "flat": 0}
    for name, module in (("factorized", factorized), ("flat", flat)):
        module = module or base.resolve("execution", "executor", name)

        def counted(*args, _name=name, _module=module):
            calls[_name] += 1
            return _module(*args)

        registry.register("execution", "executor", name, counted)
    return registry, calls


def _raising(error):
    def executor(*_args):
        raise error

    return executor


class TestEngineDegradation:
    def test_primary_success_skips_fallback(self, micro_store):
        registry, calls = _ladder_registry()
        engine = GES(micro_store, EngineConfig.ges_f_star(), registry=registry)
        engine.execute(LONG_QUERY)
        assert calls == {"factorized": 1, "flat": 0}

    def test_ges_error_degrades_to_fallback(self, micro_store):
        flat = GES(micro_store, EngineConfig.ges())
        expected = rows_bag(flat.execute(LONG_QUERY).rows)
        registry, calls = _ladder_registry(factorized=_raising(StorageError("boom")))
        engine = GES(micro_store, EngineConfig.ges_f_star(), registry=registry)
        stats = ExecStats()
        result = engine.execute(LONG_QUERY, stats=stats)
        assert rows_bag(result.rows) == expected
        assert calls == {"factorized": 1, "flat": 1}
        assert stats.degrade_count == 1
        assert stats.degrade_reasons == ["executor:StorageError"]

    def test_double_failure_raises_original(self, micro_store):
        registry, calls = _ladder_registry(
            factorized=_raising(TransientError("original")),
            flat=_raising(StorageError("secondary")),
        )
        engine = GES(micro_store, EngineConfig.ges_f_star(), registry=registry)
        with pytest.raises(TransientError, match="original"):
            engine.execute(LONG_QUERY)
        assert calls == {"factorized": 1, "flat": 1}

    def test_timeout_never_degrades(self, micro_store):
        registry, calls = _ladder_registry(
            factorized=_raising(QueryTimeout("deadline"))
        )
        engine = GES(micro_store, EngineConfig.ges_f_star(), registry=registry)
        with pytest.raises(QueryTimeout):
            engine.execute(LONG_QUERY)
        assert calls == {"factorized": 1, "flat": 0}

    def test_raw_exception_not_degraded(self, micro_store):
        registry, calls = _ladder_registry(
            factorized=_raising(ValueError("bug, not an engine error"))
        )
        engine = GES(micro_store, EngineConfig.ges_f_star(), registry=registry)
        with pytest.raises(ValueError):
            engine.execute(LONG_QUERY)
        assert calls == {"factorized": 1, "flat": 0}

    def test_factorized_falls_back_to_flat(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f_star())
        expected = rows_bag(engine.execute(LONG_QUERY).rows)
        plan = FaultPlan(
            rules=(FaultRule(site="executor.operator", every_nth=1, max_fires=1),)
        )
        stats = ExecStats()
        with fault_scope(plan):
            result = engine.execute(LONG_QUERY, stats=stats)
        assert rows_bag(result.rows) == expected
        assert stats.degrade_count == 1
        assert plan.total_fired() == 1

    def test_plan_cache_fault_degrades_to_uncached_compile(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f_star())
        expected = rows_bag(engine.execute(LONG_QUERY).rows)
        plan = FaultPlan(rules=(FaultRule(site="plan_cache.lookup", every_nth=1),))
        with fault_scope(plan):
            result = engine.execute(LONG_QUERY)
        assert rows_bag(result.rows) == expected
        assert plan.total_fired() >= 1

    def test_memory_pool_fault_degrades_to_direct_alloc(self, micro_store):
        # The pool serves copy-on-write pre-images, so the fault is reached
        # through a property-write commit; it must degrade to a direct
        # allocation inside the pool, never fail the transaction.
        engine = GES(micro_store, EngineConfig.ges())
        pool = engine.txn_manager.pool
        before = pool.direct_allocs
        plan = FaultPlan(rules=(FaultRule(site="memory_pool.acquire", every_nth=1),))
        with fault_scope(plan):
            engine.with_transaction(
                lambda txn: txn.set_vertex_property("Person", 1, "age", 26)
            )
        assert pool.direct_allocs > before
        view = engine.txn_manager.read_view()
        rows = engine.execute(
            "MATCH (p:Person) WHERE p.age = 26 RETURN id(p)", view=view
        ).rows
        assert len(rows) == 1


# -- retry wiring: transactions and injected lock faults -------------------------


class TestTransactionRetry:
    def test_describe_reports_resilience_block(self, micro_store):
        engine = GES(
            micro_store,
            EngineConfig.ges_f_star(query_timeout_ms=100.0, retry_attempts=3),
        )
        block = engine.describe()["resilience"]
        assert block["query_timeout_ms"] == 100.0
        assert block["retry"]["attempts"] == 3

    def test_with_transaction_retries_injected_lock_fault(self, micro_store):
        engine = GES(
            micro_store,
            EngineConfig.ges(retry_attempts=4, retry_backoff_ms=0.0),
        )
        plan = FaultPlan(
            rules=(FaultRule(site="locks.acquire", every_nth=1, max_fires=1),)
        )

        def insert(txn):
            txn.add_edge(
                "KNOWS", VertexRef("Person", 3), VertexRef("Person", 4), {"since": 99}
            )
            return "done"

        with fault_scope(plan):
            assert engine.with_transaction(insert) == "done"
        assert plan.total_fired() == 1
        view = engine.txn_manager.read_view()
        rows = engine.execute(
            "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.age > 24 RETURN id(b)",
            view=view,
        ).rows
        assert len(rows) > 0

    def test_no_retry_policy_surfaces_fault(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges())
        assert engine.retry_policy is None
        plan = FaultPlan(
            rules=(FaultRule(site="locks.acquire", every_nth=1, max_fires=1),)
        )

        def insert(txn):
            txn.set_vertex_property("Person", 0, "age", 31)

        with fault_scope(plan):
            with pytest.raises(TransientError):
                engine.with_transaction(insert)
        # The failed transaction held nothing: a plain retry by the caller
        # succeeds because the fault was single-shot.
        with fault_scope(plan):
            engine.with_transaction(insert)


# -- stress with faults ----------------------------------------------------------


class TestStressWithFaults:
    def test_writers_retry_and_invariants_hold(self):
        config = StressConfig(
            seed=11,
            faults=FaultPlan(
                rules=(FaultRule(site="locks.acquire", probability=0.3),), seed=11
            ),
        )
        report = run_stress(config)
        assert report.passed, report.violations[:3]
        assert report.fault_retries > 0

    def test_same_seed_same_interleaving(self):
        config = StressConfig(
            seed=5,
            faults=FaultPlan(
                rules=(FaultRule(site="locks.acquire", probability=0.2),), seed=5
            ),
        )
        a, b = run_stress(config), run_stress(config)
        assert (a.commits, a.fault_retries, a.dropped_batches, a.final_version) == (
            b.commits,
            b.fault_retries,
            b.dropped_batches,
            b.final_version,
        )


# -- chaos campaign --------------------------------------------------------------


class TestChaosCampaign:
    def test_mini_campaign_holds_invariants(self):
        report = run_chaos(
            ChaosConfig(seed=3, iterations=30, graphs=1, stress_runs=1)
        )
        assert report.passed, [str(v) for v in report.violations[:3]]
        assert report.total_fired > 0
        assert "PASS" in report.summary()

    def test_same_seed_same_campaign(self):
        config = ChaosConfig(seed=9, iterations=24, graphs=1, stress_runs=1)
        a, b = run_chaos(config), run_chaos(config)
        assert a.fired == b.fired
        assert a.typed_errors == b.typed_errors
        assert (a.ok, a.queries, a.updates, a.degraded) == (
            b.ok,
            b.queries,
            b.updates,
            b.degraded,
        )

    def test_high_fault_rate_still_no_violations(self):
        report = run_chaos(
            ChaosConfig(
                seed=13,
                iterations=20,
                graphs=1,
                fault_probability=0.4,
                stress_runs=0,
            )
        )
        assert report.passed, [str(v) for v in report.violations[:3]]

    def test_campaign_plan_never_holds_a_kill_site(self):
        from repro.resilience.faults import SITES, TRANSIENT
        from repro.testkit.chaos import _chaos_plan

        plan = _chaos_plan(ChaosConfig(fault_probability=1.0), graph=0)
        assert plan.rules and all(SITES[r.site] == TRANSIENT for r in plan.rules)


# -- corrupt snapshots (satellite: storage/io error wrapping) --------------------


class TestCorruptSnapshots:
    def test_round_trip_still_works(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        loaded = load_graph(path)
        assert set(loaded.schema.vertex_labels) == set(
            micro_store.schema.vertex_labels
        )

    def test_truncated_npz_names_offending_file(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        victim = next(iter(sorted(path.glob("*.npz"))))
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(StorageError, match=victim.name):
            load_graph(path)

    def test_garbage_npz_names_offending_file(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        victim = next(iter(sorted(path.glob("*.npz"))))
        victim.write_bytes(b"this is not a numpy archive")
        with pytest.raises(StorageError, match=victim.name):
            load_graph(path)

    def test_malformed_schema_json(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        (path / "schema.json").write_text("{not json")
        with pytest.raises(StorageError, match="schema"):
            load_graph(path)

    def test_schema_missing_keys(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        (path / "schema.json").write_text(
            json.dumps({"format": 1, "unexpected": []})
        )
        with pytest.raises(StorageError, match="schema"):
            load_graph(path)

    def test_missing_edge_member(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        victim = next(iter(sorted(path.glob("edges_*.npz"))))
        data = dict(np.load(victim, allow_pickle=True))
        data.pop("__src")
        np.savez(victim, **data)
        # Refresh the manifest so the structural check fires, not the SHA one.
        write_manifest(path)
        with pytest.raises(StorageError, match="__src"):
            load_graph(path)

    def test_tampered_file_fails_manifest_verification(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        victim = next(iter(sorted(path.glob("edges_*.npz"))))
        data = dict(np.load(victim, allow_pickle=True))
        data.pop("__src")
        np.savez(victim, **data)
        with pytest.raises(StorageError, match="SHA-256"):
            load_graph(path)

    def test_snapshot_load_fault_site(self, micro_store, tmp_path):
        path = save_graph(micro_store, tmp_path / "snap")
        plan = FaultPlan(rules=(FaultRule(site="snapshot.load", every_nth=1),))
        with fault_scope(plan):
            with pytest.raises(TransientError):
                load_graph(path)
        load_graph(path)  # injection gone: load succeeds


# -- driver error accounting (satellite: per-query errors, not aborts) -----------


@pytest.fixture(scope="module")
def sf1():
    return generate("SF1", seed=42)


class TestDriverErrorAccounting:
    def _driver(self, sf1, **kwargs):
        engine = GES(sf1.store, EngineConfig.ges_f_star())
        return BenchmarkDriver(engine, sf1, seed=7, **kwargs)

    def test_ges_error_is_logged_not_raised(self, sf1, monkeypatch):
        def failing(engine, params, stats):
            raise TransientError("injected op failure")

        monkeypatch.setitem(
            LDBC_REGISTRY, "IS1", LdbcQueryDef("IS1", "IS", failing)
        )
        driver = self._driver(sf1)
        report = driver.run(num_operations=60)
        assert len(report.logs) == 60  # the run was not aborted
        failed = [log for log in report.logs if log.error is not None]
        assert failed and all(log.name == "IS1" for log in failed)
        assert all("TransientError" in log.error for log in failed)
        assert all(log.rows == 0 for log in failed)

    def test_error_count_and_summary(self, sf1, monkeypatch):
        def failing(engine, params, stats):
            raise TransientError("boom")

        monkeypatch.setitem(
            LDBC_REGISTRY, "IS2", LdbcQueryDef("IS2", "IS", failing)
        )
        report = self._driver(sf1).run(num_operations=60)
        assert report.error_count("IS2") > 0
        assert report.error_count(category="IS") >= report.error_count("IS2")
        summary = report.latency_summary("IS2")
        assert summary["errors"] == report.error_count("IS2")

    def test_raw_exception_still_aborts_with_repro(self, sf1, monkeypatch):
        def broken(engine, params, stats):
            raise RuntimeError("a bug, not an engine error")

        monkeypatch.setitem(
            LDBC_REGISTRY, "IS3", LdbcQueryDef("IS3", "IS", broken)
        )
        from repro.errors import DriverError

        with pytest.raises(DriverError):
            self._driver(sf1).run(num_operations=60)

    def test_query_timeout_param_installs_deadline(self, sf1, monkeypatch):
        seen = []

        def probe(engine, params, stats):
            seen.append(current_deadline())
            return []

        monkeypatch.setitem(
            LDBC_REGISTRY, "IS4", LdbcQueryDef("IS4", "IS", probe)
        )
        self._driver(sf1, query_timeout=30.0).run(num_operations=60)
        assert seen and all(d is not None for d in seen)

    def test_no_timeout_means_no_deadline(self, sf1, monkeypatch):
        seen = []

        def probe(engine, params, stats):
            seen.append(current_deadline())
            return []

        monkeypatch.setitem(
            LDBC_REGISTRY, "IS5", LdbcQueryDef("IS5", "IS", probe)
        )
        self._driver(sf1).run(num_operations=60)
        assert seen and all(d is None for d in seen)
