"""Tests for the differential fuzzing harness (repro.testkit).

The decisive test here is the injected-bug pipeline: a deliberately broken
executor wired into the oracle's engine map must be caught by the fuzz
loop, minimized by the shrinker, archived as a self-contained corpus
entry, and reproduced by replaying that entry — while the same entry
replays clean against the healthy engines.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.obs.metrics import REGISTRY
from repro.plan.expressions import Col, InSet, Lit
from repro.plan.logical import Aggregate, AggregateTopK, Expand, Filter, LogicalPlan, NodeScan
from repro.plan.optimizer import aggregate_project_top
from repro.testkit import (
    DifferentialOracle,
    FuzzConfig,
    GeneratedQuery,
    QueryGenerator,
    StressConfig,
    UpdateGenerator,
    deserialize_plan,
    fuzz_schema,
    generate_store,
    load_entries,
    replay_entry,
    run_fuzz,
    run_stress,
    serialize_plan,
    store_from_spec,
)
from repro.testkit.corpus import make_entry, save_entry
from repro.testkit.graphgen import PROFILES, random_graph_spec
from repro.testkit.shrink import failure_signature, shrink_failure
from repro.txn.transaction import TransactionManager


# -- plan serde ------------------------------------------------------------------


def _generated_plans(seed: int, n: int) -> list[GeneratedQuery]:
    schema = fuzz_schema()
    store, spec = generate_store(seed, schema, "quick")
    gen = QueryGenerator(schema, random.Random(f"{seed}:serde"))
    return [gen.query(spec) for _ in range(n)]


class TestPlanSerde:
    def test_generated_plans_round_trip(self):
        for query in _generated_plans(11, 40):
            payload = query.to_json()
            rebuilt = GeneratedQuery.from_json(payload)
            assert rebuilt.to_json() == payload

    def test_container_literals_round_trip(self):
        plan = LogicalPlan(
            [
                NodeScan("p", "Person"),
                Filter(InSet(Col("p"), Lit(frozenset({3, 1, 2})))),
            ],
            returns=["p"],
        )
        payload = serialize_plan(plan)
        rebuilt = serialize_plan(deserialize_plan(payload))
        assert rebuilt == payload
        expr = deserialize_plan(payload).ops[1].expr
        assert expr.values.value == frozenset({1, 2, 3})

    def test_tuple_literal_round_trip(self):
        plan = LogicalPlan(
            [NodeScan("p", "Person"), Filter(InSet(Col("p"), Lit((2, 0))))]
        )
        rebuilt = deserialize_plan(serialize_plan(plan))
        assert rebuilt.ops[1].expr.values.value == (0, 2)


# -- oracle ----------------------------------------------------------------------


class _RowDropper:
    """A broken engine: silently drops the last result row."""

    def __init__(self, inner):
        self._inner = inner

    def compile(self, text):
        return self._inner.compile(text)

    def execute(self, runnable, params=None, view=None, **kwargs):
        result = self._inner.execute(runnable, params, view=view, **kwargs)
        if result.rows:
            class _Tampered:
                columns = result.columns
                rows = result.rows[:-1]

            return _Tampered()
        return result


def _broken_factory(store) -> DifferentialOracle:
    oracle = DifferentialOracle(store)
    oracle.engines["GES_f*"] = _RowDropper(oracle.engines["GES_f*"])
    return oracle


class TestDifferentialOracle:
    def test_clean_engines_agree(self):
        schema = fuzz_schema()
        store, spec = generate_store(21, schema, "quick")
        oracle = DifferentialOracle(store)
        gen = QueryGenerator(schema, random.Random("21:oracle"))
        for _ in range(25):
            assert oracle.check(gen.query(spec)) == []

    def test_injected_bug_is_caught(self):
        schema = fuzz_schema()
        store, spec = generate_store(22, schema, "quick")
        oracle = _broken_factory(store)
        gen = QueryGenerator(schema, random.Random("22:oracle"))
        kinds = set()
        for _ in range(40):
            for mismatch in oracle.check(gen.query(spec)):
                kinds.add(mismatch.signature)
        assert ("rows", "GES_f*") in kinds

    def test_branching_aggregate_shape(self):
        """Seed 0's first query branches the f-Tree (two expands from the
        source) and aggregates on the first branch, a non-root node: the
        shape under which the fused aggregate weights entries by the sibling
        branch's tuple counts."""
        schema = fuzz_schema()
        store, spec = generate_store(0, schema, "quick")
        query = QueryGenerator(schema, random.Random("0:queries:0")).query(spec)
        assert "branch-aggregate" in query.features
        source, first, second = query.plan.ops[:3]
        assert isinstance(first, Expand) and isinstance(second, Expand)
        assert first.from_var == second.from_var == source.var
        aggregate = next(op for op in query.plan.ops if isinstance(op, Aggregate))
        assert aggregate.group_by == [first.to_var]
        assert isinstance(aggregate_project_top(query.plan).ops[-1], AggregateTopK)
        assert DifferentialOracle(store).check(query) == []

    def test_unknown_baseline_rejected(self):
        store, _ = generate_store(1, fuzz_schema(), "quick")
        with pytest.raises(ValueError):
            DifferentialOracle(store, baseline="nope")


# -- fuzz loop: catch -> shrink -> archive -> replay ------------------------------


class TestInjectedBugPipeline:
    def test_full_pipeline(self, tmp_path):
        config = FuzzConfig(
            seed=5, iterations=40, stress_runs=0, corpus_dir=tmp_path
        )
        report = run_fuzz(config, oracle_factory=_broken_factory)
        assert not report.passed
        assert report.failures

        entries = load_entries(tmp_path)
        assert entries, "a minimized repro should have been archived"
        entry = entries[0]
        assert entry.name.startswith("fuzz-")
        # The shrinker got the graph well below the generated sizes.
        assert entry.spec.total_vertices() <= 10

        # Replaying against the broken engines reproduces the signature...
        replayed = replay_entry(entry, _broken_factory)
        captured = {tuple(pair) for pair in entry.signature}
        assert captured <= failure_signature(replayed)
        # ...and against the healthy engines the repro is clean ("fixed").
        assert replay_entry(entry) == []

    def test_fuzz_counters_registered(self):
        run_fuzz(FuzzConfig(seed=9, iterations=5, stress_runs=0))
        names = {family.name for family in REGISTRY.families()}
        assert "ges_fuzz_queries_total" in names
        assert "ges_fuzz_mismatches_total" in names
        assert REGISTRY.get("ges_fuzz_queries_total") is not None

    def test_clean_run_passes(self):
        report = run_fuzz(FuzzConfig(seed=4, iterations=30, stress_runs=1))
        assert report.passed, report.summary()
        assert report.queries_checked == 30


class TestShrinker:
    def test_shrunk_triple_still_reproduces(self):
        schema = fuzz_schema()
        spec = random_graph_spec(
            random.Random("shrink:graph"), schema, PROFILES["quick"], seed=77
        )
        store = store_from_spec(spec)
        oracle = _broken_factory(store)
        gen = QueryGenerator(schema, random.Random("shrink:q"))
        query, mismatches = None, []
        for _ in range(40):
            candidate = gen.query(spec)
            mismatches = oracle.check(candidate)
            if mismatches:
                query = candidate
                break
        assert query is not None, "row-dropper never produced a mismatch"
        s_query, s_spec, s_updates = shrink_failure(
            query, spec, mismatches, oracle_factory=_broken_factory
        )
        assert s_spec.total_vertices() <= spec.total_vertices()
        from repro.testkit.shrink import replay

        found = failure_signature(replay(s_query, s_spec, s_updates, _broken_factory))
        assert failure_signature(mismatches) <= found


# -- update batches ---------------------------------------------------------------


class TestUpdateBatches:
    def test_batches_round_trip_and_apply(self):
        schema = fuzz_schema()
        store, spec = generate_store(31, schema, "quick")
        ugen = UpdateGenerator(
            schema, random.Random("31:updates"), spec, PROFILES["quick"]
        )
        manager = TransactionManager(store)
        for _ in range(5):
            batch = ugen.batch()
            rebuilt = type(batch).from_json(batch.to_json())
            assert rebuilt.to_json() == batch.to_json()
            batch.apply(manager)
        assert manager.versions.current() == 5

    def test_oracle_checks_post_update_snapshots(self):
        report = run_fuzz(
            FuzzConfig(seed=13, iterations=40, update_rate=0.8, stress_runs=0)
        )
        assert report.passed, report.summary()
        assert report.updates_applied > 0


# -- stress -----------------------------------------------------------------------


class TestStress:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_invariants_hold(self, seed):
        report = run_stress(StressConfig(seed=seed))
        assert report.passed, "\n".join(report.violations[:5])
        assert report.commits > 0 and report.reads > 0

    def test_same_seed_same_interleaving(self):
        a = run_stress(StressConfig(seed=6))
        b = run_stress(StressConfig(seed=6))
        assert (a.commits, a.reads, a.gc_runs, a.gc_released, a.final_version) == (
            b.commits,
            b.reads,
            b.gc_runs,
            b.gc_released,
            b.final_version,
        )

    def test_gc_actually_prunes(self):
        report = run_stress(StressConfig(seed=2, gc_rounds=12))
        assert report.passed
        assert report.gc_runs > 0


# -- corpus entries ---------------------------------------------------------------


class TestCorpus:
    def test_entry_name_is_content_addressed(self):
        schema = fuzz_schema()
        _, spec = generate_store(41, schema, "quick")
        gen = QueryGenerator(schema, random.Random("41:c"))
        query = gen.query(spec)
        one = make_entry(query, spec, [])
        two = make_entry(query, spec, [])
        assert one.name == two.name

    def test_save_is_idempotent(self, tmp_path):
        schema = fuzz_schema()
        _, spec = generate_store(42, schema, "quick")
        query = QueryGenerator(schema, random.Random("42:c")).query(spec)
        entry = make_entry(query, spec, [])
        first = save_entry(entry, tmp_path)
        second = save_entry(entry, tmp_path)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1


# -- CLI --------------------------------------------------------------------------


class TestFuzzCli:
    def test_repro_fuzz_passes(self, capsys):
        code = main(["fuzz", "--seed", "0", "--iterations", "20", "--stress-runs", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "20 queries" in out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--profile", "galactic", "--iterations", "1"])
