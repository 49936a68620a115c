"""Tests for the parameterized plan cache and compile instrumentation."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, EngineConfig, GES, PropertyDef, VertexLabelDef
from repro.engine.plan_cache import PlanCache, PlanCacheStats, plan_fingerprint
from repro.exec.base import ExecStats
from repro.frontend.cypher import compile_cypher
from repro.frontend.cypher.lexer import normalize
from repro.ldbc import ParameterGenerator, REGISTRY
from repro.ldbc.validation import rows_bag
from repro.plan.expressions import Col, InSet, Lit, Param
from repro.plan.logical import (
    Filter,
    GetProperty,
    Limit,
    LogicalPlan,
    NodeByIdSeek,
    NodeScan,
    OrderBy,
    Project,
)
from repro.resilience import FaultPlan, FaultRule, fault_scope
from repro.testkit import QueryGenerator, fuzz_schema, generate_store

CYPHER = "MATCH (m:Message) RETURN m.length AS len ORDER BY len DESC LIMIT 2"


def template_plan() -> LogicalPlan:
    """A parameterized template plan (fresh instance per call)."""
    return LogicalPlan(
        [
            NodeByIdSeek("p", "Person", Param("personId")),
            GetProperty("p", "age", "age"),
            Filter(Col("age") >= Param("minAge")),
            Project([("age", Col("age"))]),
            OrderBy([("age", True)]),
            Limit(5),
        ],
        returns=["age"],
    )


class TestPlanCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_hit_miss_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.lookup("k") is None
        plan = template_plan()
        cache.store("k", plan)
        assert cache.lookup("k") is plan
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_prefers_recently_used(self):
        cache = PlanCache(capacity=2)
        a, b, c = template_plan(), template_plan(), template_plan()
        cache.store("a", a)
        cache.store("b", b)
        assert cache.lookup("a") is a  # refresh "a"; "b" is now LRU
        cache.store("c", c)
        assert cache.stats.evictions == 1
        assert cache.lookup("b") is None
        assert cache.lookup("a") is a
        assert cache.lookup("c") is c

    def test_invalidate_clears_and_counts(self):
        cache = PlanCache(capacity=4)
        cache.store("a", template_plan())
        cache.store("b", template_plan())
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.lookup("a") is None

    def test_describe(self):
        cache = PlanCache(capacity=3)
        info = cache.describe()
        assert info["enabled"] is True
        assert info["capacity"] == 3
        assert {"size", "hits", "misses", "evictions", "hit_rate"} <= info.keys()

    def test_stats_empty_hit_rate(self):
        assert PlanCacheStats().hit_rate == 0.0


class TestPlanFingerprint:
    def test_stable_across_rebuilds(self):
        assert plan_fingerprint(template_plan()) == plan_fingerprint(template_plan())

    def test_distinguishes_structure(self):
        other = LogicalPlan([NodeScan("p", "Person")], returns=None)
        assert plan_fingerprint(template_plan()) != plan_fingerprint(other)

    def test_distinguishes_literal_values(self):
        one = LogicalPlan([NodeScan("p", "Person"), Filter(Col("p") == Lit(1))])
        two = LogicalPlan([NodeScan("p", "Person"), Filter(Col("p") == Lit(2))])
        assert plan_fingerprint(one) != plan_fingerprint(two)

    def test_data_bearing_literal_is_uncacheable(self):
        rows = np.arange(3, dtype=np.int64)
        plan = LogicalPlan(
            [NodeScan("p", "Person"), Filter(Col("p") == Lit(rows))]
        )
        assert plan_fingerprint(plan) is None

    def test_memoized_on_instance(self):
        plan = template_plan()
        first = plan_fingerprint(plan)
        assert plan._fingerprint == first
        assert plan_fingerprint(plan) is first


class TestServicePlanCache:
    def test_cypher_second_execution_hits(self, micro_store):
        engine = GES(micro_store)
        first, second = ExecStats(), ExecStats()
        engine.execute(CYPHER, stats=first)
        engine.execute(CYPHER, stats=second)
        assert first.plan_cache_misses == 1 and not first.cache_hit
        assert second.plan_cache_hits == 1 and second.cache_hit
        assert engine.plan_cache.stats.hits == 1

    def test_cached_physical_plan_is_reused(self, micro_store):
        engine = GES(micro_store)
        assert engine.plan(CYPHER) is engine.plan(CYPHER)

    def test_equivalent_plan_objects_share_entry(self, micro_store):
        engine = GES(micro_store)
        engine.execute(template_plan(), {"personId": 1, "minAge": 0})
        stats = ExecStats()
        engine.execute(template_plan(), {"personId": 3, "minAge": 20}, stats=stats)
        assert stats.cache_hit

    def test_uncacheable_plan_bypasses_cache(self, micro_store):
        engine = GES(micro_store)
        plan = LogicalPlan(
            [NodeScan("p", "Person"), Filter(InSet(Col("p"), Lit(frozenset({0, 2}))))],
            returns=None,
        )
        engine.execute(plan)
        engine.execute(plan)
        assert engine.plan_cache.stats.lookups == 0

    def test_compile_stage_timings_recorded(self, micro_store):
        stats = ExecStats()
        GES(micro_store).execute(CYPHER, stats=stats)
        assert stats.compile_seconds > 0
        assert {"parse", "bind", "optimize"} <= stats.stage_times.keys()

    def test_disabled_cache(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f_star(plan_cache=False))
        stats = ExecStats()
        engine.execute(CYPHER, stats=stats)
        engine.execute(CYPHER, stats=stats)
        assert engine.plan_cache is None
        assert stats.plan_cache_hits == 0 and stats.plan_cache_misses == 0
        assert engine.describe()["plan_cache"] == {"enabled": False}

    def test_describe_surfaces_cache(self, micro_store):
        engine = GES(micro_store)
        engine.execute(CYPHER)
        info = engine.describe()["plan_cache"]
        assert info["enabled"] is True
        assert info["size"] == 1

    def test_schema_change_invalidates(self, micro_store):
        engine = GES(micro_store)
        engine.execute(CYPHER)
        assert len(engine.plan_cache) == 1
        micro_store.schema.add_vertex_label(
            VertexLabelDef(
                "Widget", [PropertyDef("id", DataType.INT64)], primary_key="id"
            )
        )
        stats = ExecStats()
        engine.execute(CYPHER, stats=stats)
        assert engine.plan_cache.stats.invalidations == 1
        assert not stats.cache_hit  # recompiled against the new schema
        assert engine.describe()["plan_cache"]["size"] == 1

    # -- keyed on query shape --------------------------------------------------

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                "MATCH (p:Person) WHERE p.age > 26 RETURN id(p) AS i",
                "MATCH (p:Person) WHERE p.age > 31 RETURN id(p) AS i",
            ),
            (
                "MATCH (m:Message) WHERE m.score < 3.5 RETURN id(m) AS i",
                "MATCH (m:Message) WHERE m.score < 1.5 RETURN id(m) AS i",
            ),
            (
                "MATCH (p:Person {firstName: 'B'})-[:KNOWS]->(f) RETURN id(f) AS i",
                "MATCH (p:Person {firstName: 'E'})-[:KNOWS]->(f) RETURN id(f) AS i",
            ),
            (
                "MATCH (p:Person {id: 1}) WITH p.firstName AS n WHERE n <> 'it\\'s' RETURN n",
                "MATCH (p:Person {id: 3}) WITH p.firstName AS n WHERE n <> 'B' RETURN n",
            ),
        ],
    )
    def test_texts_of_one_shape_share_a_plan(self, micro_store, first, second):
        engine = GES(micro_store)
        uncached = GES(micro_store, EngineConfig.ges_f_star(plan_cache=False))
        stats = [ExecStats(), ExecStats()]
        for text, text_stats in zip((first, second), stats):
            rows = engine.execute(text, stats=text_stats).rows
            assert rows_bag(rows) == rows_bag(uncached.execute(text).rows)
        assert stats[0].plan_cache_misses == 1 and stats[1].cache_hit
        assert len(engine.plan_cache) == 1

    def test_structural_literals_keep_separate_entries(self, micro_store):
        engine = GES(micro_store)
        texts = {
            "MATCH (p:Person) RETURN id(p) AS i ORDER BY i LIMIT 2": ["i"],
            "MATCH (p:Person) RETURN id(p) AS i ORDER BY i LIMIT 3": ["i"],
            "MATCH (p:Person {id: 0})-[:KNOWS*1..1]->(f) RETURN id(f) AS i": ["i"],
            "MATCH (p:Person {id: 0})-[:KNOWS*1..2]->(f) RETURN id(f) AS i": ["i"],
            "MATCH (p:Person) RETURN p.age + 1": ["(p.age + 1)"],
            "MATCH (p:Person) RETURN p.age + 2": ["(p.age + 2)"],
        }
        results = {text: engine.execute(text) for text in texts}
        assert engine.plan_cache.stats.hits == 0
        assert len(engine.plan_cache) == len(texts)
        for text, columns in texts.items():
            assert results[text].columns == columns
        rows = [len(result) for result in results.values()]
        assert rows[:4] == [2, 3, 2, 4]
        assert sorted(results["MATCH (p:Person) RETURN p.age + 2"].rows) == [
            (27,), (27,), (32,), (37,), (42,)
        ]

    def test_hidden_parameter_text_is_not_rewritten(self, micro_store):
        engine = GES(micro_store)
        text = "MATCH (p:Person) WHERE p.age > $__lit0 AND p.age < 36 RETURN id(p) AS i"
        rows = engine.execute(text, {"__lit0": 26}).rows
        assert sorted(rows) == [(0,), (2,)]
        stats = ExecStats()
        engine.execute(text.replace("36", "41"), {"__lit0": 26}, stats=stats)
        assert not stats.cache_hit  # the literal 36 stayed part of the key

    def test_caller_params_untouched(self, micro_store):
        engine = GES(micro_store)
        params = {"min": 20}
        text = "MATCH (p:Person) WHERE p.age > $min AND p.age < 31 RETURN id(p) AS i"
        rows = engine.execute(text, params).rows
        assert sorted(rows) == [(0,), (1,), (3,)]
        assert params == {"min": 20}

    def test_plan_runs_without_params(self, micro_store):
        engine = GES(micro_store)
        text = "MATCH (p:Person {firstName: 'B'}) WHERE p.age > 20 RETURN id(p) AS i"
        engine.execute(text)  # warm the shape
        plan = engine.plan(text)
        assert "Lit('B')" in engine.explain(text)
        assert "Lit('E')" in engine.explain(text.replace("'B'", "'E'"))
        assert engine.plan_cache.stats.misses == 1
        assert "Param" not in repr(plan.ops)
        assert sorted(engine.execute(plan).rows) == [(1,), (3,)]

    def test_uncompilable_shape_falls_back_to_text(self, micro_store, monkeypatch):
        import repro.engine.service as service

        engine = GES(micro_store)
        text = "MATCH (p:Person) WHERE p.age > 30 RETURN id(p) AS i"
        monkeypatch.setattr(
            service, "normalize", lambda query: (query + " )", {"__lit0": 0})
        )
        assert sorted(engine.execute(text).rows) == [(2,), (4,)]
        assert [key[0] for key in engine.plan_cache._entries] == [text]

    def test_lookup_fault_degrades_with_lifted_values(self, micro_store):
        engine = GES(micro_store)
        text = "MATCH (p:Person) WHERE p.age >= 35 RETURN id(p) AS i"
        faults = FaultPlan(rules=(FaultRule(site="plan_cache.lookup", every_nth=1),))
        with fault_scope(faults):
            rows = engine.execute(text).rows
        assert sorted(rows) == [(2,), (4,)]
        assert faults.total_fired() == 1

    @pytest.mark.parametrize(
        "text",
        [
            # The shape reads "unexpected token '__lit1'" at another position.
            "MATCH (p:Person) WHERE p.age > 3 4 RETURN id(p)",
            "MATCH (p:Person {id: 1}) WHERE p.age > 3 RETURN id(p) LIMIT x",
            "MATCH (p:Person {id: 1) RETURN id(p)",
            "MATCH (p:Person) WHERE p.age > 'oops RETURN id(p)",
            "MATCH (p:Person) WHERE p.age > ²3 RETURN id(p)",
            "MATCH (p:Person) WHERE p.age = 3 RETURN id(p) LIMIT ٣",
            "MATCH (p:Person) WHERE p.nope = 3 RETURN id(p)",
            "MATCH (p:Person) WHERE p.age = 3 RETURN $",
        ],
    )
    def test_bad_text_raises_the_original_error(self, micro_store, text):
        with pytest.raises(Exception) as expected:
            compile_cypher(text, micro_store.schema)
        with pytest.raises(type(expected.value)) as actual:
            GES(micro_store).execute(text)
        assert str(actual.value) == str(expected.value)
        assert getattr(actual.value, "position", None) == getattr(
            expected.value, "position", None
        )


class TestFuzzedDdlInvalidation:
    """Seeded random DDL streams against the cache's schema fingerprint.

    Every schema change — however irrelevant to the cached queries — must
    invalidate exactly once, the very next execution must recompile, and
    the answer must be identical before and after.  Runs both the
    text-keyed and the fingerprint-keyed (plan-object) cache paths.
    """

    def _random_ddl(self, schema, rng: random.Random, i: int) -> None:
        from repro import DataType, EdgeLabelDef, PropertyDef, VertexLabelDef

        dtypes = (DataType.INT64, DataType.FLOAT64, DataType.STRING, DataType.BOOL)
        if rng.random() < 0.5:
            props = [PropertyDef("id", DataType.INT64)] + [
                PropertyDef(f"p{j}", rng.choice(dtypes))
                for j in range(rng.randint(0, 3))
            ]
            schema.add_vertex_label(
                VertexLabelDef(f"Fuzz{i}", props, primary_key="id")
            )
        else:
            labels = list(schema.vertex_labels)
            schema.add_edge_label(
                EdgeLabelDef(
                    f"FUZZ_REL_{i}", rng.choice(labels), rng.choice(labels)
                )
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_ddl_invalidates_and_answers_survive(self, micro_store, seed):
        engine = GES(micro_store)
        rng = random.Random(f"ddl:{seed}")
        baseline = engine.execute(CYPHER).rows
        ddl_count = 0
        for i in range(12):
            if rng.random() < 0.6:
                self._random_ddl(micro_store.schema, rng, f"{seed}_{i}")
                ddl_count += 1
                stats = ExecStats()
                result = engine.execute(CYPHER, stats=stats)
                # The very next execution recompiles against the new schema...
                assert not stats.cache_hit, f"step {i}: stale plan served after DDL"
                assert result.rows == baseline
            stats = ExecStats()
            result = engine.execute(CYPHER, stats=stats)
            # ...and the cache immediately warms back up.
            assert stats.cache_hit, f"step {i}: cache did not rebuild"
            assert result.rows == baseline
        assert engine.plan_cache.stats.invalidations == ddl_count

    def test_plan_object_cache_invalidated_by_ddl(self, micro_store):
        from repro import DataType, PropertyDef, VertexLabelDef

        engine = GES(micro_store)
        engine.execute(template_plan(), {"personId": 1, "minAge": 0})
        micro_store.schema.add_vertex_label(
            VertexLabelDef(
                "FuzzPlanObj", [PropertyDef("id", DataType.INT64)], primary_key="id"
            )
        )
        stats = ExecStats()
        engine.execute(template_plan(), {"personId": 1, "minAge": 0}, stats=stats)
        assert not stats.cache_hit
        assert engine.plan_cache.stats.invalidations == 1

    def test_interleaved_texts_all_flushed(self, micro_store):
        from repro import DataType, PropertyDef, VertexLabelDef

        engine = GES(micro_store)
        other = "MATCH (p:Person) RETURN count(*) AS n"
        engine.execute(CYPHER)
        engine.execute(other)
        assert len(engine.plan_cache) == 2
        micro_store.schema.add_vertex_label(
            VertexLabelDef(
                "FuzzFlush", [PropertyDef("id", DataType.INT64)], primary_key="id"
            )
        )
        stats_a, stats_b = ExecStats(), ExecStats()
        engine.execute(CYPHER, stats=stats_a)
        engine.execute(other, stats=stats_b)
        # One invalidation flushes *every* entry, not just the executed key.
        assert not stats_a.cache_hit and not stats_b.cache_hit
        assert engine.plan_cache.stats.invalidations == 1


class TestExecStatsMerge:
    def test_merge_carries_rows_out(self):
        # Regression: merge() silently dropped the other side's rows_out.
        a, b = ExecStats(), ExecStats()
        a.rows_out, b.rows_out = 7, 5
        a.merge(b)
        assert a.rows_out == 12

    def test_merge_folds_compile_counters(self):
        a, b = ExecStats(), ExecStats()
        a.record_compile(0.5, {"parse": 0.2}, cache_hit=False)
        b.record_compile(0.25, {"parse": 0.1, "optimize": 0.05}, cache_hit=True)
        a.merge(b)
        assert a.compile_seconds == 0.75
        assert a.stage_times == {"parse": 0.30000000000000004, "optimize": 0.05}
        assert a.plan_cache_hits == 1 and a.plan_cache_misses == 1
        assert not a.cache_hit  # mixed outcome is not a pure hit


class TestStoreVersionedDelete:
    def test_versioned_remove_edge_decreases_edge_count(self, micro_store):
        from repro.storage.graph import VertexRef

        before = micro_store.edge_count
        removed = micro_store.remove_edge(
            "KNOWS", VertexRef("Person", 0), VertexRef("Person", 1), version=5
        )
        assert removed
        assert micro_store.edge_count == before - 1


QUERIES = ("IC2", "IC5", "IC11", "IS1", "IS3", "IS7")
VARIANTS = {
    "GES": EngineConfig.ges,
    "GES_f": EngineConfig.ges_f,
    "GES_f*": EngineConfig.ges_f_star,
}


@pytest.mark.parametrize("name", QUERIES)
def test_variants_agree_cache_on_and_off(sf1_dataset, name):
    """All three variants return identical rows with the cache on and off,
    and the cache-on rows are identical on the cold and the warm pass."""
    params = ParameterGenerator(sf1_dataset, seed=3).params_for(name)
    reference = None
    for variant, make_config in VARIANTS.items():
        cached = GES(sf1_dataset.store, make_config(plan_cache=True))
        cold = REGISTRY[name].fn(cached, params, ExecStats())
        warm = REGISTRY[name].fn(cached, params, ExecStats())
        uncached = GES(sf1_dataset.store, make_config(plan_cache=False))
        off = REGISTRY[name].fn(uncached, params, ExecStats())
        assert cold == warm, f"{variant}/{name}: warm cache changed the rows"
        assert cold == off, f"{variant}/{name}: plan cache changed the rows"
        if reference is None:
            reference = cold
        else:
            assert cold == reference, f"{name}: {variant} disagrees across variants"


class TestShapeKeyDifferential:
    """Generated Cypher texts and siblings with every WHERE and
    property-map literal changed: a warm engine must answer both as an
    uncached engine does, and the sibling must reuse the text's plan."""

    LIFTED = re.compile(r"(\{\w+: |WHERE \S+ [<>]=? )(\d+)")

    @pytest.fixture(scope="class")
    def graph(self):
        schema = fuzz_schema()
        store, spec = generate_store(5, schema, "quick")
        warm = GES(store)
        uncached = GES(store, EngineConfig.ges_f_star(plan_cache=False))
        return schema, spec, warm, uncached

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), changes=st.randoms(use_true_random=False))
    def test_siblings_agree_and_hit(self, graph, seed, changes):
        schema, spec, warm, uncached = graph
        query = QueryGenerator(schema, random.Random(seed)).cypher_query(spec)
        text = query.cypher
        sibling = self.LIFTED.sub(
            lambda m: m[1] + str(int(m[2]) + changes.randint(1, 40)), text
        )
        for candidate in (text, sibling):
            assert rows_bag(warm.execute(candidate, query.params).rows) == rows_bag(
                uncached.execute(candidate, query.params).rows
            ), candidate
        stats = ExecStats()
        warm.execute(sibling, query.params, stats=stats)
        if normalize(sibling)[0] == normalize(text)[0]:
            assert stats.cache_hit, (text, sibling)
