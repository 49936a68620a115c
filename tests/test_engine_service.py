"""Tests for the composable engine service: registry, config, facade."""

import pytest

from repro import EngineConfig, GES
from repro.engine import ModuleRegistry, default_registry, open_all_variants
from repro.errors import GesError
from repro.plan import TopK, plan_summary


class TestModuleRegistry:
    def test_register_and_resolve(self):
        registry = ModuleRegistry()
        registry.register("execution", "executor", "custom", "module")
        assert registry.resolve("execution", "executor", "custom") == "module"

    def test_unknown_layer_rejected(self):
        with pytest.raises(GesError):
            ModuleRegistry().register("ghost-layer", "c", "n", None)

    def test_duplicate_rejected(self):
        registry = ModuleRegistry()
        registry.register("storage", "backend", "x", 1)
        with pytest.raises(GesError):
            registry.register("storage", "backend", "x", 2)

    def test_missing_module_error_lists_available(self):
        registry = default_registry()
        with pytest.raises(GesError, match="factorized"):
            registry.resolve("execution", "executor", "ghost")

    def test_default_registry_inventory(self):
        inventory = default_registry().describe()
        assert inventory["execution.executor"] == ["factorized", "flat"]
        assert inventory["execution.optimizer"] == ["fusion", "none"]
        assert inventory["frontend.parser"] == ["cypher"]

    def test_available(self):
        assert default_registry().available("execution", "optimizer") == [
            "fusion", "none",
        ]


class TestEngineConfig:
    def test_variant_presets(self):
        assert EngineConfig.ges().executor == "flat"
        assert EngineConfig.ges_f().optimizer == "none"
        assert EngineConfig.ges_f_star().optimizer == "fusion"

    def test_names(self):
        assert EngineConfig.ges().name == "GES"
        assert EngineConfig.ges_f().name == "GES_f"
        assert EngineConfig.ges_f_star().name == "GES_f*"


class TestService:
    def test_default_variant_is_fused(self, micro_store):
        engine = GES(micro_store)
        assert engine.variant == "GES_f*"

    def test_plan_applies_optimizer(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f_star())
        plan = engine.plan(
            "MATCH (m:Message) RETURN m.length AS len ORDER BY len DESC LIMIT 2"
        )
        assert any(isinstance(op, TopK) for op in plan.ops)

    def test_plan_without_optimizer(self, micro_store):
        engine = GES(micro_store, EngineConfig.ges_f())
        plan = engine.plan(
            "MATCH (m:Message) RETURN m.length AS len ORDER BY len DESC LIMIT 2"
        )
        assert not any(isinstance(op, TopK) for op in plan.ops)

    def test_construct_from_schema(self, micro_schema):
        engine = GES(micro_schema)
        assert engine.store.vertex_count == 0

    def test_describe(self, micro_store):
        info = GES(micro_store).describe()
        assert info["variant"] == "GES_f*"
        assert info["vertices"] == micro_store.vertex_count
        assert "execution.executor" in info["modules"]

    def test_open_all_variants_share_store(self, micro_store):
        engines = open_all_variants(micro_store)
        assert set(engines) == {"GES", "GES_f", "GES_f*"}
        assert all(e.store is micro_store for e in engines.values())

    def test_custom_module_composition(self, micro_store):
        """Register a custom executor module and compose an engine with it."""
        calls = []

        def tracing_executor(plan, view, params=None, stats=None):
            from repro.exec import execute_flat

            calls.append(plan)
            return execute_flat(plan, view, params, stats)

        registry = default_registry()
        registry.register("execution", "executor", "tracing", tracing_executor)
        config = EngineConfig(name="traced", executor="tracing", optimizer="none")
        engine = GES(micro_store, config, registry)
        result = engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert result.rows == [(5,)]
        assert len(calls) == 1

    def test_reads_after_write_use_snapshot(self, micro_store):
        engine = GES(micro_store)
        before = engine.execute("MATCH (p:Person) RETURN count(*) AS n").rows[0][0]
        txn = engine.transaction()
        txn.add_vertex("Person", {"id": 90, "firstName": "Q", "age": 3})
        txn.commit()
        after = engine.execute("MATCH (p:Person) RETURN count(*) AS n").rows[0][0]
        assert after == before + 1
