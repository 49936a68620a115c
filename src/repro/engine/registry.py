"""The composable module registry (paper §2.1, Figure 1).

GES follows the composable-data-systems design: each layer (frontend,
execution engine, graph storage) accommodates multiple components, each
component multiple modules, and "GES can be configured as a specific graph
data management system by selecting modules from different layers and
registering them during development".

:class:`ModuleRegistry` is that mechanism: modules are registered under
``layer.component`` slots and an :class:`~repro.engine.config.EngineConfig`
selects one module per slot.  The built-in modules registered in
:func:`default_registry` cover everything this reproduction implements;
tests exercise registering custom modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import GesError


@dataclass(frozen=True)
class ModuleKey:
    layer: str  # "frontend" | "execution" | "storage"
    component: str  # e.g. "executor", "optimizer", "parser"
    name: str  # module name within the component

    def slot(self) -> tuple[str, str]:
        return (self.layer, self.component)


class ModuleRegistry:
    """Registry of pluggable modules, keyed by layer/component/name."""

    LAYERS = ("frontend", "execution", "storage")

    def __init__(self) -> None:
        self._modules: dict[tuple[str, str], dict[str, Any]] = {}

    def register(self, layer: str, component: str, name: str, module: Any) -> None:
        """Register *module* (any factory or callable) under a slot."""
        if layer not in self.LAYERS:
            raise GesError(f"unknown layer {layer!r}; expected one of {self.LAYERS}")
        slot = (layer, component)
        modules = self._modules.setdefault(slot, {})
        if name in modules:
            raise GesError(f"module {layer}.{component}.{name} already registered")
        modules[name] = module

    def resolve(self, layer: str, component: str, name: str) -> Any:
        slot = (layer, component)
        try:
            return self._modules[slot][name]
        except KeyError:
            available = sorted(self._modules.get(slot, {}))
            raise GesError(
                f"no module {name!r} in {layer}.{component}; available: {available}"
            ) from None

    def available(self, layer: str, component: str) -> list[str]:
        return sorted(self._modules.get((layer, component), {}))

    def describe(self) -> dict[str, list[str]]:
        """Human-readable inventory: 'layer.component' -> module names."""
        return {
            f"{layer}.{component}": sorted(modules)
            for (layer, component), modules in sorted(self._modules.items())
        }


def default_registry() -> ModuleRegistry:
    """Registry pre-populated with every built-in module."""
    from ..exec.pipeline import execute_factorized, execute_flat
    from ..frontend.cypher import compile_cypher
    from ..plan.optimizer import DEFAULT_RULES, optimize

    registry = ModuleRegistry()
    # Frontend layer.
    registry.register("frontend", "parser", "cypher", compile_cypher)
    # Execution layer: executors.
    registry.register("execution", "executor", "flat", execute_flat)
    registry.register("execution", "executor", "factorized", execute_factorized)
    # Execution layer: optimizers.
    registry.register("execution", "optimizer", "none", lambda plan: plan)
    registry.register(
        "execution", "optimizer", "fusion", lambda plan: optimize(plan, DEFAULT_RULES)
    )
    # Storage layer.
    registry.register("storage", "backend", "adjacency-inmemory", "adjacency-inmemory")
    return registry
