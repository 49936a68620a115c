"""Query execution: one operator pipeline (flat / factorized start states), runtime."""

from . import analytics  # noqa: F401 — registers the OLAP procedures
from .base import ExecStats, ExecutionContext, QueryResult
from .pipeline import execute_factorized, execute_flat
from .procedures import get_procedure, register_procedure
from .runtime import SimulationResult, run_inter_query, run_sequential, simulate_service

__all__ = [
    "ExecStats",
    "ExecutionContext",
    "QueryResult",
    "SimulationResult",
    "execute_factorized",
    "execute_flat",
    "get_procedure",
    "register_procedure",
    "run_inter_query",
    "run_sequential",
    "simulate_service",
]
