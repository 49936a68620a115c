"""Engine configuration: which modules each GES instance composes.

The three configurations evaluated in the paper:

* :meth:`EngineConfig.ges` — flat intermediate results (baseline GES);
* :meth:`EngineConfig.ges_f` — factorized executor (GES_f);
* :meth:`EngineConfig.ges_f_star` — factorized + operator fusion (GES_f*).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Module selection plus runtime knobs for one engine instance.

    Behaviour that is not a knob: the degradation ladder is always on (a
    factorized executor failure re-runs on the flat executor, a faulting
    plan cache costs an uncached compile), the flight recorder pins
    queries slower than 50 ms, and a durable engine keeps the two newest
    checkpoints.
    """

    name: str = "GES_f*"
    executor: str = "factorized"  # execution.executor module
    optimizer: str = "fusion"  # execution.optimizer module
    parser: str = "cypher"  # frontend.parser module
    plan_cache: bool = True  # cache compiled physical plans (ablation knob)
    tracing: bool = False  # per-query span trees (repro.obs.tracing)
    metrics: bool = True  # engine-level instruments (repro.obs.metrics)
    flight_recorder: int = 64  # last-N query ring size (0 disables)
    # --- resilience knobs (repro.resilience; off by default) ---
    query_timeout_ms: float = 0.0  # per-query deadline (0 = unbounded)
    retry_attempts: int = 0  # total attempts for retryable errors (0/1 = off)
    retry_backoff_ms: float = 1.0  # base backoff before the first retry
    retry_seed: int = 0  # seed for deterministic retry jitter
    # --- durability knobs (repro.durability; off by default — in-memory) ---
    durability: str | None = None  # None (off) | "fsync" | "batch" WAL mode
    wal_batch_every: int = 8  # batch mode: fsync every N commit appends

    @classmethod
    def ges(cls, **knobs) -> "EngineConfig":
        """The flat baseline variant (paper: GES)."""
        return cls(name="GES", executor="flat", optimizer="none", **knobs)

    @classmethod
    def ges_f(cls, **knobs) -> "EngineConfig":
        """The factorized variant without fusion (paper: GES_f)."""
        return cls(name="GES_f", executor="factorized", optimizer="none", **knobs)

    @classmethod
    def ges_f_star(cls, **knobs) -> "EngineConfig":
        """The factorized variant with operator fusion (paper: GES_f*)."""
        return cls(name="GES_f*", executor="factorized", optimizer="fusion", **knobs)


#: All three paper variants, in ablation order.
ALL_VARIANTS = (EngineConfig.ges(), EngineConfig.ges_f(), EngineConfig.ges_f_star())
