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
    """Module selection plus runtime knobs for one engine instance."""

    name: str = "GES_f*"
    executor: str = "factorized"  # execution.executor module
    optimizer: str = "fusion"  # execution.optimizer module
    parser: str = "cypher"  # frontend.parser module
    workers: int = 1  # worker processes for pooled execution (1 = in-process)
    # --- pooled-execution knobs (repro.parallel; active when workers > 1) ---
    partitions: int = 0  # scatter partitions per query (0 = one per worker)
    partition_kind: str = "range"  # "range" (byte-identical) | "hash"
    scatter_min_rows: int = 64  # below this source size, skip scatter
    plan_cache: bool = True  # cache compiled physical plans (ablation knob)
    tracing: bool = False  # per-query span trees (repro.obs.tracing)
    metrics: bool = True  # engine-level instruments (repro.obs.metrics)
    flight_recorder: int = 64  # last-N query ring size (0 disables)
    slow_query_ms: float = 50.0  # pin queries slower than this in the slow ring
    # --- resilience knobs (repro.resilience; all off by default except the
    # --- degradation ladder, which only changes what happens on failure) ---
    query_timeout_ms: float = 0.0  # per-query deadline (0 = unbounded)
    max_concurrent_queries: int = 0  # admission concurrency limit (0 = off)
    admission_queue_limit: int = 0  # bounded wait queue depth (0 = no queue)
    memory_budget_bytes: int = 0  # estimated-memory admission budget (0 = off)
    retry_attempts: int = 0  # total attempts for retryable errors (0/1 = off)
    retry_backoff_ms: float = 1.0  # base backoff before the first retry
    retry_seed: int = 0  # seed for deterministic retry jitter
    degrade: bool = True  # graceful degradation ladder (executor fallback, …)
    # --- durability knobs (repro.durability; off by default — in-memory) ---
    durability: str | None = None  # None (off) | "fsync" | "batch" WAL mode
    wal_batch_every: int = 8  # batch mode: fsync every N commit appends
    checkpoint_keep: int = 2  # checkpoints retained (older ones pruned)

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
