"""Ablation — what durability costs the commit path.

Three commit paths over identical deterministic update batches:

* **off** — the default in-memory engine (``EngineConfig(durability=None)``,
  no database directory).  The durability hooks left on this path are a
  ``wal is None`` branch per commit and the crash sites' disarmed
  ``faults.ACTIVE`` guards — one attribute read each, the same guard every
  fault site pays, with nothing left to neutralise for a baseline.
* **batch** — WAL group commit (fsync every ``wal_batch_every`` appends):
  the bounded-loss middle ground; reported as a multiplier over *off*.
* **fsync** — an fsync per commit: the full durability guarantee, priced
  by the disk, not the engine; reported as a multiplier over *off*.

Runs interleave with per-scenario minima so OS noise cancels.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

from conftest import emit

from repro import GES, EngineConfig
from repro.obs.clock import now
from repro.testkit.graphgen import fuzz_schema, random_graph_spec, store_from_spec
from repro.testkit.querygen import UpdateGenerator

SEED = 7
BATCHES = 60
REPEATS = 5
SCENARIOS = ("off", "batch", "fsync")


def _batches(schema, spec):
    generator = UpdateGenerator(
        schema, random.Random(f"{SEED}:durability:updates"), spec, "quick"
    )
    return [generator.batch() for _ in range(BATCHES)]


def _config(mode: str | None) -> EngineConfig:
    return EngineConfig.ges(
        metrics=False, flight_recorder=0, durability=mode, wal_batch_every=8
    )


def _timed_apply(engine, batches) -> float:
    manager = engine.txn_manager
    start = now()
    for batch in batches:
        batch.apply(manager)
    return now() - start


def _run_scenario(scenario: str, spec, batches, workdir: Path) -> float:
    """One timed pass: fresh store (and db dir for durable modes)."""
    store = store_from_spec(spec)
    if scenario == "off":
        return _timed_apply(GES(store, _config(None)), batches)
    db = workdir / f"db-{scenario}"
    if db.exists():
        shutil.rmtree(db)
    engine = GES.open(db, config=_config(scenario), schema=store)
    try:
        return _timed_apply(engine, batches)
    finally:
        engine.close()


def run_ablation() -> dict[str, float]:
    """Interleaved minima: {scenario: best seconds for the batch suite}."""
    schema = fuzz_schema()
    spec = random_graph_spec(
        random.Random(f"{SEED}:durability:graph"), schema, "quick", seed=SEED
    )
    batches = _batches(schema, spec)
    best: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="ges-bench-durability-") as tdir:
        workdir = Path(tdir)
        for scenario in SCENARIOS:  # warm-up pass, untimed ranking
            _run_scenario(scenario, spec, batches, workdir)
        for repeat in range(REPEATS):
            order = SCENARIOS if repeat % 2 == 0 else tuple(reversed(SCENARIOS))
            for scenario in order:
                seconds = _run_scenario(scenario, spec, batches, workdir)
                if scenario not in best or seconds < best[scenario]:
                    best[scenario] = seconds
    return best


def test_ablation_durability(benchmark):
    best = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    batch_x = best["batch"] / best["off"]
    fsync_x = best["fsync"] / best["off"]

    per_commit_us = {
        name: seconds / BATCHES * 1e6 for name, seconds in best.items()
    }
    lines = [
        "",
        f"== Ablation: durability ({BATCHES} update batches, min over "
        f"{REPEATS} interleaved runs) ==",
        f"{'path':8} {'total ms':>10} {'us/commit':>11} {'vs off':>8}",
    ]
    for name in SCENARIOS:
        lines.append(
            f"{name:8} {best[name] * 1e3:>10.2f} {per_commit_us[name]:>11.1f} "
            f"{best[name] / best['off']:>8.2f}x"
        )
    lines.append(f"batch {batch_x:.1f}x, fsync {fsync_x:.1f}x over off")
    emit(
        lines,
        archive="ablation_durability.txt",
        data={
            "seed": SEED,
            "batches": BATCHES,
            "repeats": REPEATS,
            "seconds": best,
            "per_commit_us": per_commit_us,
            "batch_multiplier": batch_x,
            "fsync_multiplier": fsync_x,
        },
    )

