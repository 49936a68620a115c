"""Ablation — the resilience layer's query-path overhead when armed.

Watchdog deadlines and the retry wrapper both sit on ``GES.execute``: the
deadline is checked at every operator boundary and at strided chunk
boundaries inside expansion/enumeration loops, and the retry policy wraps
each attempt.

Two costs matter, with different budgets:

* **disabled** (the default config) must be free — with no deadline and
  no retry policy ``GES.execute`` calls the one attempt directly, and a
  regression on that path is judged by alternating parent/change pairs
  of ``bench/run.py`` against the bounds in ``BENCHMARK.json``;
* **armed** (deadline + retry configured, neither firing) pays a
  few microseconds of fixed cost per query — measured here as the
  armed/disarmed total-runtime ratio over the figure-2 IC set, with an
  assert sized for CI noise (the interleaved minima land around +1-3% on
  sub-millisecond SF1 queries, i.e. ~4 us fixed per call, with
  run-to-run noise of the same magnitude).

We run the full IC set armed vs disarmed, interleaved with per-query
minima over several repeats, and report both per-query ratios and the
total.
"""

from __future__ import annotations

from conftest import IC_QUERIES, dataset_for, emit, make_engine, measure_query, params_for
from repro import GES, EngineConfig

SCALE = "SF1"
DRAWS = 3
REPEATS = 8

#: Armed-but-never-firing: a deadline far above any IC runtime and a retry
#: policy that only engages on retryable errors.
ARMED = dict(query_timeout_ms=60_000.0, retry_attempts=3)


def run_ablation():
    """Interleaved armed/disarmed repeats: {armed: {query: min seconds}}."""
    dataset = dataset_for(SCALE)
    engines = {
        True: GES(dataset.store, EngineConfig.ges_f_star(**ARMED)),
        False: make_engine(dataset.store, "GES_f*"),
    }
    params = {name: params_for(dataset, name, DRAWS) for name in IC_QUERIES}
    for engine in engines.values():  # warm plan caches out of the timings
        for name in IC_QUERIES:
            measure_query(engine, name, params[name][:1])
    best: dict[bool, dict[str, float]] = {True: {}, False: {}}
    # Interleave per query, alternating order each repeat: system noise
    # drifts on the ~100 ms scale, so back-to-back armed/off pairs see the
    # same conditions and the minima compare like for like.
    for name in IC_QUERIES:
        for repeat in range(REPEATS):
            order = (True, False) if repeat % 2 == 0 else (False, True)
            for armed in order:
                mean_seconds, _ = measure_query(engines[armed], name, params[name])
                previous = best[armed].get(name)
                if previous is None or mean_seconds < previous:
                    best[armed][name] = mean_seconds
    return best


def test_ablation_resilience(benchmark):
    best = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    on_s = sum(best[True].values())
    off_s = sum(best[False].values())
    overhead = on_s / off_s - 1

    lines = [
        "",
        f"== Ablation: resilience layer ({SCALE}, IC set, min over "
        f"{REPEATS} runs x {DRAWS} draws) ==",
        f"{'query':6} {'armed ms':>10} {'off ms':>10} {'ratio':>8}",
    ]
    for name in IC_QUERIES:
        on_ms = best[True][name] * 1e3
        off_ms = best[False][name] * 1e3
        lines.append(
            f"{name:6} {on_ms:>10.3f} {off_ms:>10.3f} "
            f"{on_ms / max(off_ms, 1e-9):>8.3f}"
        )
    lines.append(
        f"total: {on_s * 1e3:.2f} ms armed vs {off_s * 1e3:.2f} ms off "
        f"-> armed overhead {overhead * 100:+.1f}% (gate < 8%)"
    )
    emit(
        lines,
        archive="ablation_resilience.txt",
        data={
            "scale": SCALE,
            "draws": DRAWS,
            "repeats": REPEATS,
            "armed": ARMED,
            "queries": {
                name: {
                    "armed_ms": best[True][name] * 1e3,
                    "off_ms": best[False][name] * 1e3,
                }
                for name in IC_QUERIES
            },
            "armed_total_ms": on_s * 1e3,
            "off_total_ms": off_s * 1e3,
            "overhead_fraction": overhead,
        },
    )

    assert overhead < 0.08, (
        f"armed resilience costs a few us per query (~1-3% on SF1's "
        f"sub-ms queries, with run-to-run noise of the same size); "
        f"measured {overhead * 100:+.1f}% breaks the noise-adjusted 8% "
        f"gate — the per-row (unstrided) deadline ticking this guards "
        f"against measured +6-10%"
    )
