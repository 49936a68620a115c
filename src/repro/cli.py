"""Command-line interface for the GES reproduction.

Subcommands::

    python -m repro.cli generate --scale SF10 --out /tmp/snb10
    python -m repro.cli query --scale SF1 "MATCH (p:Person) RETURN count(*) AS n"
    python -m repro.cli bench --scale SF10 --ops 200 --variant "GES_f*"
    python -m repro.cli profile IC5 --scale SF1 --variant all
    python -m repro.cli metrics --scale SF1 --ops 100 --format prom
    python -m repro.cli fuzz --seed 0 --iterations 200 --corpus tests/corpus
    python -m repro.cli flightrec --scale SF1 --ops 50 --format json
    python -m repro.cli top --scale SF1 --once

``query``, ``bench``, and ``profile`` accept either ``--scale`` (generate
a mini-SNB graph in memory) or ``--graph DIR`` (load a snapshot written by
``generate --out``).  ``profile`` renders the per-operator span tree of
one query (an LDBC name like ``IC5`` or raw Cypher); ``metrics`` runs a
short driver workload and exports the process metrics registry as
Prometheus text or JSON.  ``flightrec`` runs a workload and dumps the
engine's always-on flight recorder.
"""

from __future__ import annotations

import argparse
import sys

from . import GES, EngineConfig
from .baselines import VolcanoEngine
from .exec.base import ExecStats
from .ldbc import BenchmarkDriver, SCALE_FACTORS, generate, validate
from .obs import get_registry, metrics_json, prometheus_text, render_span_tree
from .obs.clock import now
from .storage import GraphStore, load_graph, save_graph

VARIANTS = {
    "GES": EngineConfig.ges,
    "GES_f": EngineConfig.ges_f,
    "GES_f*": EngineConfig.ges_f_star,
}


def _resolve_store(args: argparse.Namespace) -> tuple[GraphStore, object | None]:
    if getattr(args, "graph", None):
        return load_graph(args.graph), None
    dataset = generate(args.scale, seed=args.seed)
    return dataset.store, dataset


def _make_engine(store: GraphStore, variant: str, plan_cache: bool = True):
    if variant == "Volcano":
        return VolcanoEngine(store)
    try:
        config = VARIANTS[variant](plan_cache=plan_cache)
    except KeyError:
        raise SystemExit(
            f"unknown variant {variant!r}; choose from {sorted(VARIANTS)} or Volcano"
        )
    return GES(store, config)


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a mini-SNB graph, print stats, optionally snapshot it."""
    started = now()
    dataset = generate(args.scale, seed=args.seed)
    elapsed = now() - started
    info = dataset.info
    print(
        f"{args.scale}: {info.num_persons} persons, {info.num_forums} forums, "
        f"{info.num_messages} messages ({info.num_posts} posts), "
        f"{info.num_knows_pairs} friendships [{elapsed:.2f}s]"
    )
    print(f"vertices={dataset.store.vertex_count} edges={dataset.store.edge_count}")
    if args.out:
        path = save_graph(dataset.store, args.out)
        print(f"snapshot written to {path}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Run one Cypher query and print rows (stats go to stderr)."""
    store, _ = _resolve_store(args)
    engine = _make_engine(store, args.variant, plan_cache=not args.no_plan_cache)
    if engine.variant == "Volcano":
        raise SystemExit("the Volcano baseline takes logical plans, not Cypher")
    params = _parse_params(args.param)
    result = engine.execute(args.cypher, params)
    if args.format == "json":
        import json

        print(json.dumps(result.to_dicts(), indent=2, default=str))
    else:
        print("\t".join(result.columns))
        for row in result.rows:
            print("\t".join(str(v) for v in row))
    cache_note = ""
    if engine.plan_cache is not None:
        cache_note = " (plan cache " + ("hit)" if result.stats.cache_hit else "miss)")
    print(
        f"-- {len(result.rows)} rows, {result.stats.total_seconds * 1e3:.2f} ms, "
        f"compile {result.stats.compile_seconds * 1e3:.2f} ms{cache_note}, "
        f"peak intermediate {result.stats.peak_intermediate_bytes} B",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the LDBC driver and print the throughput report."""
    dataset = generate(args.scale, seed=args.seed)
    engine = _make_engine(
        dataset.store, args.variant, plan_cache=not args.no_plan_cache
    )
    driver = BenchmarkDriver(engine, dataset, seed=args.seed)
    report = driver.run(num_operations=args.ops)
    print(
        f"{args.variant} on {args.scale}: {len(report.logs)} ops in "
        f"{report.wall_seconds:.2f}s, closed-loop {report.closed_loop_throughput:.0f} "
        f"ops/s, TCR score {report.throughput_score(args.workers):.0f} ops/s "
        f"({args.workers} simulated worker{'s' if args.workers != 1 else ''})"
    )
    for category in ("IC", "IS", "IU"):
        summary = report.latency_summary(category=category)
        if summary["n"]:
            print(
                f"  {category}: n={summary['n']} mean={summary['mean_ms']:.2f}ms "
                f"p50={summary['p50_ms']:.2f}ms p95={summary['p95_ms']:.2f}ms "
                f"p99={summary['p99_ms']:.2f}ms"
            )
    print(
        f"  compile: {report.compile_seconds * 1e3:.2f}ms total "
        f"({report.compile_fraction * 100:.1f}% of service time)"
    )
    if getattr(engine, "plan_cache", None) is not None:
        cache = engine.plan_cache.describe()
        print(
            f"  plan cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(rate {cache['hit_rate'] * 100:.1f}%), {cache['size']}/{cache['capacity']} "
            f"entries, {cache['evictions']} evictions"
        )
    else:
        print("  plan cache: disabled")
    return 0


def _parse_params(bindings: list[str] | None) -> dict[str, object]:
    params: dict[str, object] = {}
    for binding in bindings or []:
        name, _, value = binding.partition("=")
        params[name] = int(value) if value.lstrip("-").isdigit() else value
    return params


def cmd_profile(args: argparse.Namespace) -> int:
    """Render the per-operator span tree of one query (EXPLAIN ANALYZE).

    The target is either a registered LDBC query name (``IC5`` — parameters
    drawn from the dataset's generator) or raw Cypher text (parameters via
    ``--param``); ``--variant all`` profiles every paper variant on the
    same store.  ``--format json`` emits the span tree in the same
    serialization the flight recorder dumps (``obs.export.span_tree_json``).
    """
    import json

    from .engine.service import profile_summary
    from .ldbc import ParameterGenerator, REGISTRY
    from .obs import span_tree_json

    store, dataset = _resolve_store(args)
    variants = list(VARIANTS) if args.variant == "all" else [args.variant]
    is_ldbc = args.target in REGISTRY
    if is_ldbc:
        if dataset is None:
            raise SystemExit("profiling an LDBC query needs --scale, not --graph")
        params = ParameterGenerator(dataset, seed=args.seed).params_for(args.target)
    else:
        params = _parse_params(args.param)
    profiles = []
    for variant in variants:
        engine = _make_engine(store, variant)
        if is_ldbc:
            stats = ExecStats()
            stats.begin_trace()
            REGISTRY[args.target].fn(engine, dict(params), stats)
            root = stats.trace.finish()
            if args.format == "json":
                profiles.append(
                    {"variant": variant, "query": args.target}
                    | span_tree_json(root)
                )
                continue
            print(f"EXPLAIN ANALYZE ({variant}) — {args.target}")
            print(render_span_tree(root))
            print(profile_summary(stats))
        else:
            if args.format == "json":
                stats = ExecStats()
                stats.begin_trace()
                engine.execute(args.target, params, stats=stats)
                profiles.append(
                    {"variant": variant, "query": args.target}
                    | span_tree_json(stats.trace.finish())
                )
                continue
            print(engine.explain_analyze(args.target, params))
        print()
    if args.format == "json":
        print(json.dumps(profiles, indent=2, default=str))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a short LDBC workload, then export the process metrics registry."""
    import json

    variants = list(VARIANTS) if args.variant == "all" else [args.variant]
    for variant in variants:
        # Fresh store per variant: the stream's IU inserts mutate it.
        dataset = generate(args.scale, seed=args.seed)
        engine = _make_engine(dataset.store, variant)
        BenchmarkDriver(engine, dataset, seed=args.seed).run(args.ops)
    registry = get_registry()
    if args.format in ("prom", "both"):
        print(prometheus_text(registry), end="")
    if args.format in ("json", "both"):
        print(json.dumps(metrics_json(registry), indent=2, default=str))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the differential fuzzing + concurrency-stress campaign.

    Every query is executed on all four engines (flat, factorized, fused,
    Volcano) plus plan-cache-off / tracing-on configurations over the same
    snapshot; any bag inequality is shrunk to a minimal repro and — when
    ``--corpus`` is given — archived as a self-contained JSON entry that
    ``pytest -m corpus`` replays forever.
    """
    from .testkit import FuzzConfig, PROFILES, run_fuzz

    if args.profile not in PROFILES:
        raise SystemExit(
            f"unknown profile {args.profile!r}; choose from {sorted(PROFILES)}"
        )
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        profile=args.profile,
        stress_runs=args.stress_runs,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus,
    )
    on_event = print if args.verbose else None
    report = run_fuzz(config, on_event=on_event)
    print(report.summary())
    for failure in report.failures:
        print(f"  iteration {failure.iteration}: {failure.query}")
        for mismatch in failure.mismatches[:5]:
            print(f"    {mismatch}")
        if failure.path is not None:
            print(f"    archived: {failure.path}")
    for stress in report.stress:
        if not stress.passed:
            print(f"  stress: {stress.summary()}")
            for violation in stress.violations[:5]:
                print(f"    {violation}")
    return 0 if report.passed else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the deterministic fault-injection campaign.

    Seeded transient faults fire inside the memory pool, lock manager,
    plan cache, and executor while generated queries and update batches
    run against a resilient engine; every answer is checked against a
    fault-free reference run.  An injected fault must be retried,
    degraded, or surfaced as a typed ``GesError`` — never a wrong answer,
    never a raw exception.  ``--seeds N`` sweeps seeds ``seed..seed+N-1``.
    """
    from .testkit import ChaosConfig, PROFILES, run_chaos

    if args.profile not in PROFILES:
        raise SystemExit(
            f"unknown profile {args.profile!r}; choose from {sorted(PROFILES)}"
        )
    failed = 0
    for seed in range(args.seed, args.seed + max(1, args.seeds)):
        config = ChaosConfig(
            seed=seed,
            iterations=args.iterations,
            graphs=args.graphs,
            profile=args.profile,
            fault_probability=args.fault_probability,
            stress_runs=args.stress_runs,
            crash_runs=args.crash_runs,
            verbose=args.verbose,
        )
        report = run_chaos(config)
        print(report.summary())
        if args.verbose:
            fired = ", ".join(
                f"{site}={count}" for site, count in sorted(report.fired.items())
            )
            print(f"  fired by site: {fired or 'none'}")
        if not report.passed:
            failed += 1
            for violation in report.violations[:10]:
                print(f"  {violation}")
    if args.seeds > 1:
        status = "PASS" if failed == 0 else "FAIL"
        print(f"{status}: {args.seeds - failed}/{args.seeds} seeds clean")
    return 0 if failed == 0 else 1


def cmd_flightrec(args: argparse.Namespace) -> int:
    """Run a short workload, then dump the engine's flight recorder.

    The dump is the ring's retained span trees + metric snapshots for the
    last N completed queries and every slow query — the same payload the
    fuzz harness attaches to failure artifacts.
    """
    import json
    from pathlib import Path

    from .obs.flightrec import render_flight_dump

    dataset = generate(args.scale, seed=args.seed)
    engine = _make_engine(dataset.store, args.variant)
    if getattr(engine, "flight", None) is None:
        raise SystemExit(
            f"variant {args.variant!r} has no flight recorder "
            "(EngineConfig.flight_recorder is 0)"
        )
    if args.out:
        # Before the workload: a bad --out fails fast, not after the run.
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    BenchmarkDriver(engine, dataset, seed=args.seed).run(args.ops)
    dump = engine.flight.dump(last=args.last)
    if args.format == "json":
        text = json.dumps(dump, indent=2, default=str)
    else:
        text = render_flight_dump(dump)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"flight-recorder dump written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live process dashboard: latency percentiles and recent events.

    Runs an LDBC workload on one engine and renders the
    ``repro.obs.top`` dashboard over the process metrics registry and the
    structured event log.  ``--once`` runs the workload to completion and
    prints a single frame (the CI smoke mode); without it the frame is
    redrawn every ``--interval`` seconds while the workload runs.
    """
    from .obs.top import render_top_frame, run_top

    dataset = generate(args.scale, seed=args.seed)
    engine = _make_engine(dataset.store, args.variant)
    driver = BenchmarkDriver(engine, dataset, seed=args.seed)
    if args.once:
        driver.run(args.ops)
        print(render_top_frame(event_limit=args.events))
    else:
        run_top(lambda: driver.run(args.ops), interval_s=args.interval)
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Audit a durable database directory (read-only).

    Verifies every checkpoint manifest (per-file SHA-256) and scans every
    WAL segment for torn or corrupt records, printing the exact byte
    offset recovery would truncate at.  Exit 0 means a recovery of this
    directory would proceed with zero data-loss caveats.
    """
    import json

    from .durability import fsck

    report = fsck(args.path)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    print(f"fsck {report.path}")
    for entry in report.checkpoints:
        print(f"  checkpoint {entry['name']}: {entry['status']}")
    for entry in report.segments:
        if "status" in entry:
            print(f"  segment {entry['name']}: {entry['status']}")
        elif entry["clean"]:
            print(
                f"  segment {entry['name']}: clean, {entry['records']} record(s), "
                f"last version {entry['last_version']}"
            )
        else:
            print(
                f"  segment {entry['name']}: TORN at byte {entry['torn_offset']} "
                f"({entry['torn_reason']}); {entry['records']} valid record(s)"
            )
    for problem in report.problems:
        print(f"  problem: {problem}")
    print("ok" if report.ok else "NOT OK")
    return 0 if report.ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    """Audit read-query agreement across all engine variants."""
    dataset = generate(args.scale, seed=args.seed)
    report = validate(dataset, draws=args.draws, seed=args.seed)
    print(report.summary())
    for mismatch in report.mismatches:
        print(f"  mismatch: {mismatch.query} on {mismatch.variant}")
    for query, variant, error in report.errors:
        print(f"  error: {query} on {variant}: {error}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(prog="repro-ges", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a mini LDBC SNB graph")
    gen.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", help="write a snapshot directory")
    gen.set_defaults(fn=cmd_generate)

    query = sub.add_parser("query", help="run a Cypher query")
    query.add_argument("cypher")
    query.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    query.add_argument("--graph", help="snapshot directory instead of --scale")
    query.add_argument("--seed", type=int, default=42)
    query.add_argument("--variant", default="GES_f*")
    query.add_argument("--param", action="append", metavar="NAME=VALUE")
    query.add_argument("--format", choices=("table", "json"), default="table")
    query.add_argument(
        "--no-plan-cache", action="store_true", help="disable the plan cache (ablation)"
    )
    query.set_defaults(fn=cmd_query)

    bench = sub.add_parser("bench", help="run the LDBC benchmark driver")
    bench.add_argument("--scale", default="SF10", choices=sorted(SCALE_FACTORS))
    bench.add_argument("--ops", type=int, default=200)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--variant", default="GES_f*")
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulated workers for the TCR score (queries still run in-process)",
    )
    bench.add_argument(
        "--no-plan-cache", action="store_true", help="disable the plan cache (ablation)"
    )
    bench.set_defaults(fn=cmd_bench)

    profile = sub.add_parser(
        "profile", help="EXPLAIN ANALYZE: span tree of one query"
    )
    profile.add_argument("target", help="LDBC query name (e.g. IC5) or Cypher text")
    profile.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    profile.add_argument("--graph", help="snapshot directory instead of --scale")
    profile.add_argument("--seed", type=int, default=42)
    profile.add_argument(
        "--variant", default="GES_f*", help="engine variant, or 'all' for all three"
    )
    profile.add_argument("--param", action="append", metavar="NAME=VALUE")
    profile.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json = the span-tree serialization the flight recorder dumps",
    )
    profile.set_defaults(fn=cmd_profile)

    metrics = sub.add_parser(
        "metrics", help="run a workload and export the metrics registry"
    )
    metrics.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    metrics.add_argument("--ops", type=int, default=100)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument(
        "--variant", default="GES_f*", help="engine variant, or 'all' for all three"
    )
    metrics.add_argument("--format", choices=("prom", "json", "both"), default="prom")
    metrics.set_defaults(fn=cmd_metrics)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing + concurrency stress campaign"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iterations", type=int, default=200)
    fuzz.add_argument(
        "--profile", default="quick", help="graph size profile (quick/default/dense)"
    )
    fuzz.add_argument("--stress-runs", type=int, default=1)
    fuzz.add_argument("--corpus", help="directory for minimized repro entries")
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="archive raw failures unminimized"
    )
    fuzz.add_argument("--verbose", action="store_true", help="per-graph progress")
    fuzz.set_defaults(fn=cmd_fuzz)

    chaos = sub.add_parser(
        "chaos", help="deterministic fault-injection campaign with checked answers"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--seeds", type=int, default=1, help="sweep seed..seed+N-1")
    chaos.add_argument("--iterations", type=int, default=100)
    chaos.add_argument("--graphs", type=int, default=2)
    chaos.add_argument(
        "--profile", default="quick", help="graph size profile (quick/default/dense)"
    )
    chaos.add_argument(
        "--fault-probability", type=float, default=0.05,
        help="per-site probability an instrumented call fires a transient",
    )
    chaos.add_argument("--stress-runs", type=int, default=2)
    chaos.add_argument(
        "--crash-runs", type=int, default=1,
        help="kill -9 crash-recovery sweeps per seed (0 disables)",
    )
    chaos.add_argument("--verbose", action="store_true", help="per-site fire counts")
    chaos.set_defaults(fn=cmd_chaos)

    fsck = sub.add_parser(
        "fsck", help="audit a durable database directory (checkpoints + WAL)"
    )
    fsck.add_argument("path", help="database directory created by GES.open")
    fsck.add_argument("--format", choices=("text", "json"), default="text")
    fsck.set_defaults(fn=cmd_fsck)

    flightrec = sub.add_parser(
        "flightrec", help="run a workload, dump the engine flight recorder"
    )
    flightrec.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    flightrec.add_argument("--ops", type=int, default=50)
    flightrec.add_argument("--seed", type=int, default=7)
    flightrec.add_argument("--variant", default="GES_f*")
    flightrec.add_argument(
        "--last", type=int, help="only the newest N records from the recent ring"
    )
    flightrec.add_argument("--format", choices=("text", "json"), default="text")
    flightrec.add_argument("--out", help="write the dump to a file instead of stdout")
    flightrec.set_defaults(fn=cmd_flightrec)

    top = sub.add_parser(
        "top", help="live dashboard: latency percentiles, recent events"
    )
    top.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    top.add_argument("--ops", type=int, default=50)
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--variant", default="GES_f*")
    top.add_argument(
        "--once",
        action="store_true",
        help="run the workload, print one frame, exit (CI smoke mode)",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, help="live redraw period (seconds)"
    )
    top.add_argument(
        "--events", type=int, default=8, help="events shown in the final frame"
    )
    top.set_defaults(fn=cmd_top)

    check = sub.add_parser("validate", help="audit engine agreement on reads")
    check.add_argument("--scale", default="SF1", choices=sorted(SCALE_FACTORS))
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--draws", type=int, default=2)
    check.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
