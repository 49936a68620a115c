"""The five workloads: set-up, output check, measured segments, traced pass.

System under test is the shipped default, ``GES(store)`` with
``EngineConfig()`` (GES_f*, one worker, plan cache, metrics and flight
recorder on, tracing off), called in-process by one closed-loop client:
the engine is an embedded library whose caller waits for rows.  Each
workload owns one mini-SF300 store (datagen seed 42); ``seed`` drives only
the schedule and the parameter streams.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import GES, EngineConfig
from repro.baselines.volcano import VolcanoEngine
from repro.exec.base import ExecStats
from repro.frontend.cypher import compile_cypher
from repro.ldbc import REGISTRY, generate
from repro.ldbc.validation import normalize_rows, rows_bag
from repro.obs.clock import now
from repro.plan.expressions import Param
from repro.plan.logical import GetProperty, LogicalPlan, NodeByIdSeek

from bench.stream import FLOOR, Op, Stream, build_stream, is_update
from bench.layertrace import LAYERS, Tracer, instrument, timed_config, timed_registry

SCALE = "SF300"
DATAGEN_SEED = 42
#: Read operations of each template cross-checked against Volcano at set-up.
CHECKED_READS = 200
#: A measured window is this many segments; timings are medians over them.
MEASURED_SEGMENTS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: why it exists and how much work one second of
    ``--seconds`` buys (pinned on the 2-core reference box, never timed)."""

    name: str
    why: str
    ops_per_second: int
    writes: bool = False
    durable: bool = False

    def segment_ops(self, seconds: float) -> int:
        """Operations in one segment of a ``seconds``-long measured window."""
        return max(1, round(self.ops_per_second * seconds / MEASURED_SEGMENTS))


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "snb_mix",
            "paper headline: IC:IS:IU 1:4:2 on prepared plans; reads run on "
            "versioned snapshot views once the first update commits",
            600,
            writes=True,
        ),
        WorkloadSpec(
            "snb_complex",
            "IC1-IC14 on a never-written store: executor, f-Tree and adjacency "
            "do the work, on the unversioned read path",
            450,
        ),
        WorkloadSpec(
            "snb_short",
            "IS1-IS7 plus a seek-one-property floor op: dispatch-bound, shows "
            "service wrappers, plan-cache lookup and result build",
            3000,
        ),
        WorkloadSpec(
            "cypher_text",
            "Cypher text in, rows out: 25% cached $param texts, 75% literal "
            "texts that miss and evict the 128-entry plan cache (synthetic)",
            1600,
        ),
        WorkloadSpec(
            "snb_update",
            "IU1-IU8 : IS1-IS7 1:1 on a durable engine (batch WAL, fsync every "
            "8 commits): commit, WAL append and slot-growth inserts",
            2800,
            writes=True,
            durable=True,
        ),
    )
}

#: The null-query floor: seek one vertex by id, return one property.
FLOOR_PLAN = LogicalPlan(
    [NodeByIdSeek("p", "Person", Param("personId")), GetProperty("p", "firstName", "firstName")],
    returns=["firstName"],
)

Runner = Callable[[Any, Any, dict[str, Any], ExecStats], list]


def _run_ldbc(engine: Any, fn: Any, params: dict[str, Any], stats: ExecStats) -> list:
    return fn(engine, params, stats)


def _run_query(engine: Any, query: Any, params: dict[str, Any], stats: ExecStats) -> list:
    return engine.execute(query, params, stats=stats).rows


def bind(ops: list[Op], tracer: Tracer | None = None) -> list[tuple[Runner, Any, dict]]:
    """Stream operations as ``(runner, query, params)`` calls; with a
    *tracer*, each LDBC query function becomes the root span of its op."""
    fns = {name: definition.fn for name, definition in REGISTRY.items()}
    if tracer is not None:
        fns = {name: tracer.wrap(f"ldbc.{name}", fn) for name, fn in fns.items()}
    bound = []
    for name, text, params in ops:
        if name in fns:
            bound.append((_run_ldbc, fns[name], params))
        else:
            bound.append((_run_query, FLOOR_PLAN if name == FLOOR else text, params))
    return bound


@dataclass
class Segment:
    """What one pass over a segment's operations produced.

    Rows are folded into a digest and dropped when the pass ends: results
    kept alive across segments would grow the heap the collector scans and
    slow the later segments down.
    """

    wall_seconds: float
    latencies: np.ndarray
    peak_bytes: np.ndarray  # per op: ExecStats.peak_intermediate_bytes
    digest: str  # SHA-256 of the normalized rows, in op order
    failed: int
    first_failure: str
    flat_tuples: int
    ftree_slots: int
    defactors: int

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_seconds

    def percentile_ms(self, pct: float) -> float:
        """Harrell-Davis estimate of a latency percentile: the Beta-weighted
        mean of the order statistics around it.  The latencies of a query mix
        are multi-modal, and a plain sample p99 that lands on the edge between
        two query types jumps with every seed."""
        ordered = np.sort(self.latencies)
        n = len(ordered)
        a, b = (n + 1) * pct / 100, (n + 1) * (1 - pct / 100)
        x = (np.arange(n) + 0.5) / n
        log_weight = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
        weight = np.exp(log_weight - log_weight.max())
        return float(weight @ ordered / weight.sum()) * 1e3


def attempt(engine: Any, runner: Runner, query: Any, params: dict[str, Any], stats: ExecStats) -> Any:
    """The op's rows, or the exception it raised: a failed op is counted and
    the run goes on."""
    try:
        return runner(engine, query, params, stats)
    except Exception as exc:  # noqa: BLE001 - reported through failed / first_failure
        return exc


def run_segment(
    engine: Any,
    ops: list[Op],
    bad_positions: frozenset[int] = frozenset(),
    tracer: Tracer | None = None,
) -> Segment:
    """One closed-loop pass: each op is timed from call to rows returned.

    Nothing but the clock reads and three list appends sits between
    operations; digests and percentiles are computed after the pass.
    """
    bound = bind(ops, tracer)
    latencies: list[float] = []
    all_stats: list[ExecStats] = []
    outputs: list[Any] = []
    started = now()
    for op_id, (runner, query, params) in enumerate(bound):
        if tracer is not None:
            tracer.op_id = op_id
        stats = ExecStats()
        t0 = now()
        rows = attempt(engine, runner, query, params, stats)
        latencies.append(now() - t0)
        all_stats.append(stats)
        outputs.append(rows)
    wall = now() - started
    sha = hashlib.sha256()
    failures = []
    for position, rows in enumerate(outputs):
        if isinstance(rows, Exception):
            failures.append(repr(rows))
        else:
            if position in bad_positions:
                failures.append(f"{ops[position][0]} disagrees with Volcano")
            rows = normalize_rows(rows)
        sha.update(repr(rows).encode())
    return Segment(
        wall,
        np.asarray(latencies),
        np.asarray([stats.peak_intermediate_bytes for stats in all_stats]),
        sha.hexdigest(),
        len(failures),
        failures[0] if failures else "",
        sum(stats.flat_tuples for stats in all_stats),
        sum(stats.ftree_slots for stats in all_stats),
        sum(stats.defactor_count for stats in all_stats),
    )


def calib_ms() -> float:
    """A fixed pure-Python + NumPy loop, timed: tells a slow run from a slow
    machine.  Reported beside the metrics, never used to normalise one."""
    started = now()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(5):
        total += float(np.sort(values[::-1]).sum())
    return (now() - started) * 1e3


class Bench:
    """One workload, set up: its store, engine under test and stream."""

    def __init__(
        self, spec: WorkloadSpec, seed: int, segment_ops: int, segments: int, out_dir: Path
    ) -> None:
        """Set-up, timed: generate + bulk load, open the engine, build the
        stream, warm up."""
        started = now()
        self.spec = spec
        self.out_dir = out_dir
        self.bad_positions: frozenset[int] = frozenset()
        self.first_failure = ""
        self.calib: list[float] = []
        dataset = generate(SCALE, seed=DATAGEN_SEED)
        self.store = dataset.store
        self.db_dir: Path | None = None
        if spec.durable:
            self.config = EngineConfig(durability="batch")
            out_dir.mkdir(parents=True, exist_ok=True)
            self.db_dir = Path(tempfile.mkdtemp(prefix=f"db-{spec.name}-", dir=out_dir))
            self.engine = GES.open(self.db_dir, self.config, schema=self.store)
        else:
            self.config = EngineConfig()
            self.engine = GES(self.store, self.config)
        self.stream = build_stream(spec.name, dataset, seed, segment_ops, segments)
        run_segment(self.engine, self.stream.warmup)
        self.setup_seconds = now() - started

    # -- output check -----------------------------------------------------------------

    def check_outputs(self) -> None:
        """Run the template's first reads on the engine under test and on
        Volcano over the same store; remember the positions that disagree."""
        volcano = VolcanoEngine(self.store)
        schema = self.store.schema
        reads = [
            (position, op)
            for position, op in enumerate(self.stream.segments[0])
            if not is_update(op[0])
        ][:CHECKED_READS]
        compiled = [
            (name, None if text is None else compile_cypher(text, schema), params)
            for _, (name, text, params) in reads
        ]
        bad = set()
        for (position, _), ours, theirs in zip(reads, bind([op for _, op in reads]), bind(compiled)):
            got = attempt(self.engine, *ours, ExecStats())
            want = attempt(volcano, *theirs, ExecStats())
            if (
                isinstance(got, Exception)
                or isinstance(want, Exception)
                or rows_bag(got) != rows_bag(want)
            ):
                bad.add(position)
        self.bad_positions = frozenset(bad)

    # -- measuring ---------------------------------------------------------------------

    def measure(self, index: int, engine: Any = None, tracer: Tracer | None = None) -> Segment:
        """Run segment *index* of the stream (each may run once: its update
        ids are fresh only the first time)."""
        self.calib.append(calib_ms())
        gc.collect()  # every segment starts from the same collector state
        segment = run_segment(
            engine if engine is not None else self.engine,
            self.stream.segments[index],
            self.bad_positions,
            tracer,
        )
        self.first_failure = self.first_failure or segment.first_failure
        return segment

    def reopen(self, config: EngineConfig, registry: Any = None) -> tuple[Any, float]:
        """A second engine on the same data, and how long opening it took.

        In memory that is a new service over the same store at the same
        version; a durable workload closes its database and recovers it
        from disk.  Its plan cache is warmed with the warm-up's reads.
        """
        started = now()
        if self.db_dir is not None:
            self.engine.close()
            engine = GES.open(self.db_dir, config, registry=registry)
            self.store = engine.store
        else:
            engine = GES(self.store, config, registry=registry)
            engine.txn_manager.versions.advance_to(self.engine.txn_manager.versions.current())
        seconds = now() - started
        self.engine = engine
        run_segment(engine, [op for op in self.stream.warmup if not is_update(op[0])])
        return engine, seconds

    def close(self) -> None:
        """Close the engine and delete its database directory."""
        self.engine.close()
        if self.db_dir is not None:
            shutil.rmtree(self.db_dir, ignore_errors=True)


def set_up(
    spec: WorkloadSpec, seed: int, segment_ops: int, segments: int, out_dir: Path, repeats: int = 1
) -> Bench:
    """Set the workload up *repeats* times, keep the last, and report the
    median set-up time: one generate + load is too noisy to gate on."""
    times = []
    for repeat in range(repeats):
        bench = Bench(spec, seed, segment_ops, segments, out_dir)
        times.append(bench.setup_seconds)
        if repeat < repeats - 1:
            bench.close()
            del bench
    bench.setup_seconds = float(np.median(times))
    # Interpreter GC stays on (the seed is slower with it off); what set-up
    # built is moved out of the collector's way so it is not rescanned.
    gc.collect()
    gc.freeze()
    return bench


# -- metrics ---------------------------------------------------------------------------------


def end_to_end(bench: Bench, measured: list[Segment]) -> dict[str, tuple[float, str, float, float]]:
    """name -> (value, unit, min, max) over the measured segments.

    Timing metrics are the median of their per-segment values; the counts
    (`peak_intermediate_kb`, `store_mb`) repeat exactly.  The peak is the
    mean over ops of each op's ``ExecStats.peak_intermediate_bytes``: the
    largest single op depends on which one person a seed happens to draw.
    """
    attempted = sum(s.ops for s in measured)
    peak = float(np.concatenate([s.peak_bytes for s in measured]).mean())

    def spread(values: list[float], unit: str) -> tuple[float, str, float, float]:
        return (float(np.median(values)), unit, min(values), max(values))

    def exact(value: float, unit: str) -> tuple[float, str, float, float]:
        return (value, unit, value, value)

    return {
        "ops_per_s": spread([s.ops_per_s for s in measured], "ops/s"),
        "p50_ms": spread([s.percentile_ms(50) for s in measured], "ms"),
        "p99_ms": spread([s.percentile_ms(99) for s in measured], "ms"),
        "failed_share": exact(sum(s.failed for s in measured) / attempted, "fraction"),
        "peak_intermediate_kb": exact(peak / 1024, "KiB"),
        "store_mb": exact(bench.store.nbytes / 2**20, "MiB"),
        "setup_s": exact(bench.setup_seconds, "s"),
    }


def traced_pass(
    bench: Bench, untraced: Segment, index: int
) -> tuple[dict[str, tuple[float, str]], list[Segment]]:
    """Run segments *index* (traced) and *index + 1* (flat executor) on
    second engines over the same data; return every per-layer metric and
    the two segments.

    *untraced* is a segment the engine under test already ran: the base of
    ``tracing_overhead`` and ``exec.vs_flat``.
    """
    tracer = Tracer()
    engine, reopen_seconds = bench.reopen(timed_config(bench.config), timed_registry(tracer))
    instrument(engine, tracer)
    tracer.reset()
    cache_before = dataclasses.replace(engine.plan_cache.stats)
    wal = engine.durability.writer if engine.durability is not None else None
    wal_before = wal.path.stat().st_size if wal is not None else 0
    traced = bench.measure(index, engine, tracer)
    wal_bytes = wal.path.stat().st_size - wal_before if wal is not None else 0
    tracer.write_jsonl(bench.out_dir / f"trace-{bench.spec.name}.jsonl")

    checkpoint_seconds = 0.0
    if engine.durability is not None:
        started = now()
        engine.checkpoint()
        checkpoint_seconds = now() - started
    flat_engine, _ = bench.reopen(EngineConfig.ges(durability=bench.config.durability))
    flat = bench.measure(index + 1, flat_engine)

    seconds, calls = tracer.self_seconds()
    total = float(traced.latencies.sum())
    ops = traced.ops
    layer_seconds = dict.fromkeys(LAYERS, 0.0)
    for name, self_time in seconds.items():
        layer_seconds[name.split(".", 1)[0]] += self_time
    share = {layer: value / total for layer, value in layer_seconds.items()}

    def per_call(span: str) -> float:
        """Mean self time of one *span*, in microseconds."""
        return seconds[span] / calls[span] * 1e6 if calls[span] else 0.0

    cache = engine.plan_cache.stats
    lookups = cache.lookups - cache_before.lookups
    commits = calls["txn.commit"]
    floor = [
        latency
        for latency, op in zip(untraced.latencies, bench.stream.segments[0])
        if op[0] == FLOOR
    ]
    views = calls["storage.read_view"]
    metrics = {
        "engine.share": (share["engine"], "fraction"),
        "engine.self_us_per_call": (per_call("engine.execute"), "us"),
        "engine.calls_per_op": (calls["engine.execute"] / ops, "count/op"),
        "engine.floor_us": (float(np.median(floor)) * 1e6 if floor else 0.0, "us"),
        "ldbc.self_share": (share["ldbc"], "fraction"),
        "frontend.share": (share["frontend"], "fraction"),
        "frontend.us_per_compile": (per_call("frontend.compile"), "us"),
        "plan.share": (share["plan"], "fraction"),
        "plan.us_per_optimize": (per_call("plan.optimize"), "us"),
        "engine.plan_cache.hit_rate": (
            (cache.hits - cache_before.hits) / lookups if lookups else 0.0,
            "fraction",
        ),
        "engine.plan_cache.evictions_per_op": (
            (cache.evictions - cache_before.evictions) / ops,
            "count/op",
        ),
        "engine.plan_cache.us_per_lookup": (per_call("engine.plan_cache.lookup"), "us"),
        "exec.share": (share["exec"], "fraction"),
        "exec.us_per_call": (per_call("exec.run"), "us"),
        "exec.rows_out_per_op": (tracer.counts["exec.rows_out"] / ops, "rows/op"),
        "exec.vs_flat": (untraced.ops_per_s / flat.ops_per_s, "ratio"),
        "core.compression_ratio": (
            traced.flat_tuples / traced.ftree_slots if traced.ftree_slots else 0.0,
            "ratio",
        ),
        "core.defactor_per_op": (traced.defactors / ops, "count/op"),
        "storage.share": (share["storage"], "fraction"),
        "storage.read_view_us": (per_call("storage.read_view"), "us"),
        "storage.versioned_view_share": (
            tracer.counts["storage.versioned_views"] / views if views else 0.0,
            "fraction",
        ),
        "txn.share": (share["txn"], "fraction"),
        "txn.us_per_commit": (per_call("txn.commit"), "us"),
        "durability.share": (share["durability"], "fraction"),
        "durability.us_per_commit": (per_call("durability.log_commit"), "us"),
        "durability.wal_bytes_per_commit": (wal_bytes / commits if commits else 0.0, "B"),
        "durability.checkpoint_s": (checkpoint_seconds, "s"),
        "durability.recovery_s": (reopen_seconds if bench.spec.durable else 0.0, "s"),
        "residual_share": (1.0 - sum(share.values()), "fraction"),
        "tracing_overhead": (untraced.ops_per_s / traced.ops_per_s - 1.0, "fraction"),
    }
    return metrics, [traced, flat]
