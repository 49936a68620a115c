"""Tests for the observability subsystem (repro.obs).

Covers the metric primitives (counters, gauges, log-bucketed histograms
and their percentile estimates), the per-query span tracer, the
Prometheus/JSON exporters, the engine's metric wiring, the
ExecStats.merge round-trip guarantee, the single-clock-source rule, the
lifecycle event log's deterministic identity, and ``repro top``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from repro.engine import EngineConfig, GES
from repro.exec.base import ExecStats
from repro.ldbc import generate
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    SpanTracer,
    get_registry,
    metrics_json,
    prometheus_text,
    render_span_tree,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def dataset():
    return generate("SF1", seed=42)


@pytest.fixture(scope="module")
def person_id(dataset):
    engine = GES(dataset.store, EngineConfig.ges_f_star(metrics=False))
    result = engine.execute("MATCH (p:Person) RETURN p.id AS id LIMIT 1")
    return int(result.rows[0][0])


# ---------------------------------------------------------------------------
# metric primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_read(self):
        g = Gauge()
        g.set(4.25)
        assert g.value == 4.25

    def test_callback_gauge_reads_lazily(self):
        box = {"v": 1.0}
        g = Gauge(fn=lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 9.0
        assert g.value == 9.0


class TestHistogram:
    def test_empty_summary_is_nan(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        for key in ("mean", "min", "max", "p50", "p95", "p99"):
            assert math.isnan(summary[key])

    def test_singleton_percentiles_are_exact(self):
        h = Histogram()
        h.observe(0.037)
        summary = h.summary()
        assert summary["count"] == 1
        for key in ("mean", "min", "max", "p50", "p95", "p99"):
            assert summary[key] == pytest.approx(0.037)

    def test_percentiles_are_ordered_and_clamped(self):
        h = Histogram()
        values = [0.001 * (i + 1) for i in range(200)]
        for v in values:
            h.observe(v)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        # Log-bucket estimates stay within a bucket width of the truth.
        assert p50 == pytest.approx(0.1, rel=1.0)

    def test_no_samples_retained(self):
        h = Histogram()
        for _ in range(10_000):
            h.observe(0.5)
        # One bucket, constant space — the whole point of log-bucketing.
        assert len(h._counts) == 1
        assert h.count == 10_000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Histogram(lowest=0.0)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)


class TestHistogramEdgeCases:
    """The corner inputs a latency histogram actually meets in production:
    zero durations (clock quantization), negative values (clock skew),
    +inf (a deadline sentinel), NaN (a bug upstream), and observations
    landing exactly on bucket boundaries."""

    def test_observe_zero(self):
        h = Histogram()
        h.observe(0.0)
        assert h.count == 1
        assert h.min == 0.0
        # Clamping pins every percentile of a lone zero to exactly zero.
        for pct in (0, 50, 99, 100):
            assert h.percentile(pct) == 0.0

    def test_observe_negative(self):
        h = Histogram()
        h.observe(-0.5)
        # A lone negative reports itself exactly (clamped to min == max).
        assert h.percentile(50) == -0.5
        h.observe(1.0)
        assert h.min == -0.5
        # Bucket 0 cannot locate a negative beyond "at most its bound",
        # but estimates stay ordered and inside the observed range.
        assert -0.5 <= h.percentile(0) <= h.percentile(100) == 1.0

    def test_observe_inf_lands_in_overflow_bucket(self):
        h = Histogram()
        h.observe(0.001)
        h.observe(math.inf)
        assert h.count == 2
        assert h.max == math.inf
        assert math.inf in h._counts
        # The overflow bucket has no finite upper bound to interpolate
        # inside, so its percentiles report the observed max.
        assert h.percentile(99) == math.inf
        # The finite observation reports within its bucket's width.
        assert h.percentile(25) == pytest.approx(0.001, rel=0.05)
        bounds = [bound for bound, _ in h.cumulative_buckets()]
        assert bounds[-1] == math.inf

    def test_observe_nan_is_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        assert h.count == 0  # the rejected value left no trace

    def test_percentile_on_empty_histogram(self):
        h = Histogram()
        for pct in (0, 50, 95, 100):
            assert math.isnan(h.percentile(pct))

    def test_bucket_boundary_determinism(self):
        # lowest * growth**k is exactly representable for powers of two,
        # but log() can land an epsilon off k; every boundary value must
        # fall in one deterministic bucket (the one it upper-bounds).
        h = Histogram(lowest=1e-6, growth=2.0)
        for k in range(1, 40):
            boundary = h.upper_bound(k)
            assert h._bucket_of(boundary) == k, f"boundary of bucket {k}"
            # An epsilon above the bound belongs to the next bucket.
            assert h._bucket_of(boundary * (1 + 1e-12)) == k + 1

    def test_boundary_observation_counts_once_in_one_bucket(self):
        h = Histogram(lowest=1e-6, growth=2.0)
        boundary = h.upper_bound(10)
        for _ in range(100):
            h.observe(boundary)
        assert h._counts == {10: 100}

    def test_inf_survives_prometheus_export(self):
        reg = MetricsRegistry()
        h = reg.histogram("edge_seconds")
        h.observe(0.001)
        h.observe(math.inf)
        text = prometheus_text(reg)
        # The overflow bucket folds into the single trailing +Inf series —
        # exactly one +Inf line, counting every observation.
        inf_lines = [
            line for line in text.splitlines()
            if line.startswith("edge_seconds_bucket") and "+Inf" in line
        ]
        assert inf_lines == ['edge_seconds_bucket{le="+Inf"} 2']


class TestRegistry:
    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", variant="A")
        b = reg.counter("x_total", variant="A")
        c = reg.counter("x_total", variant="B")
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("demo_total", "Demo counter.", variant="GES").inc(3)
        reg.gauge("demo_gauge", "Demo gauge.").set(1.5)
        h = reg.histogram("demo_seconds", "Demo histogram.")
        h.observe(0.002)
        h.observe(0.004)
        text = prometheus_text(reg)
        assert "# HELP demo_total Demo counter." in text
        assert "# TYPE demo_total counter" in text
        assert 'demo_total{variant="GES"} 3.0' in text
        assert "# TYPE demo_seconds histogram" in text
        assert 'demo_seconds_bucket{le="+Inf"} 2' in text
        assert "demo_seconds_count 2" in text
        assert "demo_seconds_sum" in text
        # Cumulative bucket counts never decrease.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("demo_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_label_value_escaping(self):
        # Prometheus text exposition: backslash, double quote, and line
        # feed in label values must be escaped (in that order — the
        # backslash pass must not re-escape its own output).
        reg = MetricsRegistry()
        reg.counter("esc_total", query='MATCH (p) WHERE p.name = "x\\y"\nRETURN p').inc()
        text = prometheus_text(reg)
        assert (
            'esc_total{query="MATCH (p) WHERE p.name = \\"x\\\\y\\"\\nRETURN p"} 1.0'
            in text
        )
        # Escaping keeps the exposition one-line-per-sample parseable.
        for line in text.splitlines():
            assert re.fullmatch(r"(# .*|[^\n]*)", line)
            assert "\n" not in line

    def test_plain_label_values_are_untouched(self):
        reg = MetricsRegistry()
        reg.counter("plain_total", variant="GES_f*").inc()
        assert 'plain_total{variant="GES_f*"} 1.0' in prometheus_text(reg)

    def test_json_export_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("demo_total", variant="GES").inc(2)
        h = reg.histogram("demo_seconds")
        h.observe(0.25)
        payload = json.loads(json.dumps(metrics_json(reg)))
        assert payload["demo_total"]["type"] == "counter"
        [series] = payload["demo_total"]["series"]
        assert series["labels"] == {"variant": "GES"}
        assert series["value"] == 2.0
        [hist_series] = payload["demo_seconds"]["series"]
        assert hist_series["count"] == 1
        assert hist_series["p50"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# span tracing
# ---------------------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_and_finish(self):
        tracer = SpanTracer()
        tracer.begin("execute")
        tracer.begin("Expand")
        tracer.end(rows_out=5)
        root = tracer.finish()
        assert root.name == "query"
        assert [s.name for _, s in root.walk()] == ["query", "execute", "Expand"]
        expand = root.find("Expand")
        assert expand.attrs["rows_out"] == 5
        assert expand.end is not None

    def test_end_on_root_is_noop(self):
        tracer = SpanTracer()
        assert tracer.end() is None
        assert tracer.current is tracer.root

    def test_add_completed_child(self):
        tracer = SpanTracer()
        tracer.add("compile", 1.0, 1.5, cache="hit")
        root = tracer.finish()
        compile_span = root.find("compile")
        assert compile_span.duration == pytest.approx(0.5)
        assert compile_span.attrs["cache"] == "hit"

    def test_adopt_merges_children(self):
        a, b = SpanTracer(), SpanTracer()
        a.begin("stage1")
        a.finish()
        b.begin("stage2")
        b.finish()
        a.adopt(b)
        assert [c.name for c in a.root.children] == ["stage1", "stage2"]

    def test_to_dict_is_json_ready(self):
        tracer = SpanTracer()
        tracer.begin("execute")
        tracer.end()
        payload = json.loads(json.dumps(tracer.finish().to_dict()))
        assert payload["name"] == "query"
        assert payload["children"][0]["name"] == "execute"

    def test_render_span_tree_shape(self):
        root = Span.completed("query", 0.0, 0.010)
        root.children.append(Span.completed("compile", 0.0, 0.001, cache="miss"))
        root.children.append(Span.completed("execute", 0.001, 0.010, peak_bytes=2048))
        text = render_span_tree(root)
        assert "query" in text and "└─ execute" in text and "├─ compile" in text
        assert "cache=miss" in text
        assert "2.0KB" in text  # *bytes attrs are human-formatted


class TestEngineTracing:
    @pytest.mark.parametrize("variant", ["ges", "ges_f", "ges_f_star"])
    def test_span_tree_per_variant(self, dataset, person_id, variant):
        config = getattr(EngineConfig, variant)(tracing=True)
        engine = GES(dataset.store, config)
        result = engine.execute(
            "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE p.id = $id "
            "RETURN f.id AS friend ORDER BY friend LIMIT 5",
            {"id": person_id},
        )
        trace = result.stats.trace
        assert trace is not None
        root = trace.finish()
        compile_span = root.find("compile")
        execute_span = root.find("execute")
        assert compile_span is not None and execute_span is not None
        # One span per physical operator, each closed, under "execute".
        assert len(execute_span.children) >= 3
        for op_span in execute_span.children:
            assert op_span.end is not None
            assert op_span.duration >= 0.0
        # The derived flat view agrees on the operator set.
        assert {c.name for c in execute_span.children} <= (
            set(result.stats.op_times)
        )

    def test_tracing_disabled_allocates_nothing(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        result = engine.execute(
            "MATCH (p:Person) RETURN count(*) AS n"
        )
        assert result.stats.trace is None

    def test_explain_analyze_output(self, dataset, person_id):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        text = engine.explain_analyze(
            "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE p.id = $id "
            "RETURN f.id AS friend ORDER BY friend LIMIT 5",
            {"id": person_id},
        )
        assert "EXPLAIN ANALYZE" in text
        assert "compile" in text and "execute" in text
        assert "ms" in text
        # At least one physical operator shows up in the rendering.
        assert re.search(r"(Expand|NodeByIdSeek|Project|TopK|OrderBy)", text)
        # ...without turning tracing on for subsequent queries.
        assert engine.execute(
            "MATCH (p:Person) RETURN count(*) AS n"
        ).stats.trace is None

    def test_multi_stage_stats_merge_single_tree(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        stats = ExecStats()
        stats.begin_trace()
        engine.execute(
            "MATCH (p:Person) RETURN count(*) AS n", stats=stats
        )
        engine.execute(
            "MATCH (p:Person) RETURN count(*) AS n", stats=stats
        )
        root = stats.trace.finish()
        assert sum(1 for c in root.children if c.name == "execute") == 2


# ---------------------------------------------------------------------------
# engine metric wiring
# ---------------------------------------------------------------------------


class TestEngineMetrics:
    def test_query_metrics_flow_into_registry(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        registry = get_registry()
        queries = registry.counter("ges_queries_total", variant="GES_f*")
        latency = registry.histogram("ges_query_seconds", variant="GES_f*")
        before_queries = queries.value
        before_latency = latency.count
        for _ in range(3):
            engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert queries.value == before_queries + 3
        assert latency.count == before_latency + 3

    def test_plan_cache_metrics(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        registry = get_registry()
        hits = registry.counter("ges_plan_cache_hits_total", variant="GES_f*")
        misses = registry.counter("ges_plan_cache_misses_total", variant="GES_f*")
        before = hits.value + misses.value
        engine.execute("MATCH (p:Person) RETURN p.id AS i LIMIT 1")
        engine.execute("MATCH (p:Person) RETURN p.id AS i LIMIT 1")
        assert hits.value + misses.value >= before + 2

    def test_metrics_disabled_stays_quiet(self, dataset):
        registry = get_registry()
        queries = registry.counter("ges_queries_total", variant="GES_f*")
        before = queries.value
        engine = GES(dataset.store, EngineConfig.ges_f_star(metrics=False))
        engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert queries.value == before

    def test_memory_pool_gauges_registered(self):
        registry = get_registry()
        family = registry.get("ges_memory_pool_buffers")
        assert family is not None and family.kind == "gauge"
        assert registry.get("ges_memory_pool_hit_rate") is not None

    def test_compression_ratio_observed_by_factorized_engine(self, dataset, person_id):
        # GES_f with no fused TopK: the final f-Tree is flattened wholesale
        # at result finalization, which is where compression is accounted.
        registry = get_registry()
        hist = registry.histogram("ges_compression_ratio", variant="GES_f")
        before = hist.count
        engine = GES(dataset.store, EngineConfig.ges_f())
        engine.execute(
            "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) "
            "WHERE p.id = $id RETURN g.id AS gid",
            {"id": person_id},
        )
        assert hist.count > before


# ---------------------------------------------------------------------------
# ExecStats: the merge round-trip guarantee
# ---------------------------------------------------------------------------


def _populated_stats() -> ExecStats:
    """An ExecStats with *every* public field set to a distinct non-default
    value, discovered by reflection so a future field can't be missed."""
    stats = ExecStats()
    seed = 3
    for name, default in vars(ExecStats()).items():
        seed += 1
        if name == "trace":
            tracer = SpanTracer()
            tracer.begin("execute")
            tracer.end()
            setattr(stats, name, tracer)
        elif isinstance(default, dict):
            setattr(stats, name, {f"k{seed}": float(seed)})
        elif isinstance(default, list):
            setattr(stats, name, [(f"op{seed}", float(seed), seed)])
        elif isinstance(default, str):
            setattr(stats, name, f"s{seed}")
        elif isinstance(default, float):
            setattr(stats, name, float(seed) + 0.5)
        elif isinstance(default, int):
            setattr(stats, name, seed)
        else:  # pragma: no cover - new field of unknown type
            raise AssertionError(
                f"ExecStats.{name}: add a sentinel for type {type(default)}"
            )
    return stats


class TestExecStatsMerge:
    def test_merge_into_fresh_loses_nothing(self):
        """Round-trip: merging a fully-populated ExecStats into a fresh one
        must carry every public field (guards ExecStats.merge against
        silently dropping fields added later)."""
        populated = _populated_stats()
        fresh = ExecStats()
        fresh.merge(populated)
        for name, value in vars(populated).items():
            merged = getattr(fresh, name)
            if name == "trace":
                assert merged is not None
                assert merged.root.find("execute") is not None
            else:
                assert merged == value, (
                    f"ExecStats.merge dropped field {name!r}: "
                    f"{merged!r} != {value!r}"
                )

    def test_merge_accumulates(self):
        a, b = ExecStats(), ExecStats()
        a.record_op("Expand", 0.5, 100)
        b.record_op("Expand", 0.25, 300)
        b.note_defactor()
        b.note_compression(100, 10)
        a.merge(b)
        assert a.op_times["Expand"] == pytest.approx(0.75)
        assert a.peak_intermediate_bytes == 300
        assert a.defactor_count == 1
        assert a.compression_ratio == pytest.approx(10.0)

    def test_merge_adopts_trace_spans(self):
        a, b = ExecStats(), ExecStats()
        b.begin_trace()
        b.trace.begin("execute")
        b.trace.end()
        a.merge(b)
        assert a.trace is not None
        assert a.trace.root.find("execute") is not None


# ---------------------------------------------------------------------------
# single clock source
# ---------------------------------------------------------------------------


FORBIDDEN_CLOCKS = re.compile(
    r"time\.(?:time|monotonic|process_time|perf_counter|perf_counter_ns)\s*\("
)


class TestClockSource:
    def test_no_direct_clock_calls_outside_obs_clock(self):
        """Every timing call site goes through repro.obs.clock.now — direct
        time.* clock calls anywhere else drift benchmarks apart."""
        offenders = []
        for root in ("src", "benchmarks"):
            for path in (REPO_ROOT / root).rglob("*.py"):
                if path.name == "clock.py" and path.parent.name == "obs":
                    continue
                text = path.read_text()
                if FORBIDDEN_CLOCKS.search(text) or re.search(
                    r"^import time$", text, re.MULTILINE
                ):
                    offenders.append(str(path.relative_to(REPO_ROOT)))
        assert not offenders, f"direct clock usage in: {offenders}"

    def test_now_is_perf_counter(self):
        import time

        from repro.obs.clock import now

        assert now is time.perf_counter


# ---------------------------------------------------------------------------
# lifecycle event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_event_sequence_is_deterministic_under_seeded_chaos(self):
        from repro.obs.events import EVENTS
        from repro.testkit.chaos import ChaosConfig, run_chaos

        config = ChaosConfig(
            seed=11,
            iterations=16,
            graphs=1,
            fault_probability=0.3,
            stress_runs=0,  # threads would race the total order
            oracle_checks=2,
        )
        sequences = []
        for _ in range(2):
            EVENTS.clear()
            report = run_chaos(config)
            assert report.passed, report.summary()
            sequences.append([e.identity() for e in EVENTS.tail()])
        first, second = sequences
        assert first, "seeded chaos must emit lifecycle events"
        assert any(kind == "fault_fired" for kind, _ in first)
        assert first == second

    def test_identity_is_kind_and_sorted_attrs_without_seq_or_wall(self):
        from repro.obs.events import EventLog

        log = EventLog()
        first = log.emit("fault_fired", site="locks.acquire", ordinal=3)
        second = log.emit("fault_fired", ordinal=3, site="locks.acquire")
        assert first.seq != second.seq
        assert first.identity() == second.identity()
        assert first.identity() == (
            "fault_fired", (("ordinal", 3), ("site", "locks.acquire"))
        )


# ---------------------------------------------------------------------------
# `repro top`: one frame is a pure read; the CLI smoke mode exits 0
# ---------------------------------------------------------------------------


class TestTop:
    def test_frame_renders_query_and_event_sections(self, dataset, person_id):
        from repro.obs.top import render_top_frame

        engine = GES(dataset.store, EngineConfig.ges_f_star())
        engine.execute(
            "MATCH (p:Person) WHERE p.id = $id RETURN p.firstName AS n",
            {"id": person_id},
        )
        frame = render_top_frame()
        assert "ges top" in frame
        assert "queries:" in frame
        assert "served=" in frame
        assert "recent events" in frame
        assert "worker pool" not in frame
        assert "shared-memory" not in frame

    def test_run_top_renders_frames_and_reraises_work_failure(self):
        import io
        import time

        from repro.obs.top import run_top

        out = io.StringIO()
        run_top(lambda: time.sleep(0.05), interval_s=0.01, out=out)
        assert "ges top" in out.getvalue()

        def boom():
            raise ValueError("workload failed")

        with pytest.raises(ValueError, match="workload failed"):
            run_top(boom, interval_s=0.01, out=io.StringIO())

    def test_cli_top_once_exits_zero(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["top", "--scale", "SF1", "--ops", "10", "--once"]) == 0
        out = capsys.readouterr().out
        assert "ges top" in out
        assert "served=" in out
