"""Tests for the always-on flight recorder (repro.obs.flightrec).

Ring semantics first (recent is FIFO-bounded, slow queries survive recent
eviction), then the engine integration (every execute lands a record, a
query over the recorder's slow threshold is pinned, traced runs retain
their span tree), and finally the failure-artifact path: a fuzz campaign
against a broken engine must archive the oracle engines' flight dumps
next to the corpus entry.
"""

from __future__ import annotations

import json

import pytest

from repro import GES, EngineConfig
from repro.exec.base import ExecStats
from repro.ldbc import generate
from repro.obs.flightrec import (
    FLIGHT_DUMP_SCHEMA_VERSION,
    FlightRecorder,
    render_flight_dump,
)


def _observe(recorder: FlightRecorder, n: int, seconds: float = 0.001) -> None:
    for i in range(n):
        recorder.record(
            query=f"q{i}", variant="GES", seconds=seconds, rows=i,
            stats=ExecStats(),
        )


class TestRingSemantics:
    def test_recent_ring_is_bounded_fifo(self):
        recorder = FlightRecorder(capacity=4, slow_ms=50.0)
        _observe(recorder, 10)
        assert recorder.recorded == 10
        assert [r.query for r in recorder.recent] == ["q6", "q7", "q8", "q9"]

    def test_slow_queries_survive_recent_eviction(self):
        recorder = FlightRecorder(capacity=4, slow_ms=50.0)
        recorder.record(
            query="slow one", variant="GES", seconds=0.2, rows=1,
            stats=ExecStats(),
        )
        _observe(recorder, 10)  # fast queries cycle the recent ring
        assert all(r.query != "slow one" for r in recorder.recent)
        assert [r.query for r in recorder.slow] == ["slow one"]
        assert recorder.slow_recorded == 1

    def test_slow_threshold_is_exclusive(self):
        recorder = FlightRecorder(capacity=4, slow_ms=50.0)
        recorder.record("at", "GES", seconds=0.050, rows=0, stats=ExecStats())
        recorder.record("above", "GES", seconds=0.051, rows=0, stats=ExecStats())
        assert [r.query for r in recorder.slow] == ["above"]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear_keeps_lifetime_counters(self):
        recorder = FlightRecorder(capacity=4)
        _observe(recorder, 3)
        recorder.clear()
        assert len(recorder.recent) == 0
        assert recorder.recorded == 3

    def test_ops_tuple_is_copied_not_aliased(self):
        recorder = FlightRecorder(capacity=4)
        stats = ExecStats()
        stats.record_op("NodeScan", 0.001, 64)
        record = recorder.record("q", "GES", 0.001, 1, stats)
        stats.record_op("Expand", 0.002, 128)  # later stage appends
        assert len(record.ops) == 1


class TestDumpShape:
    def test_dump_is_json_ready_and_versioned(self):
        recorder = FlightRecorder(capacity=4, slow_ms=0.0)
        _observe(recorder, 2)
        dump = recorder.dump()
        parsed = json.loads(json.dumps(dump))
        assert parsed["schema_version"] == FLIGHT_DUMP_SCHEMA_VERSION
        assert parsed["recorded"] == 2
        assert len(parsed["recent"]) == 2
        assert len(parsed["slow"]) == 2  # slow_ms=0 marks everything slow
        record = parsed["recent"][0]
        assert {"sequence", "query", "variant", "ms", "rows", "ops",
                "stats", "metrics", "span_tree"} <= set(record)

    def test_dump_last_trims_recent_not_slow(self):
        recorder = FlightRecorder(capacity=8, slow_ms=0.0)
        _observe(recorder, 6)
        dump = recorder.dump(last=2)
        assert [r["query"] for r in dump["recent"]] == ["q4", "q5"]
        assert len(dump["slow"]) == 6

    def test_render_is_human_readable(self):
        recorder = FlightRecorder(capacity=4)
        _observe(recorder, 2)
        text = render_flight_dump(recorder.dump())
        assert "flight recorder: 2 queries recorded" in text
        assert "q1" in text


@pytest.fixture(scope="module")
def dataset():
    return generate("SF1", seed=42)


class TestEngineIntegration:
    def test_every_execute_is_recorded(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        for _ in range(3):
            engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert engine.flight is not None
        assert engine.flight.recorded == 3
        newest = engine.flight.recent[-1]
        assert newest.variant == "GES_f*"
        assert newest.rows == 1
        assert newest.seconds > 0

    def test_flight_recorder_can_be_disabled(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star(flight_recorder=0))
        engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert engine.flight is None

    def test_engine_pins_queries_over_the_slow_threshold(self, dataset):
        # Threshold 0 ms: every real query exceeds it and lands in slow.
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        engine.flight.slow_ms = 0.0
        engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert engine.flight.slow_recorded == 1

    def test_traced_query_retains_span_tree(self, dataset):
        config = EngineConfig.ges_f_star(tracing=True)
        engine = GES(dataset.store, config)
        engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        record = engine.flight.recent[-1]
        assert record.trace_root is not None
        dumped = record.to_dict()
        assert dumped["span_tree"]["root"]["name"] == "query"

    def test_untraced_query_has_no_span_tree(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        assert engine.flight.recent[-1].trace_root is None

    def test_metrics_snapshot_travels_with_the_record(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star(metrics=True))
        engine.execute("MATCH (p:Person) RETURN count(*) AS n")
        snapshot = engine.flight.recent[-1].metrics_snapshot
        assert snapshot["ges_queries_total"] >= 1

    def test_describe_reports_the_recorder(self, dataset):
        engine = GES(dataset.store, EngineConfig.ges_f_star())
        block = engine.describe()["flight_recorder"]
        assert block["capacity"] == 64
        assert block["slow_ms"] == 50.0


class TestFuzzArtifactAttachment:
    def test_failure_archives_flight_dumps(self, tmp_path):
        # Same broken-oracle pattern as test_testkit: a row-dropping engine
        # must fail the campaign AND leave flight dumps next to the entry.
        from tests.test_testkit import _broken_factory

        from repro.testkit import FuzzConfig, load_entries, run_fuzz

        config = FuzzConfig(
            seed=5, iterations=40, stress_runs=0, corpus_dir=tmp_path,
            shrink=False,
        )
        report = run_fuzz(config, oracle_factory=_broken_factory)
        assert not report.passed
        failure = report.failures[0]
        assert failure.flight_path is not None
        dumps = json.loads(failure.flight_path.read_text())
        # One dump per GES-variant oracle engine, each schema-versioned.
        assert set(dumps) & {"GES", "GES_f", "GES_f*"}
        for dump in dumps.values():
            assert dump["schema_version"] == FLIGHT_DUMP_SCHEMA_VERSION
            assert dump["recorded"] >= 1
        # The dumps live in a subdirectory the corpus loader ignores:
        # every loaded entry is a real repro, none is a flight dump.
        assert failure.flight_path.parent.name == "flightrec"
        entries = load_entries(tmp_path)
        assert len(entries) == len(report.failures)
        assert all(hasattr(entry, "signature") for entry in entries)


class TestFlightrecCli:
    def test_cli_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["flightrec", "--scale", "SF1", "--ops", "20"]) == 0
        assert "flight recorder:" in capsys.readouterr().out

        out = tmp_path / "dump.json"
        assert main([
            "flightrec", "--scale", "SF1", "--ops", "20",
            "--format", "json", "--out", str(out),
        ]) == 0
        dump = json.loads(out.read_text())
        assert dump["schema_version"] == FLIGHT_DUMP_SCHEMA_VERSION
        assert dump["recorded"] > 0

    def test_cli_out_creates_missing_directory(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "not" / "yet" / "dump.json"
        assert main([
            "flightrec", "--scale", "SF1", "--ops", "5",
            "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["recorded"] > 0
