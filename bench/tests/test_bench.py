"""Self-tests of the benchmark harness, on a mini-SF1 graph with tiny
operation counts (passed as arguments; the CLI has no switch for them)."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from bench import run, workloads
from bench.stream import build_stream
from repro.ldbc import generate

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Counts that must repeat exactly between two runs of one commit.
EXACT = ("result_digest", "stream_sha256", "peak_intermediate_kb", "store_mb",
         "durability.wal_bytes_per_commit", "core.compression_ratio", "core.defactor_per_op")
SECONDS = 0.3


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Two full runs of the benchmark at the same seed: (lines, out_dir) each."""
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "SCALE", "SF1")
        for _ in range(2):
            out_dir = tmp_path_factory.mktemp("out")
            patch.setattr(run, "OUT_DIR", out_dir)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert run.run_all(seed=7, seconds=SECONDS)
            out.append((printed.getvalue().splitlines(), out_dir))
    return out


def _values(lines):
    """{(workload, metric): (value, unit)} from the printed report."""
    return {
        (parts[0], parts[1]): (parts[2], parts[3] if len(parts) > 3 else "")
        for parts in (line.split() for line in lines)
        if len(parts) >= 3 and parts[0] in workloads.WORKLOADS
    }


def test_contract_names_the_workloads_and_metrics():
    assert CONTRACT["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in workloads.WORKLOADS.values()
    ]
    assert CONTRACT["paths"] == ["bench"]
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_metric_of_every_workload_is_printed_with_its_unit(reports):
    printed = _values(reports[0][0])
    for workload in workloads.WORKLOADS:
        assert printed[(workload, "failed_share")] == ("0", "fraction")
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            value, unit = printed[(workload, metric["name"])]
            assert unit == metric["unit"], (workload, metric["name"])
            float(value)


def test_counts_and_digests_repeat_exactly(reports):
    first, second = (_values(lines) for lines, _ in reports)
    for workload in workloads.WORKLOADS:
        for name in EXACT:
            assert first[(workload, name)] == second[(workload, name)], (workload, name)


def test_spans_nest_and_tile(reports):
    lines, out_dir = reports[0]
    printed = _values(lines)
    for workload in workloads.WORKLOADS:
        assert float(printed[(workload, "residual_share")][0]) <= 0.02
        spans = [
            json.loads(line)
            for line in (out_dir / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        assert spans
        for index, span in enumerate(spans):
            assert span["start"] <= span["end"]
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert span["parent"] < index
                assert parent["op_id"] == span["op_id"]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_versioned_views_only_where_something_wrote(reports):
    printed = _values(reports[0][0])
    for workload in workloads.WORKLOADS:
        share = float(printed[(workload, "storage.versioned_view_share")][0])
        assert (share > 0) == workloads.WORKLOADS[workload].writes


def test_database_directories_are_removed(reports):
    for _, out_dir in reports:
        assert not [path for path in out_dir.iterdir() if path.is_dir()]


def test_stream_is_a_function_of_the_seed():
    dataset = generate("SF1", seed=42)
    for workload in workloads.WORKLOADS:
        one = build_stream(workload, dataset, 7, 80, 4)
        same = build_stream(workload, dataset, 7, 80, 4)
        other = build_stream(workload, dataset, 8, 80, 4)
        assert one.sha256() == same.sha256() != other.sha256()
        assert len(one.warmup) == 20 and all(len(ops) == 80 for ops in one.segments)
        reads = [[op for op in ops if not op[0].startswith("IU")] for ops in one.segments]
        assert all(segment == reads[0] for segment in reads)
        created = one.created_ids()
        assert len(set(created)) == len(created)


def test_one_workload_ends_with_the_contract_result(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SCALE", "SF1")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    spec = workloads.WORKLOADS["snb_update"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_one(spec, seed=3, seconds=SECONDS, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [m["name"] for m in CONTRACT[section]]
        assert {m["name"]: result["metrics"][m["name"]]["unit"] for m in CONTRACT[section]} == {
            m["name"]: m["unit"] for m in CONTRACT[section]
        }
    assert not [path for path in tmp_path.iterdir() if path.is_dir()]
