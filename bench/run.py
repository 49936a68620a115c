"""The repo's benchmark.  One command prints every metric by name and unit.

``python bench/run.py [--seed N] [--seconds S]``
    sets up all five workloads, checks their outputs against Volcano, runs
    three untraced segments of each (round-robin, so machine drift hits
    every workload alike) for the end-to-end metrics, then one traced and
    one flat-executor segment of each for the per-layer metrics.

``python bench/run.py --workload W --seed N --seconds S --trace 0|1``
    measures one workload and ends with one JSON line: the end-to-end
    metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--seconds`` sizes the measured window on the 2-core reference box; the
operation counts it yields are pinned, not timed (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def _pin_interpreter() -> None:
    """Re-run under ``PYTHONHASHSEED=0`` so set and dict orders, and with
    them memory layout and row order, are the same in every process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(BENCH_DIR.parent), str(BENCH_DIR.parent / "src")]


def print_context() -> None:
    import numpy
    from repro.perf.recorder import git_sha

    print(
        f"machine nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} git={git_sha()}"
    )


def print_workload(bench, digest: str) -> None:
    name = bench.spec.name
    print(f"{name} stream_sha256 {bench.stream.sha256()}")
    print(f"{name} result_digest {digest}")
    print(f"{name} calib_ms {statistics.median(bench.calib):.3f} ms (median of {len(bench.calib)})")
    if bench.first_failure:
        print(f"{name} first_failure {bench.first_failure}")


def print_end_to_end(name: str, metrics: dict) -> None:
    for metric, (value, unit, low, high) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit} [{low:.6g} .. {high:.6g}]")


def print_per_layer(name: str, metrics: dict) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")


def segments_agree(bench, segments: list) -> bool:
    """On a store nothing writes to, replayed segments must return the very
    same rows."""
    return bench.spec.writes or len({segment.digest for segment in segments}) == 1


def run_one(spec, seed: int, seconds: float, trace: bool) -> dict:
    """Contract mode: one workload, one JSON result."""
    from bench import workloads as w

    bench = w.set_up(
        spec, seed, spec.segment_ops(seconds), w.MEASURED_SEGMENTS, OUT_DIR,
        repeats=1 if trace else 3,
    )
    try:
        bench.check_outputs()
        agree = True
        if trace:
            untraced = bench.measure(0)
            layer_metrics, extra = w.traced_pass(bench, untraced, 1)
            segments = [untraced, *extra]
            print_per_layer(spec.name, layer_metrics)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        else:
            segments = [bench.measure(i) for i in range(w.MEASURED_SEGMENTS)]
            e2e = w.end_to_end(bench, segments)
            print_end_to_end(spec.name, e2e)
            # failed_share is the contract's attempted/failed pair, not a metric
            # of its own: a gated metric may never read 0.
            metrics = {
                k: {"value": v, "unit": u}
                for k, (v, u, _, _) in e2e.items()
                if k != "failed_share"
            }
            agree = segments_agree(bench, segments)
        print_workload(bench, segments[0].digest)
        failed = sum(s.failed for s in segments)
        return {
            "correct": failed == 0 and agree,
            "attempted": sum(s.ops for s in segments),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        bench.close()


def run_all(seed: int, seconds: float) -> bool:
    """Every workload, every metric; True when every output was correct."""
    from bench import workloads as w

    benches = [
        w.set_up(spec, seed, spec.segment_ops(seconds), w.MEASURED_SEGMENTS + 2, OUT_DIR)
        for spec in w.WORKLOADS.values()
    ]
    correct = True
    try:
        for bench in benches:
            bench.check_outputs()
        measured = {bench.spec.name: [] for bench in benches}
        for index in range(w.MEASURED_SEGMENTS):
            for bench in benches:
                measured[bench.spec.name].append(bench.measure(index))
        for bench in benches:
            name = bench.spec.name
            segments = measured[name]
            print_end_to_end(name, w.end_to_end(bench, segments))
            layer_metrics, extra = w.traced_pass(bench, segments[-1], w.MEASURED_SEGMENTS)
            print_per_layer(name, layer_metrics)
            print_workload(bench, segments[0].digest)
            correct &= segments_agree(bench, segments)
            correct &= not any(s.failed for s in (*segments, *extra))
    finally:
        for bench in benches:
            bench.close()
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="measure one workload and end with a JSON line")
    parser.add_argument("--seed", type=int, default=7, help="schedule and parameter seed")
    parser.add_argument("--seconds", type=float, default=10, help="measured window, reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _pin_interpreter()
    from bench.workloads import WORKLOADS

    print_context()
    if args.workload is None:
        return 0 if run_all(args.seed, args.seconds) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
