"""The ``repro fuzz`` loop: generate, diff, stress, shrink, archive.

One run is fully determined by its seed: graphs, queries, update batches,
and the stress interleavings all derive their streams from
``random.Random(f"{seed}:...")`` (string seeding is SHA-512 based and
platform-independent).  The loop rotates through several generated
graphs, interleaves IU-style update batches with read queries (checking
engines against each post-commit snapshot), runs the deterministic
concurrency stressor, and — on any disagreement — shrinks the failure and
writes a self-contained corpus entry.

Fleet counters land in the engine metrics registry under ``ges_fuzz_*``
so dashboards can watch long-running fuzz campaigns.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..obs.metrics import REGISTRY
from ..txn.transaction import TransactionManager
from .corpus import CorpusEntry, make_entry, save_entry
from .graphgen import PROFILES, fuzz_schema, random_graph_spec, store_from_spec
from .oracle import DifferentialOracle
from .querygen import QueryGenerator, UpdateGenerator
from .shrink import shrink_failure
from .stress import StressConfig, StressReport, run_stress


@dataclass
class FuzzConfig:
    """One fuzz campaign."""

    seed: int = 0
    iterations: int = 100  # total queries checked across all graphs
    profile: str = "quick"
    graphs: int = 4  # distinct random graphs the run rotates through
    cypher_rate: float = 0.25  # fraction of queries emitted as Cypher text
    update_rate: float = 0.2  # P(an update batch commits before a query)
    stress_runs: int = 1  # deterministic stress interleavings to run
    shrink: bool = True
    corpus_dir: str | Path | None = None  # where minimized repros land


@dataclass
class FuzzFailure:
    """One archived disagreement."""

    iteration: int
    query: str  # human-readable description
    mismatches: list[str]
    entry: CorpusEntry | None = None
    path: Path | None = None
    flight_path: Path | None = None  # per-engine flight-recorder dumps


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    seed: int = 0
    iterations: int = 0
    queries_checked: int = 0
    cypher_checked: int = 0
    updates_applied: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    stress: list[StressReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and all(s.passed for s in self.stress)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        stress = (
            f"{sum(s.commits for s in self.stress)} stress commits, "
            f"{sum(len(s.violations) for s in self.stress)} violations"
            if self.stress
            else "stress skipped"
        )
        return (
            f"{status}: seed={self.seed} {self.queries_checked} queries "
            f"({self.cypher_checked} via Cypher), {self.updates_applied} update "
            f"batches, {len(self.failures)} mismatches; {stress}"
        )


def run_fuzz(
    config: FuzzConfig | None = None,
    oracle_factory: Callable[..., DifferentialOracle] | None = None,
    on_event: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run one campaign; see :class:`FuzzConfig` for the knobs.

    ``oracle_factory(store)`` is injectable so tests can fuzz a
    deliberately broken engine and assert the loop catches, shrinks, and
    archives it.
    """
    config = config if config is not None else FuzzConfig()
    report = FuzzReport(seed=config.seed, iterations=config.iterations)
    emit = on_event if on_event is not None else (lambda _msg: None)
    factory = oracle_factory if oracle_factory is not None else DifferentialOracle
    profile = PROFILES[config.profile]
    schema = fuzz_schema()

    counters = {
        name: REGISTRY.counter(f"ges_fuzz_{name}", help)
        for name, help in (
            ("queries_total", "Queries checked by the differential oracle"),
            ("updates_total", "IU-style update batches committed during fuzzing"),
            ("mismatches_total", "Cross-variant disagreements found"),
            ("corpus_entries_total", "Minimized repros written to the corpus"),
        )
    }

    graphs = max(1, min(config.graphs, config.iterations or 1))
    per_graph = -(-config.iterations // graphs)  # ceil
    iteration = 0
    for g in range(graphs):
        if iteration >= config.iterations:
            break
        spec = random_graph_spec(
            random.Random(f"{config.seed}:graph:{g}"),
            schema,
            profile,
            seed=config.seed,
        )
        store = store_from_spec(spec)
        oracle = factory(store)
        manager = TransactionManager(store)
        qgen = QueryGenerator(schema, random.Random(f"{config.seed}:queries:{g}"))
        ugen = UpdateGenerator(
            schema, random.Random(f"{config.seed}:updates:{g}"), spec, profile
        )
        flow = random.Random(f"{config.seed}:flow:{g}")
        updates: list[Any] = []
        emit(
            f"graph {g}: {spec.total_vertices()} vertices, "
            f"{spec.total_edges()} edges"
        )
        for _ in range(per_graph):
            if iteration >= config.iterations:
                break
            iteration += 1
            if flow.random() < config.update_rate:
                batch = ugen.batch()
                batch.apply(manager)
                updates.append(batch)
                report.updates_applied += 1
                counters["updates_total"].inc()
            view = (
                store.read_view(manager.versions.current(), manager.overlay)
                if updates
                else None
            )
            if flow.random() < config.cypher_rate:
                query = qgen.cypher_query(spec)
                report.cypher_checked += 1
            else:
                query = qgen.query(spec)
            mismatches = oracle.check(query, view=view)
            report.queries_checked += 1
            counters["queries_total"].inc()
            if mismatches:
                counters["mismatches_total"].inc(len(mismatches))
                failure = _archive(
                    config, iteration, query, spec, updates, mismatches,
                    oracle_factory, emit, oracle=oracle,
                )
                report.failures.append(failure)
                if failure.path is not None:
                    counters["corpus_entries_total"].inc()

    for s in range(config.stress_runs):
        stress = run_stress(StressConfig(seed=config.seed * 1000 + s))
        report.stress.append(stress)
        emit(f"stress {s}: {stress.summary()}")
    return report


def _flight_dumps(oracle) -> dict[str, Any]:
    """Every oracle engine's flight-recorder dump (engines without one —
    e.g. the Volcano baseline — are skipped)."""
    dumps: dict[str, Any] = {}
    for name, engine in getattr(oracle, "engines", {}).items():
        flight = getattr(engine, "flight", None)
        if flight is not None:
            dumps[name] = flight.dump()
    return dumps


def _archive(
    config: FuzzConfig,
    iteration: int,
    query,
    spec,
    updates,
    mismatches,
    oracle_factory,
    emit,
    oracle=None,
) -> FuzzFailure:
    """Shrink a failure and (when a corpus dir is set) write the entry."""
    emit(
        f"iteration {iteration}: MISMATCH {query.describe()} -> "
        + "; ".join(str(m) for m in mismatches[:3])
    )
    entry = None
    path = None
    s_query, s_spec, s_updates = query, spec, list(updates)
    if config.shrink:
        try:
            s_query, s_spec, s_updates = shrink_failure(
                query, spec, mismatches, updates=list(updates),
                oracle_factory=oracle_factory,
            )
            emit(
                f"  shrunk to {s_spec.total_vertices()} vertices, "
                f"{s_spec.total_edges()} edges, {len(s_updates)} batches"
            )
        except Exception as exc:  # noqa: BLE001 — keep the raw repro instead
            emit(f"  shrink failed ({type(exc).__name__}: {exc}); keeping raw repro")
    entry = make_entry(
        s_query, s_spec, mismatches, updates=s_updates, seed=config.seed
    )
    flight_path = None
    if config.corpus_dir is not None:
        path = save_entry(entry, config.corpus_dir)
        emit(f"  archived {path}")
        # Flight-recorder dumps of the engines that disagreed, under a
        # subdirectory so corpus loaders (glob *.json, non-recursive)
        # never mistake them for repro entries.
        dumps = _flight_dumps(oracle) if oracle is not None else {}
        if dumps:
            flight_dir = Path(config.corpus_dir) / "flightrec"
            flight_dir.mkdir(parents=True, exist_ok=True)
            flight_path = flight_dir / f"{entry.name}.json"
            flight_path.write_text(
                json.dumps(dumps, indent=2, sort_keys=True, default=str) + "\n"
            )
            emit(f"  flight recorder: {flight_path}")
    return FuzzFailure(
        iteration=iteration,
        query=query.describe(),
        mismatches=[str(m) for m in mismatches],
        entry=entry,
        path=path,
        flight_path=flight_path,
    )
