"""Deterministic concurrency stress for the MVCC transaction layer.

Real thread interleavings are not reproducible, so this stressor runs
writer, reader, and GC actors as *coroutines* under a seeded scheduler:
every actor is a generator that yields at each interleaving point, and a
``random.Random(seed)`` picks which actor advances next.  One seed =
one exact interleaving, forever — a failing run is a repro, not a flake.

The store physically mutates in place (version-stamped edges, in-place
property writes with copy-on-write pre-images), so the invariants checked
here are exactly the paper's §5 snapshot-isolation contract:

* **batch atomicity** — a reader pinned at version ``v`` sees precisely
  the prefix of commits ``<= v``, never a partially applied IU batch,
  even though later writes are already physically present;
* **pinned-view stability** — re-reading a pinned view after more commits
  (and GC runs) interleave returns byte-identical state;
* **GC safety** — pruning the version chain up to the *oldest active
  pin* never loses a committed edge, vertex, or property pre-image any
  live reader still needs.

Writers own disjoint source-vertex ranges, so the model (a commit log
mapping version -> expected graph state) is exact without conflict
resolution logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..errors import LockTimeout, TransientError
from ..resilience.faults import FaultPlan, fault_scope
from ..storage.catalog import (
    Direction,
    EdgeLabelDef,
    GraphSchema,
    PropertyDef,
    VertexLabelDef,
)
from ..storage.graph import GraphStore, VertexRef
from ..txn.transaction import TransactionManager
from ..types import DataType


@dataclass
class StressConfig:
    """Knobs for one stress run; the seed fixes the whole interleaving."""

    seed: int = 0
    writers: int = 3
    readers: int = 2
    batches_per_writer: int = 6
    ops_per_batch: tuple[int, int] = (1, 5)
    pins_per_reader: int = 5
    checks_per_pin: int = 2
    base_vertices: int = 12
    gc: bool = True
    gc_rounds: int = 8
    #: Seeded fault plan installed for the whole run (None = no injection).
    #: Writers retry commits that fail with an injected transient or lock
    #: timeout; a batch that exhausts its retries is aborted and *not*
    #: folded into the model — never half-applied.
    faults: FaultPlan | None = None
    commit_attempts: int = 8


@dataclass
class StressReport:
    """Outcome of one stress run."""

    commits: int = 0
    reads: int = 0
    gc_runs: int = 0
    gc_released: int = 0
    final_version: int = 0
    fault_retries: int = 0
    dropped_batches: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        injected = (
            f", {self.fault_retries} fault retries"
            f" ({self.dropped_batches} batches dropped)"
            if self.fault_retries or self.dropped_batches
            else ""
        )
        return (
            f"{status}: {self.commits} commits, {self.reads} pinned reads, "
            f"{self.gc_runs} GC runs ({self.gc_released} pre-images released), "
            f"{len(self.violations)} violations{injected}"
        )


@dataclass
class _State:
    """Expected committed graph state (the model side of the check)."""

    edges: frozenset  # of (src_row, dst_row)
    vals: dict[int, Any]  # row -> committed "val" property
    vcount: int


def _stress_schema() -> GraphSchema:
    schema = GraphSchema()
    schema.add_vertex_label(
        VertexLabelDef(
            "N",
            [PropertyDef("id", DataType.INT64), PropertyDef("val", DataType.INT64)],
            primary_key="id",
        )
    )
    schema.add_edge_label(EdgeLabelDef("E", "N", "N"))
    return schema


def run_stress(config: StressConfig | None = None) -> StressReport:
    """One seeded stress run; see the module docstring for the invariants."""
    config = config if config is not None else StressConfig()
    report = StressReport()

    schema = _stress_schema()
    store = GraphStore(schema)
    n0 = max(config.base_vertices, config.writers)
    store.bulk_load_vertices(
        "N",
        {
            "id": np.arange(n0, dtype=np.int64),
            "val": np.zeros(n0, dtype=np.int64),
        },
    )
    store.bulk_load_edges(
        "E", "N", "N", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    )
    manager = TransactionManager(store)
    adjacency_key = schema.expand_keys("E", Direction.OUT, "N", "N")[0]

    # The commit log: version -> full expected state at that version.
    history: dict[int, _State] = {0: _State(frozenset(), {r: 0 for r in range(n0)}, n0)}
    model = {"edges": set(), "vals": {r: 0 for r in range(n0)}, "vcount": n0}
    pins: dict[int, int] = {}  # reader id -> pinned version
    gc_floor = [0]  # versions below this are pruned; new pins must be >= it
    next_pk = [10 * n0]
    span = n0 // config.writers

    def verify(view, version: int, expected: _State, who: str) -> None:
        report.reads += 1
        visible = set(int(r) for r in view.all_rows("N"))
        if visible != set(range(expected.vcount)):
            report.violations.append(
                f"{who} @v{version}: vertex set {sorted(visible)[:8]}... "
                f"!= expected 0..{expected.vcount - 1}"
            )
        observed = set()
        for src in range(expected.vcount):
            for nbr in view.neighbors(adjacency_key, src):
                observed.add((src, int(nbr)))
        if observed != set(expected.edges):
            extra = sorted(observed - set(expected.edges))[:4]
            missing = sorted(set(expected.edges) - observed)[:4]
            report.violations.append(
                f"{who} @v{version}: edge set diverged "
                f"(extra={extra}, missing={missing})"
            )
        for row in range(expected.vcount):
            value = view.get_property("N", row, "val")
            value = int(value) if value is not None else value
            if value != expected.vals[row]:
                report.violations.append(
                    f"{who} @v{version}: val[{row}] = {value!r}, "
                    f"expected {expected.vals[row]!r}"
                )

    def writer(w: int) -> Iterator[None]:
        rng = random.Random(f"{config.seed}:writer:{w}")
        own = range(w * span, (w + 1) * span)
        for _ in range(config.batches_per_writer):
            txn = manager.begin()
            adds: list[tuple[int, int]] = []
            removes: list[tuple[int, int]] = []
            props: dict[int, int] = {}
            new_vals: list[int] = []
            for _ in range(rng.randint(*config.ops_per_batch)):
                yield  # interleaving point: the batch is staged, not visible
                kind = rng.choices(
                    ("add_edge", "remove_edge", "set_prop", "add_vertex"),
                    weights=(4, 2, 3, 1),
                )[0]
                if kind == "add_edge":
                    for _attempt in range(4):
                        pair = (
                            rng.choice(list(own)),
                            rng.randrange(model["vcount"]),
                        )
                        live = pair in model["edges"] or pair in adds
                        if not live and pair not in removes:
                            txn.add_edge(
                                "E", VertexRef("N", pair[0]), VertexRef("N", pair[1])
                            )
                            adds.append(pair)
                            break
                elif kind == "remove_edge":
                    mine = [
                        p
                        for p in model["edges"]
                        if p[0] in own and p not in removes and p not in adds
                    ]
                    if mine:
                        pair = rng.choice(sorted(mine))
                        txn.remove_edge(
                            "E", VertexRef("N", pair[0]), VertexRef("N", pair[1])
                        )
                        removes.append(pair)
                elif kind == "set_prop":
                    row = rng.choice(list(own))
                    value = rng.randint(0, 10_000)
                    txn.set_vertex_property("N", row, "val", value)
                    props[row] = value
                else:
                    value = rng.randint(0, 10_000)
                    txn.add_vertex("N", {"id": next_pk[0], "val": value})
                    next_pk[0] += 1
                    new_vals.append(value)
            yield  # last interleaving point before the atomic commit
            version = None
            for attempt in range(config.commit_attempts):
                try:
                    version = txn.commit()
                    break
                except (TransientError, LockTimeout):
                    # An injected fault (or lock expiry) fires before any
                    # lock is granted, so the transaction is still open,
                    # holds nothing, and can simply be re-committed.
                    report.fault_retries += 1
                    yield  # back off by yielding the interleaving slot
            if version is None:
                # Retries exhausted: the batch is dropped whole — aborted,
                # never folded into the model, never partially visible.
                txn.abort()
                report.dropped_batches += 1
                yield
                continue
            # Fold the batch into the model as one atomic state transition.
            for pair in adds:
                model["edges"].add(pair)
            for pair in removes:
                model["edges"].discard(pair)
            model["vals"].update(props)
            for value in new_vals:
                model["vals"][model["vcount"]] = value
                model["vcount"] += 1
            history[version] = _State(
                frozenset(model["edges"]), dict(model["vals"]), model["vcount"]
            )
            report.commits += 1
            yield

    def reader(r: int) -> Iterator[None]:
        rng = random.Random(f"{config.seed}:reader:{r}")
        for _ in range(config.pins_per_reader):
            # Snapshots below the GC floor are gone by contract; a valid
            # reader can only pin at or above it.
            version = rng.choice([v for v in sorted(history) if v >= gc_floor[0]])
            expected = history[version]
            view = store.read_view(version, manager.overlay)
            pins[r] = version
            verify(view, version, expected, f"reader-{r}")
            for _ in range(config.checks_per_pin):
                yield  # commits and GC interleave here; the pin must hold
                verify(view, version, expected, f"reader-{r}")
            del pins[r]
            yield

    def collector() -> Iterator[None]:
        for _ in range(config.gc_rounds):
            yield
            # GC floor: nothing a live pinned reader can still need.
            floor = min(pins.values(), default=manager.versions.current())
            gc_floor[0] = max(gc_floor[0], floor)
            report.gc_released += manager.overlay.prune(floor)
            report.gc_runs += 1

    actors: list[Iterator[None]] = [writer(w) for w in range(config.writers)]
    actors += [reader(r) for r in range(config.readers)]
    if config.gc:
        actors.append(collector())

    scheduler = random.Random(f"{config.seed}:scheduler")
    if config.faults is not None:
        config.faults.reset()  # one seed = one interleaving, even on reuse
    with fault_scope(config.faults):
        while actors:
            idx = scheduler.randrange(len(actors))
            try:
                next(actors[idx])
            except StopIteration:
                actors.pop(idx)

    report.final_version = manager.versions.current()
    return report
