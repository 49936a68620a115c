"""Kill -9 crash-recovery harness: fork, murder, recover, compare.

One run proves one point of the durability protocol:

1. **Fork** a child process that opens a durable engine over a fresh
   database directory, installs a fault plan that fires exactly one kill
   site on one hit (:mod:`repro.resilience.faults`), and drives a
   deterministic sequence of update batches through it, checkpointing
   every few batches.  After each commit returns, the child
   *acknowledges* the commit version by appending it to a side file —
   the harness's model of "the client was told this write is durable".
2. The kill site SIGKILLs the child mid-protocol — mid-commit, between
   a WAL append and its fsync, between a checkpoint's temp write and its
   rename, mid-truncation.  No cleanup runs; the database directory is
   whatever the crash left.
3. The **parent recovers** the directory with :meth:`GES.open` and checks
   the durability contract differentially against an in-memory reference
   store that applies only the recovered prefix of the same deterministic
   batches:

   * acked ⊆ recovered: every acknowledged commit survives, in order;
   * recovered is a *prefix*: version N implies batches 1..N, bit-for-bit
     (canonical store digests — columns with validity, live edge
     multisets — must match the reference exactly);
   * in ``fsync`` mode, at most the one in-flight commit beyond the last
     ack is present (never more);
   * no stranded checkpoint temp dirs; ``fsck`` is clean after recovery;
     the recovered engine accepts new commits and they survive a second
     open.

Every run is keyed off ``CrashConfig.seed``; the same seed replays the
same schema, graph, batches, and kill point.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..durability import fsck
from ..engine.config import EngineConfig
from ..engine.service import GES
from ..resilience.faults import KILL_SITES, FaultPlan, FaultRule, fault_scope
from ..storage.graph import GraphStore
from ..txn.transaction import TransactionManager
from .graphgen import fuzz_schema, random_graph_spec, store_from_spec
from .querygen import UpdateBatch, UpdateGenerator


@dataclass
class CrashConfig:
    """One crash-recovery run; the seed fixes all randomness."""

    seed: int = 0
    #: Update batches the child attempts (one commit each, versions 1..N).
    batches: int = 16
    #: Checkpoint after every N batches (0 = never).
    checkpoint_every: int = 5
    #: Kill site fired in the child (see ``faults.KILL_SITES``).
    kill_point: str = "commit.wal_fsync"
    #: Which hit of the site kills (0 = auto: mid-run for commit sites,
    #: first checkpoint for checkpoint sites).
    kill_hit: int = 0
    #: WAL mode under test.
    durability: str = "fsync"
    #: Graph size profile for the seeded base graph.
    profile: str = "quick"


@dataclass
class CrashReport:
    """Outcome of one run: what died, what survived, what broke."""

    seed: int
    kill_point: str
    kill_hit: int
    mode: str
    #: True when the armed site actually fired (child died by SIGKILL).
    killed: bool = False
    #: True when the child ran out of batches before the site fired.
    completed: bool = False
    attempted: int = 0
    acked: int = 0
    recovered_version: int = 0
    replayed: int = 0
    repaired: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        fate = "killed" if self.killed else ("completed" if self.completed else "died?")
        return (
            f"{status}: seed {self.seed} @ {self.kill_point}"
            f"[{self.kill_hit}] ({self.mode}): {fate}, "
            f"acked {self.acked}/{self.attempted}, recovered v{self.recovered_version} "
            f"({self.replayed} replayed, {len(self.repaired)} repaired), "
            f"{len(self.violations)} violations"
        )


# -- canonical store digests --------------------------------------------------------


def _canonical(value: Any) -> Any:
    """JSON-safe canonical form: numpy scalars unwrapped, NaN → None.

    NaN folds into null because that is the storage layer's convention on
    every bulk path (and the WAL serde's, for the same reason): a valid
    NaN and a cleared validity bit are the same logical state."""
    item = getattr(value, "item", None)
    if callable(item):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def store_digest(store: GraphStore) -> str:
    """Content hash of a store's logical state, replay-invariant.

    Covers every vertex property column (validity-aware) in row order and
    the sorted multiset of live edges per label — and deliberately ignores
    MVCC version stamps, which a checkpoint legitimately discards (every
    checkpointed row predates every possible reader)."""
    payload: dict[str, Any] = {}
    for label in store.schema.vertex_labels:
        table = store.table(label)
        columns: dict[str, list[Any]] = {}
        for name in table.column_names:
            column = table.column(name)
            values = column.view()
            mask = column.validity_mask()
            columns[name] = [
                None
                if (mask is not None and not mask[i])
                else _canonical(values[i])
                for i in range(len(values))
            ]
        payload[f"v:{label}"] = columns
    for definition in store.schema.iter_edge_definitions():
        adjacency = store.adjacency(definition.key())
        src, dst, props, validity = adjacency.export_edges()
        names = sorted(props)
        rows = []
        for i in range(len(src)):
            vals = []
            for name in names:
                mask = validity.get(name)
                vals.append(
                    None
                    if (mask is not None and not mask[i])
                    else _canonical(props[name][i])
                )
            rows.append([int(src[i]), int(dst[i]), vals])
        rows.sort(key=lambda row: json.dumps(row, default=str))
        payload[f"e:{definition.key()}"] = rows
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the run ------------------------------------------------------------------------


def _engine_config(config: CrashConfig) -> EngineConfig:
    return EngineConfig.ges(
        metrics=False,
        flight_recorder=0,
        durability=config.durability,
        wal_batch_every=4,
    )


def _auto_hit(config: CrashConfig) -> int:
    if config.kill_hit > 0:
        return config.kill_hit
    if config.kill_point.startswith("commit."):
        return max(1, config.batches // 2)
    return 1  # first checkpoint


def _generate_batches(config: CrashConfig, schema, spec) -> list[UpdateBatch]:
    """The deterministic batch sequence both child and parent derive."""
    generator = UpdateGenerator(
        schema,
        random.Random(f"{config.seed}:crash:updates"),
        spec,
        config.profile,
    )
    return [generator.batch() for _ in range(config.batches)]


def _child_main(
    db: Path, ack_path: Path, config: CrashConfig, store: GraphStore,
    batches: list[UpdateBatch],
) -> None:
    """Runs in the forked child; exits only via SIGKILL or ``os._exit``."""
    try:
        ack_fd = os.open(ack_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        engine = GES.open(db, config=_engine_config(config), schema=store)
        plan = FaultPlan(
            [FaultRule(config.kill_point, every_nth=_auto_hit(config), max_fires=1)]
        )
        manager = engine.txn_manager
        with fault_scope(plan):
            for index, batch in enumerate(batches):
                version = batch.apply(manager)
                os.write(ack_fd, f"{version}\n".encode())
                if (
                    config.checkpoint_every
                    and (index + 1) % config.checkpoint_every == 0
                ):
                    engine.checkpoint()
        engine.close()
        os._exit(0)
    except BaseException:  # noqa: BLE001 — anything here is a harness bug
        traceback.print_exc(file=sys.stderr)
        os._exit(2)


def run_crash(config: CrashConfig | None = None) -> CrashReport:
    """One fork / kill -9 / recover / differential-compare cycle."""
    config = config if config is not None else CrashConfig()
    if config.kill_point not in KILL_SITES:
        raise ValueError(
            f"unknown kill point {config.kill_point!r}; known: {KILL_SITES}"
        )
    report = CrashReport(
        seed=config.seed,
        kill_point=config.kill_point,
        kill_hit=_auto_hit(config),
        mode=config.durability,
        attempted=config.batches,
    )

    schema = fuzz_schema()
    spec = random_graph_spec(
        random.Random(f"{config.seed}:crash:graph"),
        schema,
        config.profile,
        seed=config.seed,
    )
    batches = _generate_batches(config, schema, spec)

    with tempfile.TemporaryDirectory(prefix="ges-crash-") as tdir:
        db = Path(tdir) / "db"
        ack_path = Path(tdir) / "acked.txt"

        pid = os.fork()
        if pid == 0:
            _child_main(db, ack_path, config, store_from_spec(spec), batches)
            os._exit(3)  # unreachable
        _, status = os.waitpid(pid, 0)
        report.killed = (
            os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        )
        report.completed = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        if not report.killed and not report.completed:
            report.violations.append(
                f"child died abnormally (wait status {status}); see stderr"
            )
            return report

        # What the client was told is durable.
        acked: list[int] = []
        if ack_path.exists():
            acked = [
                int(line) for line in ack_path.read_text().split() if line.strip()
            ]
        report.acked = len(acked)
        if acked != list(range(1, len(acked) + 1)):
            report.violations.append(f"ack stream is not the prefix 1..N: {acked}")
        max_acked = acked[-1] if acked else 0

        # Recover in the parent.
        try:
            engine = GES.open(db, config=_engine_config(config))
        except Exception as exc:  # noqa: BLE001 — recovery must never fail here
            report.violations.append(
                f"recovery raised {type(exc).__name__}: {exc}"
            )
            return report
        recovery = engine.recovery
        report.recovered_version = engine.txn_manager.versions.current()
        report.replayed = recovery.replayed
        report.repaired = list(recovery.repaired)

        # The durability contract.
        if report.recovered_version < max_acked:
            report.violations.append(
                f"acked commit lost: recovered v{report.recovered_version} "
                f"< max acked v{max_acked}"
            )
        if report.recovered_version > config.batches:
            report.violations.append(
                f"recovered v{report.recovered_version} beyond the "
                f"{config.batches} attempted commits"
            )
        if config.durability == "fsync" and report.recovered_version > max_acked + 1:
            report.violations.append(
                f"fsync mode recovered v{report.recovered_version}, more than "
                f"one commit beyond max acked v{max_acked}"
            )

        # Differential compare: recovered state == reference applying
        # exactly the recovered prefix of the same batch sequence.
        reference = store_from_spec(spec)
        reference_manager = TransactionManager(reference)
        for batch in batches[: report.recovered_version]:
            batch.apply(reference_manager)
        if store_digest(engine.store) != store_digest(reference):
            report.violations.append(
                f"recovered store diverges from the reference at "
                f"v{report.recovered_version} (digest mismatch)"
            )

        # Hygiene: no stranded temp dirs, and fsck agrees all is well.
        ckpt_dir = db / "checkpoints"
        strays = (
            [m.name for m in ckpt_dir.iterdir() if m.name.startswith(".")]
            if ckpt_dir.is_dir()
            else []
        )
        if strays:
            report.violations.append(f"stranded checkpoint temp dirs: {strays}")
        audit = fsck(db)
        if not audit.ok:
            report.violations.append(
                f"post-recovery fsck not clean: {audit.problems}"
            )

        # The recovered engine must keep working — and its new commits
        # must survive a further open.
        try:
            txn = engine.transaction()
            new_version = txn.commit()
            if new_version != report.recovered_version + 1:
                report.violations.append(
                    f"post-recovery commit got v{new_version}, expected "
                    f"v{report.recovered_version + 1}"
                )
            engine.close()
            reopened = GES.open(db, config=_engine_config(config))
            if reopened.txn_manager.versions.current() != new_version:
                report.violations.append(
                    f"post-recovery commit v{new_version} did not survive reopen "
                    f"(got v{reopened.txn_manager.versions.current()})"
                )
            reopened.close()
        except Exception as exc:  # noqa: BLE001
            report.violations.append(
                f"post-recovery write path raised {type(exc).__name__}: {exc}"
            )
    return report


def run_crash_matrix(
    seed: int = 0,
    runs: int = 1,
    sites: tuple[str, ...] | None = None,
    durability: str = "fsync",
    batches: int = 12,
    checkpoint_every: int = 4,
    profile: str = "quick",
) -> list[CrashReport]:
    """Sweep every crash site (× *runs* seeds); returns one report per run."""
    reports = []
    for offset in range(runs):
        for site in sites if sites is not None else KILL_SITES:
            reports.append(
                run_crash(
                    CrashConfig(
                        seed=seed + offset,
                        batches=batches,
                        checkpoint_every=checkpoint_every,
                        kill_point=site,
                        durability=durability,
                        profile=profile,
                    )
                )
            )
    return reports
