"""Durability subsystem: write-ahead log, atomic checkpoints, recovery.

The pieces, bottom-up:

* :mod:`repro.durability.wal` — segment format and the appender
  (length-prefixed, CRC32-checksummed records; ``fsync``/``batch`` modes).
* :mod:`repro.durability.records` — commit payload serde + replay.
* :mod:`repro.durability.checkpoint` — crash-atomic snapshots with
  per-file SHA-256 manifests, retention, and WAL pruning.
* :mod:`repro.durability.recovery` — ``recover``/``init_db``/``fsck``.

The protocol's crash points are kill sites of the one fault registry
(:mod:`repro.resilience.faults`), fired by the kill -9 harness
(:mod:`repro.testkit.crashtest`).

:class:`DurabilityManager` ties them together for the engine: the
transaction manager calls :meth:`~DurabilityManager.log_commit` under its
commit guard before mutations apply (write-ahead, by construction), and
the service calls :meth:`~DurabilityManager.checkpoint` to fold the log
into a fresh snapshot and :meth:`~DurabilityManager.close` on shutdown.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import StorageError, WalCorrupt
from ..obs.events import EVENTS
from ..resilience import faults
from ..storage.graph import GraphStore
from .checkpoint import CheckpointInfo, prune, wal_dir, write_checkpoint
from .records import commit_payload, replay_commit
from .recovery import FsckReport, RecoveryResult, fsck, init_db, recover
from .wal import WAL_MODES, WalWriter, create_segment, scan_segment

if TYPE_CHECKING:
    from ..txn.transaction import Transaction

__all__ = [
    "CheckpointInfo",
    "DurabilityManager",
    "FsckReport",
    "RecoveryResult",
    "StorageError",
    "WAL_MODES",
    "WalCorrupt",
    "commit_payload",
    "fsck",
    "init_db",
    "recover",
    "replay_commit",
]


class DurabilityManager:
    """One durable database directory, held open by one engine.

    Single-writer by construction: every :meth:`log_commit` happens under
    the transaction manager's commit guard, and checkpoints take the same
    guard through the service.  All crash sites of the protocol live in
    the code paths this class drives.
    """

    def __init__(
        self,
        db: Path,
        writer: WalWriter,
        mode: str,
        batch_every: int = 8,
        keep: int = 2,
    ) -> None:
        self.db = Path(db)
        self.writer = writer
        self.mode = mode
        self.batch_every = batch_every
        self.keep = keep
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    @classmethod
    def initialise(
        cls,
        path: str | Path,
        store: GraphStore,
        mode: str = "fsync",
        batch_every: int = 8,
        keep: int = 2,
    ) -> "DurabilityManager":
        """Create a fresh database directory seeded with *store*."""
        if mode not in WAL_MODES:
            raise StorageError(f"unknown durability mode {mode!r}; choose from {WAL_MODES}")
        db = init_db(path, store)
        writer = WalWriter(
            wal_dir(db) / "wal-000000000000.log",
            epoch=0,
            mode=mode,
            batch_every=batch_every,
        )
        return cls(db, writer, mode, batch_every=batch_every, keep=keep)

    @classmethod
    def attach(
        cls,
        db: Path,
        result: RecoveryResult,
        mode: str = "fsync",
        batch_every: int = 8,
        keep: int = 2,
    ) -> "DurabilityManager":
        """Resume appending after :func:`recover` ran on *db*.

        Appends continue on the recovered active segment (already
        truncated to its valid prefix); if recovery found no usable
        segment, a fresh one is cut at the checkpoint epoch.
        """
        if mode not in WAL_MODES:
            raise StorageError(f"unknown durability mode {mode!r}; choose from {WAL_MODES}")
        segment = result.active_segment
        if segment is None or not segment.exists():
            segment = create_segment(wal_dir(db), result.checkpoint.epoch)
        scan = scan_segment(segment)
        writer = WalWriter(
            segment,
            epoch=scan.epoch,
            mode=mode,
            batch_every=batch_every,
            start_offset=scan.valid_length,
        )
        return cls(Path(db), writer, mode, batch_every=batch_every, keep=keep)

    # -- the write path ------------------------------------------------------------

    def log_commit(self, txn: "Transaction", version: int) -> None:
        """Make one staged commit durable *before* it applies.

        Called under the commit guard.  In ``fsync`` mode the record is on
        disk when this returns; in ``batch`` mode it is flushed with a
        bounded fsync lag.
        """
        self.writer.append(commit_payload(txn, version))

    def checkpoint(self, store: GraphStore, version: int) -> CheckpointInfo:
        """Fold everything up to *version* into checkpoint ``ckpt-<version>``.

        Protocol (each step crash-atomic, see module docstrings):
        sync the WAL → write + rename the snapshot → cut a fresh WAL
        segment for the new epoch → prune retired checkpoints/segments.
        Calling twice at the same version is a no-op.
        """
        if self._closed:
            raise StorageError("durability manager is closed")
        if version == self.writer.epoch:
            return CheckpointInfo(
                path=self.db / "checkpoints" / f"ckpt-{version:012d}", epoch=version
            )
        self.writer.sync()
        info = write_checkpoint(store, self.db, version)
        self.writer.switch_segment(wal_dir(self.db), version)
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("checkpoint.segment_switched")
        prune(self.db, keep=self.keep)
        EVENTS.emit("checkpoint_complete", epoch=version)
        return info

    def sync(self) -> None:
        """Force every appended record onto disk (batch-mode flush)."""
        if not self._closed:
            self.writer.sync()

    def close(self) -> None:
        if self._closed:
            return
        self.writer.close()
        self._closed = True

    def describe(self) -> dict[str, Any]:
        return {
            "path": str(self.db),
            "mode": self.mode,
            "batch_every": self.batch_every,
            "checkpoint_keep": self.keep,
            "wal_segment": self.writer.path.name,
            "wal_epoch": self.writer.epoch,
        }
