"""Atomic checkpoints: durable snapshots that bound WAL replay.

A durable database directory looks like::

    db/
      GESDB.json                   marker: this directory is a GES database
      checkpoints/
        ckpt-000000000000/         snapshot at epoch 0 (the initial state)
        ckpt-000000000042/         snapshot at epoch 42
      wal/
        wal-000000000000.log       commits after epoch 0
        wal-000000000042.log       commits after epoch 42

A checkpoint at epoch *V* is a full graph snapshot whose manifest records
``epoch: V`` — every commit with version ``<= V`` is folded in.  The
write protocol is crash-atomic: the snapshot is assembled in a hidden
temp directory inside ``checkpoints/``, each file is fsynced, a per-file
SHA-256 ``MANIFEST.json`` is emitted, the directory itself is fsynced,
and only then is it renamed to ``ckpt-<V>``.  Kill -9 at any point leaves
either no new checkpoint (temp dir swept by recovery) or a complete one.

Retention keeps the newest ``keep`` checkpoints so recovery can fall back
to an older epoch if the newest manifest fails verification; WAL segments
older than the oldest retained checkpoint are pruned with it.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from ..errors import StorageError
from ..obs.events import EVENTS
from ..resilience import faults
from ..storage.io import (
    _write_snapshot_files,
    fsync_dir,
    fsync_file,
    verify_manifest,
    write_manifest,
)
from ..storage.graph import GraphStore
from . import wal as wal_mod

CHECKPOINTS_DIRNAME = "checkpoints"
WAL_DIRNAME = "wal"
MARKER_NAME = "GESDB.json"
MARKER_FORMAT = 1

_CKPT_PREFIX = "ckpt-"


def checkpoints_dir(db: Path) -> Path:
    """The ``checkpoints/`` directory of database *db*."""
    return Path(db) / CHECKPOINTS_DIRNAME


def wal_dir(db: Path) -> Path:
    """The ``wal/`` directory of database *db*."""
    return Path(db) / WAL_DIRNAME


def marker_path(db: Path) -> Path:
    """Path of the ``GESDB.json`` marker of database *db*."""
    return Path(db) / MARKER_NAME


def checkpoint_name(epoch: int) -> str:
    """Directory name of the checkpoint at *epoch* (``ckpt-<12 digits>``)."""
    return f"{_CKPT_PREFIX}{epoch:012d}"


def checkpoint_epoch(path: Path) -> int:
    """Epoch encoded in a checkpoint directory name, or ``StorageError``."""
    name = Path(path).name
    if not name.startswith(_CKPT_PREFIX):
        raise StorageError(f"not a checkpoint directory name: {path}")
    try:
        return int(name[len(_CKPT_PREFIX):])
    except ValueError as exc:
        raise StorageError(f"bad checkpoint directory name {path}") from exc


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint, identified by path + folded-in epoch."""

    path: Path
    epoch: int


def write_marker(db: Path) -> None:
    """Stamp *db* as a GES database directory (idempotent, fsynced)."""
    target = marker_path(db)
    with open(target, "w") as handle:
        json.dump({"magic": "GESDB", "format": MARKER_FORMAT}, handle)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_dir(Path(db))


def read_marker(db: Path) -> dict:
    """Parse and sanity-check the database marker; typed errors only."""
    target = marker_path(db)
    if not target.exists():
        raise StorageError(f"{db} is not a GES database (no {MARKER_NAME})")
    try:
        with open(target) as handle:
            marker = json.load(handle)
    except (OSError, ValueError) as exc:
        raise StorageError(f"unreadable database marker {target}: {exc}") from exc
    if marker.get("magic") != "GESDB":
        raise StorageError(f"{target} is not a GES database marker")
    if marker.get("format") != MARKER_FORMAT:
        raise StorageError(
            f"unsupported database format {marker.get('format')!r} at {target}"
        )
    return marker


def list_checkpoints(db: Path) -> list[CheckpointInfo]:
    """Completed (renamed-into-place) checkpoints, ascending by epoch."""
    ckpts = checkpoints_dir(db)
    if not ckpts.is_dir():
        return []
    found = [
        CheckpointInfo(path=member, epoch=checkpoint_epoch(member))
        for member in ckpts.iterdir()
        if member.is_dir() and member.name.startswith(_CKPT_PREFIX)
    ]
    return sorted(found, key=lambda info: info.epoch)


def validate_checkpoint(info: CheckpointInfo) -> dict:
    """Verify a checkpoint end-to-end; returns its manifest.

    Raises :class:`StorageError` when the manifest is absent (checkpoints
    are always v3), any file fails its SHA-256, or the manifest epoch does
    not match the directory name.
    """
    manifest = verify_manifest(info.path)
    if manifest is None:
        raise StorageError(f"checkpoint {info.path} has no MANIFEST.json")
    if int(manifest.get("epoch", -1)) != info.epoch:
        raise StorageError(
            f"checkpoint {info.path} manifest epoch {manifest.get('epoch')!r} "
            f"does not match its directory name"
        )
    return manifest


def sweep_temp_dirs(db: Path) -> list[str]:
    """Remove crash leftovers: hidden temp dirs under ``checkpoints/``.

    A kill -9 between temp-write and rename strands a ``.ckpt-*.tmp-*``
    directory; it was never visible to loaders and is safe to delete."""
    ckpts = checkpoints_dir(db)
    removed: list[str] = []
    if not ckpts.is_dir():
        return removed
    for member in ckpts.iterdir():
        if member.is_dir() and member.name.startswith("."):
            shutil.rmtree(member, ignore_errors=True)
            removed.append(member.name)
    if removed:
        fsync_dir(ckpts)
        EVENTS.emit("checkpoint_temp_swept", count=len(removed), names=removed)
    return removed


def write_checkpoint(store: GraphStore, db: Path, epoch: int) -> CheckpointInfo:
    """Write the crash-atomic snapshot ``ckpt-<epoch>`` of *store*.

    Idempotent: if that checkpoint already exists it is left untouched.
    Crash sites: ``checkpoint.tmp_written`` (temp complete, not renamed)
    and ``checkpoint.renamed`` (visible, WAL not yet switched).
    """
    ckpts = checkpoints_dir(db)
    ckpts.mkdir(parents=True, exist_ok=True)
    target = ckpts / checkpoint_name(epoch)
    info = CheckpointInfo(path=target, epoch=epoch)
    if target.exists():
        return info
    tmp = ckpts / f".{checkpoint_name(epoch)}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    try:
        tmp.mkdir(parents=True)
        _write_snapshot_files(store, tmp)
        for member in tmp.iterdir():
            fsync_file(member)
        write_manifest(tmp, extra={"epoch": epoch})
        fsync_dir(tmp)
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("checkpoint.tmp_written")
        os.rename(tmp, target)
        fsync_dir(ckpts)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    EVENTS.emit("checkpoint_written", epoch=epoch, path=str(target))
    if faults.ACTIVE is not None:
        faults.ACTIVE.fire("checkpoint.renamed")
    return info


def prune(db: Path, keep: int = 2) -> tuple[list[str], list[str]]:
    """Retire old checkpoints and the WAL segments they make redundant.

    Keeps the newest *keep* checkpoints; removes WAL segments whose epoch
    is below the oldest retained checkpoint (their commits are folded into
    every surviving checkpoint).  Crash site ``checkpoint.truncated``
    fires before the first removal, modelling a kill mid-prune.

    Returns ``(removed_checkpoints, removed_segments)`` by name.
    """
    infos = list_checkpoints(db)
    doomed = infos[:-keep] if keep > 0 else []
    removed_ckpts: list[str] = []
    removed_segments: list[str] = []
    if faults.ACTIVE is not None:
        faults.ACTIVE.fire("checkpoint.truncated")
    for info in doomed:
        shutil.rmtree(info.path, ignore_errors=True)
        removed_ckpts.append(info.path.name)
    if removed_ckpts:
        fsync_dir(checkpoints_dir(db))
    survivors = list_checkpoints(db)
    if survivors:
        floor = survivors[0].epoch
        wals = wal_dir(db)
        for segment in wal_mod.iter_segments(wals):
            if wal_mod.segment_epoch(segment) < floor:
                segment.unlink()
                removed_segments.append(segment.name)
        if removed_segments:
            fsync_dir(wals)
    if removed_ckpts or removed_segments:
        EVENTS.emit(
            "durability_pruned",
            checkpoints=removed_ckpts,
            segments=removed_segments,
        )
    return removed_ckpts, removed_segments
