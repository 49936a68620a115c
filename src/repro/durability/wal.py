"""The write-ahead log: length-prefixed, CRC32-checksummed commit records.

One WAL *segment* per checkpoint epoch lives under ``<db>/wal/``::

    wal-000000000000.log        commits made after checkpoint epoch 0
    wal-000000000042.log        commits made after checkpoint epoch 42

Segment layout::

    header   = b"GESW" | u32 format | u64 epoch          (16 bytes)
    record   = u32 body_len | u32 crc32(body) | body      (repeated)

Record bodies are compact JSON — the staged-transaction payload built by
:mod:`repro.durability.records` — so a segment is greppable with
``strings`` yet every byte is covered by the CRC.  A record is *durable*
once its bytes are on disk and (in ``fsync`` mode) fsynced; a torn tail —
truncated length word, short body, checksum mismatch — is detected on
read and the longest valid prefix wins, deterministically.

Modes:

* ``fsync`` — fsync after every commit append: a commit that returned is
  durable, full stop (the crash harness's strongest invariant).
* ``batch`` — flush after every append, fsync every
  ``batch_every`` appends (and on checkpoint/close): bounded-loss group
  commit, an order of magnitude cheaper per commit.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import StorageError, WalCorrupt
from ..obs.events import EVENTS
from ..obs.metrics import REGISTRY
from ..resilience import faults

WAL_MAGIC = b"GESW"
WAL_FORMAT = 1
HEADER_SIZE = 16
_HEADER = struct.Struct("<4sIQ")
_PREFIX = struct.Struct("<II")

#: Sanity ceiling on one record body: a bit-flipped length word must not
#: make the reader attempt a multi-gigabyte allocation.
MAX_RECORD_BYTES = 64 * 1024 * 1024

WAL_MODES = ("fsync", "batch")


def segment_name(epoch: int) -> str:
    """Filename of the segment for checkpoint *epoch* (``wal-<12 digits>.log``)."""
    return f"wal-{epoch:012d}.log"


def segment_epoch(path: Path) -> int:
    """Epoch encoded in a segment filename, or raise ``StorageError``."""
    stem = path.name
    if not (stem.startswith("wal-") and stem.endswith(".log")):
        raise StorageError(f"not a WAL segment name: {path}")
    try:
        return int(stem[4:-4])
    except ValueError as exc:
        raise StorageError(f"bad WAL segment name {path}") from exc


def encode_record(body: bytes) -> bytes:
    """``len | crc | body`` — the only on-disk record shape."""
    return _PREFIX.pack(len(body), zlib.crc32(body)) + body


def encode_header(epoch: int) -> bytes:
    """The 16-byte segment header: magic, format, epoch."""
    return _HEADER.pack(WAL_MAGIC, WAL_FORMAT, epoch)


@dataclass
class WalRecord:
    """One decoded record plus where it sat in the segment."""

    offset: int  # byte offset of the length prefix
    length: int  # total bytes including the 8-byte prefix
    payload: dict[str, Any]

    @property
    def version(self) -> int:
        return int(self.payload["v"])


@dataclass
class WalScan:
    """Outcome of scanning one segment: valid prefix + tear, if any."""

    path: Path
    epoch: int
    records: list[WalRecord] = field(default_factory=list)
    #: Bytes of the longest valid prefix (header included): the offset a
    #: repair truncates to, and where appends resume.
    valid_length: int = HEADER_SIZE
    #: Byte offset of the first corrupt/torn record, or None when clean.
    torn_offset: int | None = None
    torn_reason: str | None = None

    @property
    def clean(self) -> bool:
        return self.torn_offset is None

    @property
    def last_version(self) -> int:
        return self.records[-1].version if self.records else self.epoch


def scan_segment(path: Path) -> WalScan:
    """Read every valid record of *path*, stopping at the first tear.

    Never raises for tail damage — a torn tail is an expected crash
    artifact, reported in the scan.  A missing file or unreadable/foreign
    header *does* raise (``StorageError``/``WalCorrupt``): that is not a
    torn tail, it is not a WAL segment.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"unreadable WAL segment {path}: {exc}") from exc
    if len(data) < HEADER_SIZE:
        raise WalCorrupt(f"WAL segment {path} is shorter than its header")
    magic, fmt, epoch = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise WalCorrupt(f"WAL segment {path} has bad magic {magic!r}")
    if fmt != WAL_FORMAT:
        raise WalCorrupt(f"WAL segment {path} has unsupported format {fmt}")
    scan = WalScan(path=path, epoch=epoch)
    offset = HEADER_SIZE
    total = len(data)
    while offset < total:
        if total - offset < _PREFIX.size:
            scan.torn_offset = offset
            scan.torn_reason = "truncated record prefix"
            break
        body_len, crc = _PREFIX.unpack_from(data, offset)
        if body_len > MAX_RECORD_BYTES:
            scan.torn_offset = offset
            scan.torn_reason = f"implausible record length {body_len}"
            break
        body_end = offset + _PREFIX.size + body_len
        if body_end > total:
            scan.torn_offset = offset
            scan.torn_reason = "truncated record body"
            break
        body = data[offset + _PREFIX.size : body_end]
        if zlib.crc32(body) != crc:
            scan.torn_offset = offset
            scan.torn_reason = "checksum mismatch"
            break
        try:
            payload = json.loads(body.decode("utf-8"))
            version = int(payload["v"])
        except (ValueError, KeyError, UnicodeDecodeError):
            scan.torn_offset = offset
            scan.torn_reason = "undecodable record body"
            break
        scan.records.append(
            WalRecord(offset=offset, length=body_end - offset, payload=payload)
        )
        scan.valid_length = body_end
        offset = body_end
        del version  # validated above; consumers read it off the payload
    return scan


def iter_segments(wal_dir: Path) -> Iterator[Path]:
    """Segment files under *wal_dir*, ascending by epoch."""
    if not wal_dir.is_dir():
        return iter(())
    segments = [
        p for p in wal_dir.iterdir()
        if p.name.startswith("wal-") and p.name.endswith(".log")
    ]
    return iter(sorted(segments, key=segment_epoch))


def create_segment(wal_dir: Path, epoch: int) -> Path:
    """Write a fresh (header-only) segment and fsync it + its directory."""
    path = wal_dir / segment_name(epoch)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, encode_header(epoch))
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_dir(wal_dir)
    return path


def fsync_dir(path: Path) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalWriter:
    """Appender over one segment; single-threaded by construction (every
    append happens under the transaction manager's commit guard)."""

    def __init__(
        self,
        path: Path,
        epoch: int,
        mode: str = "fsync",
        batch_every: int = 8,
        start_offset: int | None = None,
    ) -> None:
        if mode not in WAL_MODES:
            raise StorageError(f"unknown WAL mode {mode!r}; choose from {WAL_MODES}")
        self.path = Path(path)
        self.epoch = epoch
        self.mode = mode
        self.batch_every = max(1, batch_every)
        self._file = open(self.path, "r+b")
        if start_offset is None:
            self._file.seek(0, io.SEEK_END)
        else:
            self._file.seek(start_offset)
            self._file.truncate()
        self._pending = 0  # appends since the last fsync (batch mode)
        self._closed = False
        self._m_appends = REGISTRY.counter(
            "ges_wal_appends_total", "Commit records appended to the WAL."
        )
        self._m_bytes = REGISTRY.counter(
            "ges_wal_bytes_total", "Bytes appended to the WAL (prefix included)."
        )
        self._m_fsyncs = REGISTRY.counter(
            "ges_wal_fsyncs_total", "fsync calls issued by the WAL writer."
        )

    @classmethod
    def create(
        cls, wal_dir: Path, epoch: int, mode: str = "fsync", batch_every: int = 8
    ) -> "WalWriter":
        path = create_segment(wal_dir, epoch)
        return cls(path, epoch, mode=mode, batch_every=batch_every)

    def append(self, payload: dict[str, Any]) -> int:
        """Append one commit record; returns bytes written.

        In ``fsync`` mode the record is durable when this returns; in
        ``batch`` mode it is flushed to the OS and fsynced every
        ``batch_every`` appends.
        """
        if self._closed:
            raise StorageError("WAL writer is closed")
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        record = encode_record(body)
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("commit.wal_append")
        self._file.write(record)
        self._file.flush()
        self._m_appends.inc()
        self._m_bytes.inc(len(record))
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("commit.wal_fsync")
        if self.mode == "fsync":
            os.fsync(self._file.fileno())
            self._m_fsyncs.inc()
        else:
            self._pending += 1
            if self._pending >= self.batch_every:
                os.fsync(self._file.fileno())
                self._m_fsyncs.inc()
                self._pending = 0
        return len(record)

    def sync(self) -> None:
        """Force everything appended so far onto disk."""
        if self._closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._m_fsyncs.inc()
        self._pending = 0

    def switch_segment(self, wal_dir: Path, epoch: int) -> None:
        """Start appending to a fresh segment for *epoch* (checkpoint step).

        The old segment is synced and closed first, so no acked record can
        be lost by the switch; pruning old files is the caller's job."""
        self.sync()
        self._file.close()
        self.path = create_segment(wal_dir, epoch)
        self.epoch = epoch
        self._file = open(self.path, "r+b")
        self._file.seek(0, io.SEEK_END)
        self._pending = 0

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True
        EVENTS.emit("wal_closed", epoch=self.epoch)

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def repair_segment(scan: WalScan) -> bool:
    """Truncate a torn segment to its longest valid prefix (in place).

    Returns True when bytes were actually removed.  This is recovery's
    only write to an existing segment: it never invents data, it only
    discards a tail that was, by definition, never acknowledged."""
    if scan.clean:
        return False
    with open(scan.path, "r+b") as handle:
        handle.truncate(scan.valid_length)
        handle.flush()
        os.fsync(handle.fileno())
    EVENTS.emit(
        "wal_repaired",
        segment=scan.path.name,
        torn_offset=scan.torn_offset,
        reason=scan.torn_reason,
    )
    return True
