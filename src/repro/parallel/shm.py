"""Shared-memory snapshot export/attach for the worker pool.

One pinned read view is exported as **one** ``multiprocessing.shared_memory``
segment holding every fixed-width array of the graph — property columns,
validity bitmaps, tombstone lists, creation-version stamps, and the CSR
adjacency arrays (offsets / lengths / targets / edge properties / MVCC
stamps) — at 64-byte-aligned offsets.  A small picklable **manifest** maps
logical names to (dtype, count, offset) specs; a worker attaches by segment
name and rebuilds a read-only :class:`~repro.storage.graph.GraphStore`
whose numeric arrays are zero-copy views over the mapping.

STRING columns travel either dictionary-encoded (int32 codes in the
segment, the unique values in the manifest) or as UTF-8 blobs with an
``int64`` offsets array and a presence mask.

Exactness: the export is a *physical* clone — row indices, tombstones, and
version stamps are preserved bit-for-bit, so coordinator row ids remain
valid inside workers.  Copy-on-write pre-images recorded by transactions
that committed after the pinned version are patched back into the exported
columns, so a worker needs no overlay at all.

Lifecycle: :class:`SnapshotExporter` keys exports by
``(store.mutation_epoch, view.version)`` and refcounts attachers on the
coordinator side; a stale export is retired (unlinked) as soon as the last
in-flight query releases it.  Unlink-while-mapped is safe on Linux: the
name disappears but existing worker mappings persist until they close.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
import weakref
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import StorageError
from ..obs.events import EVENTS
from ..obs.metrics import REGISTRY
from ..storage.adjacency import AdjacencyList
from ..storage.catalog import AdjacencyKey, Direction
from ..storage.graph import GraphReadView, GraphStore
from ..storage.io import _schema_from_dict, _schema_to_dict
from ..storage.properties import PropertyColumn
from ..types import DataType

#: Every segment this module creates is named ``ges-snap-<pid>-<nonce>`` so
#: tests can audit ``/dev/shm`` for leaks by prefix.
SEGMENT_PREFIX = "ges-snap-"

_ALIGN = 64

# ---------------------------------------------------------------------------
# Process-global segment tracking (leak safety net)

_LIVE_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_LIVE_LOCK = threading.Lock()


def _track(segment: shared_memory.SharedMemory) -> None:
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[segment.name] = segment


def _untrack(name: str) -> None:
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(name, None)


def created_segment_names() -> list[str]:
    """Names of segments created by this process and not yet unlinked."""
    with _LIVE_LOCK:
        return sorted(_LIVE_SEGMENTS)


def _disarm(segment: shared_memory.SharedMemory) -> None:
    """Neutralize a segment whose close() hit BufferError.

    Numpy views still reference the mapping, so it cannot be closed *now* —
    dropping the handle's own references lets plain refcounting free the
    memoryview and mmap when the last view dies, and stops
    ``SharedMemory.__del__`` from retrying the close (and printing
    "cannot close exported pointers exist") at interpreter exit.
    """
    segment._buf = None  # type: ignore[attr-defined]
    segment._mmap = None  # type: ignore[attr-defined]


def _unlink_segment(segment: shared_memory.SharedMemory) -> None:
    """Unlink (and best-effort close) one created segment."""
    _untrack(segment.name)
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    try:
        segment.close()
    except BufferError:
        # A numpy view is still alive somewhere; the name is already gone.
        _disarm(segment)


def _cleanup_at_exit() -> None:
    with _LIVE_LOCK:
        segments = list(_LIVE_SEGMENTS.values())
        _LIVE_SEGMENTS.clear()
    for segment in segments:
        try:
            segment.unlink()
        except Exception:
            pass
        try:
            segment.close()
        except BufferError:
            _disarm(segment)
        except Exception:
            pass


atexit.register(_cleanup_at_exit)


def system_segment_names(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Segment names matching *prefix* visible system-wide (leak audit).

    Scans ``/dev/shm`` on Linux; falls back to this process's created-set
    elsewhere.
    """
    base = Path("/dev/shm")
    if base.is_dir():
        return sorted(p.name for p in base.iterdir() if p.name.startswith(prefix))
    return [n for n in created_segment_names() if n.startswith(prefix)]


# ---------------------------------------------------------------------------
# Segment writing


class _ArrayBundle:
    """Accumulates arrays, assigns aligned offsets, then writes one segment."""

    def __init__(self) -> None:
        self.specs: dict[str, dict] = {}
        self._chunks: list[tuple[int, bytes]] = []
        self._cursor = 0
        self._counter = 0

    def _reserve(self, payload: bytes) -> int:
        offset = (self._cursor + _ALIGN - 1) & ~(_ALIGN - 1)
        self._cursor = offset + len(payload)
        self._chunks.append((offset, payload))
        return offset

    def put(self, array: np.ndarray | None) -> str | None:
        """Register one 1-D array; returns its manifest key (None passthrough)."""
        if array is None:
            return None
        key = f"a{self._counter}"
        self._counter += 1
        if array.dtype == object:
            self.specs[key] = self._encode_utf8(array)
        else:
            contiguous = np.ascontiguousarray(array)
            self.specs[key] = {
                "kind": "raw",
                "dtype": contiguous.dtype.str,
                "count": len(contiguous),
                "offset": self._reserve(contiguous.tobytes()),
            }
        return key

    def _encode_utf8(self, array: np.ndarray) -> dict:
        """Object array -> UTF-8 blob + offsets + presence mask."""
        n = len(array)
        present = np.zeros(n, dtype=bool)
        offsets = np.zeros(n + 1, dtype=np.int64)
        pieces: list[bytes] = []
        total = 0
        for i, value in enumerate(array):
            if value is not None:
                if not isinstance(value, str):
                    raise StorageError(
                        f"cannot export non-string object value {type(value).__name__}"
                    )
                encoded = value.encode("utf-8")
                pieces.append(encoded)
                present[i] = True
                total += len(encoded)
            offsets[i + 1] = total
        return {
            "kind": "utf8",
            "count": n,
            "data_bytes": total,
            "data": self._reserve(b"".join(pieces)),
            "offsets": self._reserve(offsets.tobytes()),
            "present": self._reserve(present.tobytes()),
        }

    def write(self, name: str) -> shared_memory.SharedMemory:
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=self._cursor + _ALIGN
        )
        for offset, payload in self._chunks:
            segment.buf[offset : offset + len(payload)] = payload
        return segment


def _read_array(buf: memoryview, spec: dict) -> np.ndarray:
    """Decode one manifest array spec against a mapped segment buffer."""
    if spec["kind"] == "raw":
        array = np.frombuffer(
            buf, dtype=np.dtype(spec["dtype"]), count=spec["count"], offset=spec["offset"]
        )
        array.flags.writeable = False
        return array
    # utf8 object array: decoded into process-local objects (strings cannot
    # be shared zero-copy), presence holes become None.
    n = spec["count"]
    offsets = np.frombuffer(buf, dtype=np.int64, count=n + 1, offset=spec["offsets"])
    present = np.frombuffer(buf, dtype=bool, count=n, offset=spec["present"])
    data = bytes(buf[spec["data"] : spec["data"] + spec["data_bytes"]])
    out = np.empty(n, dtype=object)
    for i in range(n):
        if present[i]:
            out[i] = data[offsets[i] : offsets[i + 1]].decode("utf-8")
    return out


# ---------------------------------------------------------------------------
# Export


def _collect_patches(view: GraphReadView) -> dict[str, set[int]]:
    """Rows per label whose exported values may need overlay patching."""
    if view.overlay is None or view.version is None:
        return {}
    patches: dict[str, set[int]] = {}
    overridden = getattr(view.overlay, "overridden_vertices", None)
    if overridden is None:
        raise StorageError("overlay does not expose overridden vertices")
    for label, row in overridden():
        patches.setdefault(label, set()).add(row)
    return patches


def _export_column(
    bundle: _ArrayBundle,
    view: GraphReadView,
    label: str,
    column: PropertyColumn,
    count: int,
    patched_rows: set[int],
) -> dict:
    """Manifest entry for one property column (patching COW pre-images)."""
    entry: dict[str, Any] = {"dtype": column.dtype.value}
    needs_patch = bool(patched_rows)
    if column.is_dict_encoded and not needs_patch:
        entry["kind"] = "dict"
        entry["dict_values"] = list(column._dict_values)
        entry["dict_codes"] = bundle.put(column._dict_codes[:count])
        entry["validity"] = bundle.put(column.validity_mask())
        return entry
    values = column.view()
    mask = column.validity_mask()
    if needs_patch:
        # The view's own bulk read resolves the pre-images of these rows;
        # writing it back over the live values pins the column.
        rows = np.fromiter((r for r in patched_rows if r < count), dtype=np.int64)
        pinned, pinned_valid = view.gather_properties_with_validity(label, column.name, rows)
        values = values.copy()
        values[rows] = pinned
        mask = mask.copy() if mask is not None else np.ones(count, dtype=bool)
        mask[rows] = True if pinned_valid is None else pinned_valid
        if mask.all():
            mask = None
    if values.dtype == object:
        # Presence already travels inside the utf8 encoding; fold the
        # validity mask into the value holes.
        if mask is not None:
            values = values.copy()
            values[~mask] = None
        entry["kind"] = "utf8"
        entry["values"] = bundle.put(values)
        entry["validity"] = None
    else:
        entry["kind"] = "raw"
        entry["values"] = bundle.put(values)
        entry["validity"] = bundle.put(mask)
    return entry


def export_view(view: GraphReadView) -> tuple[dict, shared_memory.SharedMemory]:
    """Export *view*'s store into one shared-memory segment + manifest.

    The manifest is picklable and self-contained: together with the named
    segment it is everything a worker needs to rebuild an equivalent
    read-only store.
    """
    store = view.store
    bundle = _ArrayBundle()
    patches = _collect_patches(view)

    tables: dict[str, dict] = {}
    for label in store.schema.vertex_labels:
        table = store.table(label)
        count = len(table)
        created = table._created_versions
        if created is not None:
            stamped = np.zeros(max(count, 1), dtype=np.int64)
            m = min(len(created), count)
            stamped[:m] = created[:m]
        else:
            stamped = None
        tombstones = (
            np.fromiter(sorted(table._tombstones), dtype=np.int64)
            if table._tombstones
            else None
        )
        patched_rows = patches.get(label, set())
        tables[label] = {
            "count": count,
            "tombstones": bundle.put(tombstones),
            "created_versions": bundle.put(stamped),
            "columns": {
                name: _export_column(
                    bundle, view, label, table.column(name), count, patched_rows
                )
                for name in table.column_names
            },
        }

    adjacency: list[dict] = []
    for key, adj in store._adjacency.items():
        num_src = adj._num_src
        data_length = adj._data_length
        adjacency.append(
            {
                "src": key.src_label,
                "edge": key.edge_label,
                "dst": key.dst_label,
                "direction": key.direction.value,
                "num_src": num_src,
                "data_length": data_length,
                "offsets": bundle.put(adj._offsets[:num_src]),
                "lengths": bundle.put(adj._lengths[:num_src]),
                "targets": bundle.put(adj._targets[:data_length]),
                "has_tombstones": adj._has_tombstones,
                "created": bundle.put(
                    adj._created[:data_length] if adj._created is not None else None
                ),
                "deleted": bundle.put(
                    adj._deleted[:data_length] if adj._deleted is not None else None
                ),
                "props": {
                    name: {
                        "values": bundle.put(array[:data_length]),
                        "validity": bundle.put(
                            adj._prop_valid.get(name)[:data_length]
                            if adj._prop_valid.get(name) is not None
                            else None
                        ),
                    }
                    for name, array in adj._props.items()
                },
            }
        )

    name = f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:12]}"
    segment = bundle.write(name)
    _track(segment)
    manifest = {
        "snapshot_id": name,
        "segment": name,
        "version": view.version,
        "schema": _schema_to_dict(store.schema),
        "arrays": bundle.specs,
        "tables": tables,
        "adjacency": adjacency,
    }
    return manifest, segment


# ---------------------------------------------------------------------------
# Attach


def _attach_column(
    buf: memoryview, arrays: dict, name: str, entry: dict, count: int
) -> PropertyColumn:
    dtype = DataType(entry["dtype"])
    if entry["kind"] == "dict":
        codes = _read_array(buf, arrays[entry["dict_codes"]])
        validity = (
            _read_array(buf, arrays[entry["validity"]])
            if entry.get("validity") is not None
            else None
        )
        return PropertyColumn.from_backing(
            name,
            dtype,
            data=None,
            validity=validity,
            length=count,
            dict_values=entry["dict_values"],
            dict_codes=codes,
        )
    values = _read_array(buf, arrays[entry["values"]])
    if entry["kind"] == "utf8":
        validity = np.asarray([v is not None for v in values], dtype=bool)
        if validity.all():
            validity = None
    else:
        validity = (
            _read_array(buf, arrays[entry["validity"]])
            if entry.get("validity") is not None
            else None
        )
    return PropertyColumn.from_backing(
        name, dtype, data=values, validity=validity, length=count
    )


def attach_snapshot(
    manifest: dict,
) -> tuple[GraphStore, shared_memory.SharedMemory]:
    """Rebuild a read-only store from an exported snapshot (worker side).

    Numeric arrays are zero-copy views over the mapped segment; string
    payloads are decoded into process-local objects once per attach.  The
    caller owns the returned segment handle and must keep it (and hence
    the mapping) alive for as long as the store is used.
    """
    # Attaching must not (re-)register the name with the resource tracker:
    # the creator owns the unlink, and under fork all processes feed one
    # tracker, so an attach-side entry would be double-removed (attach
    # unregister + creator unlink) and the tracker would log KeyErrors.
    # CPython < 3.13 has no track=False, so registration is suppressed.
    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        segment = shared_memory.SharedMemory(name=manifest["segment"])
    finally:
        resource_tracker.register = register  # type: ignore[assignment]
    buf = segment.buf
    arrays = manifest["arrays"]
    schema = _schema_from_dict(manifest["schema"])
    store = GraphStore(schema)

    for label, tdata in manifest["tables"].items():
        count = tdata["count"]
        columns = {
            name: _attach_column(buf, arrays, name, entry, count)
            for name, entry in tdata["columns"].items()
        }
        tombstones = (
            _read_array(buf, arrays[tdata["tombstones"]])
            if tdata["tombstones"] is not None
            else ()
        )
        created = (
            _read_array(buf, arrays[tdata["created_versions"]])
            if tdata["created_versions"] is not None
            else None
        )
        store.table(label).attach_backing(columns, count, tombstones, created)

    for adata in manifest["adjacency"]:
        key = AdjacencyKey(
            adata["src"], adata["edge"], adata["dst"], Direction(adata["direction"])
        )
        definition = schema.edge_definition(adata["edge"], *(
            (adata["src"], adata["dst"])
            if Direction(adata["direction"]) is Direction.OUT
            else (adata["dst"], adata["src"])
        ))
        props: dict[str, np.ndarray] = {}
        prop_valid: dict[str, np.ndarray | None] = {}
        for name, pdata in adata["props"].items():
            props[name] = _read_array(buf, arrays[pdata["values"]])
            prop_valid[name] = (
                _read_array(buf, arrays[pdata["validity"]])
                if pdata["validity"] is not None
                else None
            )
        store._adjacency[key] = AdjacencyList.from_backing(
            key,
            definition.properties,
            num_src=adata["num_src"],
            data_length=adata["data_length"],
            offsets=_read_array(buf, arrays[adata["offsets"]]),
            lengths=_read_array(buf, arrays[adata["lengths"]]),
            targets=_read_array(buf, arrays[adata["targets"]]),
            props=props,
            prop_valid=prop_valid,
            has_tombstones=adata["has_tombstones"],
            created=(
                _read_array(buf, arrays[adata["created"]])
                if adata["created"] is not None
                else None
            ),
            deleted=(
                _read_array(buf, arrays[adata["deleted"]])
                if adata["deleted"] is not None
                else None
            ),
        )
    return store, segment


def detach_snapshot(
    store: GraphStore | None, segment: shared_memory.SharedMemory
) -> None:
    """Drop an attached snapshot's mapping (worker-side cache eviction)."""
    del store
    try:
        segment.close()
    except BufferError:
        # Numpy views still reference the mapping; it is released when
        # they are garbage-collected.
        _disarm(segment)


# ---------------------------------------------------------------------------
# Coordinator-side lifecycle

#: Live exporters, for the aggregate refcount gauge (weak: an exporter's
#: lifetime is its engine's, and a gauge must never extend it).
_EXPORTERS: "weakref.WeakSet[SnapshotExporter]" = weakref.WeakSet()


def _live_segment_bytes() -> float:
    with _LIVE_LOCK:
        return float(sum(seg.size for seg in _LIVE_SEGMENTS.values()))


def _live_segment_count() -> float:
    with _LIVE_LOCK:
        return float(len(_LIVE_SEGMENTS))


def _total_exporter_refs() -> float:
    total = 0
    for exporter in list(_EXPORTERS):
        current = exporter._current
        if current is not None:
            total += max(current.inflight, 0)
    return float(total)


def _register_shm_gauges() -> None:
    """(Re-)register the pool-health shm gauges.

    Called from every :class:`SnapshotExporter` init rather than at import
    time so a test-side ``REGISTRY.reset()`` cannot permanently drop them:
    the next pooled engine brings them back.
    """
    REGISTRY.gauge(
        "ges_shm_segment_bytes",
        "Total bytes of live exported snapshot segments.",
        fn=_live_segment_bytes,
    )
    REGISTRY.gauge(
        "ges_shm_segments",
        "Live exported snapshot segments created by this process.",
        fn=_live_segment_count,
    )
    REGISTRY.gauge(
        "ges_shm_exporter_refs",
        "In-flight query references across all live snapshot exporters.",
        fn=_total_exporter_refs,
    )


class ExportedSnapshot:
    """One live export: manifest + segment + coordinator-side refcount."""

    __slots__ = ("manifest", "segment", "key", "inflight", "retired")

    def __init__(
        self,
        manifest: dict,
        segment: shared_memory.SharedMemory,
        key: tuple[int, int],
    ) -> None:
        self.manifest = manifest
        self.segment = segment
        self.key = key
        self.inflight = 0
        self.retired = False

    @property
    def snapshot_id(self) -> str:
        return self.manifest["snapshot_id"]


class SnapshotExporter:
    """Refcounted snapshot exports keyed by (mutation_epoch, version).

    ``acquire`` reuses the current export when the store hasn't changed
    since it was taken, otherwise retires it and exports afresh.  A retired
    export is unlinked the moment its last in-flight query releases it —
    tying segment lifetime to the engine's pin/GC lifecycle.
    """

    def __init__(self, store: GraphStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._current: ExportedSnapshot | None = None
        self.exports_total = 0
        self.reuses_total = 0
        self._m_exports = REGISTRY.counter(
            "ges_shm_exports_total", "Snapshot segments exported."
        )
        self._m_retires = REGISTRY.counter(
            "ges_shm_retires_total", "Snapshot segments retired."
        )
        _register_shm_gauges()
        _EXPORTERS.add(self)

    def _staleness_key(self, view: GraphReadView) -> tuple[int, int]:
        version = -1 if view.version is None else view.version
        return (self.store.mutation_epoch, version)

    def acquire(self, view: GraphReadView) -> ExportedSnapshot:
        if view.store is not self.store:
            raise StorageError("view does not belong to this exporter's store")
        key = self._staleness_key(view)
        with self._lock:
            current = self._current
            if current is not None and current.key == key and not current.retired:
                current.inflight += 1
                self.reuses_total += 1
                return current
            if current is not None:
                self._retire_locked(current)
            manifest, segment = export_view(view)
            snapshot = ExportedSnapshot(manifest, segment, key)
            snapshot.inflight = 1
            self._current = snapshot
            self.exports_total += 1
            self._m_exports.inc()
            EVENTS.emit(
                "snapshot_export",
                snapshot=snapshot.snapshot_id,
                bytes=segment.size,
                version=manifest["version"],
            )
            return snapshot

    def release(self, snapshot: ExportedSnapshot) -> None:
        with self._lock:
            snapshot.inflight -= 1
            if snapshot.retired and snapshot.inflight <= 0:
                _unlink_segment(snapshot.segment)

    def _retire_locked(self, snapshot: ExportedSnapshot) -> None:
        if snapshot.retired:
            return
        snapshot.retired = True
        self._m_retires.inc()
        EVENTS.emit("snapshot_retire", snapshot=snapshot.snapshot_id)
        if snapshot is self._current:
            self._current = None
        if snapshot.inflight <= 0:
            _unlink_segment(snapshot.segment)

    def retire_current(self) -> None:
        """Force-retire the cached export (pin released / snapshot GC)."""
        with self._lock:
            if self._current is not None:
                self._retire_locked(self._current)

    def release_all(self) -> None:
        """Retire everything (engine shutdown)."""
        self.retire_current()

    def live_segment_names(self) -> list[str]:
        with self._lock:
            if self._current is None:
                return []
            return [self._current.segment.name]
