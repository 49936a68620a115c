"""Adjacency-list storage: ``adjMeta`` over a shared ``adjArray`` (paper Fig. 9).

Each :class:`AdjacencyList` stores the neighbors of every source vertex of
one ``(srcLabel, edgeLabel, dstLabel, direction)`` key.  Per-vertex metadata
(offset, live length, slot capacity) indexes into one contiguous ``targets``
array — the paper's ``adjArray`` — so a vertex's neighbors are a single
contiguous slice.  That contiguity is what makes the pointer-based join of
§5 possible: the executor stores only ``(array, offset, length)`` instead of
copying neighbor ids.

Topology updates follow the paper's scheme exactly: deletions tombstone a
slot, and an insertion that overflows a vertex's slot allocates a larger
region at the end of ``adjArray`` and abandons the old one.

Edge versioning (``created`` / ``deleted`` version stamps per slot) is
allocated lazily the first time a transactional update touches the list, so
the read-only bulk-loaded fast path pays nothing for MVCC.

Readers take no lock.  Writers therefore publish a replaced array only
once it is fully built, data arrays before the metadata that points into
them, and ``_deleted`` before ``_created``; a reader captures the arrays
in the opposite order (``_num_src`` → adjMeta → ``targets`` → ``_created``
→ ``_deleted``), so any stamp array it sees is at least as new as the
slots it indexes with.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..errors import StorageError
from .catalog import AdjacencyKey, PropertyDef
from .validity import pack_values

#: Tombstone marker inside ``targets`` ("marking for deletion", paper §5).
TOMBSTONE = np.int64(-1)

#: Version stamp meaning "never deleted".
MAX_VERSION = np.int64(np.iinfo(np.int64).max)

_MIN_SLOT = 4
_INITIAL_DATA_CAPACITY = 64


def _visible(
    targets: np.ndarray,
    created: np.ndarray | None,
    deleted: np.ndarray | None,
    index: np.ndarray | slice,
    version: int | None,
) -> np.ndarray:
    """The MVCC read predicate over *targets* (the slots at *index*).

    A slot is visible when it is not tombstoned and, on a stamped list,
    was created at or before the read version and not deleted at it.  A
    latest read (``version=None``) still hides version-deleted edges.
    """
    mask = targets != TOMBSTONE
    if created is not None:
        assert deleted is not None  # published before ``created``
        effective = MAX_VERSION - 1 if version is None else version
        mask &= (created[index] <= effective) & (deleted[index] > effective)
    return mask


class AdjacencyList:
    """Neighbors for all source vertices of one adjacency key."""

    def __init__(
        self,
        key: AdjacencyKey,
        properties: list[PropertyDef] | None = None,
        num_src: int = 0,
    ) -> None:
        self.key = key
        self.property_defs = list(properties or [])
        # adjMeta: one entry per source-vertex row.
        self._offsets = np.zeros(max(num_src, 1), dtype=np.int64)
        self._lengths = np.zeros(max(num_src, 1), dtype=np.int32)
        self._capacities = np.zeros(max(num_src, 1), dtype=np.int32)
        self._num_src = num_src
        # adjArray and aligned edge-property arrays.
        self._targets = np.empty(_INITIAL_DATA_CAPACITY, dtype=np.int64)
        self._props: dict[str, np.ndarray] = {
            p.name: np.empty(_INITIAL_DATA_CAPACITY, dtype=p.dtype.numpy_dtype)
            for p in self.property_defs
        }
        # Per-property validity bitmaps aligned with the prop arrays; None
        # means "every slot valid" (lazily materialized on the first NULL).
        self._prop_valid: dict[str, np.ndarray | None] = {
            p.name: None for p in self.property_defs
        }
        self._data_length = 0  # high-water mark within adjArray
        self._has_tombstones = False
        # MVCC stamps, allocated lazily by _ensure_versions().
        self._created: np.ndarray | None = None
        self._deleted: np.ndarray | None = None

    # -- introspection -----------------------------------------------------

    @property
    def num_src(self) -> int:
        """Number of source-vertex slots in adjMeta."""
        return self._num_src

    @property
    def num_edges(self) -> int:
        """Live edge count (excludes tombstones, versioned deletes, and
        abandoned regions)."""
        total = int(self._lengths[: self._num_src].sum())
        if not self._has_tombstones and self._deleted is None:
            return total
        # Dead slots still count in lengths; subtract them.  A slot is dead
        # when tombstoned (non-versioned delete) or carrying a `deleted`
        # stamp (versioned delete) — either way it is gone at latest.
        dead = 0
        for src in range(self._num_src):
            start = int(self._offsets[src])
            end = start + int(self._lengths[src])
            dead_mask = self._targets[start:end] == TOMBSTONE
            if self._deleted is not None:
                dead_mask |= self._deleted[start:end] != MAX_VERSION
            dead += int(dead_mask.sum())
        return total - dead

    @property
    def nbytes(self) -> int:
        """Resident bytes of adjMeta, adjArray, and edge properties."""
        meta = self._offsets.nbytes + self._lengths.nbytes + self._capacities.nbytes
        data = int(self._targets[: self._data_length].nbytes)
        props = sum(int(a[: self._data_length].nbytes) for a in self._props.values())
        return meta + data + props

    @property
    def is_versioned(self) -> bool:
        """True once MVCC version stamps have been allocated."""
        return self._created is not None

    def has_property(self, name: str) -> bool:
        """True when edges of this list carry property *name*."""
        return name in self._props

    def degree(self, src_row: int) -> int:
        """Live out-degree of *src_row* under this key (latest version)."""
        if src_row < 0 or src_row >= self._num_src:
            return 0
        if self.supports_segments:
            return int(self._lengths[src_row])
        return len(self.neighbors(src_row))

    # -- reads ---------------------------------------------------------------

    @property
    def supports_segments(self) -> bool:
        """True when adjMeta's raw ``(offset, length)`` slices are exact, so
        the pointer-based join may use them (no tombstones/versions)."""
        return not self._has_tombstones and self._created is None

    def meta_for(self, src_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized adjMeta lookup: (adjArray, starts, lengths) per source.

        This is the pointer-based-join fast path (paper §5): one fancy-index
        over ``adjMeta`` instead of a per-vertex loop.  Sources that are out
        of range (or negative, i.e. NULL) get empty slices.  Only valid when
        :attr:`supports_segments` holds.
        """
        src_rows = np.asarray(src_rows, dtype=np.int64)
        num_src = self._num_src
        if num_src == 0:  # adjMeta may be empty: nothing to index
            empty = np.zeros(len(src_rows), dtype=np.int64)
            return self._targets, empty, empty.copy()
        valid = (src_rows >= 0) & (src_rows < num_src)
        safe = np.where(valid, src_rows, 0)
        starts = self._offsets[safe].astype(np.int64, copy=True)
        lengths = self._lengths[safe].astype(np.int64)
        starts[~valid] = 0
        lengths[~valid] = 0
        return self._targets, starts, lengths

    def neighbors(self, src_row: int, version: int | None = None) -> np.ndarray:
        """Materialized neighbor row indices of *src_row* (copy).

        With ``version`` set, only edges created at or before that version
        and not yet deleted at it are visible (MVCC read view).

        A negative row (the NULL sentinel) has no neighbors; without the
        guard it would wrap around via Python indexing and silently return
        the *last* vertex's slice.
        """
        if src_row < 0 or src_row >= self._num_src:
            return np.empty(0, dtype=np.int64)
        start = int(self._offsets[src_row])
        end = start + int(self._lengths[src_row])
        slice_ = self._targets[start:end]
        mask = self._visibility_mask(slice_, slice(start, end), version)
        if mask is None:
            return slice_.copy()
        return slice_[mask]

    def neighbor_slots(self, src_row: int, version: int | None = None) -> np.ndarray:
        """Absolute slot indices (into adjArray) of visible neighbors.

        Slot indices let callers fetch aligned edge properties afterwards.
        This is the scalar reference :meth:`gather` must agree with.
        """
        if src_row < 0 or src_row >= self._num_src:
            return np.empty(0, dtype=np.int64)
        start = int(self._offsets[src_row])
        end = start + int(self._lengths[src_row])
        slots = np.arange(start, end, dtype=np.int64)
        slice_ = self._targets[start:end]
        mask = self._visibility_mask(slice_, slice(start, end), version)
        if mask is None:
            return slots
        return slots[mask]

    def gather(
        self, src_rows: np.ndarray, version: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Visible neighbor slots of a batch of sources in one step.

        Returns ``(counts, slots)``: source i owns ``counts[i]`` consecutive
        entries of ``slots`` (absolute adjArray indices, adjacency order).
        NULL (negative) and out-of-range sources get zero.  The MVCC
        predicate of :meth:`neighbor_slots` is folded in as one mask over
        the gathered slots — applied only when the list carries tombstones
        or stamps — with counts re-derived as segment sums of that mask.
        """
        rows = np.asarray(src_rows, dtype=np.int64)
        if len(rows) == 1:
            return self._gather_one(int(rows[0]), version)
        targets, starts, counts = self.meta_for(rows)
        created = self._created
        deleted = self._deleted
        total = int(counts.sum())
        ends = np.cumsum(counts)
        slots = np.repeat(starts - (ends - counts), counts) + np.arange(total)
        if total == 0 or (created is None and not self._has_tombstones):
            return counts, slots
        mask = _visible(targets[slots], created, deleted, slots, version)
        prefix = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(mask, out=prefix[1:])
        return prefix[ends] - prefix[ends - counts], slots[mask]

    def _gather_one(
        self, src_row: int, version: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`gather` for one source: slices only, no fancy index."""
        num_src = self._num_src
        offsets, lengths = self._offsets, self._lengths
        if src_row < 0 or src_row >= num_src:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        start = int(offsets[src_row])
        end = start + int(lengths[src_row])
        slots = np.arange(start, end, dtype=np.int64)
        mask = self._visibility_mask(self._targets[start:end], slice(start, end), version)
        if mask is not None:
            slots = slots[mask]
        return np.array([len(slots)], dtype=np.int64), slots

    def _visibility_mask(
        self, slice_: np.ndarray, span: slice, version: int | None
    ) -> np.ndarray | None:
        """Boolean mask of visible slots in *span*, or None when everything
        is visible."""
        created = self._created
        if created is None and not self._has_tombstones:
            return None
        deleted = self._deleted
        return _visible(slice_, created, deleted, span, version)

    def target_at(self, slot: int) -> int:
        """Destination row stored in adjArray slot *slot*."""
        return int(self._targets[slot])

    def gather_targets(self, slots: np.ndarray) -> np.ndarray:
        """Destination rows of many adjArray slots (e.g. from :meth:`gather`)."""
        return self._targets[slots]

    def prop_at(self, name: str, slot: int) -> Any:
        """Edge property *name* of the edge in slot *slot* (None when NULL)."""
        try:
            array = self._props[name]
        except KeyError:
            raise StorageError(
                f"adjacency {self.key} has no edge property {name!r}"
            ) from None
        valid = self._prop_valid.get(name)
        if valid is not None and not valid[slot]:
            return None
        value = array[slot]
        return value.item() if isinstance(value, np.generic) else value

    def gather_prop(self, name: str, slots: np.ndarray) -> np.ndarray:
        """Vectorized edge-property fetch for many slots (raw values).

        Invalid slots hold the dtype's inert fill; pair with
        :meth:`gather_prop_validity` when NULLness matters downstream.
        """
        try:
            return self._props[name][slots]
        except KeyError:
            raise StorageError(
                f"adjacency {self.key} has no edge property {name!r}"
            ) from None

    def gather_prop_validity(self, name: str, slots: np.ndarray) -> np.ndarray | None:
        """Validity bits for edge property *name* at *slots* (None = all valid)."""
        if name not in self._props:
            raise StorageError(f"adjacency {self.key} has no edge property {name!r}")
        valid = self._prop_valid.get(name)
        if valid is None:
            return None
        return valid[slots]

    def export_edges(
        self,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Live edges as parallel (src_rows, dst_rows, props, validity) arrays.

        ``validity`` holds a bool array per property that has at least one
        NULL slot (all-valid properties are omitted).  Tombstoned and
        version-deleted edges are excluded; the inverse of
        :meth:`bulk_load`, used by graph snapshots.
        """
        lengths = self._lengths[: self._num_src].astype(np.int64)
        src = np.repeat(np.arange(self._num_src, dtype=np.int64), lengths)
        offsets = np.zeros(self._num_src, dtype=np.int64)
        if self._num_src > 1:
            np.cumsum(lengths[:-1], out=offsets[1:])
        total = int(lengths.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
        slots = np.repeat(self._offsets[: self._num_src], lengths) + within
        targets = self._targets[slots]
        mask = targets != TOMBSTONE
        if self._deleted is not None:
            mask &= self._deleted[slots] == MAX_VERSION
        props = {
            name: array[slots][mask] for name, array in self._props.items()
        }
        validity = {
            name: valid[slots][mask]
            for name, valid in self._prop_valid.items()
            if valid is not None
        }
        return src[mask], targets[mask], props, validity

    # -- bulk load -----------------------------------------------------------

    def bulk_load(
        self,
        num_src: int,
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        props: Mapping[str, np.ndarray] | None = None,
        props_validity: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Build the CSR-like layout from parallel edge arrays.

        Edges are grouped by source row; within a group the input order is
        preserved.  No slack capacity is reserved — updates that overflow a
        slot relocate it, per the paper's growth scheme.  NULL edge
        properties arrive as ``None`` holes (or float NaN) in *props*, or as
        explicit bitmasks in *props_validity*; either way they land in the
        per-property validity bitmaps, never as sentinel values.
        """
        props = props or {}
        if len(src_rows) != len(dst_rows):
            raise StorageError("bulk_load: src/dst arrays differ in length")
        for name in props:
            if name not in self._props:
                raise StorageError(f"bulk_load: unknown edge property {name!r}")
            if len(props[name]) != len(src_rows):
                raise StorageError(f"bulk_load: property {name!r} length mismatch")
        src_array = np.asarray(src_rows, dtype=np.int64)
        if len(src_array):
            lo, hi = int(src_array.min()), int(src_array.max())
            if lo < 0 or hi >= num_src:
                raise StorageError(
                    f"bulk_load: source rows must be within [0, {num_src}), "
                    f"got range [{lo}, {hi}]"
                )
        order = np.argsort(src_array, kind="stable")
        sorted_src = src_array[order]
        sorted_dst = np.asarray(dst_rows, dtype=np.int64)[order]

        counts = np.bincount(sorted_src, minlength=num_src).astype(np.int32)
        offsets = np.zeros(num_src, dtype=np.int64)
        if num_src > 0:
            np.cumsum(counts[:-1], out=offsets[1:])

        self._num_src = num_src
        self._offsets = offsets
        self._lengths = counts
        self._capacities = counts.astype(np.int32).copy()
        self._targets = sorted_dst.copy()
        self._data_length = len(sorted_dst)
        self._props = {}
        self._prop_valid = {}
        for prop_def in self.property_defs:
            if prop_def.name in props:
                values, mask = pack_values(props[prop_def.name], prop_def.dtype)
                explicit = (props_validity or {}).get(prop_def.name)
                if explicit is not None:
                    explicit = np.asarray(explicit, dtype=bool)
                    mask = explicit if mask is None else (mask & explicit)
                self._props[prop_def.name] = values[order].copy()
                if mask is not None and not mask.all():
                    self._prop_valid[prop_def.name] = mask[order].copy()
                else:
                    self._prop_valid[prop_def.name] = None
            else:
                filler = np.full(
                    len(sorted_dst), prop_def.dtype.fill_value(), dtype=prop_def.dtype.numpy_dtype
                )
                self._props[prop_def.name] = filler
                self._prop_valid[prop_def.name] = np.zeros(len(sorted_dst), dtype=bool)
        self._has_tombstones = False
        self._created = None
        self._deleted = None

    # -- updates ---------------------------------------------------------------

    def _ensure_src(self, src_row: int) -> None:
        if src_row < self._num_src:
            return
        needed = src_row + 1
        if needed > len(self._offsets):
            capacity = max(len(self._offsets) * 2, needed)
            for attr in ("_offsets", "_lengths", "_capacities"):
                old = getattr(self, attr)
                grown = np.zeros(capacity, dtype=old.dtype)
                grown[: self._num_src] = old[: self._num_src]
                setattr(self, attr, grown)
        self._num_src = needed

    def _ensure_versions(self) -> None:
        if self._created is not None:
            return
        deleted = np.full(len(self._targets), MAX_VERSION, dtype=np.int64)
        created = np.zeros(len(self._targets), dtype=np.int64)
        # Readers test ``_created`` first: publish it last.
        self._deleted = deleted
        self._created = created

    def _grow_data(self, needed: int) -> None:
        if needed <= len(self._targets):
            return
        capacity = max(len(self._targets) * 2, needed, _INITIAL_DATA_CAPACITY)
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._data_length] = self._targets[: self._data_length]
        self._targets = grown
        for name, array in self._props.items():
            grown_prop = np.empty(capacity, dtype=array.dtype)
            grown_prop[: self._data_length] = array[: self._data_length]
            self._props[name] = grown_prop
        for name, valid in self._prop_valid.items():
            if valid is None:
                continue
            grown_valid = np.ones(capacity, dtype=bool)
            grown_valid[: self._data_length] = valid[: self._data_length]
            self._prop_valid[name] = grown_valid
        if self._created is not None:
            assert self._deleted is not None
            grown_deleted = np.full(capacity, MAX_VERSION, dtype=np.int64)
            grown_deleted[: self._data_length] = self._deleted[: self._data_length]
            grown_created = np.zeros(capacity, dtype=np.int64)
            grown_created[: self._data_length] = self._created[: self._data_length]
            self._deleted = grown_deleted
            self._created = grown_created

    def _relocate(self, src_row: int, new_capacity: int) -> None:
        """Move a full slot region to fresh space at the end of adjArray."""
        old_start = int(self._offsets[src_row])
        length = int(self._lengths[src_row])
        new_start = self._data_length
        self._grow_data(new_start + new_capacity)
        self._targets[new_start : new_start + length] = self._targets[
            old_start : old_start + length
        ]
        for array in self._props.values():
            array[new_start : new_start + length] = array[old_start : old_start + length]
        for valid in self._prop_valid.values():
            if valid is None:
                continue
            valid[new_start : new_start + length] = valid[old_start : old_start + length]
        if self._created is not None:
            assert self._deleted is not None
            self._created[new_start : new_start + length] = self._created[
                old_start : old_start + length
            ]
            self._deleted[new_start : new_start + length] = self._deleted[
                old_start : old_start + length
            ]
        self._offsets[src_row] = new_start
        self._capacities[src_row] = new_capacity
        self._data_length = new_start + new_capacity

    def _set_prop_slot(self, name: str, slot: int, value: Any, valid: bool) -> None:
        """Write one edge-property slot, maintaining its validity bitmap."""
        self._props[name][slot] = value
        bitmap = self._prop_valid[name]
        if bitmap is None:
            if valid:
                return
            bitmap = np.ones(len(self._props[name]), dtype=bool)
            self._prop_valid[name] = bitmap
        bitmap[slot] = valid

    def add_edge(
        self,
        src_row: int,
        dst_row: int,
        props: Mapping[str, Any] | None = None,
        version: int | None = None,
    ) -> int:
        """Append an edge, returning its slot index in adjArray."""
        self._ensure_src(src_row)
        if version is not None:
            self._ensure_versions()
        length = int(self._lengths[src_row])
        capacity = int(self._capacities[src_row])
        if length == capacity:
            self._relocate(src_row, max(capacity * 2, _MIN_SLOT))
        slot = int(self._offsets[src_row]) + length
        self._targets[slot] = dst_row
        for prop_def in self.property_defs:
            value = (props or {}).get(prop_def.name)
            valid = value is not None
            if not valid:
                value = prop_def.dtype.fill_value()
            self._set_prop_slot(prop_def.name, slot, value, valid)
        if self._created is not None:
            assert self._deleted is not None
            self._created[slot] = 0 if version is None else version
            self._deleted[slot] = MAX_VERSION
        self._lengths[src_row] = length + 1
        self._data_length = max(self._data_length, slot + 1)
        return slot

    def remove_edge(self, src_row: int, dst_row: int, version: int | None = None) -> bool:
        """Delete the first matching live edge; returns False when absent.

        Non-versioned deletion tombstones the slot; versioned deletion stamps
        ``deleted`` so older snapshots still see the edge.
        """
        if src_row < 0 or src_row >= self._num_src:
            return False
        start = int(self._offsets[src_row])
        end = start + int(self._lengths[src_row])
        for slot in range(start, end):
            if int(self._targets[slot]) != dst_row:
                continue
            if self._deleted is not None and self._deleted[slot] != MAX_VERSION:
                continue  # already deleted in a newer version
            if version is None:
                self._targets[slot] = TOMBSTONE
                self._has_tombstones = True
            else:
                self._ensure_versions()
                assert self._deleted is not None
                self._deleted[slot] = version
            return True
        return False
