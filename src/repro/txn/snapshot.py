"""Copy-on-write vertex snapshots (paper §5).

"A write query creates a new snapshot for the vertices it modifies using a
copy-on-write strategy, while read queries construct a graph snapshot by
combining the snapshots of these vertices."

A :class:`VertexSnapshot` is the pre-image of one vertex's property row,
copied — via the memory pool — the moment a writer first touches the
vertex.  The :class:`SnapshotOverlay` indexes snapshots by commit version
so an old read view resolves each property to the newest pre-image taken
*after* its snapshot version.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any

import numpy as np

from ..storage.memory_pool import DEFAULT_POOL, MemoryPool
from ..storage.properties import VertexTable
from ..types import DataType

_NO_ROWS = np.empty(0, dtype=np.int64)


class VertexSnapshot:
    """Pre-image of one vertex's property row.

    Integer-backed properties are packed into a single pooled int64 buffer;
    other types are kept in a small dict.  ``release`` returns the buffer
    to the pool once no snapshot reader can need this version anymore.
    """

    __slots__ = (
        "label", "row", "_int_names", "_int_valid", "_int_buffer", "_others", "_pool"
    )

    def __init__(self, table: VertexTable, row: int, pool: MemoryPool) -> None:
        self.label = table.label
        self.row = row
        self._pool = pool
        int_names: list[str] = []
        others: dict[str, Any] = {}
        for name in table.column_names:
            column = table.column(name)
            if column.dtype.is_integer_backed:
                int_names.append(name)
            else:
                others[name] = column.get(row)
        self._int_names = int_names
        self._int_buffer = pool.acquire(max(len(int_names), 1), DataType.INT64)
        self._int_valid: list[bool] = []
        for i, name in enumerate(int_names):
            column = table.column(name)
            valid = column.is_valid(row)
            self._int_valid.append(valid)
            self._int_buffer[i] = (
                column.get(row) if valid else column.dtype.fill_value()
            )
        self._others = others

    def get(self, name: str) -> tuple[bool, Any]:
        """(True, value) when this snapshot captured *name*."""
        try:
            idx = self._int_names.index(name)
        except ValueError:
            if name in self._others:
                return True, self._others[name]
            return False, None
        if not self._int_valid[idx]:
            return True, None
        return True, int(self._int_buffer[idx])

    def release(self) -> None:
        self._pool.release(self._int_buffer)


class SnapshotOverlay:
    """Version-indexed copy-on-write snapshots; the executor's VertexOverlay.

    ``resolve(label, row, name, version)`` returns the property value as of
    *version*: the pre-image captured by the oldest write committed after
    *version*, or "no override" (the live table value is current).
    """

    def __init__(self, pool: MemoryPool | None = None) -> None:
        self._pool = pool if pool is not None else DEFAULT_POOL
        # (label, row) -> parallel lists: commit versions (sorted) + snapshots.
        self._chains: dict[tuple[str, int], tuple[list[int], list[VertexSnapshot]]] = {}
        # label -> sorted rows that carry a chain.  Each array is replaced,
        # never mutated, so lock-free readers always see a consistent one.
        self._rows: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def record(self, snapshot: VertexSnapshot, commit_version: int) -> None:
        """Attach a pre-image: values were *snapshot* before *commit_version*."""
        key = (snapshot.label, snapshot.row)
        with self._lock:
            if key not in self._chains:
                self._rows[snapshot.label] = np.union1d(
                    self._rows.get(snapshot.label, _NO_ROWS), [snapshot.row]
                )
            versions, snapshots = self._chains.setdefault(key, ([], []))
            idx = bisect.bisect_left(versions, commit_version)
            versions.insert(idx, commit_version)
            snapshots.insert(idx, snapshot)

    def resolve(self, label: str, row: int, name: str, version: int) -> tuple[bool, Any]:
        chain = self._chains.get((label, row))
        if chain is None:
            return False, None
        versions, snapshots = chain
        # The oldest commit strictly newer than the reader's snapshot holds
        # the value the reader must see.
        idx = bisect.bisect_right(versions, version)
        if idx >= len(versions):
            return False, None
        return snapshots[idx].get(name)

    def resolve_rows(
        self, label: str, rows: np.ndarray, name: str, version: int
    ) -> tuple[np.ndarray, list[Any]]:
        """Bulk :meth:`resolve`: ``(positions, values)`` for the entries of
        *rows* overridden at *version*.

        Only rows the per-label index holds pay a chain lookup, so a batch
        over vertices no writer touched costs one ``np.isin``.
        """
        indexed = self._rows.get(label)
        if indexed is None:
            return _NO_ROWS, []
        positions: list[int] = []
        values: list[Any] = []
        for i in np.flatnonzero(np.isin(rows, indexed)).tolist():
            overridden, value = self.resolve(label, int(rows[i]), name, version)
            if overridden:
                positions.append(i)
                values.append(value)
        return np.asarray(positions, dtype=np.int64), values

    def prune(self, before_version: int) -> int:
        """Drop snapshots no reader at >= *before_version* can need.

        Returns the number of snapshots released (their pooled buffers go
        back to the memory pool).
        """
        released = 0
        with self._lock:
            emptied: dict[str, list[int]] = {}
            for key in list(self._chains):
                versions, snapshots = self._chains[key]
                keep = bisect.bisect_right(versions, before_version)
                for snapshot in snapshots[:keep]:
                    snapshot.release()
                    released += 1
                if keep:
                    self._chains[key] = (versions[keep:], snapshots[keep:])
                if not self._chains[key][0]:
                    del self._chains[key]
                    emptied.setdefault(key[0], []).append(key[1])
            for label, rows in emptied.items():
                remaining = np.setdiff1d(self._rows[label], rows)
                if len(remaining):
                    self._rows[label] = remaining
                else:
                    del self._rows[label]
        return released

    @property
    def snapshot_count(self) -> int:
        with self._lock:
            return sum(len(v[0]) for v in self._chains.values())
