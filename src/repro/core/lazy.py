"""Pointer-based-join columns (paper §5).

Instead of copying neighbor ids into an f-Block column, an Expand can store
only ``(pointer, length)`` references into the storage layer's ``adjArray``.
:class:`LazyNeighborColumn` is that column, held in vectorized form: one
shared base array plus per-parent-entry ``starts`` / ``lengths`` vectors.
Until something forces materialization (de-factoring, property projection,
a further expansion) it costs 16 bytes per parent entry regardless of
fan-out, and ``values()`` gathers the ids with one NumPy pass when — and
only when — they are actually needed.
"""

from __future__ import annotations

import numpy as np

from ..types import DataType

#: Accounting size of one (pointer, length) reference, per the paper.
_REF_BYTES = 16


def exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """Start offset of each run when runs of *values* lengths are laid
    end to end (``[0, v0, v0 + v1, ...]``, one entry per value)."""
    out = np.zeros(len(values), dtype=np.int64)
    if len(values) > 1:
        values[:-1].cumsum(out=out[1:])
    return out


class LazyNeighborColumn:
    """A column of vertex row-ids defined by adjacency slices.

    Reference ``i`` contributes ``base[starts[i] : starts[i] + lengths[i]]``;
    the column is the concatenation of all references.  Materialization
    happens at most once and is cached.
    """

    __slots__ = (
        "name", "dtype", "_base", "_starts", "_lengths", "_offsets", "_length", "_materialized",
    )

    def __init__(self, name: str, base: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        if len(starts) != len(lengths):
            raise ValueError("starts/lengths must align")
        self.name = name
        self.dtype = DataType.INT64
        self._base = base
        self._starts = np.asarray(starts, dtype=np.int64)
        self._lengths = np.asarray(lengths, dtype=np.int64)
        # Offset of each reference inside the logical column.
        self._offsets = exclusive_cumsum(self._lengths)
        self._length = int(self._lengths.sum())
        self._materialized: np.ndarray | None = None

    @classmethod
    def empty(cls, name: str) -> "LazyNeighborColumn":
        zero = np.empty(0, dtype=np.int64)
        return cls(name, zero, zero, zero)

    def __len__(self) -> int:
        return self._length

    @property
    def num_references(self) -> int:
        return len(self._starts)

    @property
    def reference_lengths(self) -> np.ndarray:
        """Per-parent-entry neighbor counts (the Expand's index vector)."""
        return self._lengths

    @property
    def is_materialized(self) -> bool:
        return self._materialized is not None

    @property
    def nbytes(self) -> int:
        if self._materialized is not None:
            return int(self._materialized.nbytes)
        return _REF_BYTES * self.num_references

    def values(self) -> np.ndarray:
        """Gather the referenced ids (lazily, cached, one NumPy pass)."""
        if self._materialized is None:
            total = self._length
            if total == 0:
                self._materialized = np.empty(0, dtype=np.int64)
            else:
                # Id k of reference r sits at starts[r] + (k - offsets[r]).
                shift = (self._starts - self._offsets).repeat(self._lengths)
                self._materialized = self._base[shift + np.arange(total, dtype=np.int64)]
        return self._materialized

    def get(self, i: int) -> int:
        """Random access without full materialization."""
        if self._materialized is not None:
            return int(self._materialized[i])
        ref = int(np.searchsorted(self._offsets, i, side="right")) - 1
        return int(self._base[self._starts[ref] + (i - self._offsets[ref])])

    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else f"{self.num_references} refs"
        return f"LazyNeighborColumn({self.name!r}, n={len(self)}, {state})"
