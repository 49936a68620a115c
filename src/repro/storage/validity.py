"""Validity bitmaps and value packing for the column store.

This module is the foundation of the sentinel-free NULL representation
(ROADMAP item 3, after Gupta/Mhedhbi/Salihoglu's columnar graph storage
design): every property column carries an optional validity bitmap — NULL
is a bit, never a magic value in the data array.  On top of the bitmap
representation this module provides

* :class:`ValidityBitmap` — a growable per-column bitmap with an all-valid
  fast path (no allocation until the first NULL appears);
* :func:`pack_values` — canonical ingest: converts a possibly-None-bearing
  (or NaN-bearing, for floats) value sequence into ``(data, validity)``
  with inert fills under invalid slots.

Dictionary encoding for low-cardinality string columns lives in
:class:`~repro.storage.properties.PropertyColumn`, which composes these
pieces.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..types import DataType

class ValidityBitmap:
    """Growable validity bitmap for one column.

    The common case — a column with no NULLs — allocates nothing: the
    backing array is created lazily on the first invalid bit.  ``True``
    means *valid* (value present), matching Arrow's convention.
    """

    __slots__ = ("_bits", "_length")

    def __init__(self, length: int = 0) -> None:
        self._length = length
        self._bits: np.ndarray | None = None  # None == every bit valid

    def __len__(self) -> int:
        return self._length

    @property
    def all_valid(self) -> bool:
        return self._bits is None

    @property
    def nbytes(self) -> int:
        return 0 if self._bits is None else int(self._bits[: self._length].nbytes)

    def _materialize(self, capacity: int) -> np.ndarray:
        bits = np.ones(max(capacity, self._length, 1), dtype=bool)
        if self._bits is not None:
            bits[: len(self._bits)] = self._bits
        self._bits = bits
        return bits

    def _ensure_capacity(self, needed: int) -> np.ndarray:
        assert self._bits is not None
        if needed > len(self._bits):
            grown = np.ones(max(len(self._bits) * 2, needed), dtype=bool)
            grown[: len(self._bits)] = self._bits
            self._bits = grown
        return self._bits

    def append(self, valid: bool) -> None:
        index = self._length
        self._length += 1
        if self._bits is None:
            if valid:
                return
            self._materialize(max(2 * index, index + 1))
        bits = self._ensure_capacity(self._length)
        bits[index] = valid

    def extend_valid(self, count: int) -> None:
        start = self._length
        self._length += count
        if self._bits is not None:
            bits = self._ensure_capacity(self._length)
            bits[start : self._length] = True

    def extend_mask(self, mask: np.ndarray) -> None:
        start = self._length
        self._length += len(mask)
        if self._bits is None:
            if bool(mask.all()):
                return
            self._materialize(max(2 * start, self._length))
        bits = self._ensure_capacity(self._length)
        bits[start : self._length] = mask

    def get(self, index: int) -> bool:
        if self._bits is None:
            return True
        return bool(self._bits[index])

    def set(self, index: int, valid: bool) -> None:
        if self._bits is None:
            if valid:
                return
            self._materialize(max(self._length, index + 1))
        self._ensure_capacity(max(self._length, index + 1))[index] = valid

    def mask(self) -> np.ndarray | None:
        """Dense bool mask over the live prefix; ``None`` means all-valid."""
        if self._bits is None:
            return None
        return self._bits[: self._length]

    def gather(self, rows: np.ndarray) -> np.ndarray | None:
        """Validity bits for *rows*; ``None`` means every one is valid."""
        if self._bits is None:
            return None
        return self._bits[rows]

    def null_count(self) -> int:
        if self._bits is None:
            return 0
        return int(self._length - np.count_nonzero(self._bits[: self._length]))

    @classmethod
    def from_mask(cls, mask: np.ndarray | None, length: int) -> "ValidityBitmap":
        bitmap = cls(length)
        if mask is not None and not bool(np.asarray(mask).all()):
            bits = np.ones(max(length, 1), dtype=bool)
            bits[:length] = mask
            bitmap._bits = bits
        return bitmap


def pack_values(
    values: Iterable[Any] | np.ndarray, dtype: DataType
) -> tuple[np.ndarray, np.ndarray | None]:
    """Canonical ingest: ``(data, validity-mask-or-None)`` for *values*.

    Accepts Python sequences with ``None`` holes and already-typed NumPy
    arrays.  For float input, NaN is folded into the validity mask (the
    store keeps exactly one NULL representation); typed integer input is
    taken at face value — ``iinfo(int64).min`` is data, not NULL.
    """
    np_dtype = dtype.numpy_dtype
    if isinstance(values, np.ndarray) and values.dtype == np_dtype and np_dtype != object:
        data = np.array(values)  # defensive copy: the store owns its arrays
        if dtype is DataType.FLOAT64:
            nan = np.isnan(data)
            if nan.any():
                return data, ~nan
        return data, None

    items = list(values)
    mask = np.fromiter(
        (item is not None for item in items), dtype=bool, count=len(items)
    )
    if mask.all():
        data = np.asarray(items, dtype=np_dtype)
        if dtype is DataType.FLOAT64:
            nan = np.isnan(data)
            if nan.any():
                return data, ~nan
        return data, None
    fill = dtype.fill_value()
    filled = [fill if item is None else item for item in items]
    data = np.asarray(filled, dtype=np_dtype)
    if dtype is DataType.FLOAT64:
        nan = np.isnan(data)
        np.logical_and(mask, ~nan, out=mask)
        data[nan] = np.nan  # canonical fill for invalid float slots
    return data, mask


def unpack_values(
    data: np.ndarray, validity: np.ndarray | None, dtype: DataType
) -> list[Any]:
    """Python-level values with ``None`` holes (result/boundary direction)."""
    if dtype is DataType.STRING:
        out = list(data)
    elif dtype is DataType.FLOAT64:
        out = [float(v) for v in data]
    elif dtype is DataType.BOOL:
        out = [bool(v) for v in data]
    else:
        out = [int(v) for v in data]
    if validity is not None:
        out = [v if ok else None for v, ok in zip(out, validity)]
    return out
