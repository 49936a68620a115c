"""The flat block: a fully materialized table of tuples (paper §4.2).

This is the "ultimate solution" representation: every tuple exists
explicitly, with all the redundancy that implies.  The GES baseline variant
pipes flat blocks between all operators; the factorized variants de-factor
into one only when an operator needs global tuple state (multi-node
Order-By / Group-By / Distinct).

Columns are NumPy arrays so block-based operators stay vectorized, but the
block is semantically row-oriented: ``nbytes`` charges the full materialized
size and :meth:`rows` iterates tuples.

Two storage-level refinements ride on the representation (after Gupta,
Mhedhbi & Salihoglu's columnar design):

* every column may carry a **validity mask** — NULL is a bit, never a
  sentinel value in the data array;
* :meth:`filter` / :meth:`take` produce **selection vectors** instead of
  copying columns: the child block shares its parent's arrays plus an index
  vector, and individual columns materialize lazily on first access.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ExecutionError
from ..types import DataType
from .column import Column, ColumnLike, column_validity, string_payload_bytes


class FlatBlock:
    """A materialized relation: named, typed, equal-length arrays."""

    __slots__ = (
        "_data",
        "_validity",
        "_dtypes",
        "_order",
        "_length",
        "_payloads",
        "_sel",
        "_cache",
        "_vcache",
    )

    #: Accounting cost of one value slot in a row-oriented tuple (value +
    #: type/offset overhead), per the paper's "sets of tuples" framing.
    ROW_VALUE_BYTES = 16

    def __init__(self) -> None:
        self._data: dict[str, np.ndarray] = {}
        self._validity: dict[str, np.ndarray] = {}  # only columns with NULLs
        self._dtypes: dict[str, DataType] = {}
        self._order: list[str] = []
        self._length = 0
        self._payloads: dict[str, int] = {}
        # Selection vector: indices into the backing arrays, or None when
        # the backing arrays *are* the block contents.  Gathered columns are
        # cached so repeated access materializes once.
        self._sel: np.ndarray | None = None
        self._cache: dict[str, np.ndarray] = {}
        self._vcache: dict[str, np.ndarray | None] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_columns(cls, columns: Iterable[ColumnLike]) -> "FlatBlock":
        block = cls()
        for column in columns:
            block.add_array(
                column.name, column.dtype, column.values(), column_validity(column)
            )
        return block

    @classmethod
    def from_dict(cls, data: Mapping[str, tuple[DataType, np.ndarray | list]]) -> "FlatBlock":
        block = cls()
        for name, (dtype, values) in data.items():
            block.add_array(name, dtype, np.asarray(values, dtype=dtype.numpy_dtype))
        return block

    def add_array(
        self,
        name: str,
        dtype: DataType,
        values: np.ndarray,
        validity: np.ndarray | None = None,
    ) -> None:
        """Append a column from a raw array (enforces equal lengths).

        *validity* is an optional bool mask (True = value present); an
        all-True mask is normalized away.
        """
        if name in self._data:
            raise ExecutionError(f"duplicate column {name!r} in flat block")
        if self._order and len(values) != self._length:
            raise ExecutionError(
                f"column {name!r} has {len(values)} rows, block has {self._length}"
            )
        if self._sel is not None:
            self._densify()
        self._data[name] = values
        if validity is not None and not bool(np.asarray(validity).all()):
            self._validity[name] = np.asarray(validity, dtype=bool)
        self._dtypes[name] = dtype
        self._order.append(name)
        self._length = len(values)

    def add_column(self, column: ColumnLike) -> None:
        """Append a query-time column (materializing it if lazy)."""
        self.add_array(
            column.name, column.dtype, column.values(), column_validity(column)
        )

    def _densify(self) -> None:
        """Resolve the selection vector into fresh backing arrays."""
        sel = self._sel
        if sel is None:
            return
        for name in self._order:
            self._data[name] = self._gather(name)
            valid = self._gather_validity(name)
            if valid is not None:
                self._validity[name] = valid
            else:
                self._validity.pop(name, None)
        self._sel = None
        self._cache = {}
        self._vcache = {}
        self._payloads = {}

    # -- schema & access ------------------------------------------------------------

    @property
    def schema(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._order)

    def has_column(self, name: str) -> bool:
        """True when the block carries a column named *name*."""
        return name in self._data

    def dtype(self, name: str) -> DataType:
        """Logical type of column *name*."""
        try:
            return self._dtypes[name]
        except KeyError:
            raise ExecutionError(f"flat block has no column {name!r}") from None

    def _gather(self, name: str) -> np.ndarray:
        cached = self._cache.get(name)
        if cached is None:
            cached = self._data[name][self._sel]
            self._cache[name] = cached
        return cached

    def _gather_validity(self, name: str) -> np.ndarray | None:
        if name in self._vcache:
            return self._vcache[name]
        base = self._validity.get(name)
        if base is None:
            gathered: np.ndarray | None = None
        else:
            gathered = base[self._sel]
            if gathered.all():
                gathered = None
        self._vcache[name] = gathered
        return gathered

    def array(self, name: str) -> np.ndarray:
        """The column's values (materializing through the selection vector)."""
        if name not in self._data:
            raise ExecutionError(f"flat block has no column {name!r}")
        if self._sel is None:
            return self._data[name]
        return self._gather(name)

    def validity(self, name: str) -> np.ndarray | None:
        """The column's validity mask; None when every row is valid."""
        if name not in self._data:
            raise ExecutionError(f"flat block has no column {name!r}")
        if self._sel is None:
            return self._validity.get(name)
        return self._gather_validity(name)

    def column(self, name: str) -> Column:
        """Column *name* wrapped as an immutable query-time column."""
        return Column(name, self.dtype(name), self.array(name), self.validity(name))

    def __len__(self) -> int:
        return self._length

    @property
    def is_selected(self) -> bool:
        """True while this block is a selection view over parent arrays."""
        return self._sel is not None

    @property
    def nbytes(self) -> int:
        """Row-oriented tuple footprint — the flat representation's cost.

        A flat block *is* a set of materialized tuples (paper §1/§3): each
        of the ``len × num_columns`` value slots costs
        :data:`ROW_VALUE_BYTES`, plus the string payloads.  The compact
        columnar accounting lives on f-Blocks; comparing the two is exactly
        the paper's Table 2 comparison.
        """
        slots = self._length * len(self._order) * self.ROW_VALUE_BYTES
        payloads = 0
        for name, dtype in self._dtypes.items():
            if dtype is not DataType.STRING:
                continue
            cached = self._payloads.get(name)
            if cached is None:
                cached = string_payload_bytes(self.array(name))
                self._payloads[name] = cached
            payloads += cached
        return slots + payloads

    @property
    def columnar_nbytes(self) -> int:
        """Raw columnar array bytes (for storage-level introspection)."""
        total = 0
        for name, dtype in self._dtypes.items():
            total += int(self.array(name).nbytes)
            if dtype is DataType.STRING:
                total += string_payload_bytes(self.array(name))
        return total

    def rows(self, names: Sequence[str] | None = None) -> Iterator[tuple[Any, ...]]:
        """Iterate tuples (over *names* or the full schema)."""
        return iter(self.to_pylist(names))

    def to_pylist(self, names: Sequence[str] | None = None) -> list[tuple[Any, ...]]:
        """All tuples as native Python values, NULLs as ``None``."""
        names = list(names) if names is not None else self._order
        if self._length == 0:
            return []
        if not names:
            return [()] * self._length
        columns = []
        for name in names:
            values = self.array(name).tolist()
            valid = self.validity(name)
            if valid is not None:
                values = [v if ok else None for v, ok in zip(values, valid)]
            columns.append(values)
        return list(zip(*columns))

    # -- relational operations (block-based execution) ------------------------------

    def take(self, indices: np.ndarray) -> "FlatBlock":
        """Row subset / reorder by integer indices.

        O(1) in column data: the result is a selection-vector view sharing
        this block's backing arrays; columns materialize lazily on access.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = FlatBlock()
        # Dict copies (cheap) so a later densify of the child cannot mutate
        # this block's column maps; the arrays themselves stay shared.
        out._data = dict(self._data)
        out._validity = dict(self._validity)
        out._dtypes = dict(self._dtypes)
        out._order = list(self._order)
        out._length = len(indices)
        if self._sel is None:
            out._sel = indices
        else:
            out._sel = self._sel[indices]
        return out

    def filter(self, mask: np.ndarray) -> "FlatBlock":
        """Rows where *mask* is True (a selection-vector view)."""
        if len(mask) != self._length:
            raise ExecutionError("filter mask length mismatch")
        return self.take(np.flatnonzero(mask))

    def select(self, names: Sequence[str]) -> "FlatBlock":
        """Projection onto a subset of columns (optionally renaming none)."""
        out = FlatBlock()
        for name in names:
            out.add_array(name, self.dtype(name), self.array(name), self.validity(name))
        return out

    def rename(self, mapping: Mapping[str, str]) -> "FlatBlock":
        """Rename columns per *mapping* (others keep their names)."""
        out = FlatBlock()
        for name in self._order:
            new_name = mapping.get(name, name)
            out.add_array(new_name, self._dtypes[name], self.array(name), self.validity(name))
        return out

    def sort(self, keys: Sequence[tuple[str, bool]]) -> "FlatBlock":
        """Stable multi-key sort; each key is (column, ascending)."""
        if not keys or self._length <= 1:
            return self
        # np.lexsort sorts by the *last* key array first, so feed keys in
        # reverse significance order.
        arrays = [
            sort_key_array(
                self.array(name), self._dtypes[name], ascending, self.validity(name)
            )
            for name, ascending in reversed(list(keys))
        ]
        order = np.lexsort(arrays)
        return self.take(order)

    def limit(self, n: int) -> "FlatBlock":
        """The first *n* rows (the whole block when n >= len)."""
        if n >= self._length:
            return self
        return self.take(np.arange(n))

    def distinct(self, names: Sequence[str] | None = None) -> "FlatBlock":
        """Distinct rows over *names* (keeping first occurrence, full rows)."""
        names = list(names) if names is not None else self._order
        seen: set[tuple[Any, ...]] = set()
        keep: list[int] = []
        for i, key in enumerate(self.to_pylist(names)):
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return self.take(np.asarray(keep, dtype=np.int64))

    def concat(self, other: "FlatBlock") -> "FlatBlock":
        """Rows of *self* followed by rows of *other* (same schema)."""
        if self._order != other._order:
            raise ExecutionError("concat requires identical schemas")
        out = FlatBlock()
        for name in self._order:
            mine, theirs = self.validity(name), other.validity(name)
            if mine is None and theirs is None:
                merged = None
            else:
                merged = np.concatenate(
                    [
                        mine if mine is not None else np.ones(len(self), dtype=bool),
                        theirs if theirs is not None else np.ones(len(other), dtype=bool),
                    ]
                )
            out.add_array(
                name,
                self._dtypes[name],
                np.concatenate([self.array(name), other.array(name)]),
                merged,
            )
        return out

    @classmethod
    def empty_like(cls, schema: Sequence[tuple[str, DataType]]) -> "FlatBlock":
        block = cls()
        for name, dtype in schema:
            block.add_array(name, dtype, np.empty(0, dtype=dtype.numpy_dtype))
        return block

    def __repr__(self) -> str:
        return f"FlatBlock(schema={self._order}, n={self._length})"


def sort_key_array(
    values: np.ndarray,
    dtype: DataType,
    ascending: bool,
    validity: np.ndarray | None = None,
) -> np.ndarray:
    """A lexsort-ready key array for one sort key.

    NULL rows (cleared validity bits) are forced onto the dtype's inert
    fill, which sorts to a consistent extreme: int64 min is the smallest
    key and wraps onto itself under negation, NaN sorts last either way,
    and None strings rank as the empty string.  Numeric keys sort natively
    (negated for descending); strings — which lexsort cannot compare
    against None — are replaced by dense ranks.
    """
    if dtype is DataType.STRING:
        if validity is None:
            cleaned = np.asarray(["" if v is None else v for v in values], dtype=object)
        else:
            cleaned = np.asarray(
                [
                    "" if (not ok or v is None) else v
                    for v, ok in zip(values, validity)
                ],
                dtype=object,
            )
        _, codes = np.unique(cleaned, return_inverse=True)
        return codes if ascending else -codes
    if validity is not None:
        values = values.copy()
        values[~validity] = dtype.fill_value()
    if ascending:
        return values
    with np.errstate(over="ignore"):
        return -values
