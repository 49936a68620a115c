"""The Factorized Block (f-Block, paper §4.2).

An f-Block is a cache-friendly, column-oriented structure storing the
*Union* of tuples over its own schema: a set of equal-cardinality columns.
A relation is decomposed into the Cartesian product of several f-Blocks,
with the product relationship managed by the f-Tree that owns them.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..errors import FactorizationError
from ..types import DataType
from .column import Column, ColumnLike, column_validity


class FBlock:
    """A set of named, equal-cardinality columns (the Union of tuples)."""

    __slots__ = ("_columns", "_order", "_length")

    def __init__(self, columns: Iterable[ColumnLike] = ()) -> None:
        self._columns: dict[str, ColumnLike] = {}
        self._order: list[str] = []
        self._length: int | None = None
        for column in columns:
            self.add_column(column)

    # -- schema ----------------------------------------------------------------

    @property
    def schema(self) -> list[str]:
        """Attribute names, in insertion order (S(F_B) in the paper)."""
        return list(self._order)

    def has_column(self, name: str) -> bool:
        """True when the block carries a column named *name*."""
        return name in self._columns

    def column(self, name: str) -> ColumnLike:
        """The column named *name* (FactorizationError if absent)."""
        try:
            return self._columns[name]
        except KeyError:
            raise FactorizationError(f"f-Block has no column {name!r}") from None

    # The three accessors below mirror FlatBlock's, so expression resolvers
    # and the aggregate/projection kernels read either block kind.

    def array(self, name: str) -> np.ndarray:
        """The column's values (materializing a lazy column)."""
        return self.column(name).values()

    def dtype(self, name: str) -> DataType:
        """Logical type of column *name*."""
        return self.column(name).dtype

    def validity(self, name: str) -> np.ndarray | None:
        """The column's validity mask; None when every entry is valid."""
        return column_validity(self.column(name))

    def __len__(self) -> int:
        """Cardinality N_{F_B} (0 for a block with no columns yet)."""
        return self._length if self._length is not None else 0

    @property
    def num_columns(self) -> int:
        """Number of columns (schema width)."""
        return len(self._order)

    # -- mutation ----------------------------------------------------------------

    def add_column(self, column: ColumnLike) -> None:
        """Append a column; enforces the cardinality restriction."""
        if column.name in self._columns:
            raise FactorizationError(f"duplicate column {column.name!r} in f-Block")
        if self._length is not None and len(column) != self._length:
            raise FactorizationError(
                f"column {column.name!r} has {len(column)} rows, block has {self._length}"
            )
        self._columns[column.name] = column
        self._order.append(column.name)
        if self._length is None:
            self._length = len(column)

    def replace_column(self, column: ColumnLike) -> None:
        """Swap a column in place (used when a lazy column is materialized)."""
        if column.name not in self._columns:
            raise FactorizationError(f"f-Block has no column {column.name!r} to replace")
        if self._length is not None and len(column) != self._length:
            raise FactorizationError("replacement column cardinality mismatch")
        self._columns[column.name] = column

    # -- relation representation ---------------------------------------------------

    def tuple_at(self, i: int) -> tuple[Any, ...]:
        """The tuple F_B^[i] over the block schema."""
        if not 0 <= i < len(self):
            raise FactorizationError(f"index {i} out of range for f-Block of {len(self)}")
        out = []
        for name in self._order:
            column = self._columns[name]
            getter = getattr(column, "get", None)
            if getter is not None:
                out.append(getter(i))
            else:
                value = column.values()[i]
                out.append(value.item() if isinstance(value, np.generic) else value)
        return tuple(out)

    def tuples(self, start: int = 0, stop: int | None = None) -> list[tuple[Any, ...]]:
        """F_B^[start, stop) — the union of tuples in the index range."""
        stop = len(self) if stop is None else stop
        return [self.tuple_at(i) for i in range(start, stop)]

    # -- accounting -----------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Current footprint of all columns (lazy columns count refs only)."""
        return sum(c.nbytes for c in self._columns.values())

    def __repr__(self) -> str:
        return f"FBlock(schema={self._order}, n={len(self)})"

    # -- construction helpers ---------------------------------------------------------

    @classmethod
    def from_arrays(cls, **named_arrays: np.ndarray | list) -> "FBlock":
        """Build a block from keyword arrays, inferring dtypes (tests)."""
        block = cls()
        for name, values in named_arrays.items():
            block.add_column(Column.from_values(name, list(values)))
        return block
