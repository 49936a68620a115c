"""Columnar property storage for vertices.

The paper (§5) organizes vertex properties "in a columnar table, with each
row corresponding to a vertex and each column representing a property".
:class:`PropertyColumn` is one growable column; :class:`VertexTable` is the
per-label table that owns all columns of a label plus the dense row-id
assignment and the primary-key index used for external lookups.

NULL handling follows the columnar-graph-storage design of Gupta, Mhedhbi
& Salihoglu: each column carries a **validity bitmap** (NULL is a bit,
never a sentinel value in the data array), and low-cardinality STRING
columns are **dictionary-encoded** transparently.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from ..errors import SchemaError, StorageError
from ..types import DataType
from .catalog import VertexLabelDef
from .validity import ValidityBitmap, pack_values

_INITIAL_CAPACITY = 16

#: A STRING column of at least this many rows is considered for dictionary
#: encoding at bulk-load time.
DICT_MIN_ROWS = 32

#: Dictionary encoding is applied when distinct values fit this budget:
#: ``max(DICT_MAX_UNIQUE_FLOOR, rows // 4)``.
DICT_MAX_UNIQUE_FLOOR = 16


class PropertyColumn:
    """One growable, typed column with an explicit validity bitmap.

    Fixed-width types are backed by a NumPy array with capacity doubling;
    STRING columns use a NumPy object array so fancy-indexing ``gather``
    works uniformly across types.  Invalid slots hold the dtype's inert
    :meth:`~repro.types.DataType.fill_value`; NULLness is carried solely by
    the bitmap.  Low-cardinality STRING columns built via :meth:`from_array`
    store int32 codes plus a unique-value dictionary instead of one pointer
    per row, and stay encoded under later appends/updates.
    """

    def __init__(self, name: str, dtype: DataType, capacity: int = _INITIAL_CAPACITY) -> None:
        self.name = name
        self.dtype = dtype
        self._length = 0
        self._data = np.empty(max(capacity, 1), dtype=dtype.numpy_dtype)
        self._validity = ValidityBitmap()
        # Dictionary encoding state (STRING columns only).
        self._dict_codes: np.ndarray | None = None
        self._dict_values: list[Any] = []
        self._dict_index: dict[Any, int] = {}
        self._decoded_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return self._length

    @property
    def is_dict_encoded(self) -> bool:
        return self._dict_codes is not None

    @property
    def nbytes(self) -> int:
        """Approximate live bytes (object columns count pointer size)."""
        if self._dict_codes is not None:
            codes = int(self._dict_codes[: self._length].nbytes)
            uniques = sum(len(v) if isinstance(v, str) else 8 for v in self._dict_values)
            return codes + uniques + self._validity.nbytes
        return int(self._data[: self._length].nbytes) + self._validity.nbytes

    @property
    def null_count(self) -> int:
        return self._validity.null_count()

    # -- dictionary encoding ----------------------------------------------

    def _encode_dictionary(self, values: np.ndarray, mask: np.ndarray | None) -> None:
        """Switch the freshly bulk-loaded column to dictionary storage."""
        live = values if mask is None else values[mask]
        uniques = list(dict.fromkeys(live.tolist()))
        self._dict_values = uniques
        self._dict_index = {value: code for code, value in enumerate(uniques)}
        codes = np.zeros(max(len(values), 1), dtype=np.int32)
        for i, value in enumerate(values.tolist()):
            if mask is None or mask[i]:
                codes[i] = self._dict_index[value]
        self._dict_codes = codes
        self._data = np.empty(0, dtype=object)  # codes replace the value array
        self._decoded_cache = None

    def _code_for(self, value: Any) -> int:
        code = self._dict_index.get(value)
        if code is None:
            code = len(self._dict_values)
            self._dict_values.append(value)
            self._dict_index[value] = code
        return code

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        if not self._dict_values:
            return np.full(len(codes), None, dtype=object)
        table = np.empty(len(self._dict_values), dtype=object)
        table[:] = self._dict_values
        return table[codes]

    def dict_code(self, value: Any) -> int | None:
        """Code of *value* in an encoded column; None when absent/unencoded.

        Lets equality scans compare int32 codes instead of object strings.
        """
        if self._dict_codes is None:
            return None
        return self._dict_index.get(value)

    # -- growth & mutation -------------------------------------------------

    def _grow_to(self, capacity: int) -> None:
        backing = self._dict_codes if self._dict_codes is not None else self._data
        new_capacity = max(len(backing) * 2, capacity, _INITIAL_CAPACITY)
        grown = np.empty(new_capacity, dtype=backing.dtype)
        if self._dict_codes is not None:
            grown[: self._length] = self._dict_codes[: self._length]
            self._dict_codes = grown
        else:
            grown[: self._length] = self._data[: self._length]
            self._data = grown

    def append(self, value: Any, valid: bool | None = None) -> int:
        """Append one value, returning its row index.

        ``None`` (or ``valid=False``) appends a NULL: the validity bit is
        cleared and the slot holds the dtype's inert fill.
        """
        backing = self._dict_codes if self._dict_codes is not None else self._data
        if self._length == len(backing):
            self._grow_to(self._length + 1)
        if valid is None:
            valid = value is not None
        if not valid or value is None:
            valid = False
            value = self.dtype.fill_value()
        if self._dict_codes is not None:
            self._dict_codes[self._length] = self._code_for(value) if valid else 0
            self._decoded_cache = None
        else:
            self._data[self._length] = value
        self._validity.append(valid)
        self._length += 1
        return self._length - 1

    def extend(self, values: Iterable[Any]) -> None:
        data, mask = pack_values(values, self.dtype)
        needed = self._length + len(data)
        if needed > len(self._dict_codes if self._dict_codes is not None else self._data):
            self._grow_to(needed)
        if self._dict_codes is not None:
            for i, value in enumerate(data.tolist()):
                ok = mask is None or bool(mask[i])
                self._dict_codes[self._length + i] = self._code_for(value) if ok else 0
            self._decoded_cache = None
        else:
            self._data[self._length : needed] = data
        if mask is None:
            self._validity.extend_valid(len(data))
        else:
            self._validity.extend_mask(mask)
        self._length = needed

    def get(self, row: int) -> Any:
        """Value at *row*; Python ``None`` when the slot is NULL."""
        if not 0 <= row < self._length:
            raise StorageError(f"row {row} out of range for column {self.name!r}")
        if not self._validity.get(row):
            return None
        if self._dict_codes is not None:
            return self._dict_values[int(self._dict_codes[row])]
        value = self._data[row]
        if self.dtype is DataType.STRING:
            return value
        return value.item() if isinstance(value, np.generic) else value

    def is_valid(self, row: int) -> bool:
        if not 0 <= row < self._length:
            raise StorageError(f"row {row} out of range for column {self.name!r}")
        return self._validity.get(row)

    def set(self, row: int, value: Any) -> None:
        if not 0 <= row < self._length:
            raise StorageError(f"row {row} out of range for column {self.name!r}")
        valid = value is not None
        if not valid:
            value = self.dtype.fill_value()
        elif self.dtype is DataType.FLOAT64 and value != value:  # NaN input is NULL
            valid = False
            value = self.dtype.fill_value()
        if self._dict_codes is not None:
            self._dict_codes[row] = self._code_for(value) if valid else 0
            self._decoded_cache = None
        else:
            self._data[row] = value
        self._validity.set(row, valid)

    # -- vectorized access -------------------------------------------------

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized fetch of many rows (the executor's property projection).

        Returns the raw value array (inert fills under NULL slots); pair
        with :meth:`gather_validity` — or use :meth:`gather_with_validity` —
        when NULLness matters downstream.
        """
        if self._dict_codes is not None:
            return self._decode(self._dict_codes[rows])
        return self._data[rows]

    def gather_validity(self, rows: np.ndarray) -> np.ndarray | None:
        """Validity bits for *rows*; ``None`` means all requested are valid."""
        return self._validity.gather(rows)

    def gather_with_validity(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        return self.gather(rows), self.gather_validity(rows)

    def view(self) -> np.ndarray:
        """Read-only view over the live prefix of the column's values."""
        if self._dict_codes is not None:
            if self._decoded_cache is None or len(self._decoded_cache) != self._length:
                self._decoded_cache = self._decode(self._dict_codes[: self._length])
                if not self._validity.all_valid:
                    self._decoded_cache[~self._validity.mask()] = None
            return self._decoded_cache
        return self._data[: self._length]

    def validity_mask(self) -> np.ndarray | None:
        """Dense validity bools over the live prefix; ``None`` == all valid."""
        return self._validity.mask()

    @classmethod
    def from_array(
        cls,
        name: str,
        dtype: DataType,
        values: np.ndarray | list,
        validity: np.ndarray | None = None,
    ) -> "PropertyColumn":
        """Bulk-build a column (the datagen/snapshot loading path).

        ``None`` holes in list input and NaN in float input become cleared
        validity bits; an explicit *validity* mask overrides detection.
        """
        column = cls(name, dtype, capacity=max(len(values), 1))
        data, detected = pack_values(values, dtype)
        if validity is not None:
            mask = np.asarray(validity, dtype=bool)
            if detected is not None:
                mask = mask & detected
            if mask.all():
                mask = None
        else:
            mask = detected
        column._data[: len(data)] = data
        column._length = len(data)
        column._validity = ValidityBitmap.from_mask(mask, len(data))
        if (
            dtype is DataType.STRING
            and len(data) >= DICT_MIN_ROWS
        ):
            live = data if mask is None else data[mask]
            uniques = set(live.tolist())
            if len(uniques) <= max(DICT_MAX_UNIQUE_FLOOR, len(data) // 4):
                column._encode_dictionary(data, mask)
        return column


class VertexTable:
    """All vertices of one label: columnar properties + primary-key index.

    Row indices are dense and stable; deletion is by tombstone (the paper's
    "marking for deletion"), so adjacency lists can keep referring to rows.
    """

    def __init__(self, definition: VertexLabelDef) -> None:
        self.definition = definition
        self.label = definition.name
        self._columns: dict[str, PropertyColumn] = {
            p.name: PropertyColumn(p.name, p.dtype) for p in definition.properties
        }
        self._count = 0
        self._tombstones: set[int] = set()
        self._pk_index: dict[int, int] = {}
        # Per-row creation version, allocated lazily on the first
        # transactional insert; None means "all rows visible at version 0".
        self._created_versions: np.ndarray | None = None
        # Bumped on every content mutation (insert, delete, property write,
        # bulk load).  Folded into GraphStore.mutation_epoch so its
        # staleness checks notice non-transactional writes too.
        self._write_epoch = 0

    @property
    def write_epoch(self) -> int:
        return self._write_epoch

    def __len__(self) -> int:
        return self._count

    @property
    def num_live(self) -> int:
        return self._count - len(self._tombstones)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._columns.values())

    def column(self, name: str) -> PropertyColumn:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"vertex label {self.label!r} has no property {name!r}"
            ) from None

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    # -- mutation ---------------------------------------------------------

    def insert(self, properties: Mapping[str, Any]) -> int:
        """Insert one vertex, returning its row index."""
        unknown = set(properties) - set(self._columns)
        if unknown:
            raise SchemaError(f"unknown properties {sorted(unknown)} for label {self.label!r}")
        for name, column in self._columns.items():
            column.append(properties.get(name))
        row = self._count
        self._count += 1
        self._write_epoch += 1
        pk = self.definition.primary_key
        if pk is not None and pk in properties:
            key = int(properties[pk])
            if key in self._pk_index:
                raise StorageError(f"duplicate {self.label}.{pk} = {key}")
            self._pk_index[key] = row
        return row

    def bulk_load(
        self,
        columns: Mapping[str, np.ndarray | list],
        validity: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Replace table contents from aligned arrays (datagen path).

        *validity* optionally carries explicit per-column bitmasks (the
        snapshot-restore path); without it, NULLs are detected from ``None``
        holes and float NaN.
        """
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise StorageError(f"ragged bulk load for {self.label!r}: {lengths}")
        count = next(iter(lengths.values()), 0)
        missing = set(self._columns) - set(columns)
        if missing:
            raise StorageError(f"bulk load for {self.label!r} missing columns {sorted(missing)}")
        for name, values in columns.items():
            prop = self.definition.property(name)
            mask = validity.get(name) if validity else None
            self._columns[name] = PropertyColumn.from_array(
                name, prop.dtype, values, validity=mask
            )
        self._count = count
        self._tombstones.clear()
        self._write_epoch += 1
        pk = self.definition.primary_key
        if pk is not None:
            keys = self._columns[pk].view()
            self._pk_index = {int(k): i for i, k in enumerate(keys)}

    def delete(self, row: int) -> None:
        """Tombstone a row (keeps row indices of other vertices stable)."""
        if not 0 <= row < self._count:
            raise StorageError(f"row {row} out of range for table {self.label!r}")
        self._tombstones.add(row)
        self._write_epoch += 1
        pk = self.definition.primary_key
        if pk is not None:
            key = self._columns[pk].get(row)
            if key is not None:
                self._pk_index.pop(int(key), None)

    def is_live(self, row: int) -> bool:
        return 0 <= row < self._count and row not in self._tombstones

    # -- row visibility under MVCC -----------------------------------------

    def mark_created(self, row: int, version: int) -> None:
        """Stamp *row* as created at *version* (transactional insert path)."""
        if self._created_versions is None:
            self._created_versions = np.zeros(max(self._count, 1), dtype=np.int64)
        if row >= len(self._created_versions):
            grown = np.zeros(max(len(self._created_versions) * 2, row + 1), dtype=np.int64)
            grown[: len(self._created_versions)] = self._created_versions
            self._created_versions = grown
        self._created_versions[row] = version

    @property
    def has_version_stamps(self) -> bool:
        return self._created_versions is not None

    def created_version(self, row: int) -> int:
        if self._created_versions is None or row >= len(self._created_versions):
            return 0
        return int(self._created_versions[row])

    def is_visible(self, row: int, version: int | None) -> bool:
        """Row exists at the given snapshot version (None = latest)."""
        if not self.is_live(row):
            return False
        if version is None:
            return True
        return self.created_version(row) <= version

    def set_property(self, row: int, name: str, value: Any) -> None:
        self.column(name).set(row, value)
        self._write_epoch += 1

    # -- lookup -----------------------------------------------------------

    def row_for_key(self, key: int) -> int:
        """Row index of the vertex whose primary key equals *key*."""
        try:
            return self._pk_index[int(key)]
        except KeyError:
            raise StorageError(f"no {self.label} with key {key}") from None

    def try_row_for_key(self, key: int) -> int | None:
        return self._pk_index.get(int(key))

    def get_property(self, row: int, name: str) -> Any:
        return self.column(name).get(row)

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        return self.column(name).gather(rows)

    def gather_with_validity(
        self, name: str, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        return self.column(name).gather_with_validity(rows)

    def all_rows(self, include_tombstones: bool = False) -> np.ndarray:
        """Dense row indices of (live) vertices, for label scans."""
        rows = np.arange(self._count, dtype=np.int64)
        if include_tombstones or not self._tombstones:
            return rows
        mask = np.ones(self._count, dtype=bool)
        mask[list(self._tombstones)] = False
        return rows[mask]
