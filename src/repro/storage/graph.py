"""The LPG graph store: vertex tables + the adjacency hash table, plus the
versioned read views the executor runs against.

:class:`GraphStore` owns all mutable state.  Query execution never touches
it directly; instead the engine hands each query a :class:`GraphReadView`
bound to a snapshot version (paper §5, Concurrency Control).  For the
common read-mostly case the view is a zero-cost pass-through; when a
transaction has created copy-on-write vertex snapshots, the view resolves
vertex properties through the overlay the transaction layer installs.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

import numpy as np

from ..errors import SchemaError, StorageError
from .adjacency import AdjacencyList
from .catalog import AdjacencyKey, Direction, EdgeLabelDef, GraphSchema
from .properties import VertexTable


class VertexOverlay(Protocol):
    """Resolves copy-on-write vertex property versions for one snapshot.

    Implemented by the transaction layer; the storage layer only needs
    this narrow protocol.
    """

    def resolve(self, label: str, row: int, name: str, version: int) -> tuple[bool, Any]:
        """Return ``(True, value)`` when the overlay overrides the property
        at *version*, else ``(False, None)``."""

    def resolve_rows(
        self, label: str, rows: np.ndarray, name: str, version: int
    ) -> tuple[np.ndarray, list[Any]]:
        """Bulk :meth:`resolve`: ``(positions, values)`` for the entries of
        *rows* the overlay overrides at *version*."""


class VertexRef:
    """A (label, row) handle to one vertex."""

    __slots__ = ("label", "row")

    def __init__(self, label: str, row: int) -> None:
        self.label = label
        self.row = row

    def __repr__(self) -> str:
        return f"VertexRef({self.label!r}, {self.row})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexRef)
            and other.label == self.label
            and other.row == self.row
        )

    def __hash__(self) -> int:
        return hash((self.label, self.row))


class GraphStore:
    """All vertices, properties, and adjacency lists of one graph."""

    def __init__(self, schema: GraphSchema) -> None:
        self.schema = schema
        self._tables: dict[str, VertexTable] = {
            name: VertexTable(schema.vertex_label(name)) for name in schema.vertex_labels
        }
        self._adjacency: dict[AdjacencyKey, AdjacencyList] = {}
        for definition in schema.iter_edge_definitions():
            self._register_adjacency(definition)
        # Bumped on every structural mutation (vertex/edge insert, edge
        # delete, bulk load); the oracle's bulk-loaded twin is rebuilt
        # whenever it moves.
        self._mutation_epoch = 0

    @property
    def mutation_epoch(self) -> int:
        """Monotonic counter of graph mutations (snapshot staleness key).

        Folds in the per-table write epochs so direct, non-transactional
        property writes are noticed too.
        """
        return self._mutation_epoch + sum(
            t.write_epoch for t in self._tables.values()
        )

    def _register_adjacency(self, definition: EdgeLabelDef) -> None:
        out_key = definition.key()
        in_key = out_key.reversed()
        self._adjacency[out_key] = AdjacencyList(out_key, definition.properties)
        self._adjacency[in_key] = AdjacencyList(in_key, definition.properties)

    # -- access ---------------------------------------------------------------

    def table(self, label: str) -> VertexTable:
        """The vertex table of *label*."""
        try:
            return self._tables[label]
        except KeyError:
            raise SchemaError(f"unknown vertex label {label!r}") from None

    def adjacency(self, key: AdjacencyKey) -> AdjacencyList:
        """The adjacency list registered under *key*."""
        try:
            return self._adjacency[key]
        except KeyError:
            raise StorageError(f"no adjacency list for {key}") from None

    @property
    def vertex_count(self) -> int:
        """Live vertices across all labels."""
        return sum(t.num_live for t in self._tables.values())

    @property
    def edge_count(self) -> int:
        """Live directed-edge count over forward (OUT) lists only."""
        return sum(
            adj.num_edges
            for key, adj in self._adjacency.items()
            if key.direction is Direction.OUT
        )

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of tables plus adjacency lists."""
        tables = sum(t.nbytes for t in self._tables.values())
        adjacency = sum(a.nbytes for a in self._adjacency.values())
        return tables + adjacency

    # -- mutation ---------------------------------------------------------------

    def add_vertex(self, label: str, properties: Mapping[str, Any]) -> VertexRef:
        """Insert one vertex, returning its (label, row) handle."""
        row = self.table(label).insert(properties)
        self._mutation_epoch += 1
        return VertexRef(label, row)

    def add_edge(
        self,
        edge_label: str,
        src: VertexRef,
        dst: VertexRef,
        props: Mapping[str, Any] | None = None,
        version: int | None = None,
    ) -> None:
        """Insert one edge, maintaining both the OUT and the mirror IN list."""
        self.schema.edge_definition(edge_label, src.label, dst.label)
        out_key = AdjacencyKey(src.label, edge_label, dst.label, Direction.OUT)
        in_key = out_key.reversed()
        self._adjacency[out_key].add_edge(src.row, dst.row, props, version)
        self._adjacency[in_key].add_edge(dst.row, src.row, props, version)
        self._mutation_epoch += 1

    def remove_edge(
        self,
        edge_label: str,
        src: VertexRef,
        dst: VertexRef,
        version: int | None = None,
    ) -> bool:
        """Delete one edge from both direction lists; False when absent."""
        out_key = AdjacencyKey(src.label, edge_label, dst.label, Direction.OUT)
        in_key = out_key.reversed()
        removed = self._adjacency[out_key].remove_edge(src.row, dst.row, version)
        if removed:
            self._adjacency[in_key].remove_edge(dst.row, src.row, version)
            self._mutation_epoch += 1
        return removed

    # -- bulk load -----------------------------------------------------------

    def bulk_load_vertices(
        self,
        label: str,
        columns: Mapping[str, np.ndarray | list],
        validity: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Replace *label*'s table contents from aligned column arrays.

        NULLs arrive as ``None`` holes (or float NaN) in *columns*, or as
        explicit per-column bitmasks in *validity* (the snapshot path).
        """
        self.table(label).bulk_load(columns, validity=validity)
        self._mutation_epoch += 1

    def bulk_load_edges(
        self,
        edge_label: str,
        src_label: str,
        dst_label: str,
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        props: Mapping[str, np.ndarray] | None = None,
        props_validity: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """CSR-build both directions of one edge definition."""
        self.schema.edge_definition(edge_label, src_label, dst_label)
        out_key = AdjacencyKey(src_label, edge_label, dst_label, Direction.OUT)
        in_key = out_key.reversed()
        self._adjacency[out_key].bulk_load(
            len(self.table(src_label)), src_rows, dst_rows, props, props_validity
        )
        self._adjacency[in_key].bulk_load(
            len(self.table(dst_label)), dst_rows, src_rows, props, props_validity
        )
        self._mutation_epoch += 1

    # -- views -----------------------------------------------------------------

    def read_view(
        self, version: int | None = None, overlay: VertexOverlay | None = None
    ) -> "GraphReadView":
        """A read view of the graph at *version* (None = latest)."""
        return GraphReadView(self, version, overlay)


class GraphReadView:
    """Read-only, version-bound access used by the query executor."""

    def __init__(
        self,
        store: GraphStore,
        version: int | None = None,
        overlay: VertexOverlay | None = None,
    ) -> None:
        self.store = store
        self.schema = store.schema
        self.version = version
        self.overlay = overlay

    # -- vertices ----------------------------------------------------------

    def vertex_by_key(self, label: str, key: int) -> int | None:
        """Row index of the vertex with primary key *key*, or None.

        Vertices created after this view's snapshot version are invisible.
        """
        table = self.store.table(label)
        row = table.try_row_for_key(key)
        if row is None or not table.is_visible(row, self.version):
            return None
        return row

    def all_rows(self, label: str) -> np.ndarray:
        table = self.store.table(label)
        rows = table.all_rows()
        if self.version is None or not table.has_version_stamps:
            return rows
        visible = np.asarray(
            [table.created_version(int(r)) <= self.version for r in rows], dtype=bool
        )
        return rows[visible]

    def vertex_key(self, label: str, row: int) -> int:
        pk = self.schema.vertex_label(label).primary_key
        if pk is None:
            raise SchemaError(f"vertex label {label!r} has no primary key")
        return int(self.get_property(label, row, pk))

    def get_property(self, label: str, row: int, name: str) -> Any:
        if self.overlay is not None and self.version is not None:
            overridden, value = self.overlay.resolve(label, row, name, self.version)
            if overridden:
                return value
        return self.store.table(label).get_property(row, name)

    def gather_properties(self, label: str, name: str, rows: np.ndarray) -> np.ndarray:
        """Vectorized property fetch (raw values, inert fills under NULLs).

        Prefer :meth:`gather_properties_with_validity` when NULLness matters
        downstream; this variant only patches copy-on-write overrides into
        the value array.
        """
        values, _ = self.gather_properties_with_validity(label, name, rows)
        return values

    def gather_properties_with_validity(
        self, label: str, name: str, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Vectorized property fetch with validity, patching COW overrides.

        Returns ``(values, validity)`` where ``validity`` is ``None`` when
        every requested row is valid.  Overridden slots whose pre-image is
        NULL clear the corresponding bit.
        """
        column = self.store.table(label).column(name)
        values = column.gather(rows)
        validity = column.gather_validity(rows)
        if self.overlay is None or self.version is None:
            return values, validity
        positions, patches = self.overlay.resolve_rows(label, rows, name, self.version)
        if len(positions):
            values = values.copy()
            validity = (
                validity.copy()
                if validity is not None
                else np.ones(len(rows), dtype=bool)
            )
            for i, value in zip(positions.tolist(), patches):
                validity[i] = value is not None
                values[i] = column.dtype.fill_value() if value is None else value
        if validity is not None and validity.all():
            validity = None
        return values, validity

    # -- adjacency ----------------------------------------------------------

    def adjacency(self, key: AdjacencyKey) -> AdjacencyList:
        return self.store.adjacency(key)

    def neighbors(self, key: AdjacencyKey, src_row: int) -> np.ndarray:
        return self.store.adjacency(key).neighbors(src_row, self.version)

    def neighbor_slots(self, key: AdjacencyKey, src_row: int) -> np.ndarray:
        return self.store.adjacency(key).neighbor_slots(src_row, self.version)

    def gather_neighbors(
        self, key: AdjacencyKey, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, slots)`` of every source in *rows* at this view's version."""
        return self.store.adjacency(key).gather(rows, self.version)

    def degree(self, key: AdjacencyKey, src_row: int) -> int:
        adjacency = self.store.adjacency(key)
        if adjacency.supports_segments:
            return adjacency.degree(src_row)
        return len(adjacency.neighbors(src_row, self.version))
