"""Transactions: MV2PL with copy-on-write vertex versioning (paper §5).

Write queries declare their write sets up front (LDBC updates are blind
inserts with known targets), lock them vertex-level through the
:class:`~repro.txn.locks.LockManager`, stage their mutations, and apply
them atomically at commit under the allocated commit version.  Read
queries never block: they pin the current version and run against a
:class:`~repro.storage.graph.GraphReadView` that combines the live tables
with the copy-on-write snapshots of concurrently modified vertices.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import TransactionAborted, TransactionError
from ..resilience import faults
from ..storage.graph import GraphReadView, GraphStore, VertexRef
from ..storage.memory_pool import DEFAULT_POOL, MemoryPool
from .locks import LockKey, LockManager
from .snapshot import SnapshotOverlay, VertexSnapshot
from .version import VersionManager


@dataclass
class _StagedVertex:
    label: str
    properties: dict[str, Any]


@dataclass
class _StagedEdge:
    edge_label: str
    src: VertexRef
    dst: VertexRef
    props: dict[str, Any] = field(default_factory=dict)
    delete: bool = False


@dataclass
class _StagedPropertyWrite:
    label: str
    row: int
    name: str
    value: Any


class TransactionManager:
    """Factory and coordinator for transactions over one graph store."""

    def __init__(self, store: GraphStore, pool: MemoryPool | None = None) -> None:
        self.store = store
        self.pool = pool if pool is not None else DEFAULT_POOL
        self.versions = VersionManager()
        self.locks = LockManager()
        self.overlay = SnapshotOverlay(self.pool)
        self._commit_guard = threading.Lock()
        #: Optional :class:`repro.durability.DurabilityManager`.  When set
        #: (by the engine service), every commit is WAL-logged *before* its
        #: mutations apply; when None (the default) commits are in-memory
        #: only and the write path pays a single attribute check.
        self.wal = None

    def begin(self) -> "Transaction":
        return Transaction(self)

    def read_view(self) -> GraphReadView:
        """Snapshot read view at the current version (non-blocking)."""
        return self.store.read_view(self.versions.current(), self.overlay)

    def latest_view(self) -> GraphReadView:
        """Unversioned view (single-threaded fast path, no MVCC filtering)."""
        return self.store.read_view(None)

    def prune_snapshots(self) -> int:
        """Garbage-collect pre-images older than the current version."""
        return self.overlay.prune(self.versions.current())


class Transaction:
    """One write transaction: stage, lock, commit."""

    def __init__(self, manager: TransactionManager) -> None:
        self.manager = manager
        self.snapshot_version = manager.versions.current()
        self._new_vertices: list[_StagedVertex] = []
        self._new_vertex_refs: list[VertexRef | None] = []
        self._edges: list[_StagedEdge] = []
        self._property_writes: list[_StagedPropertyWrite] = []
        self._held_locks: list[LockKey] = []
        self._done = False

    # -- read side -----------------------------------------------------------

    def read_view(self) -> GraphReadView:
        return self.manager.store.read_view(self.snapshot_version, self.manager.overlay)

    # -- staging ---------------------------------------------------------------

    def add_vertex(self, label: str, properties: Mapping[str, Any]) -> int:
        """Stage a vertex insert; returns a handle usable in add_edge via
        :meth:`staged_vertex`."""
        self._check_open()
        self._new_vertices.append(_StagedVertex(label, dict(properties)))
        self._new_vertex_refs.append(None)
        return len(self._new_vertices) - 1

    def staged_vertex(self, handle: int) -> VertexRef:
        """VertexRef of a staged insert — only valid after commit applies it."""
        ref = self._new_vertex_refs[handle]
        if ref is None:
            raise TransactionError("staged vertex not applied yet")
        return ref

    def add_edge(
        self,
        edge_label: str,
        src: VertexRef | int,
        dst: VertexRef | int,
        props: Mapping[str, Any] | None = None,
    ) -> None:
        """Stage an edge insert; endpoints may be staged-vertex handles."""
        self._check_open()
        self._edges.append(
            _StagedEdge(edge_label, src, dst, dict(props or {}))  # type: ignore[arg-type]
        )

    def remove_edge(self, edge_label: str, src: VertexRef, dst: VertexRef) -> None:
        self._check_open()
        self._edges.append(_StagedEdge(edge_label, src, dst, delete=True))

    def set_vertex_property(self, label: str, row: int, name: str, value: Any) -> None:
        self._check_open()
        self._property_writes.append(_StagedPropertyWrite(label, row, name, value))

    # -- write set / locking -----------------------------------------------------

    def write_set(self) -> list[LockKey]:
        """Vertex-level lock keys this transaction will touch (known upfront)."""
        keys: set[LockKey] = set()
        for edge in self._edges:
            for endpoint in (edge.src, edge.dst):
                if isinstance(endpoint, VertexRef):
                    keys.add((endpoint.label, endpoint.row))
        for write in self._property_writes:
            keys.add((write.label, write.row))
        return sorted(keys)

    def lock_write_set(self, timeout: float | None = None) -> None:
        """Acquire all write locks (2PL growing phase)."""
        self._check_open()
        self._held_locks = self.manager.locks.acquire_all(self.write_set(), timeout)

    # -- terminal ------------------------------------------------------------------

    def commit(self) -> int:
        """Apply staged mutations atomically; returns the commit version."""
        self._check_open()
        manager = self.manager
        store = manager.store
        if not self._held_locks and (self._edges or self._property_writes):
            self.lock_write_set()
        try:
            with manager._commit_guard:
                commit_version = manager.versions.next_commit()
                # Write-ahead: the commit record must be durable (or at
                # least handed to the log) before any mutation applies.
                if manager.wal is not None:
                    manager.wal.log_commit(self, commit_version)
                # Copy-on-write pre-images for every property-modified vertex.
                touched: set[tuple[str, int]] = {
                    (w.label, w.row) for w in self._property_writes
                }
                for label, row in touched:
                    snapshot = VertexSnapshot(store.table(label), row, manager.pool)
                    manager.overlay.record(snapshot, commit_version)
                # Vertex inserts (stamped so older snapshots don't see them).
                for handle, staged in enumerate(self._new_vertices):
                    ref = store.add_vertex(staged.label, staged.properties)
                    store.table(staged.label).mark_created(ref.row, commit_version)
                    self._new_vertex_refs[handle] = ref
                # Property writes (in place; readers use the overlay).
                for write in self._property_writes:
                    store.table(write.label).set_property(write.row, write.name, write.value)
                # Edge inserts/deletes with version stamps.
                for edge in self._edges:
                    src = self._resolve_endpoint(edge.src)
                    dst = self._resolve_endpoint(edge.dst)
                    if edge.delete:
                        store.remove_edge(edge.edge_label, src, dst, version=commit_version)
                    else:
                        store.add_edge(
                            edge.edge_label, src, dst, edge.props, version=commit_version
                        )
                if faults.ACTIVE is not None:
                    faults.ACTIVE.fire("commit.applied")
            return commit_version
        finally:
            self.manager.locks.release_all(self._held_locks)
            self._held_locks = []
            self._done = True

    @property
    def done(self) -> bool:
        """Whether this transaction already committed or aborted."""
        return self._done

    def abort(self) -> None:
        """Discard staged mutations (nothing was applied yet)."""
        self.manager.locks.release_all(self._held_locks)
        self._held_locks = []
        self._done = True

    def _resolve_endpoint(self, endpoint: VertexRef | int) -> VertexRef:
        if isinstance(endpoint, VertexRef):
            return endpoint
        ref = self._new_vertex_refs[endpoint]
        if ref is None:
            raise TransactionAborted("edge references an unapplied staged vertex")
        return ref

    def _check_open(self) -> None:
        if self._done:
            raise TransactionError("transaction already finished")
