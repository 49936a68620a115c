"""Shared-memory lifecycle, leak audits, and worker-crash recovery.

Segments are named ``ges-snap-*`` so ``/dev/shm`` can be audited by
prefix: after unpin/retire, after a ``kill -9`` mid-task, and after pool
shutdown, no orphaned names may remain.  Crash tests carry the
``parallel`` marker (they hold tasks open on purpose).
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.engine.config import EngineConfig
from repro.engine.service import GraphEngineService
from repro.errors import CypherSyntaxError, QueryTimeout, WorkerCrash
from repro.parallel import SEGMENT_PREFIX, WorkerPool, system_segment_names
from repro.parallel.pool import SnapshotTask, raise_worker_reply
from repro.parallel.shm import (
    attach_snapshot,
    created_segment_names,
    detach_snapshot,
    export_view,
)
from repro.testkit.graphgen import generate_store

from .conftest import wait_dead, wait_until


def _pooled(store, **knobs):
    return GraphEngineService(
        store, EngineConfig.ges(workers=2, scatter_min_rows=1, **knobs)
    )


# ---------------------------------------------------------------------------
# Export / attach round-trip


class TestExportAttach:
    def test_attach_reproduces_store_content(self, micro_store):
        view = micro_store.read_view(None)
        manifest, segment = export_view(view)
        try:
            clone, seg2 = attach_snapshot(manifest)
            try:
                assert clone.vertex_count == micro_store.vertex_count
                for label in micro_store.schema.vertex_labels:
                    ours = micro_store.table(label)
                    theirs = clone.table(label)
                    assert len(theirs) == len(ours)
                    for name in ours.column_names:
                        a = ours.column(name).view()
                        b = theirs.column(name).view()
                        if a.dtype == object:
                            assert list(a) == list(b)
                        else:
                            np.testing.assert_array_equal(a, b)
            finally:
                detach_snapshot(clone, seg2)
        finally:
            from repro.parallel.shm import _unlink_segment

            _unlink_segment(segment)
        assert manifest["segment"] not in system_segment_names()

    def test_pinned_export_patches_pre_images(self, micro_store):
        """A view pinned before later property commits exports the values
        it reads itself — NULL pre-images, strings and booleans included."""
        from repro.parallel.shm import _unlink_segment
        from repro.txn import TransactionManager

        manager = TransactionManager(micro_store)

        def commit(*writes):
            txn = manager.begin()
            for row, name, value in writes:
                txn.set_vertex_property("Person", row, name, value)
            txn.commit()

        commit((4, "age", None))
        pinned = manager.versions.current()
        commit((1, "firstName", "Z"), (1, "age", None), (1, "active", True), (4, "age", 7))
        view = micro_store.read_view(pinned, manager.overlay)
        rows = np.arange(len(micro_store.table("Person")))
        manifest, segment = export_view(view)
        try:
            clone, seg2 = attach_snapshot(manifest)
            try:
                for name in micro_store.table("Person").column_names:
                    want, want_valid = view.gather_properties_with_validity("Person", name, rows)
                    got, got_valid = clone.read_view().gather_properties_with_validity(
                        "Person", name, rows
                    )
                    valid = np.ones(len(rows), bool) if want_valid is None else want_valid
                    assert (got_valid is None and want_valid is None) or list(got_valid) == list(valid)
                    assert list(got[valid]) == list(want[valid]), name
                assert micro_store.read_view().get_property("Person", 1, "firstName") == "Z"
                assert clone.table("Person").get_property(1, "firstName") == "B"
                assert clone.table("Person").get_property(4, "age") is None
            finally:
                detach_snapshot(clone, seg2)
        finally:
            _unlink_segment(segment)

    def test_numeric_columns_are_zero_copy_views(self, micro_store):
        view = micro_store.read_view(None)
        manifest, segment = export_view(view)
        try:
            clone, seg2 = attach_snapshot(manifest)
            try:
                ages = clone.table("Person").column("age").view()
                assert not ages.flags.writeable
                assert ages.base is not None  # a view, not a copy
            finally:
                detach_snapshot(clone, seg2)
        finally:
            from repro.parallel.shm import _unlink_segment

            _unlink_segment(segment)


# ---------------------------------------------------------------------------
# Engine-tied lifecycle


class TestSegmentLifecycle:
    def test_engine_close_unlinks_segments(self, micro_store):
        engine = _pooled(micro_store)
        engine.execute("MATCH (p:Person) RETURN p.id")
        assert len(engine.parallel.exporter.live_segment_names()) == 1
        engine.close()
        assert engine.parallel.exporter.live_segment_names() == []
        assert not [
            n for n in created_segment_names() if n.startswith(SEGMENT_PREFIX)
        ]

    def test_export_reused_across_queries_on_unchanged_graph(self, micro_store):
        engine = _pooled(micro_store)
        try:
            for _ in range(5):
                engine.execute("MATCH (p:Person) RETURN p.id")
            assert engine.parallel.exporter.exports_total == 1
            assert engine.parallel.exporter.reuses_total == 4
        finally:
            engine.close()

    def test_mutation_retires_stale_export(self, micro_store):
        engine = _pooled(micro_store)
        try:
            engine.execute("MATCH (p:Person) RETURN p.id")
            first = engine.parallel.exporter.live_segment_names()
            txn = engine.transaction()
            txn.add_vertex("Person", {"id": 999, "firstName": "zz", "age": 1})
            txn.commit()
            engine.execute("MATCH (p:Person) RETURN p.id")
            second = engine.parallel.exporter.live_segment_names()
            assert engine.parallel.exporter.exports_total == 2
            assert first != second
            # The stale segment is gone from /dev/shm, not just untracked.
            assert first[0] not in system_segment_names()
        finally:
            engine.close()

    def test_new_vertex_visible_after_reexport(self, micro_store):
        engine = _pooled(micro_store)
        try:
            before = len(engine.execute("MATCH (p:Person) RETURN p.id").rows)
            txn = engine.transaction()
            txn.add_vertex("Person", {"id": 1000, "firstName": "new", "age": 30})
            txn.commit()
            after = engine.execute("MATCH (p:Person) RETURN p.id")
            assert len(after.rows) == before + 1
            assert (1000,) in after.rows
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Crash recovery and error propagation (slow: holds tasks open)


@pytest.mark.parallel
class TestCrashRecovery:
    def test_kill9_mid_task_raises_workercrash_and_pool_recovers(self):
        pool = WorkerPool(1)
        try:
            (pid,) = pool.worker_pids()
            failures: list[BaseException] = []

            def run_blocked():
                try:
                    pool.run(
                        SnapshotTask({"op": "block", "seconds": 30.0}),
                        timeout_s=30.0,
                    )
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)

            thread = threading.Thread(target=run_blocked)
            thread.start()
            # The counter moves after the send: the task is in the pipe, so
            # the kill lands mid-task whether or not the worker read it yet.
            wait_until(lambda: pool.tasks_total > 0, "the task to be dispatched")
            os.kill(pid, signal.SIGKILL)
            thread.join(timeout=15.0)
            assert not thread.is_alive()
            assert len(failures) == 1
            assert isinstance(failures[0], WorkerCrash)
            assert pool.respawns == 1
            # The replacement worker answers — the pool healed itself.
            assert pool.ping(timeout_s=15.0) == 1
            assert pool.worker_pids() != [pid]
        finally:
            pool.shutdown()

    def test_killing_idle_worker_costs_a_respawn_not_the_batch(self):
        pool = WorkerPool(2)
        try:
            pids = pool.worker_pids()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            wait_dead(pids)
            assert pool.ping(timeout_s=15.0) == 2
            assert pool.respawns >= 2
        finally:
            pool.shutdown()

    def test_no_orphaned_segments_after_worker_crash(self):
        store, _ = generate_store(3)
        engine = _pooled(store)
        try:
            label = next(iter(store.schema.vertex_labels))
            engine.execute(f"MATCH (v:{label}) RETURN 1")
            pids = engine.parallel.pool.worker_pids()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            wait_dead(pids)
            # Dead workers' mappings are gone; the engine still answers.
            result = engine.execute(f"MATCH (v:{label}) RETURN 1")
            assert result.rows
        finally:
            engine.close()
        assert not [
            n for n in created_segment_names() if n.startswith(SEGMENT_PREFIX)
        ]

    def test_pipe_timeout_raises_querytimeout_and_recycles(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(QueryTimeout):
                pool.run(
                    SnapshotTask({"op": "block", "seconds": 30.0}),
                    timeout_s=0.2,
                )
            assert pool.respawns == 1
            assert pool.ping(timeout_s=15.0) == 1
        finally:
            pool.shutdown()

    def test_worker_errors_come_back_typed(self, micro_store):
        view = micro_store.read_view(None)
        manifest, segment = export_view(view)
        pool = WorkerPool(1)
        try:
            reply = pool.run(
                SnapshotTask(
                    {
                        "op": "exec",
                        "mode": "whole",
                        "cypher": "THIS IS NOT CYPHER ???",
                        "snapshot_id": manifest["snapshot_id"],
                        "version": None,
                    },
                    snapshot_id=manifest["snapshot_id"],
                    manifest=manifest,
                ),
                timeout_s=30.0,
            )
            assert reply["ok"] is False
            assert reply["etype"] == "CypherSyntaxError"
            with pytest.raises(CypherSyntaxError):
                raise_worker_reply(reply)
        finally:
            pool.shutdown()
            from repro.parallel.shm import _unlink_segment

            _unlink_segment(segment)


# ---------------------------------------------------------------------------
# Whole-suite safety net


def test_no_leaked_segments_in_dev_shm():
    """Nothing this process created may still be registered (atexit would
    reclaim them, but nothing in the suite should rely on that)."""
    assert not [
        n for n in created_segment_names() if n.startswith(SEGMENT_PREFIX)
    ]
