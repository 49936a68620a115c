"""The durability subsystem end-to-end: WAL, checkpoints, recovery, fsck.

Complements :mod:`tests.test_durability_wal` (adversarial byte-level WAL
damage) with the engine-facing lifecycle — ``GES.open`` over fresh and
existing directories, commit logging, checkpoint/prune, the kill -9 crash
harness, and the ``repro fsck`` CLI verb.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import GES, EngineConfig
from repro.durability import DurabilityManager, fsck, init_db, recover
from repro.durability.checkpoint import list_checkpoints, wal_dir
from repro.durability.wal import iter_segments, scan_segment
from repro.errors import StorageError
from repro.obs.metrics import REGISTRY
from repro.testkit import CrashConfig, run_crash, store_digest

from .conftest import build_micro_store


def _config(**overrides) -> EngineConfig:
    defaults = dict(metrics=False, flight_recorder=0, durability="fsync")
    defaults.update(overrides)
    return EngineConfig.ges(**defaults)


_NEXT_ID = iter(range(1000, 100000))


def _commit_person(engine, name: str) -> int:
    txn = engine.transaction()
    txn.add_vertex(
        "Person", {"id": next(_NEXT_ID), "firstName": name, "age": 1}
    )
    return txn.commit()


@pytest.fixture
def db(tmp_path) -> Path:
    return tmp_path / "db"


class TestLifecycle:
    def test_open_fresh_requires_schema(self, db):
        with pytest.raises(StorageError, match="schema"):
            GES.open(db, config=_config())

    def test_open_creates_marker_checkpoint_and_segment(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        try:
            assert (db / "GESDB.json").exists()
            assert [i.epoch for i in list_checkpoints(db)] == [0]
            assert [s.name for s in iter_segments(wal_dir(db))] == [
                "wal-000000000000.log"
            ]
            assert engine.describe()["durability"]["mode"] == "fsync"
        finally:
            engine.close()

    def test_commit_survives_reopen(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        v1 = _commit_person(engine, "walter")
        v2 = _commit_person(engine, "jesse")
        engine.close()

        reopened = GES.open(db, config=_config())
        try:
            assert reopened.txn_manager.versions.current() == v2
            assert reopened.recovery.replayed == 2
            table = reopened.store.table("Person")
            names = {table.column("firstName").view()[i] for i in range(len(table))}
            assert {"walter", "jesse"} <= names
            # The write path keeps working, from the next version.
            assert _commit_person(reopened, "gus") == v2 + 1
            del v1
        finally:
            reopened.close()

    def test_checkpoint_bounds_replay(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        for name in ("a", "b", "c"):
            _commit_person(engine, name)
        info = engine.checkpoint()
        assert info.epoch == 3
        _commit_person(engine, "d")
        engine.close()

        reopened = GES.open(db, config=_config())
        try:
            assert reopened.recovery.checkpoint.epoch == 3
            assert reopened.recovery.replayed == 1  # only "d"
            assert reopened.txn_manager.versions.current() == 4
        finally:
            reopened.close()

    def test_checkpoint_retention_prunes(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        try:
            for round_ in range(4):
                _commit_person(engine, f"p{round_}")
                engine.checkpoint()
            epochs = [i.epoch for i in list_checkpoints(db)]
            assert len(epochs) == 2 and epochs == sorted(epochs)
            floor = epochs[0]
            for segment in iter_segments(wal_dir(db)):
                assert scan_segment(segment).epoch >= floor
        finally:
            engine.close()

    def test_checkpoint_at_same_version_is_noop(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        try:
            _commit_person(engine, "solo")
            first = engine.checkpoint()
            again = engine.checkpoint()
            assert first.epoch == again.epoch == 1
            assert len(list_checkpoints(db)) <= 2
        finally:
            engine.close()

    def test_batch_mode_flushes_on_close(self, db):
        engine = GES.open(
            db,
            config=_config(durability="batch", wal_batch_every=64),
            schema=build_micro_store(),
        )
        for name in ("x", "y", "z"):
            _commit_person(engine, name)
        engine.close()  # close syncs: everything acked-at-close is durable
        reopened = GES.open(db, config=_config(durability="batch"))
        try:
            assert reopened.txn_manager.versions.current() == 3
        finally:
            reopened.close()

    def test_unknown_mode_is_typed(self, db):
        with pytest.raises(StorageError, match="durability mode"):
            GES.open(
                db, config=_config(durability="yolo"), schema=build_micro_store()
            )

    def test_non_durable_engine_refuses_checkpoint(self):
        engine = GES(build_micro_store(), EngineConfig.ges(metrics=False))
        with pytest.raises(StorageError, match="durability"):
            engine.checkpoint()

    def test_init_db_refuses_existing(self, db):
        init_db(db, build_micro_store())
        with pytest.raises(StorageError, match="already"):
            init_db(db, build_micro_store())

    def test_recovery_equals_live_state(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        for name in ("a", "b"):
            _commit_person(engine, name)
        engine.checkpoint()
        _commit_person(engine, "c")
        live = store_digest(engine.store)
        engine.close()
        result = recover(db)
        assert store_digest(result.store) == live

    def test_wal_metrics_move(self, db):
        counter = REGISTRY.counter(
            "ges_wal_appends_total", "Commit records appended to the WAL."
        )
        before = counter.value
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        try:
            _commit_person(engine, "metered")
        finally:
            engine.close()
        assert counter.value == before + 1


class TestRecoveryEdges:
    def test_recover_non_database_is_typed(self, tmp_path):
        with pytest.raises(StorageError, match="not a GES database"):
            recover(tmp_path)

    def test_invalid_newest_checkpoint_falls_back(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        _commit_person(engine, "early")
        engine.checkpoint()
        engine.close()
        newest = list_checkpoints(db)[-1]
        victim = next(newest.path.glob("vertices_*.npz"))
        victim.write_bytes(b"rotten")
        result = recover(db)
        assert result.checkpoint.epoch == 0
        assert newest.path.name in result.invalid_checkpoints
        assert result.version == 1  # "early" came back via WAL replay

    def test_all_checkpoints_invalid_is_fatal(self, db):
        init_db(db, build_micro_store())
        for info in list_checkpoints(db):
            (info.path / "MANIFEST.json").unlink()
        with pytest.raises(StorageError, match="no valid checkpoint"):
            recover(db)

    def test_stray_temp_dir_is_swept(self, db):
        init_db(db, build_micro_store())
        stray = db / "checkpoints" / ".ckpt-000000000009.tmp-1"
        stray.mkdir()
        (stray / "junk").write_text("x")
        result = recover(db)
        assert result.swept == [stray.name]
        assert not stray.exists()

    def test_attach_recreates_missing_segment(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        _commit_person(engine, "one")
        engine.checkpoint()
        engine.close()
        # Simulate a kill between checkpoint rename and segment switch by
        # deleting the new segment: attach must cut a fresh one.
        for segment in list(iter_segments(wal_dir(db))):
            segment.unlink()
        result = recover(db)
        manager = DurabilityManager.attach(db, result)
        try:
            assert manager.writer.epoch == result.checkpoint.epoch
        finally:
            manager.close()


class TestFsck:
    def test_clean_database(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        _commit_person(engine, "ok")
        engine.close()
        report = fsck(db)
        assert report.ok
        assert [c["status"] for c in report.checkpoints] == ["ok"]
        assert report.segments[-1]["records"] == 1
        assert report.to_dict()["ok"] is True

    def test_not_a_database(self, tmp_path):
        report = fsck(tmp_path)
        assert not report.ok

    def test_flags_stray_temp_dir_and_orphan(self, db):
        init_db(db, build_micro_store())
        (db / "checkpoints" / ".ckpt-000000000005.tmp-7").mkdir()
        (wal_dir(db) / "wal-000000000007.log.orphan").write_bytes(b"")
        problems = "\n".join(fsck(db).problems)
        assert "stray checkpoint temp dir" in problems
        assert "orphaned segment" in problems

    def test_flags_invalid_checkpoint(self, db):
        init_db(db, build_micro_store())
        info = list_checkpoints(db)[0]
        (info.path / "MANIFEST.json").unlink()
        report = fsck(db)
        assert not report.ok
        assert "no valid checkpoint" in "\n".join(report.problems)


class TestCli:
    def _run(self, *argv: str):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_fsck_clean_exit_zero(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        _commit_person(engine, "cli")
        engine.close()
        proc = self._run("fsck", str(db))
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_fsck_json_reports_tear(self, db):
        engine = GES.open(db, config=_config(), schema=build_micro_store())
        _commit_person(engine, "cli")
        engine.close()
        segment = list(iter_segments(wal_dir(db)))[-1]
        segment.write_bytes(segment.read_bytes() + b"\x2a\x00\x00\x00garbage")
        proc = self._run("fsck", str(db), "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["ok"] is False
        assert any("torn at byte" in p for p in report["problems"])


@pytest.mark.slow
class TestCrashHarness:
    """One kill -9 run per protocol family; ``repro chaos --crash-runs``
    sweeps the full site matrix across seeds."""

    @pytest.mark.parametrize(
        "site", ["commit.wal_fsync", "checkpoint.tmp_written"]
    )
    def test_kill_and_recover(self, site):
        report = run_crash(
            CrashConfig(seed=11, batches=8, checkpoint_every=3, kill_point=site)
        )
        assert report.killed, report.summary()
        assert report.passed, report.summary()

    def test_batch_mode_bounded_loss(self):
        report = run_crash(
            CrashConfig(
                seed=12,
                batches=8,
                checkpoint_every=3,
                kill_point="commit.applied",
                durability="batch",
            )
        )
        assert report.killed, report.summary()
        assert report.passed, report.summary()


class TestAtomicSnapshots:
    """Satellite: ``save_graph`` is atomic and manifest-verified."""

    def test_save_leaves_no_temp_on_fault(self, tmp_path):
        from repro.errors import TransientError
        from repro.resilience.faults import FaultPlan, FaultRule, fault_scope
        from repro.storage.io import save_graph

        store = build_micro_store()
        plan = FaultPlan(rules=(FaultRule(site="snapshot.save", every_nth=1),))
        with fault_scope(plan):
            with pytest.raises(TransientError):
                save_graph(store, tmp_path / "snap")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        from repro.storage.io import load_graph, read_manifest, save_graph

        store = build_micro_store()
        target = tmp_path / "snap"
        save_graph(store, target)
        first = read_manifest(target)
        save_graph(store, target)  # overwrite an existing snapshot in place
        assert read_manifest(target)["files"].keys() == first["files"].keys()
        assert not [
            m for m in tmp_path.iterdir() if m.name.startswith(".")
        ], "no temp/aside dirs survive"
        load_graph(target)

    def test_legacy_snapshot_without_manifest_loads(self, tmp_path):
        from repro.storage.io import MANIFEST_NAME, load_graph, save_graph

        store = build_micro_store()
        target = tmp_path / "snap"
        save_graph(store, target)
        # Rewrite as a v2-era snapshot: no manifest, format stamp 2.
        (target / MANIFEST_NAME).unlink()
        schema_file = target / "schema.json"
        raw = json.loads(schema_file.read_text())
        raw["format"] = 2
        schema_file.write_text(json.dumps(raw))
        loaded = load_graph(target)
        assert store_digest(loaded) == store_digest(store)

    def test_v3_without_manifest_is_torn(self, tmp_path):
        from repro.storage.io import MANIFEST_NAME, load_graph, save_graph

        store = build_micro_store()
        target = tmp_path / "snap"
        save_graph(store, target)
        (target / MANIFEST_NAME).unlink()
        with pytest.raises(StorageError, match="torn snapshot"):
            load_graph(target)

    def test_mixed_snapshot_rejected(self, tmp_path):
        from repro.storage.io import load_graph, save_graph

        store = build_micro_store()
        target = tmp_path / "snap"
        save_graph(store, target)
        other = tmp_path / "other"
        save_graph(store, other)
        shutil.copy(other / "vertices_Tag.npz", target / "vertices_Extra.npz")
        with pytest.raises(StorageError, match="mixed snapshot"):
            load_graph(target)
