"""Persistent worker-process pool and its task protocol.

Workers are spawned once (fork-preferred: a warm worker costs ~10 ms, not
the ~500 ms of a spawn-method interpreter boot) and stay resident.  Each
worker attaches exported snapshots lazily and caches the reconstructed
store keyed by snapshot id, so steady-state tasks carry only a snapshot
*id* — the full manifest travels only on a worker's first touch of a
snapshot (or after cache eviction, negotiated via a ``need_manifest``
round-trip).

Two task modes:

* ``whole`` — the worker compiles (or deserializes) and runs a complete
  query through the registry-resolved optimizer + executor, with its own
  small plan cache; the reply carries final columns/rows.
* ``partial`` — the worker deserializes one partition plan (see
  :mod:`.partition`), runs it through ``execute_flat_block``, and ships
  the resulting flat block's raw arrays back for the coordinator to merge.

Failure semantics: library errors raised inside a worker travel back as
``(type-name, message)`` and are re-raised coordinator-side as the same
typed exception.  A dead pipe means the worker was killed mid-task —
every active worker is recycled (kill + respawn) and
:class:`~repro.errors.WorkerCrash` is raised.  A pool-level timeout
composes with the engine's resilience deadlines: the coordinator passes
the ambient deadline budget down, the worker installs it as its own
cooperative deadline, and the parent enforces budget + grace on the pipe
as a backstop before declaring :class:`~repro.errors.QueryTimeout`.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import queue
import threading
from collections import OrderedDict, deque
from multiprocessing import connection as mp_connection
from time import sleep
from typing import Any, Sequence

from .. import errors as errors_mod
from ..errors import GesError, QueryTimeout, WorkerCrash, WorkerError
from ..exec.base import ExecStats
from ..obs.clock import now
from ..obs.events import EVENTS
from ..obs.metrics import (
    REGISTRY,
    apply_counter_deltas,
    counter_snapshot,
    drain_counter_deltas,
)
from ..obs.tracing import span_from_wire, span_to_wire
from ..core.flatblock import FlatBlock
from ..types import DataType

#: Extra seconds the parent waits on the pipe beyond the task's own
#: deadline budget before declaring the worker wedged.
_DEADLINE_GRACE_S = 2.0

#: Default pipe-level timeout when no deadline is in force.
DEFAULT_TASK_TIMEOUT_S = 120.0

#: Snapshots cached per worker; older attachments are detached.
_WORKER_SNAPSHOT_CACHE = 2

#: Physical plans cached per worker (whole-query mode).
_WORKER_PLAN_CACHE = 128


# ---------------------------------------------------------------------------
# Wire helpers


def block_to_payload(block: FlatBlock) -> dict:
    """A flat block as picklable raw arrays (worker -> coordinator)."""
    return {
        "length": len(block),
        "columns": [
            (name, block.dtype(name).value, block.array(name), block.validity(name))
            for name in block.schema
        ],
    }


def block_from_payload(payload: dict) -> FlatBlock:
    """Rebuild a flat block from its wire payload (coordinator side)."""
    block = FlatBlock()
    for name, dtype_value, values, validity in payload["columns"]:
        block.add_array(name, DataType(dtype_value), values, validity)
    return block


def stats_to_payload(stats: ExecStats) -> dict:
    """The mergeable subset of a worker's ExecStats."""
    return {
        "op_times": dict(stats.op_times),
        "op_sequence": list(stats.op_sequence),
        "peak_intermediate_bytes": stats.peak_intermediate_bytes,
        "defactor_count": stats.defactor_count,
        "degrade_count": stats.degrade_count,
        "flat_tuples": stats.flat_tuples,
        "ftree_slots": stats.ftree_slots,
    }


def merge_stats_payload(stats: ExecStats, payload: dict | None) -> None:
    """Fold a worker's shipped stats into the coordinator's ExecStats."""
    if not payload:
        return
    for name, seconds in payload["op_times"].items():
        stats.op_times[name] = stats.op_times.get(name, 0.0) + seconds
    stats.op_sequence.extend(tuple(entry) for entry in payload["op_sequence"])
    stats.note_bytes(payload["peak_intermediate_bytes"])
    stats.defactor_count += payload["defactor_count"]
    stats.degrade_count += payload["degrade_count"]
    stats.flat_tuples += payload["flat_tuples"]
    stats.ftree_slots += payload["ftree_slots"]


def merge_obs_payload(
    stats: ExecStats,
    obs: dict | None,
    anchor: float,
    partition: int | None = None,
    **attrs: Any,
) -> None:
    """Fold one worker reply's observability payload into the coordinator.

    * Shipped spans are re-anchored at *anchor* (the coordinator's dispatch
      time) and grafted under the currently open span, stamped with the
      worker pid, snapshot attach outcome, and (for scatter) the partition
      index — this is what turns the old "pooled" stub into a real
      cross-process tree.
    * Counter deltas fold into the global registry exactly once per reply.
    * Worker events are absorbed into the coordinator's event log, tagged
      with the worker pid so the merged stream stays attributable.
    * Per-partition worker timings land in ``stats.partition_times``.
    """
    if not obs:
        return
    pid = obs.get("pid")
    if partition is not None:
        stats.partition_times.append(
            (partition, float(obs.get("task_seconds", 0.0)), int(obs.get("rows", 0)))
        )
    wire = obs.get("spans")
    if wire is not None and stats.trace is not None:
        span = span_from_wire(wire, anchor)
        span.attrs["worker_pid"] = pid
        if obs.get("snapshot"):
            span.attrs["snapshot"] = obs["snapshot"]
        if partition is not None:
            span.attrs["partition"] = partition
        span.attrs.update(attrs)
        stats.trace.current.children.append(span)
    apply_counter_deltas(obs.get("metrics"))
    events = obs.get("events")
    if events:
        EVENTS.absorb(events, worker_pid=pid)


def raise_worker_reply(reply: dict) -> None:
    """Re-raise a worker error reply as its original typed exception."""
    etype = reply.get("etype", "WorkerError")
    message = reply.get("message", "worker failed")
    cls = getattr(errors_mod, etype, None)
    if isinstance(cls, type) and issubclass(cls, GesError):
        raise cls(message)
    raise WorkerError(f"worker raised {etype}: {message}")


# ---------------------------------------------------------------------------
# Worker side


def _worker_main(conn: Any) -> None:
    """Worker-process loop: attach snapshots, run tasks, reply."""
    # Inherited chaos-testing fault injectors belong to the parent's story.
    from ..resilience import faults

    faults.ACTIVE = None
    # The forked event log carries the parent's history; this worker's
    # story starts now.  Drained events ship back with each task reply.
    EVENTS.clear()

    snapshots: OrderedDict[str, tuple[Any, Any]] = OrderedDict()  # id -> (store, segment)
    plans: OrderedDict[tuple, Any] = OrderedDict()
    registry = None
    # Counter-shipping baseline for this worker's lifetime: each task
    # drains increments against it in a single registry walk.
    metrics_baseline = counter_snapshot()
    task_counters: dict[str, Any] = {}  # mode -> bound counter instrument

    def get_store(task: dict) -> tuple[Any, str]:
        """(store, "cached"|"attached") for the task's snapshot."""
        from .shm import attach_snapshot, detach_snapshot

        snapshot_id = task["snapshot_id"]
        cached = snapshots.get(snapshot_id)
        if cached is not None:
            snapshots.move_to_end(snapshot_id)
            return cached[0], "cached"
        manifest = task.get("manifest")
        if manifest is None:
            return None, ""  # coordinator must resend with the manifest
        store, segment = attach_snapshot(manifest)
        EVENTS.emit(
            "snapshot_attach", snapshot=snapshot_id, pid=os.getpid()
        )
        snapshots[snapshot_id] = (store, segment)
        while len(snapshots) > _WORKER_SNAPSHOT_CACHE:
            old_id, (old_store, old_segment) = snapshots.popitem(last=False)
            detach_snapshot(old_store, old_segment)
            EVENTS.emit("snapshot_detach", snapshot=old_id, pid=os.getpid())
        return store, "attached"

    def run_task(task: dict) -> dict:
        nonlocal registry
        from ..resilience.watchdog import Deadline, pop_deadline, push_deadline
        from ..testkit.plans import deserialize_plan

        store, attach_kind = get_store(task)
        if store is None:
            return {"ok": False, "need_manifest": True}
        view = store.read_view(task.get("version"))
        stats = ExecStats()
        # Observability capture is opt-in per task: the coordinator sets
        # "obs" when its engine records metrics and "trace" when the query
        # is traced, so the disabled path pays nothing beyond these gets.
        ship_obs = bool(task.get("obs"))
        traced = bool(task.get("trace"))
        task_started = now()
        if traced:
            stats.begin_trace("worker")
        timeout_s = task.get("timeout_s")
        prev, _ = push_deadline(
            Deadline.after(timeout_s, label="pooled task")
            if timeout_s is not None
            else None
        )
        try:
            if registry is None:
                from ..engine.registry import default_registry

                registry = default_registry()
            if ship_obs:
                counter = task_counters.get(task["mode"])
                if counter is None:
                    counter = REGISTRY.counter(
                        "ges_worker_tasks_total",
                        "Tasks executed inside worker processes, by mode.",
                        mode=task["mode"],
                    )
                    task_counters[task["mode"]] = counter
                counter.inc()
            if task["mode"] == "partial":
                from ..exec.pipeline import execute_flat_block

                plan = deserialize_plan(task["plan"])
                block, ctx = execute_flat_block(
                    plan, view, params=task.get("params"), stats=stats
                )
                reply = {
                    "ok": True,
                    "block": block_to_payload(block),
                    "stats": stats_to_payload(ctx.stats),
                }
                rows_out = len(block)
            else:
                # whole-query mode
                optimizer = registry.resolve(
                    "execution", "optimizer", task.get("optimizer", "none")
                )
                executor = registry.resolve(
                    "execution", "executor", task.get("executor", "flat")
                )
                cypher = task.get("cypher")
                plan_cache_outcome = None
                if cypher is not None:
                    key = (cypher, task.get("optimizer", "none"))
                    physical = plans.get(key)
                    if physical is None:
                        plan_cache_outcome = "miss"
                        parse = registry.resolve("frontend", "parser", "cypher")
                        physical = optimizer(parse(cypher, store.schema))
                        plans[key] = physical
                        while len(plans) > _WORKER_PLAN_CACHE:
                            plans.popitem(last=False)
                    else:
                        plan_cache_outcome = "hit"
                        plans.move_to_end(key)
                else:
                    physical = optimizer(deserialize_plan(task["plan"]))
                result = executor(physical, view, task.get("params"), stats)
                reply = {
                    "ok": True,
                    "columns": list(result.columns),
                    "rows": [tuple(row) for row in result.rows],
                    "stats": stats_to_payload(result.stats),
                }
                rows_out = len(result.rows)
                if plan_cache_outcome is not None and ship_obs:
                    reply["plan_cache"] = plan_cache_outcome
            if ship_obs or traced:
                obs: dict[str, Any] = {
                    "pid": os.getpid(),
                    "task_seconds": now() - task_started,
                    "rows": rows_out,
                    "snapshot": attach_kind,
                }
                if traced and stats.trace is not None:
                    obs["spans"] = span_to_wire(
                        stats.trace.finish(), base=task_started
                    )
                if ship_obs:
                    obs["metrics"] = drain_counter_deltas(metrics_baseline)
                    obs["events"] = EVENTS.drain()
                reply["obs"] = obs
            return reply
        finally:
            pop_deadline(prev)

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        op = task.get("op")
        if op == "stop":
            break
        if op == "ping":
            conn.send({"ok": True, "pong": True, "pid": mp.current_process().pid})
            continue
        if op == "block":
            # Test hook: hold the task for a while (kill -9 target window).
            sleep(float(task.get("seconds", 30.0)))
            conn.send({"ok": True})
            continue
        try:
            reply = run_task(task)
        except BaseException as exc:  # every failure becomes a typed reply
            reply = {
                "ok": False,
                "etype": type(exc).__name__,
                "emodule": type(exc).__module__,
                "message": str(exc),
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    # Detach cached snapshots before exiting so SharedMemory.__del__ has
    # nothing left to complain about (views pin the mappings until GC).
    from .shm import detach_snapshot

    for store, segment in snapshots.values():
        detach_snapshot(store, segment)
    snapshots.clear()
    conn.close()


# ---------------------------------------------------------------------------
# Coordinator side


class SnapshotTask:
    """One task plus the snapshot it runs against.

    The pool decides per worker whether the manifest has to ride along
    (first touch / post-eviction) or the snapshot id alone suffices.
    """

    __slots__ = ("payload", "snapshot_id", "manifest")

    def __init__(
        self, payload: dict, snapshot_id: str | None = None, manifest: dict | None = None
    ) -> None:
        self.payload = payload
        self.snapshot_id = snapshot_id
        self.manifest = manifest


class _Worker:
    __slots__ = ("proc", "conn", "wid", "known_snapshots", "tasks")

    def __init__(self, proc: Any, conn: Any, wid: int) -> None:
        self.proc = proc
        self.conn = conn
        self.wid = wid
        self.known_snapshots: set[str] = set()
        self.tasks = 0  # tasks dispatched to this worker incarnation


_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes(pid: int | None) -> int:
    """Resident set size of *pid* via /proc (0 where /proc is absent)."""
    if pid is None:
        return 0
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return 0


#: The pool whose per-worker gauges are live, keyed by worker count.  The
#: metrics registry keeps one callback gauge per (name, labels) forever,
#: so callbacks route through this indirection — when a pool is replaced
#: (shared-pool recreation after shutdown), the gauges follow the newest
#: pool instead of holding a dead one alive.
_METRIC_POOLS: dict[int, "WorkerPool"] = {}


def _pool_worker(workers: int, wid: int) -> "_Worker | None":
    pool = _METRIC_POOLS.get(workers)
    if pool is None or pool.closed or wid >= len(pool._all):
        return None
    return pool._all[wid]


class WorkerPool:
    """A fixed-size pool of persistent worker processes."""

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        default_timeout_s: float = DEFAULT_TASK_TIMEOUT_S,
    ) -> None:
        if workers < 1:
            raise WorkerError("worker pool needs at least one worker")
        methods = mp.get_all_start_methods()
        method = start_method or ("fork" if "fork" in methods else "spawn")
        self._ctx = mp.get_context(method)
        self.num_workers = workers
        self.start_method = method
        self.default_timeout_s = default_timeout_s
        self._idle: queue.Queue[_Worker] = queue.Queue()
        self._all: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        self.respawns = 0
        self.tasks_total = 0
        self.crashes = 0
        self.timeouts = 0
        # Pool-health telemetry: counters bound once, per-worker RSS and
        # task-count callback gauges routed through _METRIC_POOLS so they
        # track the live pool incarnation for this worker count.
        pool_label = str(workers)
        self._m_tasks = REGISTRY.counter(
            "ges_pool_tasks_total", "Tasks dispatched to pool workers.",
            pool=pool_label,
        )
        self._m_respawns = REGISTRY.counter(
            "ges_pool_respawns_total", "Workers killed and respawned.",
            pool=pool_label,
        )
        self._m_crashes = REGISTRY.counter(
            "ges_pool_crashes_total", "Workers that died mid-task.",
            pool=pool_label,
        )
        self._m_timeouts = REGISTRY.counter(
            "ges_pool_timeouts_total", "Pooled tasks that hit the pipe deadline.",
            pool=pool_label,
        )
        _METRIC_POOLS[workers] = self
        for wid in range(workers):
            REGISTRY.gauge(
                "ges_worker_rss_bytes",
                "Resident set size of one pool worker.",
                fn=lambda n=workers, w=wid: float(
                    _rss_bytes(getattr(getattr(_pool_worker(n, w), "proc", None), "pid", None))
                ),
                pool=pool_label,
                wid=str(wid),
            )
            REGISTRY.gauge(
                "ges_worker_tasks",
                "Tasks dispatched to one pool worker's current incarnation.",
                fn=lambda n=workers, w=wid: float(
                    getattr(_pool_worker(n, w), "tasks", 0)
                ),
                pool=pool_label,
                wid=str(wid),
            )
        for wid in range(workers):
            worker = self._spawn(wid)
            self._all.append(worker)
            self._idle.put(worker)

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [w.proc.pid for w in self._all if w.proc.pid is not None]

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, wid: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"ges-worker-{wid}",
        )
        proc.start()
        child_conn.close()
        EVENTS.emit("worker_spawn", wid=wid, pid=proc.pid)
        return _Worker(proc, parent_conn, wid)

    def _recycle(self, worker: _Worker) -> None:
        """Kill a misbehaving worker and put a fresh one in its place."""
        old_pid = worker.proc.pid
        try:
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
        with self._lock:
            if self._closed:
                return
            fresh = self._spawn(worker.wid)
            for i, existing in enumerate(self._all):
                if existing is worker:
                    self._all[i] = fresh
                    break
            self.respawns += 1
            self._m_respawns.inc()
        EVENTS.emit(
            "worker_respawn", wid=worker.wid, old_pid=old_pid, new_pid=fresh.proc.pid
        )
        self._idle.put(fresh)

    def _note_crash(self, worker: _Worker) -> None:
        """Account one worker death mid-task (counter + event)."""
        self.crashes += 1
        self._m_crashes.inc()
        EVENTS.emit("worker_crash", wid=worker.wid, pid=worker.proc.pid)

    def _timeout(self, budget: float) -> QueryTimeout:
        """Account one pipe-deadline expiry and build the exception."""
        self.timeouts += 1
        self._m_timeouts.inc()
        EVENTS.emit("pool_task_timeout", budget_s=round(budget, 3))
        return QueryTimeout(
            f"pooled task exceeded its deadline (budget {budget:.3f}s)"
        )

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._all)
            self._all.clear()
        if _METRIC_POOLS.get(self.num_workers) is self:
            _METRIC_POOLS.pop(self.num_workers, None)
        for worker in workers:
            try:
                worker.conn.send({"op": "stop"})
            except Exception:
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        # Drain the idle queue so no stale handles linger.
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break

    # -- task execution -------------------------------------------------------

    def _checkout(self, timeout_s: float) -> _Worker:
        if self._closed:
            raise WorkerError("worker pool is shut down")
        try:
            return self._idle.get(timeout=max(timeout_s, 0.001))
        except queue.Empty:
            raise WorkerError(
                f"no idle worker within {timeout_s:.1f}s "
                f"({self.num_workers} workers, all busy)"
            ) from None

    def _dispatch(self, worker: _Worker, task: SnapshotTask, force_manifest: bool) -> None:
        body = dict(task.payload)
        if task.snapshot_id is not None:
            if force_manifest or task.snapshot_id not in worker.known_snapshots:
                body["manifest"] = task.manifest
                worker.known_snapshots.add(task.snapshot_id)
        worker.conn.send(body)
        self.tasks_total += 1
        worker.tasks += 1
        self._m_tasks.inc()

    def run(self, task: SnapshotTask, timeout_s: float | None = None) -> dict:
        """Run one task; returns the reply dict (``ok`` or typed error)."""
        return self.run_many([task], timeout_s=timeout_s)[0]

    def run_many(
        self, tasks: Sequence[SnapshotTask], timeout_s: float | None = None
    ) -> list[dict]:
        """Run *tasks* across the pool, multiplexing replies.

        More tasks than workers queue up and are fed to workers as they
        free.  Raises :class:`QueryTimeout` when the overall budget (plus
        grace) elapses and :class:`WorkerCrash` when a worker dies
        mid-task; in both cases every still-active worker is recycled so
        the pool returns to a clean state.
        """
        if not tasks:
            return []
        budget = timeout_s if timeout_s is not None else self.default_timeout_s
        deadline_t = now() + budget + _DEADLINE_GRACE_S
        results: list[dict | None] = [None] * len(tasks)
        pending = deque(enumerate(tasks))
        active: dict[Any, tuple[_Worker, int]] = {}

        def fail_active(error: Exception) -> None:
            for worker, _ in active.values():
                self._recycle(worker)
            active.clear()
            raise error

        def checkout_and_dispatch(
            task: SnapshotTask, force_manifest: bool = False
        ) -> _Worker:
            """Find a worker that accepts *task*, recycling dead ones.

            A worker killed while idle is only discovered when the send
            fails — that must cost a respawn and a retry, not the batch.
            A failed/partial send leaves the pipe in an unknown state, so
            the failing worker is always recycled.
            """
            attempts = 0
            while True:
                remaining = deadline_t - now()
                if remaining <= 0:
                    fail_active(self._timeout(budget))
                worker = self._checkout(remaining)
                try:
                    self._dispatch(worker, task, force_manifest=force_manifest)
                    return worker
                except Exception as exc:
                    self._recycle(worker)
                    attempts += 1
                    if attempts > self.num_workers:
                        fail_active(
                            WorkerError(f"failed to dispatch task: {exc}")
                        )

        while pending and len(active) < self.num_workers:
            idx, task = pending.popleft()
            worker = checkout_and_dispatch(task)
            active[worker.conn] = (worker, idx)

        while active:
            remaining = deadline_t - now()
            if remaining <= 0:
                fail_active(self._timeout(budget))
            ready = mp_connection.wait(list(active), timeout=remaining)
            if not ready:
                fail_active(self._timeout(budget))
            for conn in ready:
                worker, idx = active.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._note_crash(worker)
                    self._recycle(worker)
                    fail_active(
                        WorkerCrash(
                            f"worker {worker.wid} died mid-task "
                            f"(pid {worker.proc.pid})"
                        )
                    )
                if reply.get("need_manifest"):
                    # The worker evicted this snapshot; resend with payload.
                    task = tasks[idx]
                    worker.known_snapshots.discard(task.snapshot_id)
                    try:
                        self._dispatch(worker, task, force_manifest=True)
                        active[conn] = (worker, idx)
                    except Exception:
                        self._recycle(worker)
                        fresh = checkout_and_dispatch(task, force_manifest=True)
                        active[fresh.conn] = (fresh, idx)
                    continue
                results[idx] = reply
                if pending:
                    nidx, ntask = pending.popleft()
                    try:
                        self._dispatch(worker, ntask, force_manifest=False)
                        active[conn] = (worker, nidx)
                    except Exception:
                        self._recycle(worker)
                        fresh = checkout_and_dispatch(ntask)
                        active[fresh.conn] = (fresh, nidx)
                else:
                    self._idle.put(worker)
        return results  # type: ignore[return-value]

    def ping(self, timeout_s: float = 10.0) -> int:
        """Round-trip every worker; returns how many answered."""
        replies = self.run_many(
            [SnapshotTask({"op": "ping"}) for _ in range(self.num_workers)],
            timeout_s=timeout_s,
        )
        return sum(1 for r in replies if r.get("pong"))


# ---------------------------------------------------------------------------
# Shared pools (one per worker count, process-wide)

_SHARED: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide pool for *workers* workers (created lazily).

    Engines share pools so fuzz/oracle runs that open many pooled engine
    instances do not spawn a process storm.
    """
    with _SHARED_LOCK:
        pool = _SHARED.get(workers)
        if pool is None or pool.closed:
            pool = WorkerPool(workers)
            _SHARED[workers] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Stop every shared pool (test teardown / interpreter exit)."""
    with _SHARED_LOCK:
        pools = list(_SHARED.values())
        _SHARED.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shared_pools)
