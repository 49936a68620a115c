"""Scatter-gather execution of a decomposed plan over the worker pool.

The coordinator enumerates the source rows, partitions them
(:mod:`.partition`), ships one partition plan per part, reassembles the
partial blocks **in partition-index order** (never arrival order — that is
what makes results independent of scheduling), merges (aggregate combine
or plain concat), and re-runs the suffix operators in-process through the
pipeline's driver loop, over a flat state seeded with the merged block.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..core.flatblock import FlatBlock
from ..exec.base import ExecStats, ExecutionContext, QueryResult, result_from_flat
from ..exec.pipeline import PipelineState, run_ops
from ..obs.clock import now
from ..plan.logical import Aggregate, LogicalPlan, NodeScan, resolve_labels
from ..storage.graph import GraphReadView
from ..storage.validity import pack_values
from ..testkit.plans import serialize_plan
from .partition import ROWS_PARAM, ScatterPlan, partition_plan, partition_rows
from .pool import (
    SnapshotTask,
    WorkerPool,
    block_from_payload,
    merge_obs_payload,
    merge_stats_payload,
    raise_worker_reply,
)
from .shm import ExportedSnapshot


def _combine_value(fn: str, a: Any, b: Any) -> Any:
    if fn == "count":
        return int(a) + int(b)
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b) if fn == "min" else max(a, b)


def combine_aggregate_blocks(blocks: list[FlatBlock], agg: Aggregate) -> FlatBlock:
    """Exact partial-aggregate merge preserving global group order.

    Partials arrive in partition order; merging them sequentially makes
    each group's output position its *first occurrence in scan order* —
    identical to what single-process hash aggregation produces, for any
    partition count.
    """
    base = blocks[0]
    names = base.schema  # group_by columns then agg outputs, in plan order
    k = len(agg.group_by)
    merged: dict[tuple, list] = {}
    for block in blocks:
        for row in block.to_pylist():
            key = tuple(row[:k])
            accs = merged.get(key)
            if accs is None:
                merged[key] = list(row[k:])
            else:
                for i, spec in enumerate(agg.aggs):
                    accs[i] = _combine_value(spec.fn, accs[i], row[k + i])
    columns: list[list] = [[] for _ in names]
    for key, accs in merged.items():
        for i, value in enumerate(key):
            columns[i].append(value)
        for j, value in enumerate(accs):
            columns[k + j].append(value)
    out = FlatBlock()
    for i, name in enumerate(names):
        dtype = base.dtype(name)
        data, mask = pack_values(columns[i], dtype)
        out.add_array(name, dtype, data, mask)
    return out


def scatter_execute(
    physical: LogicalPlan,
    analysis: ScatterPlan,
    view: GraphReadView,
    params: Mapping[str, Any] | None,
    stats: ExecStats,
    pool: WorkerPool,
    snapshot: ExportedSnapshot,
    num_partitions: int,
    kind: str = "range",
    timeout_s: float | None = None,
    min_rows: int = 0,
    obs: bool = False,
) -> QueryResult | None:
    """Run *physical* via partitioned scatter-gather.

    Returns None when there is nothing worth scattering (empty source,
    or fewer rows than *min_rows*) — the caller should execute whole or
    in-process.  Worker-side typed errors re-raise here; infrastructure
    failures surface as WorkerCrash/WorkerError for the caller's
    fallback policy.
    """
    source = analysis.source
    if isinstance(source, NodeScan):
        rows = view.all_rows(source.label)
    else:  # NodeByRows
        rows = np.asarray((params or {}).get(source.rows_param, ()), dtype=np.int64)
    if len(rows) < max(int(min_rows), 1):
        return None
    parts = partition_rows(rows, num_partitions, kind)
    plan_payload = serialize_plan(partition_plan(analysis))  # PlanError -> caller
    base_params = dict(params or {})
    traced = stats.trace is not None
    tasks = []
    for part in parts:
        task_params = dict(base_params)
        task_params[ROWS_PARAM] = part
        body: dict[str, Any] = {
            "op": "exec",
            "mode": "partial",
            "plan": plan_payload,
            "params": task_params,
            "snapshot_id": snapshot.snapshot_id,
            "version": snapshot.manifest["version"],
            "timeout_s": timeout_s,
        }
        if obs:
            body["obs"] = True
        if traced:
            body["trace"] = True
        tasks.append(
            SnapshotTask(
                body,
                snapshot_id=snapshot.snapshot_id,
                manifest=snapshot.manifest,
            )
        )
    dispatched = now()
    replies = pool.run_many(tasks, timeout_s=timeout_s)
    blocks: list[FlatBlock] = []
    for index, reply in enumerate(replies):  # partition-index order by construction
        if not reply.get("ok"):
            raise_worker_reply(reply)
        merge_stats_payload(stats, reply.get("stats"))
        merge_obs_payload(
            stats, reply.get("obs"), dispatched, partition=index, mode="partial"
        )
        blocks.append(block_from_payload(reply["block"]))

    if analysis.combine is not None:
        block = combine_aggregate_blocks(blocks, analysis.combine)
    else:
        block = blocks[0]
        for other in blocks[1:]:
            block = block.concat(other)
    stats.note_bytes(block.nbytes)

    ctx = ExecutionContext(view, params, stats)
    ctx.var_labels = resolve_labels(physical, view.schema)
    state = PipelineState(factorize=False, flat=block)
    run_ops(state, analysis.suffix, ctx)
    return result_from_flat(state.flat, physical.returns, ctx.stats)
