"""The operator pipeline — GES, GES_f and the operator host for GES_f*.

One driver loop, one :class:`PipelineState` and one implementation of every
operator serve all three variants.  They differ only in the state the
pipeline *starts* in:

* **factorized** (GES_f, GES_f*) — sources build an f-Tree and intermediate
  results stay factorized for as long as possible: Expand appends a child
  node whose neighbor column is, whenever the storage layout allows it, a
  *lazy* pointer-based column (paper §5); Filter flips selection bits on
  the node owning the filtered attributes; GetProperty appends a property
  column to the owning node; aggregates confined to one node run directly
  on the factorization using index-vector counting.  Everything else
  *de-factors* into a flat block — the paper's "ultimate solution" — after
  which "block-based execution continues until completion" (paper §4).
* **flat** (GES) — the state starts, and therefore stays, de-factored:
  every operator consumes and produces a fully materialized
  :class:`~repro.core.flatblock.FlatBlock`, replicated on every Expand
  exactly as Figure 4 of the paper shows.  This is the architecture whose
  memory blow-up and data movement factorization eliminates.

The fused operators produced by the optimizer (TopK, AggregateTopK,
VertexExpand, Expand with pushed-down filters) are implemented here too;
over an f-Tree they order, pick or weight node entries instead of
materializing the full flat block first.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.column import Column, column_validity
from ..core.defactor import materialize, slot_count
from ..core.fblock import FBlock
from ..core.flatblock import FlatBlock, sort_key_array
from ..core.ftree import FTree, FTreeNode, IndexVector
from ..core.lazy import LazyNeighborColumn
from ..errors import ExecutionError
from ..obs.clock import now
from ..plan.expressions import Col, Expr
from ..plan.logical import (
    Aggregate,
    AggregateTopK,
    Distinct,
    Expand,
    Filter,
    FilteredNodeScan,
    GetProperty,
    Limit,
    LogicalOp,
    LogicalPlan,
    NodeByIdSeek,
    NodeByRows,
    NodeScan,
    OrderBy,
    ProcedureCall,
    Project,
    TopK,
    VertexExpand,
    resolve_labels,
)
from ..storage.graph import GraphReadView
from ..storage.validity import pack_values
from ..types import DataType
from .aggregate import aggregate, tuples_through
from .base import (
    BlockResolver,
    ExecStats,
    ExecutionContext,
    OpTimer,
    QueryResult,
    result_from_flat,
)
from .expand_util import expand_batch, resolve_expand_keys
from .procedures import get_procedure
from .scan import filtered_scan


class PipelineState:
    """Current intermediate result: an f-Tree until something de-factors it.

    With ``factorize=False`` sources emit a flat block straight away, so the
    pipeline is de-factored from its first operator on (the GES variant).
    """

    def __init__(self, factorize: bool = True, flat: FlatBlock | None = None) -> None:
        self.factorize = factorize
        self.tree: FTree | None = None
        self.flat = flat
        # Output attributes of the f-Tree after a Project (None: the whole
        # schema); a flat block *is* its projection, so it is None then.
        self.projection: list[str] | None = None
        # Deferred node-local Order-By (paper: "append a special column to
        # indicate the orders"): (node, keys), consumed by a following
        # Limit via ordered enumeration, or flushed by de-factoring.
        self.pending_order: tuple[FTreeNode, list[tuple[str, bool]]] | None = None

    @property
    def nbytes(self) -> int:
        if self.tree is not None:
            return self.tree.nbytes
        if self.flat is not None:
            return self.flat.nbytes
        return 0

    def output_attrs(self) -> list[str]:
        if self.projection is not None:
            return list(self.projection)
        if self.tree is not None:
            return self.tree.schema
        assert self.flat is not None
        return self.flat.schema

    def set_flat(self, block: FlatBlock) -> None:
        """Leave the factorized representation for good."""
        self.tree = None
        self.flat = block
        self.projection = None
        self.pending_order = None


def execute_factorized(
    plan: LogicalPlan,
    view: GraphReadView,
    params: Mapping[str, Any] | None = None,
    stats: ExecStats | None = None,
) -> QueryResult:
    """Run *plan* keeping intermediate results factorized when possible."""
    block, ctx = _execute(plan, view, params, stats, factorize=True)
    return result_from_flat(block, plan.returns, ctx.stats)


def execute_flat(
    plan: LogicalPlan,
    view: GraphReadView,
    params: Mapping[str, Any] | None = None,
    stats: ExecStats | None = None,
) -> QueryResult:
    """Run *plan* with flat (fully materialized) intermediate results."""
    block, ctx = _execute(plan, view, params, stats, factorize=False)
    return result_from_flat(block, plan.returns, ctx.stats)


def _execute(
    plan: LogicalPlan,
    view: GraphReadView,
    params: Mapping[str, Any] | None,
    stats: ExecStats | None,
    factorize: bool,
) -> tuple[FlatBlock, ExecutionContext]:
    ctx = ExecutionContext(view, params, stats)
    ctx.var_labels = resolve_labels(plan, view.schema)
    if ctx.tracing:
        ctx.stats.trace.begin("execute")
    started = now()
    state = PipelineState(factorize)
    try:
        run_ops(state, plan.ops, ctx)
        block = _final_block(state, plan, ctx)
        ctx.stats.total_seconds += now() - started
    finally:
        if ctx.tracing:
            ctx.stats.trace.end(
                peak_bytes=ctx.stats.peak_intermediate_bytes,
                variant="factorized" if factorize else "flat",
            )
    return block, ctx


def run_ops(state: PipelineState, ops: Sequence[LogicalOp], ctx: ExecutionContext) -> None:
    """The driver loop: evaluate *ops* in order, updating *state* in place."""
    for op in ops:
        with OpTimer(ctx, op.op_name) as timer:
            # A pipeline that started flat pipes tuples between operators,
            # which keeps the consumed input and the produced output
            # resident at once (paper §3, Table 2).
            consumed = None if state.factorize else state.flat
            dispatch(state, op, ctx)
            timer.out_bytes = state.nbytes + (consumed.nbytes if consumed is not None else 0)
            if ctx.tracing:
                _annotate_state(timer, state, consumed)


def _annotate_state(timer: OpTimer, state: PipelineState, consumed: FlatBlock | None) -> None:
    """Span attributes of the operator's output (traced queries only)."""
    if state.tree is not None:
        timer.annotate(
            factorized=True,
            fblocks=sum(1 for _ in state.tree.nodes()),
            slots=slot_count(state.tree),
        )
    elif state.factorize:
        timer.annotate(factorized=False, rows_out=len(state.flat))
    else:
        timer.annotate(
            rows_in=len(consumed) if consumed is not None else 0,
            rows_out=len(state.flat),
        )


def _final_block(state: PipelineState, plan: LogicalPlan, ctx: ExecutionContext) -> FlatBlock:
    if state.pending_order is not None:
        defactor(state, ctx)  # applies the deferred sort
    if state.tree is not None:
        block = materialize(state.tree, plan.returns or state.output_attrs())
        ctx.stats.note_bytes(state.tree.nbytes)
        ctx.stats.note_compression(len(block), slot_count(state.tree))
        return block
    if state.flat is None:
        raise ExecutionError("cannot execute a plan without operators")
    return state.flat


def defactor(state: PipelineState, ctx: ExecutionContext) -> FlatBlock:
    """Fall back to the flat representation (counted in the stats)."""
    if state.flat is not None:
        return state.flat
    assert state.tree is not None
    tree = state.tree
    attrs = state.projection if state.projection is not None else tree.schema
    pending = state.pending_order
    if pending is not None:
        for name, _ in pending[1]:
            if name not in attrs:
                attrs = list(attrs) + [name]
    tree_bytes = tree.nbytes  # before materialize resolves lazy columns
    block = materialize(tree, attrs)
    if pending is not None:
        block = block.sort(pending[1])
    ctx.stats.note_defactor()
    # De-factoring holds the f-Tree and the produced flat block at once.
    ctx.stats.note_bytes(tree_bytes + block.nbytes)
    ctx.stats.note_compression(len(block), slot_count(tree))
    state.set_flat(block)
    return block


def dispatch(state: PipelineState, op: LogicalOp, ctx: ExecutionContext) -> None:
    """Evaluate one operator, updating *state* in place."""
    # Source operators.
    if isinstance(op, NodeByIdSeek):
        _start(state, op.var, _seek_rows(op.label, op.key, ctx))
        return
    if isinstance(op, NodeScan):
        _start(state, op.var, ctx.view.all_rows(op.label))
        return
    if isinstance(op, NodeByRows):
        _start(state, op.var, np.asarray(ctx.params[op.rows_param], dtype=np.int64))
        return
    if isinstance(op, FilteredNodeScan):
        rows, values, validity, dtype = filtered_scan(ctx.view, op, ctx.params)
        _start(state, op.var, rows, (op.out, dtype, values, validity))
        return
    if isinstance(op, ProcedureCall):
        args = {name: expr.eval_row({}, ctx.params) for name, expr in op.args.items()}
        state.set_flat(get_procedure(op.name)(ctx.view, args))
        return
    if isinstance(op, VertexExpand):
        _start(state, op.seek_var, _seek_rows(op.seek_label, op.seek_key, ctx))
        ctx.var_labels.setdefault(op.seek_var, op.seek_label)
        dispatch(state, op.expand, ctx)
        return

    # Once flat, stay block-based (paper: "continues until completion").
    if state.flat is not None:
        state.flat = _flat_op(state.flat, op, ctx)
        return
    if state.tree is None:
        raise ExecutionError(f"{op.op_name} cannot start a pipeline")

    if state.pending_order is not None:
        if isinstance(op, Limit):
            # The unfused GES_f equivalent of the TopK fusion: consume the
            # deferred node-local Order-By with the Limit.
            node, keys = state.pending_order
            _node_local_top_k(state, node, keys, op.n, ctx)
            return
        # Any other operator forces the deferred sort to materialize.
        state.flat = _flat_op(defactor(state, ctx), op, ctx)
        return
    if isinstance(op, Expand):
        _factorized_expand(state.tree, op, ctx)
    elif isinstance(op, GetProperty):
        _factorized_get_property(state.tree, op, ctx)
    elif isinstance(op, Filter):
        _factorized_filter(state, op, ctx)
    elif isinstance(op, Project):
        _factorized_project(state, op, ctx)
    elif isinstance(op, (Aggregate, Distinct)):
        # These need global tuple state: de-factor and continue block-based
        # (paper §4.3; the factorized aggregation fast path is what the
        # AggregateProjectTop *fusion* adds in GES_f*).
        state.flat = _flat_op(defactor(state, ctx), op, ctx)
    elif isinstance(op, OrderBy):
        _factorized_order_by(state, op, ctx)
    elif isinstance(op, Limit):
        _factorized_limit(state, op.n, ctx)
    elif isinstance(op, TopK):
        _fused_top_k(state, op, ctx)
    elif isinstance(op, AggregateTopK):
        _fused_aggregate_top_k(state, op, ctx)
    else:
        raise ExecutionError(f"executor cannot handle {op.op_name}")


# -- sources -----------------------------------------------------------------


def _seek_rows(label: str, key: Expr, ctx: ExecutionContext) -> np.ndarray:
    value = key.eval_row({}, ctx.params)
    row = ctx.view.vertex_by_key(label, int(value))
    if row is None:
        return np.empty(0, dtype=np.int64)
    return np.asarray([row], dtype=np.int64)


def _start(
    state: PipelineState,
    var: str,
    rows: np.ndarray,
    extra: tuple[str, DataType, np.ndarray, np.ndarray | None] | None = None,
) -> None:
    """Begin a pipeline over vertex *rows* (plus one optional column), in
    the representation the state was created for."""
    if state.factorize:
        block = FBlock([Column(var, DataType.INT64, rows)])
        if extra is not None:
            block.add_column(Column(*extra))
        state.tree = FTree.single(var, block)
        state.flat = None
    else:
        flat = FlatBlock()
        flat.add_array(var, DataType.INT64, rows)
        if extra is not None:
            flat.add_array(*extra)
        state.tree = None
        state.flat = flat
    state.projection = None
    state.pending_order = None


# -- block-based operators (the de-factored state) ----------------------------


def _flat_op(block: FlatBlock, op: LogicalOp, ctx: ExecutionContext) -> FlatBlock:
    """Evaluate one non-source operator over a flat block."""
    if isinstance(op, Expand):
        return _flat_expand(block, op, ctx)
    if isinstance(op, GetProperty):
        return _flat_get_property(block, op, ctx)
    if isinstance(op, Filter):
        mask = np.asarray(
            op.expr.eval_block(BlockResolver(block), ctx.params), dtype=bool
        )
        return block.filter(mask)
    if isinstance(op, Project):
        return _project_flat(block, op.items, ctx)
    if isinstance(op, Aggregate):
        return aggregate(block, op.group_by, op.aggs)
    if isinstance(op, OrderBy):
        return block.sort(op.keys)
    if isinstance(op, Limit):
        return block.limit(op.n)
    if isinstance(op, Distinct):
        cols = op.cols if op.cols is not None else block.schema
        return block.distinct(cols).select(cols)
    if isinstance(op, TopK):
        return block.sort(op.keys).limit(op.n)
    if isinstance(op, AggregateTopK):
        table = aggregate(block, op.group_by, op.aggs)
        if op.project_items is not None:
            table = _project_flat(table, op.project_items, ctx)
        return table.sort(op.keys).limit(op.n)
    raise ExecutionError(f"executor cannot handle {op.op_name}")


def _expand_labels(op: Expand, ctx: ExecutionContext) -> tuple[str, str]:
    from_label = ctx.label_of(op.from_var)
    to_label = op.to_label or ctx.var_labels.get(op.to_var)
    if to_label is None:
        raise ExecutionError(f"unresolved destination label for {op.to_var!r}")
    return from_label, to_label


def _flat_expand(block: FlatBlock, op: Expand, ctx: ExecutionContext) -> FlatBlock:
    from_label, to_label = _expand_labels(op, ctx)
    if op.is_multi_hop:
        return _flat_expand_multi_hop(block, op, ctx, from_label, to_label)
    from_rows = block.array(op.from_var)
    batch = expand_batch(
        ctx.view, op, from_rows, from_label, to_label, ctx.params,
        deadline=ctx.deadline, from_validity=block.validity(op.from_var),
    )

    out = FlatBlock()
    for name in block.schema:
        # Flat execution replicates every existing column per neighbor —
        # exactly the redundancy of Figure 4.
        valid = block.validity(name)
        out.add_array(
            name,
            block.dtype(name),
            np.repeat(block.array(name), batch.counts),
            None if valid is None else np.repeat(valid, batch.counts),
        )
    out.add_array(op.to_var, DataType.INT64, batch.neighbors, batch.validity)
    for name, (dtype, values, valid) in batch.extra.items():
        out.add_array(name, dtype, values, valid)
    return out


def _flat_expand_multi_hop(
    block: FlatBlock, op: Expand, ctx: ExecutionContext, from_label: str, to_label: str
) -> FlatBlock:
    """Variable-length expansion, the flat way (paper Figure 4).

    A flat block has no set representation, so ``KNOWS*1..3`` runs as
    repeated single-hop expansions — every hop replicates the full input
    tuple per neighbor — followed by a distinct pass that keeps each
    reached vertex at its minimum depth.  This hop-by-hop materialization
    is exactly the two-hop blow-up of Figure 4; the f-Tree's per-source
    BFS is what eliminates it.
    """
    if from_label != to_label:
        raise ExecutionError("multi-hop Expand requires matching endpoint labels")
    lineage = FlatBlock()
    for name in block.schema:
        lineage.add_array(name, block.dtype(name), block.array(name), block.validity(name))
    lineage.add_array("__lineage", DataType.INT64, np.arange(len(block), dtype=np.int64))

    current = lineage
    current_var = op.from_var
    hop_results: list[tuple[np.ndarray, np.ndarray]] = []  # (lineage, vertex)
    for hop in range(1, op.max_hops + 1):
        hop_var = f"__hop{hop}"
        step = Expand(current_var, hop_var, op.edge_label, op.direction, to_label=to_label)
        ctx.var_labels[hop_var] = to_label
        previous = current
        current = _flat_expand(current, step, ctx)
        # Each hop's fully replicated tuple block is a real intermediate.
        ctx.stats.note_bytes(previous.nbytes + current.nbytes)
        hop_results.append((current.array("__lineage"), current.array(hop_var)))
        current_var = hop_var

    starts = block.array(op.from_var)
    first_hop: dict[tuple[int, int], int] = {}
    for hop, (lineages, vertices) in enumerate(hop_results, start=1):
        for lin, vertex in zip(lineages.tolist(), vertices.tolist()):
            key = (lin, vertex)
            if key not in first_hop:
                first_hop[key] = hop

    kept = sorted(
        (lin, vertex)
        for (lin, vertex), hop in first_hop.items()
        if hop >= op.min_hops and vertex != int(starts[lin])
    )
    keep_lineage = [lin for lin, _ in kept]
    keep_vertex = [vertex for _, vertex in kept]

    out = block.take(np.asarray(keep_lineage, dtype=np.int64))
    result = FlatBlock()
    for name in out.schema:
        result.add_array(name, out.dtype(name), out.array(name), out.validity(name))
    result.add_array(op.to_var, DataType.INT64, np.asarray(keep_vertex, dtype=np.int64))
    return result


def _flat_get_property(block: FlatBlock, op: GetProperty, ctx: ExecutionContext) -> FlatBlock:
    label = ctx.label_of(op.var)
    dtype = ctx.view.schema.vertex_label(label).property(op.prop).dtype
    rows = block.array(op.var)
    values, validity = gather_with_nulls(
        ctx.view, label, op.prop, dtype, rows, block.validity(op.var)
    )
    out = FlatBlock()
    for name in block.schema:
        # The flat pipeline materializes its output tuples: every column is
        # rewritten, not shared — the data movement the paper measures.
        valid = block.validity(name)
        out.add_array(
            name,
            block.dtype(name),
            block.array(name).copy(),
            None if valid is None else valid.copy(),
        )
    out.add_array(op.out, dtype, values, validity)
    return out


def gather_with_nulls(
    view: GraphReadView,
    label: str,
    prop: str,
    dtype: DataType,
    rows: np.ndarray,
    rows_validity: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized property gather tolerating NULL row ids (optional matches).

    Returns (values, validity): a NULL source row — a cleared bit in
    *rows_validity* — yields a NULL output; real rows inherit the stored
    column's validity.
    """
    if len(rows) == 0:
        return np.empty(0, dtype=dtype.numpy_dtype), None
    if rows_validity is None:
        return view.gather_properties_with_validity(label, prop, rows)
    values = np.full(len(rows), dtype.fill_value(), dtype=dtype.numpy_dtype)
    validity = rows_validity.copy()
    if rows_validity.any():
        gathered, gathered_valid = view.gather_properties_with_validity(
            label, prop, rows[rows_validity]
        )
        values[rows_validity] = gathered
        if gathered_valid is not None:
            validity[np.flatnonzero(rows_validity)] = gathered_valid
    return values, validity


# -- projection ---------------------------------------------------------------


def project_item(
    block: FlatBlock | FBlock, expr: Expr, params: Mapping[str, Any]
) -> tuple[DataType, np.ndarray, np.ndarray | None]:
    """Evaluate one projection item over *block*: (dtype, values, validity),
    scalar results broadcast to the block's cardinality."""
    resolver = BlockResolver(block)
    values = expr.eval_block(resolver, params)
    nulls = expr.null_block(resolver, params)
    dtype = expr.infer_dtype(block.dtype, params)
    if values is None:
        values = dtype.fill_value()
    if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
        values = np.full(len(block), values, dtype=dtype.numpy_dtype)
    validity = None
    if nulls is not None:
        if np.isscalar(nulls) or (isinstance(nulls, np.ndarray) and nulls.ndim == 0):
            nulls = np.full(len(block), bool(nulls))
        validity = ~np.asarray(nulls, dtype=bool)
    return dtype, np.asarray(values, dtype=dtype.numpy_dtype), validity


def _project_flat(
    block: FlatBlock, items: list[tuple[str, Expr]], ctx: ExecutionContext
) -> FlatBlock:
    """Evaluate projection items into a fresh materialized block."""
    out = FlatBlock()
    for name, expr in items:
        out.add_array(name, *project_item(block, expr, ctx.params))
    return out


# -- f-Tree operators (the factorized state) -----------------------------------


def _single_node(tree: FTree, attrs: Iterable[str]) -> FTreeNode | None:
    """The one node holding every attribute in *attrs*; None when they span
    nodes, are unknown to the tree, or there are none."""
    owner: FTreeNode | None = None
    for attr in attrs:
        if not tree.has_attr(attr):
            return None
        node = tree.node_of(attr)
        if owner is None:
            owner = node
        elif node is not owner:
            return None
    return owner


def _factorized_expand(tree: FTree, op: Expand, ctx: ExecutionContext) -> None:
    if not tree.has_attr(op.from_var):
        raise ExecutionError(f"Expand from unknown attribute {op.from_var!r}")
    node = tree.node_of(op.from_var)
    from_label, to_label = _expand_labels(op, ctx)

    keys = resolve_expand_keys(ctx.view, op, from_label)
    pointer_join_ok = (
        len(keys) == 1
        and not op.is_multi_hop
        and not op.optional
        and not op.edge_props
        and not op.neighbor_props
        and op.neighbor_filter is None
        and ctx.view.store.adjacency(keys[0]).supports_segments
        and ctx.view.version is None
    )
    from_column = node.block.column(op.from_var)
    from_values = from_column.values()
    from_valid = column_validity(from_column)

    if pointer_join_ok:
        key = keys[0]
        adjacency = ctx.view.store.adjacency(key)
        base, starts, lengths = adjacency.meta_for(from_values)
        # Entries pruned by the selection vector (or NULL sources from an
        # earlier optional match) never expand.
        lengths = np.where(node.selection, lengths, 0)
        if from_valid is not None:
            lengths = np.where(from_valid, lengths, 0)
        child_block = FBlock([LazyNeighborColumn(op.to_var, base, starts, lengths)])
        tree.add_child(node, op.to_var, child_block, IndexVector.from_lengths(lengths))
        return

    # General path: sources pruned by the selection vector (and NULL
    # sources) are skipped via the validity mask — no sentinel writes.
    sources_valid = (
        node.selection if from_valid is None else node.selection & from_valid
    )
    batch = expand_batch(
        ctx.view, op, from_values, from_label, to_label, ctx.params,
        deadline=ctx.deadline,
        from_validity=None if bool(sources_valid.all()) else sources_valid,
    )
    child_block = FBlock(
        [Column(op.to_var, DataType.INT64, batch.neighbors, batch.validity)]
    )
    for name, (dtype, values, valid) in batch.extra.items():
        child_block.add_column(Column(name, dtype, values, valid))
    tree.add_child(node, op.to_var, child_block, IndexVector.from_lengths(batch.counts))


def _factorized_get_property(tree: FTree, op: GetProperty, ctx: ExecutionContext) -> None:
    node = tree.node_of(op.var)
    label = ctx.label_of(op.var)
    dtype = ctx.view.schema.vertex_label(label).property(op.prop).dtype
    column = node.block.column(op.var)
    rows = column.values()
    row_valid = column_validity(column)
    if node.selection.all() and row_valid is None:
        values, validity = gather_with_nulls(ctx.view, label, op.prop, dtype, rows)
    else:
        # "Factor out useless values": only selection-valid, non-NULL
        # entries are fetched; the rest stay NULL via cleared validity bits
        # over the dtype's inert fill.
        values = np.full(len(rows), dtype.fill_value(), dtype=dtype.numpy_dtype)
        validity = np.zeros(len(rows), dtype=bool)
        live = node.selection if row_valid is None else node.selection & row_valid
        live_idx = np.flatnonzero(live)
        if len(live_idx):
            gathered, gathered_valid = gather_with_nulls(
                ctx.view, label, op.prop, dtype, rows[live_idx]
            )
            values[live_idx] = gathered
            validity[live_idx] = True if gathered_valid is None else gathered_valid
    tree.add_column(node, Column(op.out, dtype, values, validity))


def _factorized_filter(state: PipelineState, op: Filter, ctx: ExecutionContext) -> None:
    assert state.tree is not None
    node = _single_node(state.tree, op.expr.columns())
    if node is None:
        # Attributes span nodes: de-factor and filter block-based.
        state.flat = _flat_op(defactor(state, ctx), op, ctx)
        return
    mask = np.asarray(
        op.expr.eval_block(BlockResolver(node.block), ctx.params), dtype=bool
    )
    node.and_selection(mask)


def _factorized_project(state: PipelineState, op: Project, ctx: ExecutionContext) -> None:
    tree = state.tree
    assert tree is not None
    for name, expr in op.items:
        if isinstance(expr, Col) and expr.name == name and tree.has_attr(name):
            continue  # pass-through column, nothing to compute
        cols = expr.columns()
        node = _single_node(tree, cols) if cols else tree.root
        if node is None:
            # Computed expression spans nodes: fall back for the whole op.
            state.flat = _flat_op(defactor(state, ctx), op, ctx)
            return
        tree.add_column(node, Column(name, *project_item(node.block, expr, ctx.params)))
    state.projection = [name for name, _ in op.items]


def _factorized_order_by(state: PipelineState, op: OrderBy, ctx: ExecutionContext) -> None:
    """Node-local sort keys: defer as an order over one node's entries
    (the paper's "special column indicating the orders"); keys spanning
    nodes de-factor immediately."""
    assert state.tree is not None
    node = _single_node(state.tree, [name for name, _ in op.keys])
    if node is not None:
        state.pending_order = (node, list(op.keys))
        return
    state.flat = defactor(state, ctx).sort(op.keys)


def _entry_order(
    node: FTreeNode, keys: list[tuple[str, bool]], candidates: np.ndarray
) -> np.ndarray:
    """*candidates* (entry indices of *node*) sorted by the node-local keys."""
    arrays: list[np.ndarray] = []
    for name, ascending in reversed(keys):
        validity = node.block.validity(name)
        arrays.append(
            sort_key_array(
                node.block.array(name)[candidates],
                node.block.dtype(name),
                ascending,
                None if validity is None else validity[candidates],
            )
        )
    return candidates[np.lexsort(arrays)]


def _node_local_top_k(
    state: PipelineState,
    node: FTreeNode,
    keys: list[tuple[str, bool]],
    n: int,
    ctx: ExecutionContext,
) -> None:
    """Top-n over sort keys owned by one node.

    Order the *entries* of the key-owning node (the paper's "special order
    column"), pick just enough leading entries to cover n tuples, and
    materialize only those — the bulk of the f-Tree is never enumerated.
    """
    tree = state.tree
    assert tree is not None
    attrs = state.output_attrs()
    for name, _ in keys:
        if name not in attrs:
            attrs.append(name)
    through = tuples_through(tree, node)
    candidates = np.flatnonzero(through > 0)
    valid_order = _entry_order(node, keys, candidates)
    if len(valid_order):
        covered = np.cumsum(through[valid_order])
        needed = int(np.searchsorted(covered, n)) + 1
        chosen = valid_order[:needed]
    else:
        chosen = valid_order
    saved_selection = node.selection
    pinned = np.zeros(len(node.block), dtype=bool)
    pinned[chosen] = True
    node.selection = saved_selection & pinned
    try:
        block = materialize(tree, attrs)
    finally:
        node.selection = saved_selection
    ctx.stats.note_bytes(tree.nbytes + block.nbytes)
    state.set_flat(block.sort(keys).limit(n))


def _ticking(iterable, deadline):
    """Wrap a tuple enumeration with strided deadline checks (chunk boundary)."""
    if deadline is None:
        return iterable

    def gen():
        # Inline stride: a tick() call per tuple would dominate the loop.
        for i, item in enumerate(iterable):
            if not i & 255:
                deadline.check()
            yield item

    return gen()


def _factorized_limit(state: PipelineState, n: int, ctx: ExecutionContext) -> None:
    """Take the first n tuples via constant-delay enumeration (Lemma 4.4)."""
    tree = state.tree
    assert tree is not None
    attrs = state.output_attrs()
    rows: list[tuple[Any, ...]] = []
    if n > 0:
        for tup in _ticking(tree.iter_tuples(attrs), ctx.deadline):
            rows.append(tup)
            if len(rows) >= n:
                break
    state.set_flat(_rows_to_block(tree, attrs, rows))


class _Desc:
    """Inverts comparison order so heap-based top-k can sort descending."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.value == self.value


def _sort_key(keys: Sequence[tuple[str, bool]], attrs: Sequence[str]):
    positions = [(attrs.index(name), ascending) for name, ascending in keys]

    def key(tup: tuple[Any, ...]) -> tuple[Any, ...]:
        return tuple(
            tup[pos] if ascending else _Desc(tup[pos]) for pos, ascending in positions
        )

    return key


def _fused_top_k(state: PipelineState, op: TopK, ctx: ExecutionContext) -> None:
    """Fused OrderBy+Limit over the f-Tree.

    Node-local sort keys take the vectorized ordered-entry path; keys
    spanning nodes stream the constant-delay enumeration through a bounded
    heap — either way, no full flat block is materialized.
    """
    tree = state.tree
    assert tree is not None
    names = [name for name, _ in op.keys]
    node = _single_node(tree, names)
    if node is not None:
        _node_local_top_k(state, node, list(op.keys), op.n, ctx)
        return
    attrs = state.output_attrs()
    for name in names:
        if name not in attrs:
            attrs = attrs + [name]
    top = heapq.nsmallest(
        op.n,
        _ticking(tree.iter_tuples(attrs), ctx.deadline),
        key=_sort_key(op.keys, attrs),
    )
    # Rough footprint of the bounded heap beside the f-Tree.
    ctx.stats.note_bytes(state.nbytes + len(top) * (8 * len(attrs) + 48))
    state.set_flat(_rows_to_block(tree, attrs, top))


def _fused_aggregate_top_k(
    state: PipelineState, op: AggregateTopK, ctx: ExecutionContext
) -> None:
    """AggregateProjectTop fusion: aggregate on the factorization, then top-k."""
    tree = state.tree
    assert tree is not None
    involved = list(op.group_by) + [a.arg for a in op.aggs if a.arg is not None]
    node = _single_node(tree, involved) if involved else tree.root
    if node is not None:
        # Index-vector counting: the node's entries weighted by how many
        # whole-tree tuples pass through each — no tuple is enumerated.
        table = aggregate(node.block, op.group_by, op.aggs, tuples_through(tree, node))
    else:
        # Attributes span nodes: materialize only those attributes.
        narrow = materialize(tree, list(dict.fromkeys(involved)))
        ctx.stats.note_bytes(state.nbytes + narrow.nbytes)
        table = aggregate(narrow, op.group_by, op.aggs)
    if op.project_items is not None:
        table = _project_flat(table, op.project_items, ctx)
    ctx.stats.note_bytes(state.nbytes + table.nbytes)
    state.set_flat(table.sort(op.keys).limit(op.n))


def _rows_to_block(tree: FTree, attrs: Sequence[str], rows: list[tuple[Any, ...]]) -> FlatBlock:
    block = FlatBlock()
    for i, attr in enumerate(attrs):
        dtype = tree.node_of(attr).block.dtype(attr)
        data, validity = pack_values([r[i] for r in rows], dtype)
        block.add_array(attr, dtype, data, validity)
    return block
