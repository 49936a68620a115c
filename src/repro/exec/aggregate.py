"""The aggregate kernel: the one place ``count`` / ``sum`` / ``min`` /
``max`` / ``avg`` / ``count_distinct`` are computed.

:func:`aggregate` assigns dense group ids to the entries of one block and
runs segment reductions over them with *optional* multiplicity weights.
The three aggregation shapes of the pipeline differ only in what they hand
in:

* a flat block — no weights, every entry is one tuple;
* an f-Tree whose aggregation attributes live in one node — the node's
  f-Block, weighted by :func:`tuples_through` (no tuple is enumerated);
* an f-Tree whose attributes span nodes — the group/argument attributes
  are materialized into a narrow flat block first, then no weights.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.fblock import FBlock
from ..core.flatblock import FlatBlock
from ..core.ftree import FTree, FTreeNode
from ..errors import ExecutionError
from ..plan.logical import AggSpec
from ..storage.validity import pack_values
from ..types import DataType


def tuples_through(tree: FTree, target: FTreeNode) -> np.ndarray:
    """Per-entry count of *whole-tree* valid tuples passing through each
    entry of *target* — the multiplicity weights for factorized aggregation.

    Computed with one bottom-up pass (subtree counts) and one top-down pass
    (context counts) along the path from the root to *target*: context(v)[j]
    sums, over parent entries whose range covers j, the parent's context
    times the range-counts of all sibling subtrees.  Both passes are NumPy
    prefix-sum kernels.
    """
    counts, spans = tree.subtree_counts()
    parent_of = {id(child): node for node in tree.nodes() for child, _ in node.children}
    path = [target]
    while id(path[-1]) in parent_of:
        path.append(parent_of[id(path[-1])])
    context = np.ones(len(tree.root.block), dtype=np.int64)
    for parent, node in zip(reversed(path), reversed(path[:-1])):
        contrib = context * parent.selection.astype(np.int64)
        for sibling, sibling_iv in parent.children:
            if sibling is node:
                index_vector = sibling_iv
                continue
            contrib = contrib * spans[id(sibling)][1]
        # Scatter each parent range onto the child entries it covers.
        delta = np.zeros(len(node.block) + 1, dtype=np.int64)
        np.add.at(delta, index_vector.starts, contrib)
        np.add.at(delta, index_vector.ends, -contrib)
        context = np.cumsum(delta[:-1])
    return context * counts[id(target)]


def _non_null_mask(values: np.ndarray, validity: np.ndarray | None = None) -> np.ndarray:
    """Aggregation input mask: validity bits first, value-level NULLs second.

    Object None and float NaN still read as NULL for columns produced
    without a mask (e.g. raw projection outputs); integers carry no
    value-level NULL — the sentinel convention is gone.
    """
    if values.dtype == object:
        mask = np.fromiter((v is not None for v in values), dtype=bool, count=len(values))
    elif values.dtype.kind == "f":
        mask = ~np.isnan(values)
    else:
        mask = np.ones(len(values), dtype=bool)
    if validity is not None:
        mask &= validity
    return mask


def aggregate(
    block: FlatBlock | FBlock,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    weights: np.ndarray | None = None,
) -> FlatBlock:
    """Group the entries of *block* and reduce each group.

    *weights* are per-entry tuple multiplicities (int64): an entry of
    weight w stands for w identical tuples, and an entry of weight 0 does
    not exist.  ``None`` means every entry is exactly one tuple.

    Groups come out in first-occurrence order; NULL keys group together.
    With grouping, an empty input produces zero groups; a global aggregate
    always produces exactly one row.  NULL arguments feed no aggregate, so
    an all-NULL group yields NULL for min/max/avg and 0 for sum/count.
    """
    live = None if weights is None else np.flatnonzero(weights > 0)
    n = len(block) if live is None else len(live)
    mult = np.ones(n, dtype=np.int64) if live is None else weights[live]

    def entries(name: str) -> tuple[np.ndarray, np.ndarray | None]:
        values, validity = block.array(name), block.validity(name)
        if live is None:
            return values, validity
        return values[live], None if validity is None else validity[live]

    if group_by:
        # Keys hash as Python values with NULLs as None, so they group
        # exactly as the result boundary (``to_pylist``) will show them.
        key_lists = [_pylist(*entries(name)) for name in group_by]
        group_of: dict[tuple[Any, ...], int] = {}
        group_idx = np.fromiter(
            (group_of.setdefault(key, len(group_of)) for key in zip(*key_lists)),
            dtype=np.int64,
            count=n,
        )
        keys = list(group_of)
    else:
        group_idx = np.zeros(n, dtype=np.int64)
        keys = [()]
    num_groups = len(keys)

    def segment_sum(values: np.ndarray, np_dtype: Any) -> np.ndarray:
        # Accumulates in the output dtype, in entry order: INT64 sums stay
        # exact (a float64 bincount would round above 2**53).
        # A float group holding both infinities sums to NaN, as IEEE and
        # the Volcano reference have it; that is a value, not a warning.
        sums = np.zeros(num_groups, dtype=np_dtype)
        with np.errstate(invalid="ignore"):
            np.add.at(sums, group_idx, values)
        return sums

    out = FlatBlock()
    for position, name in enumerate(group_by):
        dtype = block.dtype(name)
        out.add_array(name, dtype, *pack_values([k[position] for k in keys], dtype))

    for agg in aggs:
        if agg.fn == "count" and agg.arg is None:
            out.add_array(agg.out, DataType.INT64, segment_sum(mult, np.int64))
            continue
        if agg.arg is None:
            raise ExecutionError(f"aggregate {agg.fn!r} needs an argument")
        arg, arg_validity = entries(agg.arg)
        non_null = _non_null_mask(arg, arg_validity)
        if agg.fn == "count":
            out.add_array(agg.out, DataType.INT64, segment_sum(non_null * mult, np.int64))
        elif agg.fn == "sum":
            dtype = block.dtype(agg.arg)
            if dtype is DataType.BOOL:
                dtype = DataType.INT64  # a BOOL sum counts the true entries
            sums = segment_sum(np.where(non_null, arg, 0) * mult, dtype.numpy_dtype)
            out.add_array(agg.out, dtype, sums)
        elif agg.fn == "avg":
            sums = segment_sum(
                np.where(non_null, arg.astype(np.float64), 0.0) * mult, np.float64
            )
            counts = segment_sum(non_null * mult, np.int64)
            seen = counts > 0
            means = np.where(seen, sums / np.maximum(counts, 1), np.nan)
            out.add_array(agg.out, DataType.FLOAT64, means, seen)
        elif agg.fn in ("min", "max"):
            dtype = block.dtype(agg.arg)
            if arg.dtype == object:
                extremes: list[Any] = [None] * num_groups
                better = (lambda a, b: a < b) if agg.fn == "min" else (lambda a, b: a > b)
                for g, v, ok in zip(group_idx.tolist(), arg.tolist(), non_null.tolist()):
                    if ok and (extremes[g] is None or better(v, extremes[g])):
                        extremes[g] = v
                out.add_array(agg.out, dtype, *pack_values(extremes, dtype))
            else:
                # The reduction starts from the identity of the array's own
                # dtype: an int64 limit cast to bool is True and would pin
                # every max to True, a finite float limit would beat +-inf.
                if arg.dtype.kind == "b":
                    low, high = False, True
                elif arg.dtype.kind == "f":
                    low, high = -np.inf, np.inf
                else:
                    low, high = np.iinfo(arg.dtype).min, np.iinfo(arg.dtype).max
                extremes = np.full(num_groups, high if agg.fn == "min" else low, dtype=arg.dtype)
                ufunc = np.minimum if agg.fn == "min" else np.maximum
                ufunc.at(extremes, group_idx[non_null], arg[non_null])
                # Empty (all-NULL) groups yield NULL via validity over the
                # dtype's inert fill.
                seen = segment_sum(non_null, np.int64) > 0
                out.add_array(
                    agg.out,
                    dtype,
                    np.where(seen, extremes, dtype.fill_value()).astype(dtype.numpy_dtype),
                    seen,
                )
        elif agg.fn == "count_distinct":
            seen_sets: list[set[Any]] = [set() for _ in range(num_groups)]
            for g, v, ok in zip(group_idx.tolist(), arg.tolist(), non_null.tolist()):
                if ok:
                    seen_sets[g].add(v)
            out.add_array(
                agg.out,
                DataType.INT64,
                np.asarray([len(s) for s in seen_sets], dtype=np.int64),
            )
        else:
            raise ExecutionError(f"unknown aggregate {agg.fn!r}")
    return out


def _pylist(values: np.ndarray, validity: np.ndarray | None) -> list[Any]:
    """Entry values as Python objects, NULLs as None."""
    items = values.tolist()
    if validity is not None:
        items = [v if ok else None for v, ok in zip(items, validity)]
    return items
