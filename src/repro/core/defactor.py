"""De-factoring: turning an f-Tree back into a flat block (paper §4.2/4.3).

This is the "ultimate solution" the executor falls back to when an operator
needs global tuple state (multi-node Order-By / Group-By / Distinct).  The
per-tuple generator in :meth:`repro.core.ftree.FTree.iter_tuples` already
satisfies Lemma 4.4; this module adds the *bulk* path used in practice: a
fully vectorized materialization that processes one f-Tree edge at a time
with NumPy prefix-sum/repeat kernels, so de-factoring cost is proportional
to output size rather than to Python-level tuple count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .column import column_validity
from .flatblock import FlatBlock
from .ftree import FTree, FTreeNode
from .lazy import exclusive_cumsum


def _subtree_counts(tree: FTree) -> dict[int, np.ndarray]:
    """Per-node, per-entry count of valid subtree tuples (|R_u^i|)."""
    counts: dict[int, np.ndarray] = {}

    def compute(node: FTreeNode) -> np.ndarray:
        result = node.selection.astype(np.int64)
        for child, index_vector in node.children:
            child_counts = compute(child)
            prefix = np.zeros(len(child_counts) + 1, dtype=np.int64)
            np.cumsum(child_counts, out=prefix[1:])
            result *= prefix[index_vector.ends] - prefix[index_vector.starts]
        counts[id(node)] = result
        return result

    compute(tree.root)
    return counts


def materialize_rows(tree: FTree) -> dict[int, np.ndarray]:
    """Row indices into every node's block, one entry per output tuple.

    The returned mapping is keyed by ``id(node)``; all arrays share the same
    length ``tree.num_tuples()``.  Tuples are ordered ascending by root
    entry, then by each child's block row — the order enumeration would
    produce.
    """
    counts = _subtree_counts(tree)

    def recurse(node: FTreeNode) -> dict[int, np.ndarray]:
        node_counts = counts[id(node)]
        own = np.flatnonzero(node_counts > 0).astype(np.int64)
        tables: dict[int, np.ndarray] = {id(node): own}
        for child, index_vector in node.children:
            child_tables = recurse(child)
            child_counts = counts[id(child)]
            # Tuple-space offset of each child block row.
            prefix = np.zeros(len(child_counts) + 1, dtype=np.int64)
            np.cumsum(child_counts, out=prefix[1:])

            entries = tables[id(node)]
            span_starts = prefix[index_vector.starts[entries]]
            span_counts = prefix[index_vector.ends[entries]] - span_starts
            total = int(span_counts.sum())
            replicate = np.repeat(np.arange(len(entries), dtype=np.int64), span_counts)
            within = (
                np.arange(total, dtype=np.int64)
                - np.repeat(exclusive_cumsum(span_counts), span_counts)
            )
            child_tuple_idx = np.repeat(span_starts, span_counts) + within

            for key in tables:
                tables[key] = tables[key][replicate]
            for key, rows in child_tables.items():
                tables[key] = rows[child_tuple_idx]
        return tables

    return recurse(tree.root)


def slot_count(tree: FTree) -> int:
    """Total f-Tree entries ("slots") across every node's block.

    The denominator of the factorization compression ratio
    ``flat tuple count ÷ slot count`` (FDB's factorized-vs-flat signal):
    a de-factored relation stores one value per tuple per attribute, the
    f-Tree stores one per slot — the quotient is how much the
    factorization compressed the intermediate result.
    """
    return sum(len(node.block) for node in tree.nodes())


def materialize(tree: FTree, attrs: Sequence[str] | None = None) -> FlatBlock:
    """De-factor *tree* into a flat block over *attrs* (default: full schema)."""
    attrs = list(attrs) if attrs is not None else tree.schema
    rows = materialize_rows(tree)
    block = FlatBlock()
    for attr in attrs:
        node = tree.node_of(attr)
        column = node.block.column(attr)
        node_rows = rows[id(node)]
        validity = column_validity(column)
        block.add_array(
            attr,
            column.dtype,
            column.values()[node_rows],
            None if validity is None else validity[node_rows],
        )
    return block
