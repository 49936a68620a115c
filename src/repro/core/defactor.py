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


def materialize_rows(tree: FTree) -> dict[int, np.ndarray]:
    """Row indices into every node's block, one entry per output tuple.

    The returned mapping is keyed by ``id(node)``; all arrays share the same
    length ``tree.num_tuples()``.  Tuples are ordered ascending by root
    entry, then by each child's block row — the order enumeration would
    produce.
    """
    counts, spans = tree.subtree_counts()
    return _subtree_rows(tree.root, counts, spans)


def _subtree_rows(
    node: FTreeNode,
    counts: dict[int, np.ndarray],
    spans: dict[int, tuple[np.ndarray, np.ndarray]],
) -> dict[int, np.ndarray]:
    """Row indices into the blocks of *node*'s subtree, one entry per
    valid tuple of the subtree, keyed by ``id(node)``."""
    tables: dict[int, np.ndarray] = {id(node): (counts[id(node)] > 0).nonzero()[0]}
    for child, _ in node.children:
        child_tables = _subtree_rows(child, counts, spans)
        first, sizes = spans[id(child)]
        entries = tables[id(node)]
        span_starts = first[entries]
        span_counts = sizes[entries]
        replicate = np.arange(len(entries), dtype=np.int64).repeat(span_counts)
        # Output k of entry r is child tuple span_starts[r] plus k's
        # distance from r's first output.
        shift = span_starts - exclusive_cumsum(span_counts)
        child_tuple_idx = np.arange(len(replicate), dtype=np.int64) + shift[replicate]

        for key in tables:
            tables[key] = tables[key][replicate]
        for key, rows in child_tables.items():
            tables[key] = rows[child_tuple_idx]
    return tables


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
