"""The practical f-Tree (paper §4.2).

An f-Tree is a rooted tree in which every node owns an f-Block and a
selection vector, and every edge (u, v) carries an *index vector*: for each
entry ``i`` of u's block, a half-open range ``[starts[i], ends[i])`` of rows
in v's block.  Entry ``i`` of u is in Cartesian-product relationship with
exactly those rows — this is the practical encoding of the Union /
Cartesian-product factorization of Olteanu & Závodný.

Key invariants, enforced here and property-tested in
``tests/test_ftree_properties.py``:

* **Disjoint schema partition** — every attribute lives in exactly one node.
* **Index-vector bounds** — every range lies inside the child block.
* **Constant-delay enumeration** (Lemma 4.4) — :meth:`FTree.iter_tuples`
  yields each valid tuple with delay proportional to the schema size only.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from ..errors import FactorizationError
from .column import Column, ColumnLike
from .fblock import FBlock
from .lazy import LazyNeighborColumn


class IndexVector:
    """Per-parent-entry ranges into a child f-Block."""

    __slots__ = ("starts", "ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if len(starts) != len(ends):
            raise FactorizationError("index vector starts/ends length mismatch")
        if np.any(ends < starts):
            raise FactorizationError("index vector has negative-length range")
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.starts)

    def range_of(self, i: int) -> tuple[int, int]:
        return int(self.starts[i]), int(self.ends[i])

    def lengths(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def nbytes(self) -> int:
        return int(self.starts.nbytes + self.ends.nbytes)

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "IndexVector":
        """Consecutive ranges whose sizes are *lengths* (the Expand layout)."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(lengths) and lengths.min() < 0:
            raise FactorizationError("index vector has negative-length range")
        vector = cls.__new__(cls)
        vector.ends = lengths.cumsum()
        vector.starts = vector.ends - lengths
        return vector

    @classmethod
    def identity(cls, n: int) -> "IndexVector":
        """Entry i maps to exactly row i (1:1 child, e.g. per-entry payload)."""
        idx = np.arange(n, dtype=np.int64)
        return cls(idx, idx + 1)


class FTreeNode:
    """One node: an f-Block, a selection vector, and child edges.

    Nodes hold no reference to their parent, so a tree has no reference
    cycle and is freed as soon as the query drops it.
    """

    __slots__ = ("name", "block", "selection", "children")

    def __init__(self, name: str, block: FBlock, selection: np.ndarray | None = None) -> None:
        self.name = name
        self.block = block
        if selection is None:
            selection = np.ones(len(block), dtype=bool)
        if len(selection) != len(block):
            raise FactorizationError("selection vector length must match block cardinality")
        self.selection = selection
        self.children: list[tuple["FTreeNode", IndexVector]] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def and_selection(self, mask: np.ndarray) -> None:
        """Conjoin a filter mask into the selection vector (paper Filter op)."""
        if len(mask) != len(self.block):
            raise FactorizationError("filter mask length must match block cardinality")
        self.selection &= mask

    @property
    def num_valid(self) -> int:
        return int(self.selection.sum())

    def __repr__(self) -> str:
        return (
            f"FTreeNode({self.name!r}, schema={self.block.schema}, "
            f"n={len(self.block)}, valid={self.num_valid}, children={len(self.children)})"
        )


class FTree:
    """A rooted f-Tree factorizing one intermediate relation.

    Nodes and columns are added through :meth:`add_child` and
    :meth:`add_column`, which keep the byte count :attr:`nbytes` reads.
    """

    def __init__(self, root: FTreeNode) -> None:
        self.root = root
        self._attr_to_node: dict[str, FTreeNode] = {}
        # Footprint of everything that cannot change size (eager columns,
        # selection and index vectors); lazy columns are charged on read.
        self._fixed_bytes = 0
        self._lazy_columns: list[LazyNeighborColumn] = []
        self._adopt(root, None)

    def _adopt(self, node: FTreeNode, index_vector: IndexVector | None) -> None:
        """Register the attributes of *node*'s subtree and charge its bytes."""
        for attr in node.block.schema:
            if attr in self._attr_to_node:
                raise FactorizationError(
                    f"attribute {attr!r} violates the disjoint schema partition"
                )
            self._attr_to_node[attr] = node
            self._charge(node.block.column(attr))
        self._fixed_bytes += int(node.selection.nbytes)
        if index_vector is not None:
            self._fixed_bytes += index_vector.nbytes
        for child, child_index_vector in node.children:
            self._adopt(child, child_index_vector)

    def _charge(self, column: ColumnLike) -> None:
        if isinstance(column, LazyNeighborColumn):
            self._lazy_columns.append(column)
        else:
            self._fixed_bytes += column.nbytes

    # -- structure -----------------------------------------------------------

    @classmethod
    def single(cls, name: str, block: FBlock) -> "FTree":
        """An f-Tree of one node (degenerate case: just an f-Block)."""
        return cls(FTreeNode(name, block))

    def add_child(
        self,
        parent: FTreeNode,
        name: str,
        block: FBlock,
        index_vector: IndexVector,
        selection: np.ndarray | None = None,
    ) -> FTreeNode:
        """Attach a new node under *parent* (what each Expand does)."""
        if len(index_vector) != len(parent.block):
            raise FactorizationError(
                "index vector must have one range per parent entry "
                f"({len(index_vector)} != {len(parent.block)})"
            )
        if len(block) and index_vector.ends.size and index_vector.ends.max() > len(block):
            raise FactorizationError("index vector range exceeds child block")
        node = FTreeNode(name, block, selection)
        parent.children.append((node, index_vector))
        self._adopt(node, index_vector)
        return node

    def node_of(self, attr: str) -> FTreeNode:
        """The unique node holding *attr* (disjoint schema partition)."""
        try:
            return self._attr_to_node[attr]
        except KeyError:
            raise FactorizationError(f"no f-Tree node holds attribute {attr!r}") from None

    def has_attr(self, attr: str) -> bool:
        """True when some node of the tree holds *attr*."""
        return attr in self._attr_to_node

    @property
    def schema(self) -> list[str]:
        """S(R_{F_T}): the union of all node schemas (document order)."""
        out: list[str] = []
        for node in self.nodes():
            out.extend(node.block.schema)
        return out

    def nodes(self) -> Iterator[FTreeNode]:
        """Pre-order traversal."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for child, _ in reversed(node.children):
                stack.append(child)

    def node_named(self, name: str) -> FTreeNode:
        """Look a node up by its name (test/debug convenience)."""
        for node in self.nodes():
            if node.name == name:
                return node
        raise FactorizationError(f"no f-Tree node named {name!r}")

    def add_column(self, node: FTreeNode, column: ColumnLike) -> None:
        """Append a payload column to a node's block (Projection op)."""
        if column.name in self._attr_to_node:
            raise FactorizationError(
                f"attribute {column.name!r} violates the disjoint schema partition"
            )
        node.block.add_column(column)
        self._attr_to_node[column.name] = node
        self._charge(column)

    # -- accounting -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total footprint: blocks + selection vectors + index vectors.

        Kept up to date on every mutation, so reading it does not walk the
        tree.  A lazy neighbor column counts at its current size: 16 bytes
        per reference until ``values()`` materializes it.
        """
        total = self._fixed_bytes
        for column in self._lazy_columns:
            total += column.nbytes
        return total

    # -- validity propagation ---------------------------------------------------

    def subtree_counts(
        self,
    ) -> tuple[dict[int, np.ndarray], dict[int, tuple[np.ndarray, np.ndarray]]]:
        """Per-entry valid-tuple counts of every subtree, in one bottom-up pass.

        Returns ``(counts, spans)`` keyed by ``id(node)``.
        ``counts[id(u)][i]`` is ``|R_u^i|``: 0 when entry ``i`` is filtered
        out or a required child range has no surviving tuples.  Number the
        tuples of a non-root node v's subtree in block order; then for each
        entry ``i`` of v's parent, ``spans[id(v)] = (first, sizes)`` says its
        range covers tuples ``first[i] .. first[i] + sizes[i] - 1``.
        Enumeration, de-factoring and aggregation weights all read this pass.
        """
        counts: dict[int, np.ndarray] = {}
        spans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Reversed pre-order visits every child before its parent.
        for node in reversed(list(self.nodes())):
            result = node.selection.astype(np.int64)
            for child, index_vector in node.children:
                child_counts = counts[id(child)]
                prefix = np.zeros(len(child_counts) + 1, dtype=np.int64)
                child_counts.cumsum(out=prefix[1:])
                first = prefix[index_vector.starts]
                sizes = prefix[index_vector.ends] - first
                spans[id(child)] = (first, sizes)
                result *= sizes
            counts[id(node)] = result
        return counts, spans

    def valid_counts(self, node: FTreeNode | None = None) -> np.ndarray:
        """Per-entry count of valid tuples induced by each entry (R_u^i)."""
        counts, _ = self.subtree_counts()
        return counts[id(node or self.root)]

    def num_tuples(self) -> int:
        """|R_{F_T}| without materializing anything."""
        return int(self.valid_counts().sum())

    # -- constant-delay enumeration (Lemma 4.4) ----------------------------------

    def iter_tuples(self, attrs: Sequence[str] | None = None) -> Iterator[tuple[Any, ...]]:
        """Enumerate valid tuples with O(|schema|) delay per tuple.

        Entries whose subtree yields no valid tuple are skipped using the
        precomputed valid-count arrays, so the delay between consecutive
        outputs never depends on the number of invalid entries in a range
        beyond the first valid one... see ``tests/test_ftree_properties.py``
        for the delay-measurement test.
        """
        attrs = list(attrs) if attrs is not None else self.schema
        for attr in attrs:
            self.node_of(attr)  # validates attribute existence

        counts, _ = self.subtree_counts()

        # Pre-resolve output slots: (column, out position) per node.
        slots: dict[int, list[tuple[Any, int]]] = {}
        for position, attr in enumerate(attrs):
            node = self.node_of(attr)
            column = node.block.column(attr)
            slots.setdefault(id(node), []).append((column, position))

        run = _Enumeration(counts, slots, [None] * len(attrs))
        root_counts = counts[id(self.root)]
        for i in range(len(self.root.block)):
            if root_counts[i] == 0:
                continue
            for _ in run.subtree(self.root, i):
                yield tuple(run.buffer)

    def __repr__(self) -> str:
        return f"FTree(schema={self.schema}, nodes={sum(1 for _ in self.nodes())})"


class _Enumeration:
    """The state of one :meth:`FTree.iter_tuples` run.

    Held in an object rather than in nested closures: a recursive closure
    references itself, so every call would leave a reference cycle behind
    for the collector.
    """

    __slots__ = ("counts", "slots", "buffer")

    def __init__(
        self,
        counts: dict[int, np.ndarray],
        slots: dict[int, list[tuple[Any, int]]],
        buffer: list[Any],
    ) -> None:
        self.counts = counts
        self.slots = slots
        self.buffer = buffer

    def emit(self, node: FTreeNode, i: int) -> None:
        buffer = self.buffer
        for column, position in self.slots.get(id(node), ()):
            getter = getattr(column, "get", None)
            if getter is not None:
                buffer[position] = getter(i)
            else:
                value = column.values()[i]
                buffer[position] = value.item() if isinstance(value, np.generic) else value

    def subtree(self, node: FTreeNode, i: int) -> Iterator[None]:
        """Yield once per valid combination of the subtree rooted at entry
        *i* of *node*, with the buffer filled for this subtree's attributes."""
        self.emit(node, i)
        if node.children:
            yield from self.product(node, i, 0)
        else:
            yield None

    def product(self, node: FTreeNode, i: int, level: int) -> Iterator[None]:
        """Yield once per combination of the child subtrees ``level..``
        under entry *i* of *node*."""
        children = node.children
        if level == len(children):
            yield None
            return
        child, index_vector = children[level]
        child_counts = self.counts[id(child)]
        start, end = index_vector.range_of(i)
        for j in range(start, end):
            if child_counts[j] == 0:
                continue
            for _ in self.subtree(child, j):
                yield from self.product(node, i, level + 1)


def singleton_tree(name: str, **arrays: Any) -> FTree:
    """Convenience: a one-node f-Tree from keyword arrays (tests)."""
    block = FBlock()
    for attr, values in arrays.items():
        block.add_column(Column.from_values(attr, list(values)))
    return FTree.single(name, block)
