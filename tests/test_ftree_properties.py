"""Property-based tests: f-Tree semantics against a brute-force oracle.

The oracle implements equations (1) and (2) of the paper directly (nested
Python loops over ranges), independently of the production enumeration and
materialization code paths.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    Column,
    FBlock,
    FTree,
    FTreeNode,
    IndexVector,
    LazyNeighborColumn,
    materialize,
)
from repro.exec.aggregate import tuples_through
from repro.types import DataType


# -- random f-Tree strategy ------------------------------------------------------


@st.composite
def random_trees(draw) -> FTree:
    """Random trees of depth <= 3, fan-out <= 2, block sizes <= 5."""
    counter = [0]

    def fresh_block(size: int) -> FBlock:
        counter[0] += 1
        values = draw(
            st.lists(st.integers(-5, 5), min_size=size, max_size=size)
        )
        return FBlock([Column(f"a{counter[0]}", DataType.INT64, values)])

    def random_selection(size: int) -> np.ndarray:
        bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return np.asarray(bits, dtype=bool)

    def random_index_vector(parent_size: int, child_size: int) -> IndexVector:
        starts = []
        ends = []
        for _ in range(parent_size):
            if child_size == 0:
                starts.append(0)
                ends.append(0)
                continue
            start = draw(st.integers(0, child_size))
            end = draw(st.integers(start, child_size))
            starts.append(start)
            ends.append(end)
        return IndexVector(np.asarray(starts), np.asarray(ends))

    root_size = draw(st.integers(1, 4))
    tree = FTree.single("root", fresh_block(root_size))
    tree.root.and_selection(random_selection(root_size))

    def grow(node: FTreeNode, depth: int) -> None:
        if depth >= 3:
            return
        for _ in range(draw(st.integers(0, 2))):
            child_size = draw(st.integers(0, 5))
            block = fresh_block(child_size)
            iv = random_index_vector(len(node.block), child_size)
            child = tree.add_child(node, f"n{counter[0]}", block, iv)
            child.and_selection(random_selection(child_size))
            grow(child, depth + 1)

    grow(tree.root, 1)
    return tree


# -- brute-force oracle (paper equations 1 and 2) -----------------------------------


def oracle_mappings(tree: FTree) -> list[dict]:
    """R as attr->value dicts, each also mapping ``id(node)`` to the entry
    of that node the tuple passes through."""

    def induced(node: FTreeNode, i: int) -> list[dict]:
        """R_u^i as a list of attr->value dicts."""
        if not node.selection[i]:
            return []
        own = {
            attr: node.block.column(attr).get(i) for attr in node.block.schema
        }
        own[id(node)] = i
        partials = [own]
        for child, iv in node.children:
            start, end = iv.range_of(i)
            child_tuples: list[dict] = []
            for j in range(start, end):
                child_tuples.extend(induced(child, j))
            combined = []
            for left in partials:
                for right in child_tuples:
                    combined.append({**left, **right})
            partials = combined
        return partials

    out: list[dict] = []
    for i in range(len(tree.root.block)):
        out.extend(induced(tree.root, i))
    return out


def oracle_tuples(tree: FTree) -> list[tuple]:
    schema = tree.schema
    return [tuple(mapping[a] for a in schema) for mapping in oracle_mappings(tree)]


def branching_tree() -> FTree:
    """A root with two children, so the weight of child ``a`` depends on how
    many selected entries of its sibling ``b`` each root entry covers::

        root[0] -> a[0:1], b[0:3]  (b[1] deselected: 2 selected entries)
        root[1] -> a[1:3], b[3:4]
    """

    def block(name: str, n: int) -> FBlock:
        return FBlock([Column(name, DataType.INT64, list(range(n)))])

    tree = FTree.single("root", block("root", 2))
    tree.add_child(tree.root, "a", block("a", 3),
                   IndexVector(np.asarray([0, 1]), np.asarray([1, 3])))
    b = tree.add_child(tree.root, "b", block("b", 4),
                       IndexVector(np.asarray([0, 3]), np.asarray([3, 4])))
    b.and_selection(np.asarray([True, False, True, True]))
    return tree


# -- properties --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_enumeration_matches_oracle(tree: FTree):
    assert list(tree.iter_tuples()) == oracle_tuples(tree)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_materialization_matches_oracle(tree: FTree):
    assert materialize(tree).to_pylist() == oracle_tuples(tree)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_num_tuples_matches_oracle(tree: FTree):
    assert tree.num_tuples() == len(oracle_tuples(tree))


@settings(max_examples=40, deadline=None)
@given(random_trees())
@example(branching_tree())
def test_tuples_through_sums_to_total(tree: FTree):
    """tuples_through(node)[j] is the number of tuples of R passing through
    entry j, so Σ_j tuples_through(node)[j] == |R| for every node."""
    mappings = oracle_mappings(tree)
    for node in tree.nodes():
        through = tuples_through(tree, node)
        counts = np.zeros(len(node.block), dtype=np.int64)
        for mapping in mappings:
            counts[mapping[id(node)]] += 1
        assert through.tolist() == counts.tolist()
        assert int(through.sum()) == tree.num_tuples()


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_selection_is_monotone(tree: FTree):
    """Clearing selection bits can only shrink the relation."""
    before = tree.num_tuples()
    for node in tree.nodes():
        if len(node.block):
            mask = np.ones(len(node.block), dtype=bool)
            mask[0] = False
            node.and_selection(mask)
            break
    assert tree.num_tuples() <= before


@settings(max_examples=30, deadline=None)
@given(random_trees())
def test_projection_consistency(tree: FTree):
    """Projected enumeration equals projecting the full enumeration."""
    schema = tree.schema
    if len(schema) < 2:
        return
    attrs = [schema[-1], schema[0]]
    full = list(tree.iter_tuples())
    expected = [
        (row[schema.index(attrs[0])], row[schema.index(attrs[1])]) for row in full
    ]
    assert list(tree.iter_tuples(attrs)) == expected


def walked_nbytes(tree: FTree) -> int:
    """Reference footprint: every node's block and selection vector, and
    every edge's index vector, summed by walking the whole tree."""
    total = 0
    for node in tree.nodes():
        total += node.block.nbytes + int(node.selection.nbytes)
        for _, index_vector in node.children:
            total += index_vector.nbytes
    return total


@settings(max_examples=40, deadline=None)
@given(random_trees(), st.data())
def test_nbytes_matches_walk(tree: FTree, data):
    """The byte count kept on mutation equals a full walk after each kind
    of mutation: a payload column, a lazy child, and its materialization."""
    assert tree.nbytes == walked_nbytes(tree)
    node = data.draw(st.sampled_from(list(tree.nodes())))
    n = len(node.block)

    strings = data.draw(st.lists(st.one_of(st.none(), st.text(max_size=3)), min_size=n, max_size=n))
    tree.add_column(node, Column("extra", DataType.STRING, strings,
                                 [s is not None for s in strings]))
    assert tree.nbytes == walked_nbytes(tree)

    lengths = np.asarray(
        data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64
    )
    lazy = LazyNeighborColumn(
        "lazy", np.arange(100, 103, dtype=np.int64), np.zeros(n, dtype=np.int64), lengths
    )
    before = tree.nbytes
    child = tree.add_child(node, "lazy", FBlock([lazy]), IndexVector.from_lengths(lengths))
    assert tree.nbytes == walked_nbytes(tree)
    # Unmaterialized, the column costs 16 B per reference, not per id.
    assert tree.nbytes - before == 16 * n + child.selection.nbytes + 16 * n

    lazy.values()
    assert lazy.is_materialized
    assert tree.nbytes == walked_nbytes(tree)
    assert tree.nbytes - before == 8 * len(lazy) + child.selection.nbytes + 16 * n


# -- seeded adversarial shapes (stdlib random; no hypothesis shrinking) -------------
#
# The fuzz harness relies on stdlib ``random.Random`` being bit-identical
# across platforms, so these round-trips double as its foundation: for each
# seed, build an f-Tree biased hard toward the degenerate shapes that broke
# engines historically — empty unions (parents whose child range is empty),
# zero-row f-Blocks, and single-slot Cartesian products (a width-1 parent
# with several fully-spanning children) — then de-factor and compare against
# the brute-force oracle.


def _adversarial_tree(rng: random.Random) -> FTree:
    """One seeded tree drawn from a distribution of degenerate shapes."""
    counter = [0]

    def block(size: int) -> FBlock:
        counter[0] += 1
        values = [rng.randint(-3, 3) for _ in range(size)]
        return FBlock([Column(f"a{counter[0]}", DataType.INT64, values)])

    def selection(size: int) -> np.ndarray:
        # Bias toward all-kept and all-dropped, the boundary regimes.
        mode = rng.random()
        if mode < 0.4:
            return np.ones(size, dtype=bool)
        if mode < 0.55:
            return np.zeros(size, dtype=bool)
        return np.asarray([rng.random() < 0.6 for _ in range(size)], dtype=bool)

    def index_vector(parent_size: int, child_size: int) -> IndexVector:
        starts, ends = [], []
        for _ in range(parent_size):
            mode = rng.random()
            if child_size == 0 or mode < 0.3:
                # Empty union: this parent slot induces no child tuples.
                start = rng.randint(0, child_size) if child_size else 0
                starts.append(start)
                ends.append(start)
            elif mode < 0.6:
                # Fully spanning: Cartesian with every child slot.
                starts.append(0)
                ends.append(child_size)
            else:
                start = rng.randint(0, child_size)
                starts.append(start)
                ends.append(rng.randint(start, child_size))
        return IndexVector(np.asarray(starts), np.asarray(ends))

    shape = rng.random()
    if shape < 0.3:
        # Single-slot Cartesian product: width-1 root, spanning children.
        tree = FTree.single("root", block(1))
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(0, 4)  # zero-row children stay in play
            iv = IndexVector(np.asarray([0]), np.asarray([size]))
            child = tree.add_child(tree.root, f"n{counter[0]}", block(size), iv)
            child.and_selection(selection(size))
        return tree

    root_size = 0 if shape < 0.4 else rng.randint(1, 4)
    tree = FTree.single("root", block(root_size))
    tree.root.and_selection(selection(root_size))

    def grow(node: FTreeNode, depth: int) -> None:
        if depth >= 4:
            return
        for _ in range(rng.randint(0, 2)):
            child_size = rng.randint(0, 5)
            child = tree.add_child(
                node,
                f"n{counter[0]}",
                block(child_size),
                index_vector(len(node.block), child_size),
            )
            child.and_selection(selection(child_size))
            grow(child, depth + 1)

    grow(tree.root, 1)
    return tree


@pytest.mark.parametrize("seed", range(8))
def test_seeded_adversarial_round_trip(seed):
    """Enumeration, materialization, and counting agree with the oracle on
    120 seeded degenerate trees per seed."""
    rng = random.Random(f"ftree:{seed}")
    for _ in range(120):
        tree = _adversarial_tree(rng)
        expected = oracle_tuples(tree)
        assert list(tree.iter_tuples()) == expected
        assert materialize(tree).to_pylist() == expected
        assert tree.num_tuples() == len(expected)


def test_adversarial_generator_is_deterministic():
    """Same seed -> the same trees -> the same flat relations."""

    def relations(seed):
        rng = random.Random(f"ftree:{seed}")
        return [oracle_tuples(_adversarial_tree(rng)) for _ in range(30)]

    assert relations(3) == relations(3)


def test_zero_row_root_defactors_to_empty():
    tree = FTree.single("root", FBlock([Column("a", DataType.INT64, [])]))
    assert list(tree.iter_tuples()) == []
    assert materialize(tree).to_pylist() == []
    assert tree.num_tuples() == 0


def test_empty_union_annihilates_slot():
    """A parent slot whose child range is empty contributes no tuples."""
    tree = FTree.single("root", FBlock([Column("a", DataType.INT64, [1, 2])]))
    child_block = FBlock([Column("b", DataType.INT64, [10, 20])])
    # Slot 0 spans both children; slot 1's union is empty.
    iv = IndexVector(np.asarray([0, 2]), np.asarray([2, 2]))
    tree.add_child(tree.root, "c", child_block, iv)
    assert list(tree.iter_tuples()) == [(1, 10), (1, 20)]
    assert tree.num_tuples() == 2


def test_single_slot_cartesian_product():
    """Width-1 parent with two spanning children multiplies out exactly."""
    tree = FTree.single("root", FBlock([Column("a", DataType.INT64, [7])]))
    left = FBlock([Column("b", DataType.INT64, [1, 2, 3])])
    right = FBlock([Column("c", DataType.INT64, [4, 5])])
    span = lambda n: IndexVector(np.asarray([0]), np.asarray([n]))  # noqa: E731
    tree.add_child(tree.root, "l", left, span(3))
    tree.add_child(tree.root, "r", right, span(2))
    assert tree.num_tuples() == 6
    assert materialize(tree).to_pylist() == oracle_tuples(tree)


@settings(max_examples=20, deadline=None)
@given(random_trees(), st.integers(0, 5))
def test_enumeration_prefix_equals_materialized_prefix(tree: FTree, n: int):
    """Taking n tuples from the generator matches the first n flat rows
    (the Limit-via-Lemma-4.4 path)."""
    gen = tree.iter_tuples()
    prefix = []
    for _ in range(n):
        try:
            prefix.append(next(gen))
        except StopIteration:
            break
    assert prefix == materialize(tree).to_pylist()[: len(prefix)]
