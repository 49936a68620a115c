"""Tests for the f-Tree, including the paper's worked Example 4.2."""

import numpy as np
import pytest

from repro.core import Column, FBlock, FTree, IndexVector, LazyNeighborColumn, materialize
from repro.errors import FactorizationError
from repro.types import DataType


def example_4_2() -> FTree:
    """The exact f-Tree of paper Figure 7 / Example 4.2."""
    root_block = FBlock(
        [Column("pId", DataType.STRING, np.asarray(["p1", "p2"], dtype=object))]
    )
    tree = FTree.single("r", root_block)
    u_block = FBlock(
        [
            Column("comId", DataType.STRING, np.asarray(["c1", "c2", "c3", "c4"], dtype=object)),
            Column("comLen", DataType.INT64, np.asarray([6, 9, 5, 7])),
        ]
    )
    u = tree.add_child(
        tree.root, "u", u_block, IndexVector(np.asarray([0, 2]), np.asarray([2, 4]))
    )
    u.and_selection(np.asarray([True, False, True, False]))
    v_block = FBlock(
        [
            Column("postId", DataType.STRING, np.asarray(["m1", "m2", "m3"], dtype=object)),
            Column("postLen", DataType.INT64, np.asarray([140, 123, 120])),
        ]
    )
    tree.add_child(
        tree.root, "v", v_block, IndexVector(np.asarray([0, 1]), np.asarray([1, 3]))
    )
    return tree


class TestIndexVector:
    def test_from_lengths(self):
        iv = IndexVector.from_lengths(np.asarray([2, 0, 3]))
        assert iv.starts.tolist() == [0, 2, 2]
        assert iv.ends.tolist() == [2, 2, 5]

    def test_identity(self):
        iv = IndexVector.identity(3)
        assert iv.range_of(1) == (1, 2)

    def test_negative_range_rejected(self):
        with pytest.raises(FactorizationError):
            IndexVector(np.asarray([2]), np.asarray([1]))

    def test_from_lengths_rejects_negative_length(self):
        with pytest.raises(FactorizationError):
            IndexVector.from_lengths(np.asarray([1, -1, 2]))

    def test_from_lengths_empty(self):
        iv = IndexVector.from_lengths(np.asarray([], dtype=np.int64))
        assert len(iv) == 0 and iv.nbytes == 0

    def test_nbytes_counts_starts_and_ends(self):
        # Two int64 vectors of three entries each.
        assert IndexVector.from_lengths(np.asarray([2, 0, 1])).nbytes == 48
        assert IndexVector.identity(5).nbytes == 80

    def test_length_mismatch_rejected(self):
        with pytest.raises(FactorizationError):
            IndexVector(np.asarray([0, 1]), np.asarray([1]))

    def test_lengths(self):
        iv = IndexVector(np.asarray([0, 3]), np.asarray([2, 7]))
        assert iv.lengths().tolist() == [2, 4]


class TestExample42:
    """Every number in this class comes straight from the paper."""

    def test_num_tuples_is_three(self):
        assert example_4_2().num_tuples() == 3

    def test_enumeration_matches_paper(self):
        rows = list(example_4_2().iter_tuples())
        assert rows == [
            ("p1", "c1", 6, "m1", 140),
            ("p2", "c3", 5, "m2", 123),
            ("p2", "c3", 5, "m3", 120),
        ]

    def test_materialize_matches_enumeration(self):
        tree = example_4_2()
        flat = materialize(tree)
        assert flat.to_pylist() == list(tree.iter_tuples())

    def test_disjoint_schema_partition(self):
        tree = example_4_2()
        assert tree.schema == ["pId", "comId", "comLen", "postId", "postLen"]

    def test_valid_counts_per_root_entry(self):
        # |R_r^1| = 1, |R_r^2| = 2 (Example 4.2).
        assert example_4_2().valid_counts().tolist() == [1, 2]

    def test_attribute_projection(self):
        rows = list(example_4_2().iter_tuples(["postLen", "pId"]))
        assert rows == [(140, "p1"), (123, "p2"), (120, "p2")]


class TestFTreeStructure:
    def test_duplicate_attribute_rejected(self):
        tree = FTree.single("r", FBlock.from_arrays(a=[1]))
        with pytest.raises(FactorizationError):
            tree.add_child(
                tree.root, "c", FBlock.from_arrays(a=[2]), IndexVector.from_lengths([1])
            )

    def test_index_vector_arity_must_match_parent(self):
        tree = FTree.single("r", FBlock.from_arrays(a=[1, 2]))
        with pytest.raises(FactorizationError):
            tree.add_child(
                tree.root, "c", FBlock.from_arrays(b=[1]), IndexVector.from_lengths([1])
            )

    def test_range_exceeding_child_rejected(self):
        tree = FTree.single("r", FBlock.from_arrays(a=[1]))
        with pytest.raises(FactorizationError):
            tree.add_child(
                tree.root,
                "c",
                FBlock.from_arrays(b=[1]),
                IndexVector(np.asarray([0]), np.asarray([5])),
            )

    def test_node_of(self):
        tree = example_4_2()
        assert tree.node_of("comLen").name == "u"
        assert tree.node_of("pId").name == "r"

    def test_node_of_unknown_raises(self):
        with pytest.raises(FactorizationError):
            example_4_2().node_of("ghost")

    def test_add_column_updates_attribute_map(self):
        tree = example_4_2()
        node = tree.node_of("postId")
        tree.add_column(node, Column("extra", DataType.INT64, [1, 2, 3]))
        assert tree.node_of("extra") is node

    def test_add_column_disjointness(self):
        tree = example_4_2()
        with pytest.raises(FactorizationError):
            tree.add_column(tree.root, Column("comLen", DataType.INT64, [0, 0]))

    def test_selection_length_checked(self):
        tree = example_4_2()
        with pytest.raises(FactorizationError):
            tree.root.and_selection(np.asarray([True]))

    def test_nodes_preorder(self):
        names = [n.name for n in example_4_2().nodes()]
        assert names == ["r", "u", "v"]

    def test_node_named(self):
        assert example_4_2().node_named("v").block.schema == ["postId", "postLen"]

    def test_nbytes_smaller_than_flat_for_shared_prefix(self):
        # A 1 x 1000 expansion: factorized stores the parent value once.
        tree = FTree.single("r", FBlock.from_arrays(p=[42]))
        child = FBlock([Column("n", DataType.INT64, np.arange(1000))])
        tree.add_child(tree.root, "c", child, IndexVector.from_lengths([1000]))
        flat = materialize(tree)
        assert tree.nbytes < flat.nbytes

    def test_nbytes_pinned_with_lazy_child(self):
        # Root: 2 int64 values (16 B) + 2 selection bytes.
        tree = FTree.single("r", FBlock([Column("p", DataType.INT64, [0, 1])]))
        assert tree.nbytes == 18
        lazy = LazyNeighborColumn(
            "n", np.arange(10, dtype=np.int64), np.asarray([0, 4]), np.asarray([3, 2])
        )
        tree.add_child(tree.root, "c", FBlock([lazy]), IndexVector.from_lengths([3, 2]))
        # + 2 references at 16 B, 5 selection bytes, a 2-entry index vector.
        assert tree.nbytes == 18 + 2 * 16 + 5 + 32
        lazy.values()
        # Materialized: the column is charged at its 5 int64 ids.
        assert tree.nbytes == 18 + 5 * 8 + 5 + 32
        tree.add_column(tree.root, Column("s", DataType.STRING, ["ab", None], [True, False]))
        # 2 object slots + 2 payload bytes + a 2-byte validity mask.
        assert tree.nbytes == 18 + 5 * 8 + 5 + 32 + 2 * 8 + 2 + 2

    def test_root_selection_filters_everything(self):
        tree = example_4_2()
        tree.root.and_selection(np.asarray([False, True]))
        assert tree.num_tuples() == 2
        assert list(tree.iter_tuples(["pId"])) == [("p2",), ("p2",)]

    def test_empty_child_range_kills_parent_entry(self):
        tree = FTree.single("r", FBlock.from_arrays(p=[1, 2]))
        child = FBlock.from_arrays(c=[10])
        tree.add_child(
            tree.root, "c", child, IndexVector(np.asarray([0, 1]), np.asarray([1, 1]))
        )
        assert tree.num_tuples() == 1
        assert list(tree.iter_tuples()) == [(1, 10)]
