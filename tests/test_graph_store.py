"""Tests for the GraphStore facade and versioned read views."""

import numpy as np
import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import AdjacencyKey, Direction, VertexRef


KNOWS_OUT = AdjacencyKey("Person", "KNOWS", "Person", Direction.OUT)
CREATOR_IN = AdjacencyKey("Person", "HAS_CREATOR", "Message", Direction.IN)
CREATOR_OUT = AdjacencyKey("Message", "HAS_CREATOR", "Person", Direction.OUT)


class TestStoreBasics:
    def test_vertex_count(self, micro_store):
        assert micro_store.vertex_count == 5 + 6 + 3

    def test_edge_count_counts_out_lists_once(self, micro_store):
        # 8 KNOWS (symmetric pairs stored as directed) + 6 creators + 5 tags
        assert micro_store.edge_count == 8 + 6 + 5

    def test_unknown_label_raises(self, micro_store):
        with pytest.raises(SchemaError):
            micro_store.table("Ghost")

    def test_unknown_adjacency_raises(self, micro_store):
        with pytest.raises(StorageError):
            micro_store.adjacency(AdjacencyKey("Person", "GHOST", "Person", Direction.OUT))

    def test_nbytes_positive(self, micro_store):
        assert micro_store.nbytes > 0

    def test_add_vertex(self, micro_store):
        ref = micro_store.add_vertex("Person", {"id": 99, "firstName": "Z", "age": 1})
        assert ref.label == "Person"
        assert micro_store.table("Person").row_for_key(99) == ref.row

    def test_add_edge_maintains_mirror(self, micro_store):
        m = VertexRef("Message", 0)
        p = VertexRef("Person", 4)
        micro_store.add_edge("HAS_CREATOR", m, p)
        view = micro_store.read_view()
        assert 0 in view.neighbors(CREATOR_IN, 4).tolist()
        assert 4 in view.neighbors(CREATOR_OUT, 0).tolist()

    def test_add_edge_validates_schema(self, micro_store):
        with pytest.raises(SchemaError):
            micro_store.add_edge("KNOWS", VertexRef("Message", 0), VertexRef("Person", 0))

    def test_remove_edge_both_sides(self, micro_store):
        removed = micro_store.remove_edge(
            "HAS_CREATOR", VertexRef("Message", 0), VertexRef("Person", 1)
        )
        assert removed
        view = micro_store.read_view()
        assert 1 not in view.neighbors(CREATOR_OUT, 0).tolist()
        assert 0 not in view.neighbors(CREATOR_IN, 1).tolist()

    def test_remove_missing_edge(self, micro_store):
        assert not micro_store.remove_edge(
            "HAS_CREATOR", VertexRef("Message", 0), VertexRef("Person", 4)
        )


class TestVertexRef:
    def test_equality_and_hash(self):
        assert VertexRef("A", 1) == VertexRef("A", 1)
        assert VertexRef("A", 1) != VertexRef("B", 1)
        assert len({VertexRef("A", 1), VertexRef("A", 1)}) == 1

    def test_repr(self):
        assert "VertexRef" in repr(VertexRef("A", 1))


class TestReadView:
    def test_vertex_by_key(self, micro_store):
        view = micro_store.read_view()
        assert view.vertex_by_key("Person", 3) == 3
        assert view.vertex_by_key("Person", 999) is None

    def test_neighbors(self, micro_store):
        view = micro_store.read_view()
        assert sorted(view.neighbors(KNOWS_OUT, 0).tolist()) == [1, 2]

    def test_degree(self, micro_store):
        view = micro_store.read_view()
        assert view.degree(KNOWS_OUT, 0) == 2

    def test_gather_properties(self, micro_store):
        view = micro_store.read_view()
        names = view.gather_properties("Person", "firstName", np.asarray([1, 3]))
        assert names.tolist() == ["B", "B"]

    def test_vertex_key_roundtrip(self, micro_store):
        view = micro_store.read_view()
        assert view.vertex_key("Message", 2) == 102

    def test_versioned_view_hides_new_vertices(self, micro_store):
        ref = micro_store.add_vertex("Person", {"id": 77, "firstName": "N", "age": 2})
        micro_store.table("Person").mark_created(ref.row, 3)
        old = micro_store.read_view(version=2)
        new = micro_store.read_view(version=3)
        assert old.vertex_by_key("Person", 77) is None
        assert new.vertex_by_key("Person", 77) == ref.row
        assert ref.row not in old.all_rows("Person").tolist()
        assert ref.row in new.all_rows("Person").tolist()
