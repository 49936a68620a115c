"""Tests for the OLAP analytics procedures, verified against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.exec.procedures import get_procedure
from repro.ldbc import generate
from repro.plan import LogicalPlan, ProcedureCall, lit
from repro.storage.catalog import AdjacencyKey, Direction
from repro.storage.graph import VertexRef
from repro.storage.io import copy_graph
from repro.txn import TransactionManager


def knows_graph(store, n):
    key = AdjacencyKey("Person", "KNOWS", "Person", Direction.OUT)
    view = store.read_view()
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for row in range(n):
        for neighbor in view.neighbors(key, row):
            graph.add_edge(row, int(neighbor))
    return graph


@pytest.fixture(scope="module")
def sf1(sf1_dataset):
    return sf1_dataset, knows_graph(sf1_dataset.store, sf1_dataset.info.num_persons)


class TestPageRank:
    def test_matches_networkx(self, sf1):
        dataset, graph = sf1
        block = get_procedure("pagerank")(dataset.store.read_view(), {})
        ours = dict(block.to_pylist())
        theirs = nx.pagerank(graph, alpha=0.85)
        assert max(abs(theirs[v] - ours[v]) for v in graph) < 1e-4

    def test_ranks_sum_to_one(self, sf1):
        dataset, _ = sf1
        block = get_procedure("pagerank")(dataset.store.read_view(), {})
        total = sum(r for _, r in block.to_pylist())
        assert abs(total - 1.0) < 1e-9

    def test_damping_parameter(self, sf1):
        dataset, _ = sf1
        view = dataset.store.read_view()
        uniformish = get_procedure("pagerank")(view, {"damping": 0.0})
        ranks = [r for _, r in uniformish.to_pylist()]
        assert max(ranks) - min(ranks) < 1e-12  # damping 0 => uniform

    def test_micro_graph_converges_exactly(self, micro_store):
        block = get_procedure("pagerank")(
            micro_store.read_view(), {"iterations": 200, "tolerance": 1e-14}
        )
        ours = dict(block.to_pylist())
        theirs = nx.pagerank(knows_graph(micro_store, 5), alpha=0.85)
        # networkx's own stopping tolerance is 1e-6/node; compare within it.
        assert max(abs(theirs[v] - ours[v]) for v in range(5)) < 1e-5


class TestConnectedComponents:
    def test_matches_networkx(self, sf1):
        dataset, graph = sf1
        block = get_procedure("connected_components")(dataset.store.read_view(), {})
        ours = dict(block.to_pylist())
        theirs = {v: min(c) for c in nx.connected_components(graph) for v in c}
        assert ours == theirs

    def test_micro_graph_single_component(self, micro_store):
        block = get_procedure("connected_components")(micro_store.read_view(), {})
        components = {c for _, c in block.to_pylist()}
        assert components == {0}

    def test_isolated_vertex_is_own_component(self, micro_store):
        micro_store.add_vertex("Person", {"id": 99, "firstName": "I", "age": 1})
        block = get_procedure("connected_components")(micro_store.read_view(), {})
        assert dict(block.to_pylist())[5] == 5


class TestTriangles:
    def test_matches_networkx(self, sf1):
        dataset, graph = sf1
        block = get_procedure("triangle_count")(dataset.store.read_view(), {})
        ours = dict(block.to_pylist())
        theirs = nx.triangles(graph)
        assert all(theirs[v] == ours[v] for v in graph)

    def test_micro_graph_has_no_triangles(self, micro_store):
        block = get_procedure("triangle_count")(micro_store.read_view(), {})
        assert all(t == 0 for _, t in block.to_pylist())

    def test_planted_triangle(self, micro_store):
        # Close the 0-1-3 path into a triangle (KNOWS kept symmetric).
        micro_store.add_edge("KNOWS", VertexRef("Person", 0), VertexRef("Person", 3))
        micro_store.add_edge("KNOWS", VertexRef("Person", 3), VertexRef("Person", 0))
        block = get_procedure("triangle_count")(micro_store.read_view(), {})
        ours = dict(block.to_pylist())
        assert ours[0] == ours[1] == ours[3] == 1
        assert ours[2] == ours[4] == 0


class TestDegreeDistribution:
    def test_total_matches_vertex_count(self, sf1):
        dataset, _ = sf1
        block = get_procedure("degree_distribution")(dataset.store.read_view(), {})
        assert sum(n for _, n in block.to_pylist()) == dataset.info.num_persons

    def test_micro_graph(self, micro_store):
        block = get_procedure("degree_distribution")(micro_store.read_view(), {})
        # Persons 0,1,2 have two friends; persons 3,4 have one.
        assert dict(block.to_pylist()) == {1: 2, 2: 3}


class TestIntegration:
    def test_callable_from_a_plan(self, micro_store):
        from repro.exec import execute_factorized

        plan = LogicalPlan(
            [ProcedureCall("pagerank", {"vertex_label": lit("Person"),
                                        "edge_label": lit("KNOWS")})],
            returns=["vertex", "rank"],
        )
        result = execute_factorized(plan, micro_store.read_view())
        assert len(result.rows) == 5

    def test_updated_adjacency_matches_compacted_twin(self):
        """On a list carrying version stamps and tombstones, every analytic
        answers what it answers on the bulk-loaded twin of the same graph."""
        store = generate("SF1", seed=42).store
        manager = TransactionManager(store)
        key = AdjacencyKey("Person", "KNOWS", "Person", Direction.OUT)
        edges = [
            (row, int(n))
            for row in range(len(store.table("Person")))
            for n in store.read_view().neighbors(key, row)
        ]
        rng = np.random.default_rng(11)
        picked = [edges[i] for i in rng.choice(len(edges), size=30, replace=False)]
        txn = manager.begin()
        for a, b in picked[:20]:  # versioned deletes, both directions
            txn.remove_edge("KNOWS", VertexRef("Person", a), VertexRef("Person", b))
            txn.remove_edge("KNOWS", VertexRef("Person", b), VertexRef("Person", a))
        txn.add_edge("KNOWS", VertexRef("Person", 0), VertexRef("Person", 149))
        txn.add_edge("KNOWS", VertexRef("Person", 149), VertexRef("Person", 0))
        txn.commit()
        for a, b in picked[20:]:  # tombstones, one direction only
            store.remove_edge("KNOWS", VertexRef("Person", a), VertexRef("Person", b))
        assert store.adjacency(key).is_versioned and not store.adjacency(key).supports_segments

        view = store.read_view(manager.versions.current(), manager.overlay)
        twin = copy_graph(store).read_view()
        for name in ("connected_components", "triangle_count", "degree_distribution"):
            ours = get_procedure(name)(view, {}).to_pylist()
            assert ours == get_procedure(name)(twin, {}).to_pylist(), name
        ranks = np.asarray(get_procedure("pagerank")(view, {}).to_pylist())
        twin_ranks = np.asarray(get_procedure("pagerank")(twin, {}).to_pylist())
        np.testing.assert_allclose(ranks, twin_ranks, rtol=0, atol=1e-15)
