"""Tests for stored procedures (IC13/IC14 machinery), verified against
networkx as an independent oracle and against a scalar per-vertex
reference on versioned stores."""

import re
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.exec
from repro.errors import ExecutionError
from repro.exec.procedures import (
    _enumerate_shortest_paths,
    get_procedure,
    register_procedure,
)
from repro.ldbc import generate
from repro.storage import GraphSchema, GraphStore, PropertyDef, VertexLabelDef
from repro.storage.catalog import AdjacencyKey, Direction, EdgeLabelDef
from repro.storage.graph import VertexRef
from repro.txn import TransactionManager
from repro.types import DataType

KNOWS = AdjacencyKey("Person", "KNOWS", "Person", Direction.OUT)


# -- scalar reference: one ``view.neighbors`` call per visited vertex ---------


def ref_bfs(view, start, goal=None, max_depth=None):
    """Dict BFS over KNOWS: (row -> depth, depth of goal or -1)."""
    depths = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        if goal is not None and goal in depths:
            return depths, depths[goal]
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier = []
        for row in frontier:
            for neighbor in view.neighbors(KNOWS, row):
                neighbor = int(neighbor)
                if neighbor not in depths:
                    depths[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return depths, (depths.get(goal, -1) if goal is not None else -1)


def ref_paths(view, src, dst, max_paths=1000):
    """Shortest paths by a DFS back from dst over per-vertex neighbor calls."""
    depths, goal_depth = ref_bfs(view, src, goal=dst)
    if goal_depth < 0:
        return []
    paths = []
    stack = [[dst]]
    while stack and len(paths) < max_paths:
        partial = stack.pop()
        head = partial[-1]
        if depths[head] == 0:
            paths.append(list(reversed(partial)))
            continue
        for neighbor in view.neighbors(KNOWS, head):
            neighbor = int(neighbor)
            if depths.get(neighbor, -1) == depths[head] - 1:
                stack.append(partial + [neighbor])
    return paths


def ref_pair_weight(view, a, b):
    """IC14 weight of one pair: 1.0 per reply to a post, 0.5 per reply to a
    comment, between *a* and *b* in both directions."""
    created = AdjacencyKey("Person", "HAS_CREATOR", "Message", Direction.IN)
    reply_of = AdjacencyKey("Message", "REPLY_OF", "Message", Direction.OUT)
    has_creator = AdjacencyKey("Message", "HAS_CREATOR", "Person", Direction.OUT)
    is_post = view.store.table("Message").column("isPost").view()
    weight = 0.0
    for author, other in ((a, b), (b, a)):
        for message in view.neighbors(created, author):
            parents = view.neighbors(reply_of, int(message))
            if len(parents) == 0:
                continue
            parent = int(parents[0])
            creators = view.neighbors(has_creator, parent)
            if len(creators) and int(creators[0]) == other:
                weight += 1.0 if bool(is_post[parent]) else 0.5
    return weight


def ref_weighted_paths(view, src, dst):
    """IC14 rows: (comma-joined person ids, weight), weight descending."""
    pair_weights = {}

    def pair_weight(x, y):
        key = (min(x, y), max(x, y))
        if key not in pair_weights:
            pair_weights[key] = ref_pair_weight(view, *key)
        return pair_weights[key]

    rows = []
    for path in ref_paths(view, src, dst):
        ids = ",".join(str(view.vertex_key("Person", row)) for row in path)
        weight = sum(pair_weight(path[i], path[i + 1]) for i in range(len(path) - 1))
        rows.append((ids, float(weight)))
    return sorted(rows, key=lambda r: (-r[1], r[0]))


def ref_khop(view, src, hops):
    depths, _ = ref_bfs(view, src, max_depth=hops)
    return sorted(row for row, depth in depths.items() if 0 < depth <= hops)


def assert_matches_reference(view, pairs, max_paths=(1000, 3, 1)):
    """Every procedure answer on *view* equals the scalar reference."""
    length = get_procedure("shortest_path_length")
    weighted = get_procedure("weighted_shortest_paths")
    khop = get_procedure("khop_neighborhood")
    for src, dst in pairs:
        args = {
            "person1_id": view.vertex_key("Person", src),
            "person2_id": view.vertex_key("Person", dst),
        }
        expected_length = 0 if src == dst else ref_bfs(view, src, goal=dst)[1]
        assert length(view, args).to_pylist() == [(expected_length,)]
        for cap in max_paths:
            assert _enumerate_shortest_paths(view, src, dst, cap) == ref_paths(
                view, src, dst, cap
            ), (src, dst, cap)
        assert weighted(view, args).to_pylist() == ref_weighted_paths(view, src, dst)
        for hops in (1, 2, 3):
            got = khop(view, {"person_id": args["person1_id"], "hops": hops})
            assert [r[0] for r in got.to_pylist()] == ref_khop(view, src, hops)


def knows_graph(store) -> nx.Graph:
    graph = nx.Graph()
    key = AdjacencyKey("Person", "KNOWS", "Person", Direction.OUT)
    adjacency = store.adjacency(key)
    view = store.read_view()
    for row in view.all_rows("Person"):
        graph.add_node(int(row))
        for neighbor in view.neighbors(key, int(row)):
            graph.add_edge(int(row), int(neighbor))
    return graph


class TestShortestPathLength:
    def test_direct_friends(self, micro_store):
        fn = get_procedure("shortest_path_length")
        out = fn(micro_store.read_view(), {"person1_id": 0, "person2_id": 1})
        assert out.to_pylist() == [(1,)]

    def test_two_hops(self, micro_store):
        fn = get_procedure("shortest_path_length")
        out = fn(micro_store.read_view(), {"person1_id": 0, "person2_id": 3})
        assert out.to_pylist() == [(2,)]

    def test_same_person(self, micro_store):
        fn = get_procedure("shortest_path_length")
        out = fn(micro_store.read_view(), {"person1_id": 2, "person2_id": 2})
        assert out.to_pylist() == [(0,)]

    def test_unknown_person(self, micro_store):
        fn = get_procedure("shortest_path_length")
        out = fn(micro_store.read_view(), {"person1_id": 0, "person2_id": 999})
        assert out.to_pylist() == [(-1,)]

    def test_matches_networkx_on_sf1(self, sf1_dataset):
        graph = knows_graph(sf1_dataset.store)
        view = sf1_dataset.store.read_view()
        fn = get_procedure("shortest_path_length")
        table = sf1_dataset.store.table("Person")
        rng = np.random.default_rng(3)
        rows = rng.choice(view.all_rows("Person"), size=10, replace=False)
        for i in range(0, 10, 2):
            a, b = int(rows[i]), int(rows[i + 1])
            ida, idb = table.get_property(a, "id"), table.get_property(b, "id")
            try:
                expected = nx.shortest_path_length(graph, a, b)
            except nx.NetworkXNoPath:
                expected = -1
            got = fn(view, {"person1_id": ida, "person2_id": idb}).to_pylist()[0][0]
            assert got == expected


class TestPathEnumeration:
    def test_all_paths_are_shortest(self, sf1_dataset):
        graph = knows_graph(sf1_dataset.store)
        view = sf1_dataset.store.read_view()
        rows = view.all_rows("Person")
        src, dst = int(rows[0]), int(rows[-1])
        paths = _enumerate_shortest_paths(view, src, dst)
        if not paths:
            pytest.skip("disconnected pair")
        expected_len = nx.shortest_path_length(graph, src, dst)
        assert all(len(p) - 1 == expected_len for p in paths)
        assert all(p[0] == src and p[-1] == dst for p in paths)

    def test_path_count_matches_networkx(self, micro_store):
        view = micro_store.read_view()
        ours = _enumerate_shortest_paths(view, 3, 4)
        expected = list(nx.all_shortest_paths(knows_graph(micro_store), 3, 4))
        assert sorted(map(tuple, ours)) == sorted(map(tuple, expected))


class TestWeightedPaths:
    def test_output_sorted_by_weight_desc(self, sf1_dataset):
        view = sf1_dataset.store.read_view()
        table = sf1_dataset.store.table("Person")
        fn = get_procedure("weighted_shortest_paths")
        rows = view.all_rows("Person")
        out = fn(
            view,
            {
                "person1_id": table.get_property(int(rows[0]), "id"),
                "person2_id": table.get_property(int(rows[5]), "id"),
            },
        )
        weights = [r[1] for r in out.to_pylist()]
        assert weights == sorted(weights, reverse=True)

    def test_unknown_persons_empty(self, micro_store):
        fn = get_procedure("weighted_shortest_paths")
        out = fn(micro_store.read_view(), {"person1_id": -1, "person2_id": -2})
        assert out.to_pylist() == []


class TestRegistry:
    def test_unknown_procedure(self):
        with pytest.raises(ExecutionError):
            get_procedure("ghost")

    def test_register_custom(self, micro_store):
        from repro.core.flatblock import FlatBlock
        from repro.types import DataType

        @register_procedure("answer")
        def answer(view, args):
            return FlatBlock.from_dict({"x": (DataType.INT64, [42])})

        out = get_procedure("answer")(micro_store.read_view(), {})
        assert out.to_pylist() == [(42,)]

    def test_khop_neighborhood(self, micro_store):
        fn = get_procedure("khop_neighborhood")
        out = fn(micro_store.read_view(), {"person_id": 0, "hops": 2})
        assert [r[0] for r in out.to_pylist()] == [1, 2, 3, 4]


# -- the kernel-based procedures against the scalar reference ---------------


def _person(row):
    return VertexRef("Person", int(row))


@pytest.fixture(scope="module")
def versioned_sf1():
    """SF1 after IU-style batches: friendships added (IU8), comments
    replying to posts and comments (IU7), friendships deleted — versioned
    in a transaction and tombstoned outside one.  Returns the store, the
    transaction manager, and the version pinned between the batches."""
    store = generate("SF1", seed=42).store
    manager = TransactionManager(store)
    rng = np.random.default_rng(23)
    persons = len(store.table("Person"))
    messages = store.adjacency(
        AdjacencyKey("Message", "HAS_CREATOR", "Person", Direction.OUT)
    ).num_src
    next_message = 10**9

    def knows_edges():
        view = store.read_view(manager.versions.current(), manager.overlay)
        return [
            (row, int(n)) for row in range(persons) for n in view.neighbors(KNOWS, row)
        ]

    def batch(size):
        nonlocal next_message
        txn = manager.begin()
        for _ in range(size):
            a, b = (int(x) for x in rng.choice(persons, size=2, replace=False))
            txn.add_edge("KNOWS", _person(a), _person(b))
            txn.add_edge("KNOWS", _person(b), _person(a))
        for _ in range(3 * size):
            next_message += 1
            handle = txn.add_vertex("Message", {"id": next_message, "isPost": False})
            txn.add_edge("HAS_CREATOR", handle, _person(rng.integers(persons)))
            txn.add_edge("REPLY_OF", handle, VertexRef("Message", int(rng.integers(messages))))
        edges = knows_edges()
        for i in rng.choice(len(edges), size=2 * size, replace=False):
            a, b = edges[i]
            txn.remove_edge("KNOWS", _person(a), _person(b))
            txn.remove_edge("KNOWS", _person(b), _person(a))
        txn.commit()

    batch(15)
    pinned = manager.versions.current()
    batch(15)
    # Non-transactional deletes tombstone the slots outright.
    for a, b in [knows_edges()[i] for i in rng.choice(40, size=4, replace=False)]:
        store.remove_edge("KNOWS", _person(a), _person(b))
    return store, manager, pinned


class TestKernelMatchesScalarReference:
    @pytest.mark.parametrize("at", ["latest", "pinned"])
    def test_versioned_sf1(self, versioned_sf1, at):
        store, manager, pinned = versioned_sf1
        version = manager.versions.current() if at == "latest" else pinned
        view = store.read_view(version, manager.overlay)
        assert store.adjacency(KNOWS).is_versioned
        rows = view.all_rows("Person")
        rng = np.random.default_rng(5)
        pairs = [tuple(int(x) for x in rng.choice(rows, size=2, replace=False)) for _ in range(24)]
        # Some pair has more shortest paths than the smaller caps keep.
        assert max(len(ref_paths(view, *pair)) for pair in pairs) > 3
        assert_matches_reference(view, pairs + [(int(rows[0]), int(rows[0]))])

    def test_versions_differ(self, versioned_sf1):
        """The pinned and latest views disagree somewhere, so the two
        cases above are not one case twice."""
        store, manager, pinned = versioned_sf1
        old = store.read_view(pinned, manager.overlay)
        new = store.read_view(manager.versions.current(), manager.overlay)
        rows = old.all_rows("Person")
        assert any(ref_khop(old, int(r), 1) != ref_khop(new, int(r), 1) for r in rows)


def _tiny_schema() -> GraphSchema:
    schema = GraphSchema()
    schema.add_vertex_label(
        VertexLabelDef("Person", [PropertyDef("id", DataType.INT64)], primary_key="id")
    )
    schema.add_vertex_label(
        VertexLabelDef(
            "Message",
            [PropertyDef("id", DataType.INT64), PropertyDef("isPost", DataType.BOOL)],
            primary_key="id",
        )
    )
    schema.add_edge_label(EdgeLabelDef("KNOWS", "Person", "Person"))
    schema.add_edge_label(EdgeLabelDef("HAS_CREATOR", "Message", "Person"))
    schema.add_edge_label(EdgeLabelDef("REPLY_OF", "Message", "Message"))
    return schema


@st.composite
def small_graphs(draw):
    """A small KNOWS graph (each pair loaded in both directions, as LDBC
    does) with messages and replies, then one committed batch of edits,
    some one-directional: (n, knows, messages, edits)."""
    n = draw(st.integers(2, 7))
    person = st.integers(0, n - 1)
    pair = st.tuples(person, person).filter(lambda p: p[0] != p[1])
    knows = draw(st.lists(pair, max_size=18))
    messages = []
    for i in range(draw(st.integers(1, 8))):
        parent = draw(st.none() | st.integers(0, i - 1)) if i else None
        messages.append((draw(person), draw(st.booleans()), parent))
    message = st.integers(0, len(messages) - 1)
    edit = st.one_of(
        st.tuples(st.just("add"), pair),
        st.tuples(st.just("delete"), pair),
        st.tuples(st.just("tombstone"), pair),
        st.tuples(st.just("reply"), st.tuples(person, message)),
        # A second parent or creator, or a deleted parent, decides which
        # edge is a message's *first* visible one.
        st.tuples(st.just("reparent"), st.tuples(message, message)),
        st.tuples(st.just("unparent"), st.tuples(message, message)),
        st.tuples(st.just("cocreator"), st.tuples(message, person)),
    )
    return n, knows, messages, draw(st.lists(edit, max_size=12))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs())
# A diamond: two shortest paths 0-3, so max_paths=1 keeps the one the
# per-vertex walk meets first.
@example((4, [(0, 1), (0, 2), (1, 3), (2, 3)], [(0, True, None)], []))
# Person 0's reply m2 gains a second parent, m1 by person 1: only the
# first visible parent (m0, person 0's own post) may count.
@example((2, [(0, 1)], [(0, True, None), (1, False, None), (0, False, 0)],
          [("reparent", (2, 1))]))
# ...and once m0 is unlinked at the latest version, m1 is the first.
@example((2, [(0, 1)], [(0, True, None), (1, False, None), (0, False, 0)],
          [("reparent", (2, 1)), ("unparent", (2, 0))]))
def test_kernel_matches_scalar_reference_on_small_graphs(graph):
    n, knows, messages, edits = graph
    store = GraphStore(_tiny_schema())
    store.bulk_load_vertices("Person", {"id": np.arange(n) + 100})
    store.bulk_load_vertices(
        "Message",
        {
            "id": np.arange(len(messages)) + 1000,
            "isPost": np.asarray([is_post for _, is_post, _ in messages]),
        },
    )
    edges = np.asarray(knows, dtype=np.int64).reshape(-1, 2)
    src, dst = np.concatenate([edges, edges[:, ::-1]]).T
    store.bulk_load_edges("KNOWS", "Person", "Person", src, dst)
    store.bulk_load_edges(
        "HAS_CREATOR", "Message", "Person",
        np.arange(len(messages)), np.asarray([c for c, _, _ in messages]),
    )
    replies = [(i, p) for i, (_, _, p) in enumerate(messages) if p is not None]
    store.bulk_load_edges(
        "REPLY_OF", "Message", "Message",
        np.asarray([i for i, _ in replies], dtype=np.int64),
        np.asarray([p for _, p in replies], dtype=np.int64),
    )

    manager = TransactionManager(store)
    pinned = manager.versions.current()
    txn = manager.begin()
    for i, (kind, (a, b)) in enumerate(edits):
        if kind == "add":
            txn.add_edge("KNOWS", _person(a), _person(b))
        elif kind == "delete":
            txn.remove_edge("KNOWS", _person(a), _person(b))
        elif kind == "tombstone":
            store.remove_edge("KNOWS", _person(a), _person(b))
        elif kind == "reparent":
            txn.add_edge("REPLY_OF", VertexRef("Message", a), VertexRef("Message", b))
        elif kind == "unparent":
            txn.remove_edge("REPLY_OF", VertexRef("Message", a), VertexRef("Message", b))
        elif kind == "cocreator":
            txn.add_edge("HAS_CREATOR", VertexRef("Message", a), _person(b))
        else:
            handle = txn.add_vertex("Message", {"id": 5000 + i, "isPost": False})
            txn.add_edge("HAS_CREATOR", handle, _person(a))
            txn.add_edge("REPLY_OF", handle, VertexRef("Message", b))
    txn.commit()

    pairs = [(a, b) for a in range(n) for b in range(n)]
    for version in (pinned, manager.versions.current()):
        assert_matches_reference(store.read_view(version, manager.overlay), pairs)


def test_exec_reads_adjacency_through_the_kernel():
    """Nothing in the executor package takes the scalar per-vertex path:
    ``neighbors`` / ``neighbor_slots`` stay Volcano's read path and the
    tests' reference."""
    scalar = re.compile(r"\.(neighbors|neighbor_slots)\(")
    package = Path(repro.exec.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if scalar.search(line)
    ]
    assert offenders == []
