"""Tests for the adjMeta/adjArray adjacency storage (paper Fig. 9)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.adjacency import MAX_VERSION, TOMBSTONE, AdjacencyList
from repro.storage.catalog import AdjacencyKey, Direction, PropertyDef
from repro.types import DataType


def make_list(num_src=4, props=None) -> AdjacencyList:
    key = AdjacencyKey("A", "E", "B", Direction.OUT)
    return AdjacencyList(key, props, num_src=num_src)


def loaded_list() -> AdjacencyList:
    adj = make_list(num_src=3, props=[PropertyDef("w", DataType.INT64)])
    adj.bulk_load(
        3,
        np.asarray([0, 0, 1, 2, 2, 2]),
        np.asarray([10, 11, 12, 13, 14, 15]),
        {"w": np.asarray([1, 2, 3, 4, 5, 6])},
    )
    return adj


class TestBulkLoad:
    def test_neighbors_grouped_by_source(self):
        adj = loaded_list()
        assert adj.neighbors(0).tolist() == [10, 11]
        assert adj.neighbors(1).tolist() == [12]
        assert adj.neighbors(2).tolist() == [13, 14, 15]

    def test_num_edges(self):
        assert loaded_list().num_edges == 6

    def test_degree(self):
        adj = loaded_list()
        assert adj.degree(0) == 2
        assert adj.degree(2) == 3

    def test_out_of_range_source_is_empty(self):
        adj = loaded_list()
        assert adj.neighbors(99).tolist() == []
        assert adj.degree(99) == 0

    def test_negative_source_is_empty(self):
        # Regression: negative rows used to wrap around via numpy indexing
        # and silently return the *last* source's neighborhood.
        adj = loaded_list()
        assert adj.neighbors(-1).tolist() == []
        assert adj.neighbor_slots(-1).tolist() == []
        assert adj.degree(-1) == 0
        assert adj.gather(np.asarray([-1]))[0].tolist() == [0]
        assert not adj.remove_edge(-1, 10)

    def test_bulk_load_out_of_range_source_rejected(self):
        # Regression: rows >= num_src used to surface as a raw numpy
        # ValueError from bincount instead of a StorageError.
        from repro.errors import StorageError

        adj = make_list(num_src=2)
        with pytest.raises(StorageError, match="source rows"):
            adj.bulk_load(2, np.asarray([0, 5]), np.asarray([1, 2]))
        with pytest.raises(StorageError, match="source rows"):
            adj.bulk_load(2, np.asarray([-1, 0]), np.asarray([1, 2]))

    def test_edge_props_aligned(self):
        adj = loaded_list()
        slots = adj.neighbor_slots(2)
        assert adj.gather_prop("w", slots).tolist() == [4, 5, 6]

    def test_unsorted_input_is_grouped(self):
        adj = make_list(num_src=2)
        adj.bulk_load(2, np.asarray([1, 0, 1]), np.asarray([5, 6, 7]))
        assert adj.neighbors(0).tolist() == [6]
        assert adj.neighbors(1).tolist() == [5, 7]

    def test_length_mismatch_rejected(self):
        adj = make_list()
        with pytest.raises(Exception):
            adj.bulk_load(2, np.asarray([0]), np.asarray([1, 2]))

    def test_unknown_prop_rejected(self):
        adj = make_list()
        with pytest.raises(Exception):
            adj.bulk_load(1, np.asarray([0]), np.asarray([1]), {"ghost": np.asarray([1])})


class TestSegments:
    def test_supports_segments_initially(self):
        assert loaded_list().supports_segments

    def test_meta_for_vectorized(self):
        adj = loaded_list()
        base, starts, lengths = adj.meta_for(np.asarray([2, 0, 99, -5]))
        assert lengths.tolist() == [3, 2, 0, 0]
        assert base[starts[0] : starts[0] + lengths[0]].tolist() == [13, 14, 15]

    def test_tombstone_disables_segments(self):
        adj = loaded_list()
        adj.remove_edge(0, 10)
        assert not adj.supports_segments


class TestUpdates:
    def test_add_edge_to_new_source(self):
        adj = make_list(num_src=1)
        adj.add_edge(0, 7)
        assert adj.neighbors(0).tolist() == [7]

    def test_add_edge_grows_source_range(self):
        adj = make_list(num_src=1)
        adj.add_edge(5, 9)
        assert adj.num_src == 6
        assert adj.neighbors(5).tolist() == [9]

    def test_slot_relocation_on_overflow(self):
        adj = make_list(num_src=2)
        for i in range(20):
            adj.add_edge(0, i)
        assert adj.neighbors(0).tolist() == list(range(20))

    def test_interleaved_sources(self):
        adj = make_list(num_src=2)
        for i in range(10):
            adj.add_edge(i % 2, i)
        assert adj.neighbors(0).tolist() == [0, 2, 4, 6, 8]
        assert adj.neighbors(1).tolist() == [1, 3, 5, 7, 9]

    def test_remove_edge_tombstones(self):
        adj = loaded_list()
        assert adj.remove_edge(2, 14)
        assert adj.neighbors(2).tolist() == [13, 15]
        assert adj.num_edges == 5

    def test_remove_missing_edge_returns_false(self):
        adj = loaded_list()
        assert not adj.remove_edge(0, 999)

    def test_add_edge_with_props(self):
        adj = make_list(num_src=1, props=[PropertyDef("w", DataType.INT64)])
        slot = adj.add_edge(0, 3, {"w": 42})
        assert adj.prop_at("w", slot) == 42

    def test_add_edge_missing_prop_is_null(self):
        adj = make_list(num_src=1, props=[PropertyDef("w", DataType.INT64)])
        slot = adj.add_edge(0, 3)
        assert adj.prop_at("w", slot) is None
        validity = adj.gather_prop_validity("w", np.asarray([slot]))
        assert validity is not None and not validity[0]


class TestVersioning:
    def test_versioned_add_invisible_to_older_snapshot(self):
        adj = loaded_list()
        adj.add_edge(0, 99, version=5)
        assert 99 not in adj.neighbors(0, version=4).tolist()
        assert 99 in adj.neighbors(0, version=5).tolist()

    def test_versioned_delete_visible_to_older_snapshot(self):
        adj = loaded_list()
        adj.add_edge(0, 99, version=1)  # forces version stamps
        adj.remove_edge(0, 10, version=5)
        assert 10 in adj.neighbors(0, version=4).tolist()
        assert 10 not in adj.neighbors(0, version=5).tolist()

    def test_latest_read_hides_version_deleted(self):
        adj = loaded_list()
        adj.add_edge(0, 99, version=1)
        adj.remove_edge(0, 10, version=5)
        assert 10 not in adj.neighbors(0).tolist()

    def test_num_edges_counts_versioned_deletes(self):
        # Regression: num_edges only discounted tombstoned slots, so a
        # versioned delete left the count (and store.edge_count) unchanged.
        adj = loaded_list()
        adj.add_edge(0, 99, version=1)
        assert adj.num_edges == 7
        adj.remove_edge(0, 10, version=5)
        assert adj.num_edges == 6

    def test_versioning_disables_segments(self):
        adj = loaded_list()
        adj.add_edge(0, 99, version=1)
        assert not adj.supports_segments

    def test_relocation_preserves_version_stamps(self):
        adj = make_list(num_src=1, props=[])
        adj.add_edge(0, 1, version=1)
        for i in range(2, 20):
            adj.add_edge(0, i, version=2)
        assert 1 in adj.neighbors(0, version=1).tolist()
        assert 5 not in adj.neighbors(0, version=1).tolist()

    def test_nbytes_positive(self):
        assert loaded_list().nbytes > 0


# -- the bulk gather kernel ----------------------------------------------------

NUM_DST = 6


@st.composite
def interleavings(draw):
    """A bulk load followed by random add/remove edges, each either
    versioned (the next commit version) or unversioned (tombstone /
    stamp-free insert)."""
    num_src = draw(st.integers(0, 5))  # 0: an empty adjMeta, grown by inserts
    edges = draw(
        st.lists(st.tuples(st.integers(0, num_src - 1), st.integers(0, NUM_DST - 1)),
                 max_size=12)
        if num_src
        else st.just([])
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(0, num_src + 1),  # may grow the source range
                st.integers(0, NUM_DST - 1),
                st.booleans(),  # versioned?
            ),
            max_size=12,
        )
    )
    return num_src, edges, ops


def build(num_src, edges, ops) -> tuple[AdjacencyList, int]:
    adj = make_list(num_src=num_src, props=[PropertyDef("w", DataType.INT64)])
    src = np.asarray([s for s, _ in edges], dtype=np.int64)
    dst = np.asarray([d for _, d in edges], dtype=np.int64)
    adj.bulk_load(num_src, src, dst, {"w": np.arange(len(edges))})
    version = 0
    for kind, s, d, versioned in ops:
        stamp = None
        if versioned:
            version += 1
            stamp = version
        if kind == "add":
            adj.add_edge(s, d, {"w": 100 + version}, version=stamp)
        else:
            adj.remove_edge(s, d, version=stamp)
    return adj, version


def scalar_gather(adj, rows, version):
    chunks = [adj.neighbor_slots(int(r), version) for r in rows]
    counts = [len(c) for c in chunks]
    slots = np.concatenate(chunks).tolist() if chunks else []
    return counts, slots


class TestGather:
    @settings(max_examples=150, deadline=None)
    @given(interleavings(), st.data())
    def test_gather_equals_scalar_neighbor_slots(self, case, data):
        adj, latest = build(*case)
        num_src = case[0]
        row = st.integers(-1, num_src + 3)  # NULL and out-of-range included
        batches = [
            [],
            data.draw(st.lists(row, min_size=1, max_size=1)),  # one-source path
            data.draw(st.lists(row, min_size=2, max_size=10)),  # duplicates likely
            list(range(-1, adj.num_src + 2)),
        ]
        for version in [None, *range(latest + 1)]:  # incl. older snapshots
            for rows in batches:
                counts, slots = adj.gather(np.asarray(rows, dtype=np.int64), version)
                assert counts.dtype == np.int64 and slots.dtype == np.int64
                assert (counts.tolist(), slots.tolist()) == scalar_gather(
                    adj, rows, version
                )
                assert adj.gather_targets(slots).tolist() == [
                    n for r in rows for n in adj.neighbors(r, version).tolist()
                ]

    def test_unversioned_list_takes_no_mask(self):
        adj = loaded_list()
        counts, slots = adj.gather(np.asarray([2, -1, 0, 7]))
        assert counts.tolist() == [3, 0, 2, 0]
        assert adj.gather_targets(slots).tolist() == [13, 14, 15, 10, 11]
        assert adj.gather_prop("w", slots).tolist() == [4, 5, 6, 1, 2]


class TestConcurrentStamping:
    def test_reader_never_sees_a_half_stamped_list(self):
        """Lock-free readers (more threads than cores) gather while the
        writer's first versioned insert allocates the stamp arrays of a
        large list.  Bounded: a fixed number of rounds, each a fresh list."""
        n = 1_000_000  # large stamp arrays: filling them releases the GIL
        edges = np.arange(n, dtype=np.int64)
        rows = np.asarray([0, 1], dtype=np.int64)  # a cheap read, many times
        errors: list[Exception] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(10):
                adj = make_list(num_src=n)
                adj.bulk_load(n, edges, edges)
                stop = threading.Event()
                ready = threading.Barrier(4, timeout=30.0)

                def reader():
                    ready.wait()
                    try:
                        while not stop.is_set():
                            adj.gather(rows, 1)
                            adj.neighbor_slots(0, 1)
                    except Exception as exc:  # noqa: BLE001 — the verdict
                        errors.append(exc)

                threads = [threading.Thread(target=reader) for _ in range(3)]
                for thread in threads:
                    thread.start()
                ready.wait()
                adj.add_edge(0, 1, version=1)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
