"""Shared fixtures: a hand-built micro social graph and the SF1 dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DataType,
    EdgeLabelDef,
    EngineConfig,
    GES,
    GraphSchema,
    GraphStore,
    PropertyDef,
    VertexLabelDef,
)
from repro.baselines import VolcanoEngine
from repro.ldbc import generate


def build_micro_schema() -> GraphSchema:
    """Person/Message/Tag schema small enough to reason about by hand."""
    schema = GraphSchema()
    schema.add_vertex_label(
        VertexLabelDef(
            "Person",
            [
                PropertyDef("id", DataType.INT64),
                PropertyDef("firstName", DataType.STRING),
                PropertyDef("age", DataType.INT64),
                PropertyDef("active", DataType.BOOL),
            ],
            primary_key="id",
        )
    )
    schema.add_vertex_label(
        VertexLabelDef(
            "Message",
            [
                PropertyDef("id", DataType.INT64),
                PropertyDef("length", DataType.INT64),
                PropertyDef("score", DataType.FLOAT64),
            ],
            primary_key="id",
        )
    )
    schema.add_vertex_label(
        VertexLabelDef(
            "Tag",
            [PropertyDef("id", DataType.INT64), PropertyDef("name", DataType.STRING)],
            primary_key="id",
        )
    )
    schema.add_edge_label(
        EdgeLabelDef(
            "KNOWS", "Person", "Person", [PropertyDef("since", DataType.INT64)]
        )
    )
    schema.add_edge_label(EdgeLabelDef("HAS_CREATOR", "Message", "Person"))
    schema.add_edge_label(EdgeLabelDef("HAS_TAG", "Message", "Tag"))
    return schema


def build_micro_store() -> GraphStore:
    """5 persons, 6 messages, 3 tags; KNOWS is symmetric.

    Topology (KNOWS): 0-1, 0-2, 1-3, 2-4.
    Creators: m0->p1, m1->p2, m2->p2, m3->p3, m4->p4, m5->p3.
    Tags: m0->t0, m1->t0, m1->t1, m3->t2, m5->t1.
    """
    store = GraphStore(build_micro_schema())
    store.bulk_load_vertices(
        "Person",
        {
            "id": np.arange(5),
            "firstName": np.asarray(["A", "B", "C", "B", "E"], dtype=object),
            "age": np.asarray([30, 25, 35, 25, 40]),
            # Both "B" persons are inactive: an all-False group for max().
            "active": np.asarray([True, False, True, False, False]),
        },
    )
    store.bulk_load_vertices(
        "Message",
        {
            "id": np.arange(100, 106),
            "length": np.asarray([140, 123, 120, 200, 90, 130]),
            # Person 2 ("C") created m1 and m2, so that group sums to NaN;
            # m4 is the lone message of person 4 ("E"), a group of one +inf.
            "score": np.asarray([1.0, -np.inf, np.inf, 4.0, np.inf, 2.0]),
        },
    )
    store.bulk_load_vertices(
        "Tag",
        {"id": np.arange(200, 203), "name": np.asarray(["x", "y", "z"], dtype=object)},
    )
    knows_src = np.asarray([0, 0, 1, 2, 1, 2, 3, 4])
    knows_dst = np.asarray([1, 2, 3, 4, 0, 0, 1, 2])
    since = np.asarray([10, 20, 30, 40, 10, 20, 30, 40])
    store.bulk_load_edges(
        "KNOWS", "Person", "Person", knows_src, knows_dst, {"since": since}
    )
    store.bulk_load_edges(
        "HAS_CREATOR",
        "Message",
        "Person",
        np.arange(6),
        np.asarray([1, 2, 2, 3, 4, 3]),
    )
    store.bulk_load_edges(
        "HAS_TAG",
        "Message",
        "Tag",
        np.asarray([0, 1, 1, 3, 5]),
        np.asarray([0, 0, 1, 2, 1]),
    )
    return store


@pytest.fixture
def micro_schema() -> GraphSchema:
    return build_micro_schema()


@pytest.fixture
def micro_store() -> GraphStore:
    return build_micro_store()


@pytest.fixture
def micro_engines(micro_store):
    """All four engines over one micro store."""
    return {
        "GES": GES(micro_store, EngineConfig.ges()),
        "GES_f": GES(micro_store, EngineConfig.ges_f()),
        "GES_f*": GES(micro_store, EngineConfig.ges_f_star()),
        "Volcano": VolcanoEngine(micro_store),
    }


@pytest.fixture(scope="session")
def sf1_dataset():
    """The deterministic SF1 LDBC dataset (read-only across tests)."""
    return generate("SF1", seed=42)
