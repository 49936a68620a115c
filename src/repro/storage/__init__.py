"""Graph storage layer: catalog, columnar vertex tables, adjacency lists,
memory pool, and versioned read views (paper §5, Figure 9)."""

from .adjacency import AdjacencyList, MAX_VERSION, TOMBSTONE
from .catalog import (
    AdjacencyKey,
    Direction,
    EdgeLabelDef,
    GraphSchema,
    PropertyDef,
    VertexLabelDef,
)
from .graph import GraphReadView, GraphStore, VertexRef
from .io import load_graph, save_graph
from .memory_pool import DEFAULT_POOL, MemoryPool
from .properties import PropertyColumn, VertexTable

__all__ = [
    "AdjacencyKey",
    "AdjacencyList",
    "DEFAULT_POOL",
    "Direction",
    "EdgeLabelDef",
    "GraphReadView",
    "GraphSchema",
    "GraphStore",
    "load_graph",
    "MAX_VERSION",
    "MemoryPool",
    "PropertyColumn",
    "PropertyDef",
    "save_graph",
    "TOMBSTONE",
    "VertexLabelDef",
    "VertexRef",
    "VertexTable",
]
