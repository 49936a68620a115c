"""OLAP graph-analytics procedures (paper §2.2's OLAP workload class).

GES serves analytical workloads ("large-scale graph traversal for risk
management and pattern detection") alongside the interactive queries.
These stored procedures run vectorized over the CSR adjacency layout, read
with one bulk gather at the view's version (so a list carrying tombstones
or MVCC stamps answers like its compacted twin):

* ``pagerank`` — damped power iteration;
* ``connected_components`` — iterative label propagation (undirected view);
* ``triangle_count`` — per-vertex triangle counts via sorted-adjacency
  intersection;
* ``degree_distribution`` — degree histogram of one adjacency key.

All accept ``vertex_label`` / ``edge_label`` arguments so they run on any
schema, and are registered as stored procedures callable from plans.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.flatblock import FlatBlock
from ..storage.catalog import AdjacencyKey, Direction
from ..storage.graph import GraphReadView
from ..types import DataType
from .procedures import register_procedure


def _csr(
    view: GraphReadView, vertex_label: str, edge_label: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """(degrees, targets, n) of the OUT adjacency of one key.

    Every vertex row is a source of one gather, so ``degrees`` counts the
    edges visible at the view's version and row i owns ``degrees[i]``
    consecutive ``targets`` in adjacency order.
    """
    key = AdjacencyKey(vertex_label, edge_label, vertex_label, Direction.OUT)
    n = len(view.store.table(vertex_label))
    degrees, slots = view.gather_neighbors(key, np.arange(n, dtype=np.int64))
    return degrees, view.adjacency(key).gather_targets(slots), n


def _gather_edges(degrees: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parallel (src, dst) arrays from the CSR layout."""
    return np.repeat(np.arange(len(degrees), dtype=np.int64), degrees), targets


@register_procedure("pagerank")
def pagerank(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """Damped PageRank over one edge label; returns (vertexRow, rank)."""
    vertex_label = args.get("vertex_label", "Person")
    edge_label = args.get("edge_label", "KNOWS")
    damping = float(args.get("damping", 0.85))
    iterations = int(args.get("iterations", 30))
    tolerance = float(args.get("tolerance", 1e-9))

    degrees, targets, n = _csr(view, vertex_label, edge_label)
    if n == 0:
        return FlatBlock.from_dict(
            {"vertex": (DataType.INT64, []), "rank": (DataType.FLOAT64, [])}
        )
    src, dst = _gather_edges(degrees, targets)
    out_degree = degrees.astype(np.float64)
    dangling = out_degree == 0

    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        contribution = np.zeros(n)
        if len(src):
            np.add.at(contribution, dst, rank[src] / out_degree[src])
        dangling_mass = rank[dangling].sum() / n
        fresh = (1 - damping) / n + damping * (contribution + dangling_mass)
        if np.abs(fresh - rank).sum() < tolerance:
            rank = fresh
            break
        rank = fresh
    return FlatBlock.from_dict(
        {"vertex": (DataType.INT64, np.arange(n)), "rank": (DataType.FLOAT64, rank)}
    )


@register_procedure("connected_components")
def connected_components(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """Weakly connected components via label propagation.

    Returns (vertexRow, component) where the component id is the smallest
    vertex row it contains.
    """
    vertex_label = args.get("vertex_label", "Person")
    edge_label = args.get("edge_label", "KNOWS")
    degrees, targets, n = _csr(view, vertex_label, edge_label)
    src, dst = _gather_edges(degrees, targets)
    # Undirected view: propagate along both directions.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])

    labels = np.arange(n, dtype=np.int64)
    while True:
        proposed = labels.copy()
        if len(all_src):
            np.minimum.at(proposed, all_dst, labels[all_src])
        # Pointer-jumping keeps convergence near-logarithmic.
        proposed = proposed[proposed]
        if np.array_equal(proposed, labels):
            break
        labels = proposed
    return FlatBlock.from_dict(
        {"vertex": (DataType.INT64, np.arange(n)), "component": (DataType.INT64, labels)}
    )


@register_procedure("triangle_count")
def triangle_count(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """Per-vertex triangle counts (assumes a symmetric edge label).

    Returns (vertexRow, triangles) plus the caller can sum/3 for the
    global count.
    """
    vertex_label = args.get("vertex_label", "Person")
    edge_label = args.get("edge_label", "KNOWS")
    degrees, targets, n = _csr(view, vertex_label, edge_label)

    neighbor_sets: list[np.ndarray] = [
        np.unique(chunk) for chunk in np.split(targets, np.cumsum(degrees)[:-1])
    ]
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        mine = neighbor_sets[v]
        higher = mine[mine > v]
        for u in higher:
            common = np.intersect1d(mine, neighbor_sets[int(u)], assume_unique=True)
            shared = int((common > u).sum())
            counts[v] += shared
            counts[int(u)] += shared
            if shared:
                for w in common[common > u]:
                    counts[int(w)] += 1
    return FlatBlock.from_dict(
        {"vertex": (DataType.INT64, np.arange(n)), "triangles": (DataType.INT64, counts)}
    )


@register_procedure("degree_distribution")
def degree_distribution(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """Histogram of out-degrees: (degree, numVertices)."""
    vertex_label = args.get("vertex_label", "Person")
    edge_label = args.get("edge_label", "KNOWS")
    degrees, _, n = _csr(view, vertex_label, edge_label)
    if n == 0:
        return FlatBlock.from_dict(
            {"degree": (DataType.INT64, []), "numVertices": (DataType.INT64, [])}
        )
    histogram = np.bincount(degrees)
    degrees = np.flatnonzero(histogram)
    return FlatBlock.from_dict(
        {
            "degree": (DataType.INT64, degrees.astype(np.int64)),
            "numVertices": (DataType.INT64, histogram[degrees].astype(np.int64)),
        }
    )
