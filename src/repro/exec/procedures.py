"""Stored procedures: complex traversals executed directly on storage.

The paper implements traversal operators such as the ShortestPath of IC13
"as stored procedures, where intermediate data is hard to factorize"
(Table 2 note).  Procedures run against the graph read view, produce a flat
block, and their internal state is *not* charged to the query's
intermediate-result accounting — matching the paper's methodology.

Every adjacency read goes through the bulk gather kernel
(:meth:`GraphReadView.gather_neighbors`): a BFS level, a level of the
shortest-path DAG or the messages of a set of persons is one gather with
the view's visibility folded in, never a scalar call per vertex.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..core.flatblock import FlatBlock
from ..errors import ExecutionError
from ..storage.catalog import AdjacencyKey, Direction
from ..storage.graph import GraphReadView
from ..types import DataType

ProcedureFn = Callable[[GraphReadView, dict[str, Any]], FlatBlock]

_REGISTRY: dict[str, ProcedureFn] = {}


def register_procedure(name: str) -> Callable[[ProcedureFn], ProcedureFn]:
    """Decorator registering a stored procedure under *name*."""

    def decorator(fn: ProcedureFn) -> ProcedureFn:
        _REGISTRY[name] = fn
        return fn

    return decorator


def get_procedure(name: str) -> ProcedureFn:
    """Look up a registered stored procedure by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExecutionError(f"unknown stored procedure {name!r}") from None


_KNOWS = AdjacencyKey("Person", "KNOWS", "Person", Direction.OUT)
_AUTHORED = AdjacencyKey("Person", "HAS_CREATOR", "Message", Direction.IN)
_REPLY_OF = AdjacencyKey("Message", "REPLY_OF", "Message", Direction.OUT)
_HAS_CREATOR = AdjacencyKey("Message", "HAS_CREATOR", "Person", Direction.OUT)


def _gather_rows(
    view: GraphReadView, key: AdjacencyKey, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, targets)``: the visible neighbours of every row in *rows*,
    row i owning ``counts[i]`` consecutive targets in adjacency order."""
    counts, slots = view.gather_neighbors(key, rows)
    return counts, view.adjacency(key).gather_targets(slots)


def _first_targets(
    view: GraphReadView, key: AdjacencyKey, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(has, first)``: which rows have a visible neighbour, and the first
    one (adjacency order) of each row that has."""
    counts, targets = _gather_rows(view, key, rows)
    has = counts > 0
    return has, targets[(np.cumsum(counts) - counts)[has]]


def _bfs_levels(
    view: GraphReadView, start_row: int, goal_row: int | None = None, max_depth: int | None = None
) -> tuple[np.ndarray, int]:
    """Level-synchronous BFS over KNOWS: one gather per level.

    Returns ``(depths, goal depth or -1)``; ``depths`` is dense over Person
    rows, -1 for unreached.  The search stops at the top of the level after
    the goal is reached, or once *max_depth* levels are expanded.
    """
    depths = np.full(len(view.store.table("Person")), -1, dtype=np.int64)
    depths[start_row] = 0
    frontier = np.array([start_row], dtype=np.int64)
    depth = 0
    while len(frontier):
        if goal_row is not None and depths[goal_row] >= 0:
            break
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        _, reached = _gather_rows(view, _KNOWS, frontier)
        reached = np.unique(reached)
        frontier = reached[depths[reached] < 0]
        depths[frontier] = depth
    goal_depth = int(depths[goal_row]) if goal_row is not None else -1
    return depths, goal_depth


@register_procedure("shortest_path_length")
def shortest_path_length(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """IC13: length of the shortest KNOWS path between two persons (-1 if none)."""
    src = view.vertex_by_key("Person", int(args["person1_id"]))
    dst = view.vertex_by_key("Person", int(args["person2_id"]))
    if src is None or dst is None:
        length = -1
    elif src == dst:
        length = 0
    else:
        _, length = _bfs_levels(view, src, goal_row=dst)
    return FlatBlock.from_dict({"length": (DataType.INT64, [length])})


def _enumerate_shortest_paths(
    view: GraphReadView, src: int, dst: int, max_paths: int = 1000
) -> list[list[int]]:
    """All shortest KNOWS paths src->dst (row indices), capped at max_paths.

    The shortest-path DAG is read backwards from *dst* one depth level per
    gather; each row's predecessors keep adjacency order, so the DFS emits
    paths in the order a per-vertex walk would (which decides the cut when
    *max_paths* truncates).
    """
    depths, goal_depth = _bfs_levels(view, src, goal_row=dst)
    if goal_depth < 0:
        return []
    predecessors: dict[int, list[int]] = {}
    level = np.array([dst], dtype=np.int64)
    for depth in range(goal_depth, 0, -1):
        counts, targets = _gather_rows(view, _KNOWS, level)
        keep = depths[targets] == depth - 1
        kept = np.repeat(np.arange(len(level)), counts)[keep]
        preds = targets[keep]
        bounds = np.searchsorted(kept, np.arange(len(level) + 1))
        for i, row in enumerate(level.tolist()):
            predecessors[row] = preds[bounds[i] : bounds[i + 1]].tolist()
        level = np.unique(preds)
    paths: list[list[int]] = []
    stack: list[list[int]] = [[dst]]
    while stack and len(paths) < max_paths:
        partial = stack.pop()
        head = partial[-1]
        if head == src:
            paths.append(partial[::-1])
            continue
        for pred in predecessors[head]:
            stack.append(partial + [pred])
    return paths


def _path_weights(view: GraphReadView, paths: np.ndarray, persons: np.ndarray) -> np.ndarray:
    """LDBC IC14 trust weight of every path (one row of *paths* each).

    A reply by *a* to a message created by *b* weighs 1.0 when the parent
    is a post and 0.5 when it is a comment; a hop weighs the replies of
    both its persons to each other.  One pass over the messages of the
    distinct *persons* (sorted) on the paths yields every hop's weight.
    Weights are multiples of 0.5, so the sums are exact in any order.
    """
    counts, messages = _gather_rows(view, _AUTHORED, persons)
    authors = np.repeat(persons, counts)
    is_reply, parents = _first_targets(view, _REPLY_OF, messages)
    authors = authors[is_reply]
    has_creator, creators = _first_targets(view, _HAS_CREATOR, parents)
    authors, parents = authors[has_creator], parents[has_creator]
    among = np.isin(creators, persons)
    is_post = view.store.table("Message").column("isPost").view()
    replies = np.where(is_post[parents[among]].astype(bool), 1.0, 0.5)
    # Directed (author, creator) pairs as one int64 key each, plus a
    # sentinel past every real key so each lookup lands in range.
    n = len(view.store.table("Person"))
    keys, inverse = np.unique(authors[among] * n + creators[among], return_inverse=True)
    sums = np.append(np.bincount(inverse, weights=replies, minlength=len(keys)), 0.0)
    keys = np.append(keys, np.iinfo(np.int64).max)

    def directed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        wanted = a * n + b
        at = np.searchsorted(keys, wanted)
        return np.where(keys[at] == wanted, sums[at], 0.0)

    a, b = paths[:, :-1], paths[:, 1:]
    return (directed(a, b) + directed(b, a)).sum(axis=1)


@register_procedure("weighted_shortest_paths")
def weighted_shortest_paths(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """IC14: all shortest KNOWS paths between two persons with trust weights.

    Returns (pathPersonIds, pathWeight) ordered by weight descending; person
    ids inside a path are joined with ``,`` for a flat representation.
    """
    src = view.vertex_by_key("Person", int(args["person1_id"]))
    dst = view.vertex_by_key("Person", int(args["person2_id"]))
    paths = [] if src is None or dst is None else _enumerate_shortest_paths(view, src, dst)
    if not paths:
        return FlatBlock.from_dict(
            {"pathPersonIds": (DataType.STRING, []), "pathWeight": (DataType.FLOAT64, [])}
        )
    # Shortest paths all have the same length: one row per path.
    rows = np.asarray(paths, dtype=np.int64)
    persons = np.unique(rows)
    pk = view.schema.vertex_label("Person").primary_key
    keys = [str(k) for k in view.gather_properties("Person", pk, persons).tolist()]
    ids = [",".join(keys[i] for i in path) for path in np.searchsorted(persons, rows).tolist()]
    weights = _path_weights(view, rows, persons).tolist()
    order = sorted(range(len(paths)), key=lambda i: (-weights[i], ids[i]))
    return FlatBlock.from_dict(
        {
            "pathPersonIds": (DataType.STRING, [ids[i] for i in order]),
            "pathWeight": (DataType.FLOAT64, [weights[i] for i in order]),
        }
    )


@register_procedure("khop_neighborhood")
def khop_neighborhood(view: GraphReadView, args: dict[str, Any]) -> FlatBlock:
    """Utility procedure: rows of all persons within k KNOWS hops (excl. start)."""
    src = view.vertex_by_key("Person", int(args["person_id"]))
    k = int(args.get("hops", 2))
    if src is None:
        return FlatBlock.from_dict({"person": (DataType.INT64, [])})
    depths, _ = _bfs_levels(view, src, max_depth=k)
    rows = np.flatnonzero((depths > 0) & (depths <= k)).astype(np.int64)
    return FlatBlock.from_dict({"person": (DataType.INT64, rows)})
