"""ddmin-style failure minimization.

A raw fuzz failure is a (graph, update batches, query) triple that is far
larger than it needs to be.  The shrinker greedily tries smaller
candidates — fewer vertices per label, fewer edges, fewer update batches,
fewer plan operators, fewer returned columns — and keeps a candidate only
if rebuilding the store and re-running the differential oracle still
reproduces the *original failure signature* (the set of
``(kind, variant)`` pairs, so a shrink can't silently morph one bug into
a different one).

Every candidate evaluation builds a fresh store and fresh engines, so
shrinking is side-effect free and deterministic.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..storage.graph import GraphStore
from ..txn.transaction import TransactionManager
from .graphgen import GraphSpec, store_from_spec
from .oracle import DifferentialOracle
from .querygen import GeneratedQuery, UpdateBatch

OracleFactory = Callable[[GraphStore], DifferentialOracle]
Signature = frozenset  # of (kind, variant)


def failure_signature(mismatches: Iterable) -> Signature:
    """The invariant the shrinker preserves."""
    return frozenset(m.signature for m in mismatches)


def replay(
    query: GeneratedQuery,
    spec: GraphSpec,
    updates: list[UpdateBatch],
    oracle_factory: OracleFactory | None = None,
) -> list:
    """Rebuild the store, apply the batches, run the oracle once."""
    store = store_from_spec(spec)
    view = None
    if updates:
        manager = TransactionManager(store)
        for batch in updates:
            batch.apply(manager)
        view = store.read_view(manager.versions.current(), manager.overlay)
    oracle = (
        oracle_factory(store) if oracle_factory is not None else DifferentialOracle(store)
    )
    return oracle.check(query, view=view)


def shrink_failure(
    query: GeneratedQuery,
    spec: GraphSpec,
    mismatches: Iterable,
    updates: list[UpdateBatch] | None = None,
    oracle_factory: OracleFactory | None = None,
    rounds: int = 3,
) -> tuple[GeneratedQuery, GraphSpec, list[UpdateBatch]]:
    """Minimize a failing triple while preserving its failure signature."""
    signature = failure_signature(mismatches)
    updates = list(updates or [])

    def reproduces(q: GeneratedQuery, s: GraphSpec, u: list[UpdateBatch]) -> bool:
        try:
            found = failure_signature(replay(q, s, u, oracle_factory))
        except Exception:  # noqa: BLE001 — a broken candidate is just "no"
            return False
        return signature <= found

    for _ in range(rounds):
        before = (
            spec.total_vertices(),
            spec.total_edges(),
            len(updates),
            _query_size(query),
        )
        updates = _shrink_updates(query, spec, updates, reproduces)
        spec = _shrink_vertices(query, spec, updates, reproduces)
        spec = _shrink_edges(query, spec, updates, reproduces)
        query = _shrink_query(query, spec, updates, reproduces)
        after = (
            spec.total_vertices(),
            spec.total_edges(),
            len(updates),
            _query_size(query),
        )
        if after == before:
            break  # fixpoint
    return query, spec, updates


def _query_size(query: GeneratedQuery) -> int:
    if query.plan is not None:
        return len(query.plan.ops) + len(query.plan.returns or [])
    return len(query.cypher or "")


# -- graph shrinking ------------------------------------------------------------


def _truncate_label(spec: GraphSpec, label: str, keep: int) -> GraphSpec:
    """First *keep* rows of one label; edges referencing cut rows drop too."""
    vertices = {
        l: ({c: v[:keep] for c, v in cols.items()} if l == label else cols)
        for l, cols in spec.vertices.items()
    }
    edges = []
    for group in spec.edges:
        src_cut = group["src_label"] == label
        dst_cut = group["dst_label"] == label
        if not (src_cut or dst_cut):
            edges.append(group)
            continue
        keep_idx = [
            i
            for i, (s, d) in enumerate(zip(group["src"], group["dst"]))
            if (not src_cut or s < keep) and (not dst_cut or d < keep)
        ]
        edges.append(_edge_subset(group, keep_idx))
    return GraphSpec(spec.schema, vertices, edges, seed=spec.seed, profile=spec.profile)


def _edge_subset(group: dict, keep_idx: list[int]) -> dict:
    return {
        "label": group["label"],
        "src_label": group["src_label"],
        "dst_label": group["dst_label"],
        "src": [group["src"][i] for i in keep_idx],
        "dst": [group["dst"][i] for i in keep_idx],
        "props": {
            name: [values[i] for i in keep_idx]
            for name, values in (group.get("props") or {}).items()
        },
    }


def _shrink_vertices(query, spec, updates, reproduces) -> GraphSpec:
    for label in list(spec.vertices):
        count = spec.vertex_count(label)
        # Halve while it still reproduces, then try the empty label.
        while count > 0:
            keep = count // 2
            candidate = _truncate_label(spec, label, keep)
            if reproduces(query, candidate, updates):
                spec, count = candidate, keep
            else:
                break
    return spec


def _shrink_edges(query, spec, updates, reproduces) -> GraphSpec:
    for g, group in enumerate(spec.edges):
        n = len(group["src"])
        if n == 0:
            continue
        # Whole-group removal first, then binary chops.
        empty = list(spec.edges)
        empty[g] = _edge_subset(group, [])
        candidate = GraphSpec(
            spec.schema, spec.vertices, empty, seed=spec.seed, profile=spec.profile
        )
        if reproduces(query, candidate, updates):
            spec = candidate
            continue
        while n > 1:
            progress = False
            for half in (list(range(n // 2)), list(range(n // 2, n))):
                chopped = list(spec.edges)
                chopped[g] = _edge_subset(spec.edges[g], half)
                candidate = GraphSpec(
                    spec.schema,
                    spec.vertices,
                    chopped,
                    seed=spec.seed,
                    profile=spec.profile,
                )
                if reproduces(query, candidate, updates):
                    spec = candidate
                    n = len(half)
                    progress = True
                    break
            if not progress:
                break
    return spec


def _shrink_updates(query, spec, updates, reproduces) -> list[UpdateBatch]:
    if not updates:
        return updates
    # Drop whole batches from the tail (later batches depend on earlier rows).
    while updates and reproduces(query, spec, updates[:-1]):
        updates = updates[:-1]
    # Then thin surviving batches op by op.
    out = list(updates)
    for i, batch in enumerate(out):
        ops = list(batch.ops)
        j = len(ops) - 1
        while j >= 0 and len(ops) > 1:
            candidate_ops = ops[:j] + ops[j + 1 :]
            candidate = out[:i] + [UpdateBatch(candidate_ops)] + out[i + 1 :]
            if reproduces(query, spec, candidate):
                ops = candidate_ops
                out = candidate
            j -= 1
    return out


# -- query shrinking ------------------------------------------------------------


def _shrink_query(query, spec, updates, reproduces) -> GeneratedQuery:
    if query.plan is None:
        return query  # Cypher text stays as captured
    from .plans import deserialize_plan, serialize_plan  # local: avoid cycle at import

    # Drop operators from the tail inward (dropping an op whose output the
    # rest of the plan needs makes every engine reject the plan uniformly,
    # which the signature check discards).
    changed = True
    while changed:
        changed = False
        ops = query.plan.ops
        for i in range(len(ops) - 1, 0, -1):
            payload = serialize_plan(query.plan)
            del payload["ops"][i]
            candidate = GeneratedQuery(
                plan=deserialize_plan(payload),
                params=query.params,
                features=query.features,
            )
            if reproduces(candidate, spec, updates):
                query = candidate
                changed = True
                break
    # Narrow the returned columns.
    returns = list(query.plan.returns or [])
    if len(returns) > 1:
        for name in list(returns):
            if len(returns) == 1:
                break
            narrowed = [c for c in returns if c != name]
            payload = serialize_plan(query.plan)
            payload["returns"] = narrowed
            candidate = GeneratedQuery(
                plan=deserialize_plan(payload),
                params=query.params,
                features=query.features,
            )
            if reproduces(candidate, spec, updates):
                query = candidate
                returns = narrowed
    return query
