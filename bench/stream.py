"""Seeded operation streams for the five benchmark workloads.

A stream is plain data: a warm-up list plus N segments, each a list of
``(name, text, params)`` operations.  ``name`` is an LDBC query name
(``IC5``, ``IU1``, ...), ``floor`` or a Cypher template name; ``text`` is
the Cypher text for Cypher operations and None otherwise.

Every segment is one fixed template: read operations and their
parameters replay identically in each segment, so segment timings compare
like with like; update operations keep their template positions and query
types but draw fresh parameters from the one continuing
:class:`~repro.ldbc.ParameterGenerator`, so no entity id is ever created
twice (warm-up included).

Two things keep the work in a segment comparable from seed to seed, so
that a metric's spread over seeds says something about the machine and the
program rather than about the draw.  How often each query appears is fixed
by the workload (largest-remainder apportionment of its weights), never
drawn.  And, as in LDBC's parameter curation, the start persons of each
read query are an even sample over the persons ordered by how many
friends-of-friends they reach: every seed picks different persons, but
the same spread of light and heavy ones.  ``--seed`` decides the order of
operations, which persons stand for each stratum, and every other
parameter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ldbc import INTERLEAVES, ParameterGenerator, queries_of
from repro.ldbc.datagen import SnbDataset
from repro.ldbc.params import CATEGORY_MIX
from repro.ldbc.schema import PERSON
from repro.storage.catalog import AdjacencyKey, Direction

Op = tuple[str, "str | None", dict[str, Any]]

#: Name of the null-query floor operation (NodeByIdSeek -> one property).
FLOOR = "floor"

#: Cypher templates: name -> (text, LDBC query whose parameter supplies the id).
CYPHER_TEMPLATES: dict[str, tuple[str, str]] = {
    "person_lookup": (
        "MATCH (p:Person) WHERE id(p) = $id "
        "RETURN p.firstName AS firstName, p.lastName AS lastName",
        "IS1",
    ),
    "message_lookup": (
        "MATCH (m:Message) WHERE id(m) = $id "
        "RETURN m.length AS length, m.creationDate AS creationDate",
        "IS4",
    ),
    "friends_topk": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = $id "
        "RETURN id(f) AS friendId, f.firstName AS firstName, f.creationDate AS since "
        "ORDER BY since DESC, friendId LIMIT 10",
        "IS1",
    ),
    "fof_by_gender": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WHERE id(p) = $id "
        "RETURN g.gender AS gender, count(*) AS n ORDER BY gender",
        "IS1",
    ),
    "fof_tag_count": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person)"
        "<-[:HAS_CREATOR]-(m:Message)-[:HAS_TAG]->(t:Tag) WHERE id(p) = $id "
        "RETURN t.name AS tag, count(*) AS n ORDER BY n DESC, tag LIMIT 10",
        "IS1",
    ),
}
#: Templates sent with ``$id`` (one text each, so they stay in the plan cache).
HOT_TEMPLATES = ("person_lookup", "friends_topk", "fof_by_gender", "fof_tag_count")
#: Templates sent with the id inlined (a new text, so a new compile, per id).
COLD_TEMPLATES = ("person_lookup", "message_lookup")
COLD_SUFFIX = ":literal"

#: LDBC update queries that create an entity, and the parameter naming its id.
CREATED_ID_PARAM = {"IU1": "personId", "IU4": "forumId", "IU6": "postId", "IU7": "commentId"}


def _names(category: str) -> list[str]:
    return [q.name for q in queries_of(category)]


def _uniform(names: list[str], total: float) -> dict[str, float]:
    return {name: total / len(names) for name in names}


def _ic_weights(total: float) -> dict[str, float]:
    """IC queries in proportion to the spec's interleaves (1 / frequency)."""
    raw = {name: 1.0 / INTERLEAVES[name] for name in _names("IC")}
    scale = total / sum(raw.values())
    return {name: weight * scale for name, weight in raw.items()}


def workload_weights(workload: str) -> dict[str, float]:
    """Relative frequency of every operation name in one workload."""
    if workload == "snb_mix":
        return {
            **_ic_weights(CATEGORY_MIX["IC"]),
            **_uniform(_names("IS"), CATEGORY_MIX["IS"]),
            **_uniform(_names("IU"), CATEGORY_MIX["IU"]),
        }
    if workload == "snb_complex":
        return _ic_weights(1.0)
    if workload == "snb_short":
        return {**_uniform(_names("IS"), 7.0), FLOOR: 1.0}
    if workload == "cypher_text":
        return {
            **_uniform(list(HOT_TEMPLATES), 1.0),
            **_uniform([name + COLD_SUFFIX for name in COLD_TEMPLATES], 3.0),
        }
    if workload == "snb_update":
        return {**_uniform(_names("IU"), 1.0), **_uniform(_names("IS"), 1.0)}
    raise KeyError(f"unknown workload {workload!r}")


def apportion(weights: dict[str, float], total: int) -> dict[str, int]:
    """Largest-remainder split of *total* operations over *weights*."""
    scale = total / sum(weights.values())
    exact = {name: weight * scale for name, weight in weights.items()}
    counts = {name: int(share) for name, share in exact.items()}
    by_remainder = sorted(exact, key=lambda name: (counts[name] - exact[name], name))
    for name in by_remainder[: total - sum(counts.values())]:
        counts[name] += 1
    return counts


def is_update(name: str) -> bool:
    """Whether the operation writes (and so draws fresh parameters per segment)."""
    return name.startswith("IU")


def people_by_reach(dataset: SnbDataset) -> np.ndarray:
    """Ids of the persons with at least two friends (the generator's own
    eligibility rule), ordered by the number of friends their friends have."""
    store = dataset.store
    knows = store.adjacency(AdjacencyKey(PERSON, "KNOWS", PERSON, Direction.OUT))
    rows = store.read_view().all_rows(PERSON)
    degree = np.zeros(int(rows.max()) + 1, dtype=np.int64)
    degree[rows] = [knows.degree(int(row)) for row in rows]
    reach = np.asarray([degree[knows.neighbors(int(row))].sum() for row in rows])
    eligible = degree[rows] >= 2
    order = np.argsort(reach[eligible], kind="stable")
    return store.table(PERSON).gather("id", rows[eligible][order])


def spread_sample(ordered: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    """*count* values, one drawn from each of *count* equal slices of
    *ordered*, in random order."""
    picks = (np.arange(count) + rng.random(count)) * len(ordered) / count
    chosen = ordered[picks.astype(np.int64)]
    rng.shuffle(chosen)
    return [int(value) for value in chosen]


def _draw(gen: ParameterGenerator, name: str, person: int | None = None) -> Op:
    """One operation; *person*, when given, replaces its start person."""
    template = name.removesuffix(COLD_SUFFIX)
    text, source = CYPHER_TEMPLATES.get(template, (None, "IS1" if name == FLOOR else name))
    params = gen.params_for(source)
    if person is not None:
        for key in ("personId", "person1Id"):
            if key in params and person not in params.values():
                params[key] = person
    if text is None:
        return (name, None, params)
    (entity_id,) = params.values()
    if name.endswith(COLD_SUFFIX):
        return (name, text.replace("$id", str(entity_id)), {})
    return (name, text, {"id": entity_id})


@dataclass
class Stream:
    """One workload's operations: warm-up, then equal-shaped segments."""

    workload: str
    warmup: list[Op]
    segments: list[list[Op]]

    def sha256(self) -> str:
        """Digest of the whole stream; equal seeds give equal digests."""
        body = json.dumps(
            [self.warmup, *self.segments], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(body.encode()).hexdigest()

    def created_ids(self) -> list[int]:
        """Every entity id the stream's update operations create."""
        return [
            params[CREATED_ID_PARAM[name]]
            for ops in (self.warmup, *self.segments)
            for name, _, params in ops
            if name in CREATED_ID_PARAM
        ]


def build_stream(
    workload: str, dataset: SnbDataset, seed: int, segment_ops: int, segments: int
) -> Stream:
    """The seeded stream: ``segment_ops // 4`` warm-up ops, then *segments*
    replays of one ``segment_ops``-long template."""
    rng = np.random.default_rng(seed)
    gen = ParameterGenerator(dataset, seed=seed)
    counts = apportion(workload_weights(workload), segment_ops)
    schedule = [name for name in sorted(counts) for _ in range(counts[name])]
    rng.shuffle(schedule)
    people = people_by_reach(dataset)
    persons = {
        name: spread_sample(people, count, rng)
        for name, count in counts.items()
        if not is_update(name)
    }
    template = [
        None if is_update(name) else _draw(gen, name, persons[name].pop())
        for name in schedule
    ]

    def replay(length: int) -> list[Op]:
        return [
            op if op is not None else _draw(gen, name)
            for name, op in zip(schedule[:length], template)
        ]

    stream = Stream(
        workload, replay(segment_ops // 4), [replay(segment_ops) for _ in range(segments)]
    )
    created = stream.created_ids()
    if len(set(created)) != len(created):
        raise RuntimeError(f"{workload}: an update id repeats within the stream")
    return stream
