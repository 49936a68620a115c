"""Seed-determinism regressions: one seed, one byte stream, forever.

Both generators (the LDBC datagen and the testkit's graph/query/update
generators) must emit byte-identical output for one seed — across repeated
in-process runs *and* across process restarts, because a corpus entry or a
reported fuzz seed is only a repro if regeneration is exact.  The
cross-process checks run a fresh interpreter via ``subprocess`` and
compare digests, which would catch any accidental dependence on hash
randomization, set iteration order, or process-local state.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.ldbc import generate
from repro.testkit import (
    QueryGenerator,
    UpdateGenerator,
    fuzz_schema,
    random_graph_spec,
    spec_digest,
)
from repro.testkit.graphgen import PROFILES

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _testkit_digest(seed: int) -> str:
    """Digest of a spec plus the first queries/updates drawn over it."""
    schema = fuzz_schema()
    spec = random_graph_spec(
        random.Random(f"{seed}:graph:0"), schema, PROFILES["quick"], seed=seed
    )
    qgen = QueryGenerator(schema, random.Random(f"{seed}:queries:0"))
    ugen = UpdateGenerator(
        schema, random.Random(f"{seed}:updates:0"), spec, PROFILES["quick"]
    )
    payload = {
        "spec": spec_digest(spec),
        "queries": [qgen.query(spec).to_json() for _ in range(10)],
        "cypher": [qgen.cypher_query(spec).to_json() for _ in range(5)],
        "updates": [ugen.batch().to_json() for _ in range(3)],
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _datagen_digest(seed: int) -> str:
    """Digest over the SNB store's person names and global counts."""
    dataset = generate("SF1", seed=seed)
    names = dataset.store.table("Person").column("firstName").view()
    payload = {
        "firstNames": [str(v) for v in names],
        "vertices": dataset.store.vertex_count,
        "edges": dataset.store.edge_count,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _digest_in_subprocess(fn_name: str, seed: int) -> str:
    """Recompute one digest in a brand-new interpreter."""
    script = (
        "import sys, importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('det', {str(Path(__file__).resolve())!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        f"print(getattr(mod, {fn_name!r})({seed}))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="random")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


class TestInProcessDeterminism:
    def test_testkit_stream_is_repeatable(self):
        assert _testkit_digest(0) == _testkit_digest(0)

    def test_testkit_seed_changes_stream(self):
        assert _testkit_digest(0) != _testkit_digest(1)

    def test_spec_digest_stable(self):
        schema = fuzz_schema()
        specs = [
            random_graph_spec(random.Random("7:g"), schema, PROFILES["quick"], seed=7)
            for _ in range(2)
        ]
        assert spec_digest(specs[0]) == spec_digest(specs[1])

    def test_datagen_is_repeatable(self):
        assert _datagen_digest(42) == _datagen_digest(42)


class TestCrossProcessDeterminism:
    def test_testkit_digest_survives_restart(self):
        assert _digest_in_subprocess("_testkit_digest", 0) == _testkit_digest(0)

    def test_datagen_digest_survives_restart(self):
        assert _digest_in_subprocess("_datagen_digest", 42) == _datagen_digest(42)
