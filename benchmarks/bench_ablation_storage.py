"""Ablation — validity-bitmap column store vs the sentinel-era layout.

Two A/Bs over one synthetic 256k-row table, isolating what the storage
overhaul buys beyond correctness:

* **NULL masking** — reusing the stored validity bitmap vs re-deriving
  NULLness by comparing every value against the int64-min sentinel, the
  per-operator cost the old convention paid on each aggregate/filter;
* **dictionary strings** — memory footprint of a low-cardinality STRING
  column dictionary-encoded (int32 codes + unique values) vs one Python
  object pointer per row.
"""

from __future__ import annotations

import random

from conftest import emit
from repro.obs.clock import now
from repro.storage.catalog import GraphSchema, PropertyDef, VertexLabelDef
from repro.storage.graph import GraphStore
from repro.storage.properties import PropertyColumn
from repro.types import NULL_INT, DataType

ROWS = 256 * 1024
ROUNDS = 5


def _build_store() -> GraphStore:
    rng = random.Random(11)
    schema = GraphSchema()
    schema.add_vertex_label(
        VertexLabelDef(
            "N",
            [
                PropertyDef("id", DataType.INT64),
                PropertyDef("v", DataType.INT64),
                PropertyDef("tag", DataType.STRING),
            ],
            primary_key="id",
        )
    )
    store = GraphStore(schema)
    values = [None if rng.random() < 0.05 else rng.randint(0, 16_000) for _ in range(ROWS)]
    tags = [rng.choice(["alpha", "beta", "gamma", "delta"]) for _ in range(ROWS)]
    store.bulk_load_vertices(
        "N", {"id": list(range(ROWS)), "v": values, "tag": tags}
    )
    return store


def test_ablation_storage(benchmark):
    store = _build_store()
    column = store.table("N").column("v")

    def run():
        timings: dict[str, float] = {}
        values = column.view()
        validity = column.validity_mask()
        started = now()
        for _ in range(ROUNDS * 4):
            sentinel_mask = values != NULL_INT
        timings["sentinel re-derive"] = (now() - started) / (ROUNDS * 4) * 1e3
        started = now()
        for _ in range(ROUNDS * 4):
            bitmap_mask = validity if validity is not None else None
        timings["bitmap reuse"] = (now() - started) / (ROUNDS * 4) * 1e3
        assert bitmap_mask is not None
        # The sentinel compare also *miscounts* any legitimate int64-min.
        assert int((~sentinel_mask).sum()) == int((~bitmap_mask).sum())
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    encoded = store.table("N").column("tag")
    plain = PropertyColumn("tag", DataType.STRING, capacity=ROWS)
    plain.extend(encoded.view().tolist())
    dict_ratio = plain.nbytes / encoded.nbytes

    lines = [
        "",
        f"== Ablation: validity-bitmap storage ({ROWS} rows) ==",
        f"{'mode':22}{'time ms':>10}",
        f"{'sentinel re-derive':22}{timings['sentinel re-derive']:>10.3f}",
        f"{'bitmap reuse':22}{timings['bitmap reuse']:>10.3f}",
        f"dictionary encoding: {dict_ratio:.1f}x smaller "
        f"({encoded.nbytes >> 10} KiB vs {plain.nbytes >> 10} KiB)",
    ]
    emit(
        lines,
        archive="ablation_storage.txt",
        data={
            "rows": ROWS,
            "sentinel_mask_ms": timings["sentinel re-derive"],
            "bitmap_mask_ms": timings["bitmap reuse"],
            "dict_compression": dict_ratio,
        },
    )
