"""Ablation — validity-bitmap column store vs the sentinel-era layout.

Three A/Bs over one synthetic 256k-row table, isolating what the storage
overhaul buys beyond correctness:

* **filtered scan** — zone-map-pruned ``FilteredNodeScan`` (consult
  per-block min/max, gather only candidate blocks) vs the dense
  scan + gather + filter it replaced;
* **NULL masking** — reusing the stored validity bitmap vs re-deriving
  NULLness by comparing every value against the int64-min sentinel, the
  per-operator cost the old convention paid on each aggregate/filter;
* **dictionary strings** — memory footprint of a low-cardinality STRING
  column dictionary-encoded (int32 codes + unique values) vs one Python
  object pointer per row.
"""

from __future__ import annotations

import random

import numpy as np

from conftest import emit
from repro.obs.clock import now
from repro.exec import execute_flat
from repro.plan.expressions import Col, lit
from repro.plan.logical import Filter, GetProperty, LogicalPlan, NodeScan
from repro.plan.optimizer import optimize
from repro.storage.catalog import GraphSchema, PropertyDef, VertexLabelDef
from repro.storage.graph import GraphStore
from repro.storage.properties import PropertyColumn
from repro.storage.validity import ZONE_BLOCK_ROWS
from repro.types import NULL_INT, DataType

ROWS = 256 * ZONE_BLOCK_ROWS
ROUNDS = 5
#: The predicate only matches inside the last of 16 value bands, so a
#: perfect zone map skips ~15/16 of all blocks.
BANDS = 16


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
    band = ROWS // BANDS
    values = [
        None if rng.random() < 0.05 else (i // band) * 1000 + rng.randint(0, 900)
        for i in range(ROWS)
    ]
    tags = [rng.choice(["alpha", "beta", "gamma", "delta"]) for i in range(ROWS)]
    store.bulk_load_vertices(
        "N", {"id": list(range(ROWS)), "v": values, "tag": tags}
    )
    return store


def test_ablation_storage(benchmark):
    store = _build_store()
    view = store.read_view()
    threshold = (BANDS - 1) * 1000 + 800

    raw = LogicalPlan(
        [NodeScan("a", "N"), GetProperty("a", "v", "v"), Filter(Col("v") > lit(threshold))],
        returns=["a", "v"],
    )
    pruned = optimize(raw, rules=None)
    column = store.table("N").column("v")
    column.zone_map()  # build summaries outside the timed region

    def run():
        timings: dict[str, float] = {}

        started = now()
        for _ in range(ROUNDS):
            dense = execute_flat(raw, view)
        timings["dense scan+filter"] = (now() - started) / ROUNDS * 1e3

        zmap = column.zone_map()
        skipped_before, total_before = zmap.blocks_skipped, zmap.blocks_total
        started = now()
        for _ in range(ROUNDS):
            zoned = execute_flat(pruned, view)
        timings["zone-map scan"] = (now() - started) / ROUNDS * 1e3
        assert sorted(zoned.rows) == sorted(dense.rows)
        skip_rate = (zmap.blocks_skipped - skipped_before) / max(
            zmap.blocks_total - total_before, 1
        )

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

        return timings, skip_rate

    (timings, skip_rate) = benchmark.pedantic(run, rounds=1, iterations=1)

    encoded = store.table("N").column("tag")
    plain = PropertyColumn("tag", DataType.STRING, capacity=ROWS)
    plain.extend(encoded.view().tolist())
    dict_ratio = plain.nbytes / encoded.nbytes

    speedup = timings["dense scan+filter"] / timings["zone-map scan"]
    lines = [
        "",
        f"== Ablation: validity-bitmap storage ({ROWS} rows, {BANDS} value bands) ==",
        f"{'mode':22}{'time ms':>10}",
        f"{'dense scan+filter':22}{timings['dense scan+filter']:>10.2f}",
        f"{'zone-map scan':22}{timings['zone-map scan']:>10.2f}",
        f"zone-map speedup: {speedup:.1f}x (block skip rate {skip_rate:.0%})",
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
            "dense_ms": timings["dense scan+filter"],
            "zone_map_ms": timings["zone-map scan"],
            "zone_map_speedup": speedup,
            "block_skip_rate": skip_rate,
            "sentinel_mask_ms": timings["sentinel re-derive"],
            "bitmap_mask_ms": timings["bitmap reuse"],
            "dict_compression": dict_ratio,
        },
    )
