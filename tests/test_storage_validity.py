"""Validity bitmaps, dictionary encoding, selection vectors, and the
NodeScan → GetProperty → Filter scan over them — the sentinel-bug-class
regression suite.

The storage contract under test: NULL is a cleared validity bit, never a
magic value.  Int64-min (the old ``NULL_INT`` sentinel, retained only as
the inert fill under invalid slots) must round-trip as legitimate data,
and a guard test keeps new sentinel references from creeping back into
``src/``.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.flatblock import FlatBlock
from repro.exec import execute_factorized, execute_flat
from repro.baselines.volcano import VolcanoEngine
from repro.plan.expressions import Cmp, Col, Lit
from repro.plan.logical import (
    Filter,
    GetProperty,
    LogicalPlan,
    NodeScan,
    plan_summary,
)
from repro.plan.optimizer import optimize
from repro.storage.catalog import GraphSchema, PropertyDef, VertexLabelDef
from repro.storage.graph import GraphStore
from repro.storage.properties import PropertyColumn
from repro.storage.validity import pack_values
from repro.types import NULL_INT, DataType

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


# -- bitmap round-trips --------------------------------------------------------


def roundtrip(dtype, values):
    column = PropertyColumn.from_array("c", dtype, values)
    return [column.get(i) for i in range(len(values))]


class TestBitmapRoundTrip:
    def test_int_with_none_holes(self):
        values = [1, None, 3, None, 5]
        assert roundtrip(DataType.INT64, values) == values

    def test_int64_min_is_data(self):
        # The heart of the bug class: the old sentinel value round-trips.
        values = [NULL_INT, None, 0]
        out = roundtrip(DataType.INT64, values)
        assert out == [NULL_INT, None, 0]
        column = PropertyColumn.from_array("c", DataType.INT64, values)
        assert column.is_valid(0) and not column.is_valid(1)

    def test_float_nan_and_none_become_null(self):
        column = PropertyColumn.from_array(
            "c", DataType.FLOAT64, [1.5, float("nan"), None]
        )
        assert column.get(0) == 1.5
        assert column.get(1) is None and column.get(2) is None
        assert column.null_count == 2

    def test_empty_column(self):
        column = PropertyColumn.from_array("c", DataType.INT64, [])
        assert len(column) == 0
        assert column.validity_mask() is None
        assert column.gather_validity(np.empty(0, dtype=np.int64)) is None

    def test_all_null_column(self):
        values = [None] * 1027
        column = PropertyColumn.from_array("c", DataType.INT64, values)
        assert column.null_count == len(values)
        assert column.gather_validity(np.arange(4)).tolist() == [False] * 4

    def test_bool_and_string(self):
        assert roundtrip(DataType.BOOL, [True, None, False]) == [True, None, False]
        assert roundtrip(DataType.STRING, ["a", None, ""]) == ["a", None, ""]

    def test_seeded_random_roundtrip_all_dtypes(self):
        rng = random.Random(42)
        pools = {
            DataType.INT64: lambda: rng.choice([NULL_INT, -1, 0, 7, 2**62]),
            DataType.FLOAT64: lambda: rng.choice([-2.5, 0.0, 3.25]),
            DataType.BOOL: lambda: rng.random() < 0.5,
            DataType.STRING: lambda: rng.choice(["", "x", "yy", "zzz"]),
        }
        for dtype, draw in pools.items():
            values = [None if rng.random() < 0.25 else draw() for _ in range(500)]
            assert roundtrip(dtype, values) == values

    def test_pack_values_detects_holes_and_nan(self):
        data, validity = pack_values([1, None, 3], DataType.INT64)
        assert validity.tolist() == [True, False, True]
        assert data[1] == DataType.INT64.fill_value()
        _, fvalid = pack_values([1.0, float("nan")], DataType.FLOAT64)
        assert fvalid.tolist() == [True, False]

    def test_pack_values_all_valid_collapses_to_none(self):
        _, validity = pack_values([1, 2, 3], DataType.INT64)
        assert validity is None


# -- dictionary encoding -------------------------------------------------------


class TestDictionaryEncoding:
    def test_low_cardinality_bulk_load_encodes(self):
        values = [["red", "green", None][i % 3] for i in range(2000)]
        column = PropertyColumn.from_array("c", DataType.STRING, values)
        assert column.is_dict_encoded
        assert [column.get(i) for i in range(12)] == values[:12]
        assert column.gather(np.asarray([0, 1, 3])).tolist() == ["red", "green", "red"]
        assert column.gather_validity(np.asarray([0, 1])).tolist() == [True, True]
        assert column.gather_validity(np.asarray([2, 5])).tolist() == [False, False]

    def test_encoded_column_survives_appends_and_updates(self):
        values = ["a", "b"] * 600
        column = PropertyColumn.from_array("c", DataType.STRING, values)
        assert column.is_dict_encoded
        column.append("c")
        column.append(None)
        column.set(0, "b")
        assert column.is_dict_encoded
        assert column.get(0) == "b"
        assert column.get(len(values)) == "c"
        assert column.get(len(values) + 1) is None

    def test_dict_code_lookup(self):
        column = PropertyColumn.from_array("c", DataType.STRING, ["a", "b"] * 600)
        assert column.dict_code("a") is not None
        assert column.dict_code("nope") is None

    def test_dictionary_saves_memory(self):
        values = [["alpha", "beta", "gamma"][i % 3] for i in range(3000)]
        encoded = PropertyColumn.from_array("c", DataType.STRING, values)
        plain = PropertyColumn("c", DataType.STRING, capacity=len(values))
        plain.extend(values)
        assert encoded.is_dict_encoded and not plain.is_dict_encoded
        assert encoded.nbytes < plain.nbytes


# -- selection vectors ---------------------------------------------------------


class TestSelectionVectors:
    def _block(self):
        block = FlatBlock()
        block.add_array("a", DataType.INT64, np.arange(8, dtype=np.int64))
        block.add_array(
            "b",
            DataType.INT64,
            np.asarray([10, 20, 30, 40, 50, 60, 70, 80], dtype=np.int64),
            np.asarray([True, False] * 4),
        )
        return block

    def test_filter_is_a_view_not_a_copy(self):
        block = self._block()
        filtered = block.filter(np.asarray([True, False] * 4))
        assert filtered.is_selected and not block.is_selected
        assert filtered.array("a").tolist() == [0, 2, 4, 6]

    def test_validity_rides_the_selection(self):
        block = self._block()
        filtered = block.filter(np.asarray([False, True] * 4))
        assert filtered.array("b").tolist() == [20, 40, 60, 80]
        assert filtered.validity("b").tolist() == [False] * 4

    def test_chained_selections_compose(self):
        block = self._block().filter(np.asarray([True] * 6 + [False] * 2))
        again = block.filter(np.asarray([False, True] * 3))
        assert again.array("a").tolist() == [1, 3, 5]

    def test_parent_mutation_isolated_after_take(self):
        block = self._block()
        taken = block.take(np.asarray([0, 1]))
        block.add_array("c", DataType.INT64, np.arange(8, dtype=np.int64))
        assert "c" not in taken.schema


# -- NodeScan -> GetProperty -> Filter end to end -----------------------------


_CMPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def _scan_store(n=4096):
    """Vertices N(id, v): ~10% NULL ``v`` (cleared bits), every 97th row the
    int64 minimum as real data, the rest banded by thousands."""
    schema = GraphSchema()
    schema.add_vertex_label(
        VertexLabelDef(
            "N",
            [PropertyDef("id", DataType.INT64), PropertyDef("v", DataType.INT64)],
            primary_key="id",
        )
    )
    store = GraphStore(schema)
    rng = random.Random(7)
    values = [
        None if rng.random() < 0.1
        else NULL_INT if i % 97 == 0
        else (i // 1024) * 1000 + rng.randint(0, 9)
        for i in range(n)
    ]
    store.bulk_load_vertices("N", {"id": list(range(n)), "v": values})
    return store


def _filter_plan(cmp_expr):
    return LogicalPlan(
        [NodeScan("a", "N"), GetProperty("a", "v", "v"), Filter(cmp_expr)],
        returns=["a", "v"],
    )


def _expected(store, cmp, literal):
    column = store.table("N").column("v")
    return sorted(
        (row, column.get(row))
        for row in range(len(column))
        if column.is_valid(row) and _CMPS[cmp](column.get(row), literal)
    )


class TestFilteredScanExecution:
    @pytest.mark.parametrize("cmp", sorted(_CMPS))
    def test_variants_agree(self, cmp):
        store = _scan_store()
        plan = _filter_plan(Cmp(cmp, Col("v"), Lit(2003)))
        opt = optimize(plan)
        assert plan_summary(opt) == "NodeScan -> GetProperty -> Filter"
        engine = VolcanoEngine(store)
        view = engine.read_view()
        flat = execute_flat(opt, view)
        fact = execute_factorized(opt, view)
        rows = engine.execute(plan).rows
        expected = _expected(store, cmp, 2003)
        assert sorted(flat.rows) == sorted(fact.rows) == sorted(rows) == expected
        # int64-min is data: every "less than" comparison must keep it.
        assert any(v == NULL_INT for _, v in expected) == (cmp in ("<", "<="))

    def test_nulls_never_match(self):
        store = _scan_store()
        view = VolcanoEngine(store).read_view()
        # Every valid value is >= int64-min, so only NULLs may drop out.
        opt = optimize(_filter_plan(Col("v") >= Lit(NULL_INT)))
        column = store.table("N").column("v")
        null_rows = {r for r in range(len(column)) if not column.is_valid(r)}
        assert null_rows  # the generator produced some
        for result in (execute_flat(opt, view), execute_factorized(opt, view)):
            matched = {row for row, _ in result.rows}
            assert matched == set(range(len(column))) - null_rows

    def test_versioned_view_agrees(self):
        store = _scan_store()
        engine = VolcanoEngine(store)
        txn = engine.transaction()
        txn.set_vertex_property("N", 5, "v", 777_777)
        txn.commit()
        view = engine.read_view()
        assert view.version is not None
        plan = _filter_plan(Col("v") > Lit(500_000))
        opt = optimize(plan)
        flat = execute_flat(opt, view)
        assert (5, 777_777) in flat.rows
        assert sorted(flat.rows) == sorted(execute_factorized(opt, view).rows)
        assert sorted(flat.rows) == sorted(engine.execute(plan, view=view).rows)

    def test_update_visible_in_place(self):
        store = _scan_store()
        store.table("N").set_property(9, "v", 777_777)
        view = VolcanoEngine(store).read_view()
        opt = optimize(_filter_plan(Col("v") > Lit(500_000)))
        assert execute_flat(opt, view).rows == [(9, 777_777)]
        assert execute_factorized(opt, view).rows == [(9, 777_777)]


# -- the guard: no new sentinel references in src/ ----------------------------


class TestSentinelGuard:
    def test_null_int_references_confined_to_types_shim(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.name == "types.py" and path.parent.name == "repro":
                continue
            text = path.read_text()
            if "NULL_INT" in text or "NULL_FLOAT" in text or ".null_value(" in text:
                offenders.append(str(path.relative_to(SRC_ROOT)))
        assert offenders == [], (
            "sentinel references outside the types.py compat shim: "
            f"{offenders} — use validity bitmaps, not magic values"
        )
