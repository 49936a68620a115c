"""Tests for the flat (fully materialized) block and its operators."""

import numpy as np
import pytest

from repro.core.flatblock import FlatBlock, sort_key_array
from repro.core.column import Column
from repro.errors import ExecutionError
from repro.types import DataType


def sample() -> FlatBlock:
    return FlatBlock.from_dict(
        {
            "id": (DataType.INT64, [3, 1, 2, 1]),
            "name": (DataType.STRING, ["c", "a", "b", "a"]),
            "score": (DataType.FLOAT64, [0.5, 2.5, 1.5, 3.5]),
        }
    )


class TestConstruction:
    def test_from_columns(self):
        block = FlatBlock.from_columns([Column("x", DataType.INT64, [1, 2])])
        assert block.schema == ["x"]
        assert len(block) == 2

    def test_duplicate_column_rejected(self):
        block = sample()
        with pytest.raises(ExecutionError):
            block.add_array("id", DataType.INT64, np.asarray([0] * 4))

    def test_length_mismatch_rejected(self):
        block = sample()
        with pytest.raises(ExecutionError):
            block.add_array("extra", DataType.INT64, np.asarray([1]))

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError):
            sample().array("ghost")

    def test_empty_like(self):
        block = FlatBlock.empty_like([("a", DataType.INT64)])
        assert len(block) == 0 and block.schema == ["a"]


class TestAccounting:
    def test_nbytes_row_oriented(self):
        block = FlatBlock.from_dict({"a": (DataType.INT64, [1, 2, 3])})
        assert block.nbytes == 3 * 1 * FlatBlock.ROW_VALUE_BYTES

    def test_nbytes_includes_string_payload(self):
        block = FlatBlock.from_dict({"s": (DataType.STRING, ["ab", "cdef"])})
        assert block.nbytes == 2 * FlatBlock.ROW_VALUE_BYTES + 6

    def test_columnar_nbytes_smaller_for_narrow_ints(self):
        block = FlatBlock.from_dict({"a": (DataType.INT64, list(range(100)))})
        assert block.columnar_nbytes < block.nbytes


class TestOps:
    def test_take(self):
        out = sample().take(np.asarray([2, 0]))
        assert out.to_pylist(["id"]) == [(2,), (3,)]

    def test_filter(self):
        out = sample().filter(np.asarray([True, False, True, False]))
        assert out.to_pylist(["id"]) == [(3,), (2,)]

    def test_select(self):
        out = sample().select(["name"])
        assert out.schema == ["name"]

    def test_rename(self):
        out = sample().rename({"id": "key"})
        assert out.schema == ["key", "name", "score"]

    def test_sort_single_key(self):
        out = sample().sort([("id", True)])
        assert [r[0] for r in out.to_pylist(["id"])] == [1, 1, 2, 3]

    def test_sort_descending(self):
        out = sample().sort([("id", False)])
        assert [r[0] for r in out.to_pylist(["id"])] == [3, 2, 1, 1]

    def test_sort_multi_key_tiebreak(self):
        out = sample().sort([("name", True), ("score", False)])
        assert out.to_pylist(["name", "score"]) == [
            ("a", 3.5), ("a", 2.5), ("b", 1.5), ("c", 0.5),
        ]

    def test_sort_stability(self):
        block = FlatBlock.from_dict(
            {"k": (DataType.INT64, [1, 1, 1]), "tag": (DataType.INT64, [10, 20, 30])}
        )
        out = block.sort([("k", True)])
        assert [r[0] for r in out.to_pylist(["tag"])] == [10, 20, 30]

    def test_sort_string_with_none(self):
        block = FlatBlock.from_dict({"s": (DataType.STRING, ["b", None, "a"])})
        out = block.sort([("s", True)])
        assert out.to_pylist(["s"]) == [(None,), ("a",), ("b",)]

    def test_limit(self):
        assert len(sample().limit(2)) == 2
        assert len(sample().limit(10)) == 4

    def test_distinct(self):
        out = sample().distinct(["name"])
        assert out.to_pylist(["name"]) == [("c",), ("a",), ("b",)]

    def test_concat(self):
        block = sample()
        out = block.concat(block)
        assert len(out) == 8

    def test_concat_schema_mismatch(self):
        with pytest.raises(ExecutionError):
            sample().concat(sample().select(["id"]))

    def test_rows_and_pylist_agree(self):
        block = sample()
        assert list(block.rows()) == block.to_pylist()

    def test_to_pylist_native_types(self):
        row = sample().to_pylist()[0]
        assert isinstance(row[0], int)
        assert isinstance(row[2], float)


class TestSortKeyArray:
    def test_descending_int_negates(self):
        out = sort_key_array(np.asarray([1, 3, 2]), DataType.INT64, ascending=False)
        assert out.tolist() == [-1, -3, -2]

    def test_string_codes_ascend(self):
        values = np.asarray(["b", "a"], dtype=object)
        out = sort_key_array(values, DataType.STRING, True)
        assert out[0] > out[1]

    def test_null_int_stays_extreme_under_negation(self):
        from repro.types import NULL_INT

        out = sort_key_array(np.asarray([NULL_INT, 5]), DataType.INT64, False)
        assert out[0] == NULL_INT  # wraps onto itself
