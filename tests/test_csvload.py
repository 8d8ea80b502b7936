"""Tests for CSV fact ingestion."""

import pytest

from repro.engine.csvload import CsvLoadError, load_csv, rows_from_csv
from repro.engine.database import Database
from repro.check import evaluate_reference
from repro.schema.query import GroupBy, GroupByQuery

from conftest import make_tiny_schema
from helpers import make_tiny_db

HEADER = "X,Y,m\n"


def write_csv(tmp_path, body, header=HEADER, name="facts.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return path


class TestParsing:
    def test_names_map_to_leaf_ids(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "XXX1,YYY2,10.5\nXXX12,YYY8,2\n")
        rows = rows_from_csv(schema, path)
        assert rows == [(0, 1, 10.5), (11, 7, 2.0)]

    def test_custom_column_mapping(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(
            tmp_path,
            "XXX1,YYY1,3.25\n",
            header="x_name,y_name,amount\n",
        )
        rows = rows_from_csv(
            schema,
            path,
            dimension_columns={"X": "x_name", "Y": "y_name"},
            measure_column="amount",
        )
        assert rows == [(0, 0, 3.25)]

    def test_unknown_member_rejected_with_line(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "XXX1,YYY1,1\nNOPE,YYY1,2\n")
        with pytest.raises(CsvLoadError, match="line 3.*NOPE"):
            rows_from_csv(schema, path)

    def test_coarse_member_rejected(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "X1,YYY1,1\n")  # X1 is a top member
        with pytest.raises(CsvLoadError, match="leaf-level"):
            rows_from_csv(schema, path)

    def test_bad_measure_rejected(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "XXX1,YYY1,abc\n")
        with pytest.raises(CsvLoadError, match="measure"):
            rows_from_csv(schema, path)

    def test_empty_value_rejected(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "XXX1,,1\n")
        with pytest.raises(CsvLoadError, match="empty value"):
            rows_from_csv(schema, path)

    def test_missing_column_rejected(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "XXX1,1\n", header="X,m\n")
        with pytest.raises(ValueError, match="missing column"):
            rows_from_csv(schema, path)

    def test_missing_dimension_mapping_rejected(self, tmp_path):
        schema = make_tiny_schema()
        path = write_csv(tmp_path, "XXX1,YYY1,1\n")
        with pytest.raises(ValueError, match="lacks a mapping"):
            rows_from_csv(schema, path, dimension_columns={"X": "X"})


class TestLoading:
    def test_load_new_base(self, tmp_path):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        path = write_csv(tmp_path, "XXX1,YYY1,5\nXXX2,YYY2,7\n")
        n = load_csv(db, path, table_name="facts")
        assert n == 2
        assert db.catalog.get("facts").n_rows == 2

    def test_append_maintains_views(self, tmp_path):
        db = make_tiny_db(n_rows=100, materialized=("X'Y'",))
        path = write_csv(tmp_path, "XXX1,YYY1,100\nXXX1,YYY1,50\n")
        n = load_csv(db, path, append=True)
        assert n == 2
        base = db.catalog.get("XY")
        assert base.n_rows == 102
        query = GroupByQuery(groupby=GroupBy((1, 1)))
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        got = {
            (int(r[0]), int(r[1])): r[2]
            for r in db.catalog.get("X'Y'").table.all_rows()
        }
        assert got == {k: pytest.approx(v) for k, v in expected.groups.items()}

    def test_loaded_data_queryable(self, tmp_path):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        path = write_csv(
            tmp_path, "XXX1,YYY1,5\nXXX2,YYY1,7\nXXX7,YYY5,11\n"
        )
        load_csv(db, path, table_name="facts")
        report = db.run_mdx("{X''.MEMBERS} on COLUMNS CONTEXT facts")
        result = next(iter(report.results.values()))
        assert result.total() == pytest.approx(23.0)
