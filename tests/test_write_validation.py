"""Every write entry point rejects bad keys and measures with a typed error.

Keys must be integral member ids inside their column's domain and measures
finite numbers.  The heap table's bulk append validates the whole batch
before it writes any of it, and ``load_base``, ``append_rows``,
``load_csv`` and ``load_database`` all write through it, so a bad value
fails loudly instead of wrapping in a rollup gather (a ``-1`` key) or being
stored as something the indexes and views disagree with (``1.7``,
``"5"``).
"""

import numpy as np
import pytest

from repro.engine.csvload import load_csv
from repro.engine.database import Database
from repro.engine.persist import load_database, save_database
from repro.storage.table import HeapTable, InvalidDataError
from repro.workload.paper_schema import PaperConfig, build_paper_database

from conftest import make_tiny_schema
from helpers import make_tiny_db


@pytest.fixture()
def paper_db():
    return build_paper_database(config=PaperConfig(scale=0.002))


def snapshot(db):
    """Every table's rows and every index's row count."""
    return {
        entry.name: (
            list(entry.table.all_rows()),
            [index.n_rows for index in entry.indexes.values()],
        )
        for entry in db.catalog.entries()
    }


class TestLoadBase:
    def test_negative_key_rejected(self, paper_db):
        db = Database(paper_db.schema)
        with pytest.raises(InvalidDataError, match="key -1 out of range"):
            db.load_base([(0, 0, 0, 0, 1.0), (-1, 0, 0, 0, 1.0)], name="ABCD")
        assert "ABCD" not in db.catalog

    def test_key_past_the_leaf_domain_rejected(self):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        with pytest.raises(InvalidDataError, match=r"key 12 out of range.*0\.\.11"):
            db.load_base([(12, 0, 1.0)])

    def test_non_finite_measure_rejected_from_columns(self):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        keys = [np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)]
        with pytest.raises(InvalidDataError, match="not finite"):
            db.load_base(columns=(keys, np.asarray([1.0, np.inf])))


class TestAppendRows:
    def test_fractional_key_rejected(self, paper_db):
        before = snapshot(paper_db)
        with pytest.raises(InvalidDataError, match="key 1.7 .* not an integer"):
            paper_db.append_rows([(1.7, 2, 3, 4, 10.0)])
        assert snapshot(paper_db) == before

    def test_string_measure_rejected(self, paper_db):
        before = snapshot(paper_db)
        with pytest.raises(InvalidDataError, match="non-numeric measures"):
            paper_db.append_rows([(True, 2, 3, 4, "5")])
        assert snapshot(paper_db) == before

    def test_integral_float_key_is_stored_as_an_integer(self):
        db = make_tiny_db(n_rows=20)
        db.append_rows([(3.0, 1, 2.5)])
        row = db.catalog.get("XY").table.row_at(20)
        assert row == (3, 1, 2.5)
        assert type(row[0]) is int


class TestLoadCsv:
    def test_nan_measure_rejected(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text("X,Y,m\nXXX1,YYY1,2.5\nXXX2,YYY1,nan\n")
        db = Database(make_tiny_schema(), page_size=64)
        with pytest.raises(InvalidDataError, match="measure nan"):
            load_csv(db, path)
        assert len(db.catalog.names()) == 0


class TestLoadDatabase:
    def test_doctored_key_rejected(self, tmp_path):
        db = make_tiny_db(n_rows=30, index_tables=())
        store = save_database(db, tmp_path / "store")
        (npz,) = store.glob("*.npz")
        with np.load(npz) as arrays:
            columns = {name: arrays[name] for name in arrays.files}
        columns["key0"][5] = -1
        np.savez_compressed(npz, **columns)
        with pytest.raises(InvalidDataError, match="key -1 out of range"):
            load_database(store)


class TestHeapTableWrites:
    def make(self):
        return HeapTable("t", ("a", "m"), page_size=32, key_domains=(5,))

    def test_batch_is_all_or_nothing(self):
        table = self.make()
        table.extend([(0, 1.0), (1, 2.0)])
        with pytest.raises(InvalidDataError):
            table.extend([(2, 3.0), (3, 4.0), (5, 5.0)])
        assert list(table.all_rows()) == [(0, 1.0), (1, 2.0)]
        assert table.n_pages == 1

    @pytest.mark.parametrize(
        "keys, measures",
        [
            ([np.asarray([1, 2])], [1.0]),  # ragged columns
            ([np.asarray([[1]])], [[1.0]]),  # not one-dimensional
            ([np.asarray(["1"])], [1.0]),  # string key
            ([np.asarray([np.nan])], [1.0]),  # NaN key
            ([np.asarray([1])], [None]),  # missing measure
        ],
    )
    def test_malformed_columns_rejected(self, keys, measures):
        table = self.make()
        with pytest.raises(InvalidDataError):
            table.append_columns(keys, measures)
        assert table.n_rows == 0

    def test_wrong_key_column_count_rejected(self):
        with pytest.raises(InvalidDataError, match="1 key columns, got 2"):
            self.make().append_columns([[0], [0]], [1.0])

    def test_row_width_rejected(self):
        with pytest.raises(InvalidDataError, match="row width 3"):
            self.make().extend([(0, 1, 2.0)])
