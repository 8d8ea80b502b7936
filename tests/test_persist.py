"""Tests for database save/load round-trips."""

import json

import pytest

from repro.engine.persist import load_database, save_database
from repro.check import evaluate_reference
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


def build():
    db = make_tiny_db(
        n_rows=250, materialized=("X'Y", "X'Y'"), index_tables=("XY",)
    )
    db.materialize((1, 1), name="counts", aggregate=Aggregate.COUNT)
    return db


class TestRoundTrip:
    def test_tables_and_rows_survive(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        assert sorted(loaded.catalog.names()) == sorted(db.catalog.names())
        for name in db.catalog.names():
            original = db.catalog.get(name)
            restored = loaded.catalog.get(name)
            assert restored.n_rows == original.n_rows
            assert restored.levels == original.levels
            assert restored.clustered == original.clustered
            assert restored.source_aggregate == original.source_aggregate
            assert sorted(original.table.all_rows()) == sorted(
                restored.table.all_rows()
            )

    def test_schema_survives(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        assert loaded.schema.name == db.schema.name
        assert loaded.schema.measure == db.schema.measure
        for original, restored in zip(
            db.schema.dimensions, loaded.schema.dimensions
        ):
            assert restored.name == original.name
            assert restored.n_levels == original.n_levels
            for depth in range(original.n_levels):
                assert restored.n_members(depth) == original.n_members(depth)
                assert restored.member_name(depth, 0) == original.member_name(
                    depth, 0
                )
            assert (
                restored.rollup_map(0, original.n_levels - 1).tolist()
                == original.rollup_map(0, original.n_levels - 1).tolist()
            )

    def test_indexes_rebuilt(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        entry = loaded.catalog.get("XY")
        assert entry.index_for(0, 0) is not None
        assert entry.index_for(1, 0) is not None

    def test_queries_agree_before_and_after(self, tmp_path):
        db = build()
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0, 3})),),
            label="roundtrip",
        )
        before = db.run_queries([query], "gg").result_for(query)
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        after = loaded.run_queries([query], "gg").result_for(query)
        assert set(before.groups) == set(after.groups)
        for key, value in before.groups.items():
            assert after.groups[key] == pytest.approx(value)

    def test_loaded_matches_reference(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        base = loaded.catalog.get("XY")
        expected = evaluate_reference(
            loaded.schema, base.table.all_rows(), query, base.levels
        )
        got = loaded.run_queries([query], "tplo").result_for(query)
        assert got.approx_equals(expected)


class TestFormat:
    def test_version_checked(self, tmp_path):
        db = build()
        root = save_database(db, tmp_path / "store")
        doc = json.loads((root / "schema.json").read_text())
        doc["version"] = 999
        (root / "schema.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_database(root)

    def test_prime_names_become_safe_files(self, tmp_path):
        db = build()
        root = save_database(db, tmp_path / "store")
        catalog = json.loads((root / "catalog.json").read_text())
        for doc in catalog.values():
            assert "'" not in doc["file"]
            assert (root / doc["file"]).exists()

    def test_empty_table_round_trips(self, tmp_path):
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([], name="XY")
        root = save_database(db, tmp_path / "empty")
        loaded = load_database(root)
        assert loaded.catalog.get("XY").n_rows == 0

    def test_index_kind_preserved(self, tmp_path):
        from repro.index.btree import PositionListJoinIndex

        db = make_tiny_db(n_rows=100, index_tables=())
        db.create_bitmap_index("XY", "X", kind="btree")
        root = save_database(db, tmp_path / "kinds")
        loaded = load_database(root)
        assert isinstance(
            loaded.catalog.get("XY").index_for(0, 0), PositionListJoinIndex
        )
