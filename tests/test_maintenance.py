"""Tests for incremental view and index maintenance under appends.

Invariant: after any sequence of appends, every maintained view and index
is identical (up to row order) to one rebuilt from scratch, and every query
still matches the brute-force reference on the grown base table.
"""

import random

import pytest

from repro.engine.maintenance import MaintenanceError, append_rows
from repro.check import evaluate_reference
from repro.core.operators.hash_join import HashStarJoin
from repro.core.operators.index_join import IndexStarJoin
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from helpers import make_tiny_db


def fresh_db(**kwargs):
    defaults = dict(
        n_rows=300, materialized=("X'Y", "X'Y'"), index_tables=("XY", "X'Y")
    )
    defaults.update(kwargs)
    return make_tiny_db(**defaults)


def new_rows(db, n, seed):
    return generate_fact_rows(db.schema, n, seed=seed)


def view_as_dict(entry):
    n_dims = len(entry.levels)
    return {
        tuple(int(v) for v in row[:n_dims]): row[n_dims]
        for row in entry.table.all_rows()
    }


class TestBaseAppend:
    def test_base_grows(self):
        db = fresh_db()
        report = db.append_rows(new_rows(db, 50, seed=99))
        assert db.catalog.get("XY").n_rows == 350
        assert report["XY"] == 50

    def test_empty_append_is_noop(self):
        db = fresh_db()
        assert db.append_rows([]) == {}
        assert db.catalog.get("XY").n_rows == 300

    def test_bad_row_width_rejected(self):
        db = fresh_db()
        with pytest.raises(ValueError):
            db.append_rows([(1, 2)])

    def test_out_of_range_key_rejected_before_any_change(self):
        db = fresh_db()
        before = database_state(db)
        with pytest.raises(ValueError, match="out of range"):
            db.append_rows([(0, 0, 1.0), (12, 0, 1.0)])
        with pytest.raises(ValueError, match="out of range"):
            db.append_rows([(-1, 0, 1.0)])
        assert database_state(db) == before

    def test_append_to_view_rejected(self):
        db = fresh_db()
        with pytest.raises(MaintenanceError):
            append_rows(db, [(0, 0, 1.0)], base_name="X'Y")

    def test_custom_base_name_found_automatically(self):
        """The default base is located by its raw flag, not by notation-
        derived naming (regression: a base loaded as 'sales' broke
        append_rows)."""
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([(0, 0, 1.0)], name="facts")
        db.materialize("X'Y'")
        report = db.append_rows([(1, 1, 2.0)])
        assert report["facts"] == 1
        assert db.catalog.get("facts").n_rows == 2

    def test_no_raw_table_rejected(self):
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        with pytest.raises(MaintenanceError, match="no raw base"):
            append_rows(db, [(0, 0, 1.0)])


class TestViewMaintenance:
    def test_sum_view_matches_rebuild(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 80, seed=7))
        maintained = view_as_dict(db.catalog.get("X'Y'"))
        # Rebuild from scratch in a sibling database with identical data.
        twin = make_tiny_db(n_rows=300, materialized=(), index_tables=())
        twin.append_rows(new_rows(twin, 80, seed=7))
        rebuilt = view_as_dict(twin.materialize("X'Y'", name="check"))
        assert maintained.keys() == rebuilt.keys()
        for key, value in rebuilt.items():
            assert maintained[key] == pytest.approx(value)

    @pytest.mark.parametrize(
        "aggregate", [Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX]
    )
    def test_non_sum_views_maintained(self, aggregate):
        db = fresh_db()
        db.materialize((1, 1), name="special", aggregate=aggregate)
        db.append_rows(new_rows(db, 60, seed=13))
        base = db.catalog.get("XY")
        query = GroupByQuery(groupby=GroupBy((1, 1)), aggregate=aggregate)
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert view_as_dict(db.catalog.get("special")) == {
            k: pytest.approx(v) for k, v in expected.groups.items()
        }

    def test_new_groups_append_and_unclusters(self):
        db = make_tiny_db(n_rows=5, seed=1, materialized=("X'Y'",))
        entry = db.catalog.get("X'Y'")
        before_groups = entry.n_rows
        assert entry.clustered
        # Append enough rows to certainly hit new (X', Y') combinations.
        report = db.append_rows(new_rows(db, 200, seed=2))
        assert report["X'Y'"] > 0
        assert entry.n_rows == before_groups + report["X'Y'"]
        assert not entry.clustered

    def test_update_in_place_keeps_clustered(self):
        db = fresh_db()
        entry = db.catalog.get("X'Y'")
        # 300 uniform rows over 24 (X', Y') combos: every group exists, so a
        # single new row can only update in place.
        report = db.append_rows([(0, 0, 5.0)])
        assert report["X'Y'"] == 0
        assert entry.clustered


class TestIndexMaintenance:
    def selective_query(self):
        return GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(
                DimPredicate(0, 0, frozenset({3})),
                DimPredicate(1, 0, frozenset({2})),
            ),
        )

    def test_base_bitmap_indexes_cover_new_rows(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 70, seed=21))
        base = db.catalog.get("XY")
        query = self.selective_query()
        via_index = IndexStarJoin(db.ctx(), "XY", query).run_single()
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_index.approx_equals(expected)

    def test_btree_indexes_cover_new_rows(self):
        db = make_tiny_db(n_rows=200, index_tables=())
        db.create_bitmap_index("XY", "X", kind="btree")
        db.create_bitmap_index("XY", "Y", kind="btree")
        db.append_rows(new_rows(db, 50, seed=31))
        base = db.catalog.get("XY")
        query = self.selective_query()
        via_index = IndexStarJoin(db.ctx(), "XY", query).run_single()
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_index.approx_equals(expected)

    def test_view_indexes_extended(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 120, seed=41))
        view = db.catalog.get("X'Y")
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({2})),),
        )
        via_view_index = IndexStarJoin(db.ctx(), "X'Y", query).run_single()
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_view_index.approx_equals(expected)
        assert view.index_for(0, 1).n_rows == view.n_rows

    def test_bitmap_page_count_follows_appended_rows(self):
        """A bitmap's page count grows with the table (regression: it was
        fixed at build time, so past 65,536 rows — one 8 KB page of bits —
        a maintained index under-charged every lookup)."""
        from repro.engine.database import Database
        from repro.index.bitmap_index import BitmapJoinIndex

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema())
        db.load_base([(i % 12, i % 8, 1.0) for i in range(65_530)])
        index = db.create_bitmap_index("XY", "X")
        assert (index.n_pages, index.pages_per_lookup(1)) == (12, 1)
        db.append_rows([(i % 12, 0, 1.0) for i in range(10)])
        base = db.catalog.get("XY")
        rebuilt = BitmapJoinIndex.build(
            base.table, "XY", 0, 0, column_index=0,
            key_to_member=db.schema.dimensions[0].rollup_map(0, 0),
            n_members=12,
        )
        assert (index.n_pages, index.pages_per_lookup(1)) == (24, 2)
        assert (index.n_pages, index.pages_per_lookup(1)) == (
            rebuilt.n_pages, rebuilt.pages_per_lookup(1)
        )


class TestEndToEndAfterAppends:
    def test_optimized_queries_correct_after_appends(self):
        db = fresh_db()
        rng = random.Random(3)
        for round_ in range(3):
            db.append_rows(new_rows(db, 40, seed=100 + round_))
        base = db.catalog.get("XY")
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="m1"),
            GroupByQuery(
                groupby=GroupBy((2, 2)),
                predicates=(DimPredicate(0, 2, frozenset({0})),),
                label="m2",
            ),
        ]
        _ = rng
        for algorithm in ("naive", "tplo", "gg", "optimal"):
            report = db.run_queries(queries, algorithm)
            for query in queries:
                expected = evaluate_reference(
                    db.schema, base.table.all_rows(), query, base.levels
                )
                assert report.result_for(query).approx_equals(expected)

    def test_maintained_view_answers_match_base(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 90, seed=77))
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        via_view = HashStarJoin(db.ctx(), "X'Y'", query).run_single()
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_view.approx_equals(expected)


# -- differential: the group-index path vs. the full-rescan algorithm -------


def _reference_fold(aggregate, groups, key, value):
    if aggregate is Aggregate.SUM:
        groups[key] = groups.get(key, 0.0) + value
    elif aggregate is Aggregate.COUNT:
        groups[key] = groups.get(key, 0.0) + 1.0
    elif aggregate is Aggregate.MIN:
        groups[key] = min(groups.get(key, value), value)
    else:
        groups[key] = max(groups.get(key, value), value)


def _reference_merge(view, delta, aggregate):
    """Merge a delta through a key → row position map over every view row;
    returns (groups appended, groups updated in place)."""
    n_dims = len(view.levels)
    positions = {}
    for position, row in enumerate(view.table.all_rows()):
        positions[tuple(row[:n_dims])] = position
    appended = updated = 0
    for key, value in sorted(delta.items()):
        found = positions.get(key)
        if found is None:
            view.table.append(key + (value,))
            appended += 1
            continue
        current = view.table.row_at(found)[n_dims]
        if aggregate in (Aggregate.SUM, Aggregate.COUNT):
            merged = current + value
        elif aggregate is Aggregate.MIN:
            merged = min(current, value)
        else:
            merged = max(current, value)
        view.table.set_measures([found], [merged])
        updated += 1
    return appended, updated


def _rebuilt_index(db, entry, key, index):
    dim_index, level = key
    dim = db.schema.dimensions[dim_index]
    return type(index).build(
        entry.table, entry.name, dim_index, level, column_index=dim_index,
        key_to_member=dim.rollup_map(entry.levels[dim_index], level),
        n_members=dim.n_members(level),
    )


def reference_append(db, rows):
    """The rescan algorithm: per-row delta fold, full-dict merge, and every
    index rebuilt from scratch.  Returns {view: (appended, updated)}."""
    base = db.catalog.get("XY")
    base.table.extend(rows)
    counts = {}
    for entry in db.catalog.entries():
        if not entry.is_raw:
            aggregate = Aggregate(entry.source_aggregate)
            delta = {}
            for row in rows:
                key = tuple(
                    int(dim.rollup_map(0, level)[row[d]])
                    for d, (dim, level) in enumerate(
                        zip(db.schema.dimensions, entry.levels)
                    )
                )
                _reference_fold(aggregate, delta, key, float(row[-1]))
            counts[entry.name] = _reference_merge(entry, delta, aggregate)
            if counts[entry.name][0]:
                entry.clustered = False
        for key, index in list(entry.indexes.items()):
            entry.indexes[key] = _rebuilt_index(db, entry, key, index)
    return counts


def index_state(index):
    from repro.index.bitmap_index import BitmapJoinIndex

    if isinstance(index, BitmapJoinIndex):
        payload = {
            member: (bitmap.n_bits, bitmap.words.tobytes())
            for member, bitmap in index._bitmaps.items()
        }
    else:
        payload = {
            member: (str(rids.dtype), rids.tolist())
            for member, rids in index._rid_lists.items()
        }
    return (
        type(index).__name__, payload, index.n_rows, index.n_pages,
        index.pages_per_lookup(1), index.pages_per_lookup(3),
    )


def database_state(db):
    """Every table's rows in page order, clustered flag and index states."""
    return {
        entry.name: (
            [list(entry.table.page(i)) for i in range(entry.table.n_pages)],
            entry.clustered,
            {key: index_state(index) for key, index in entry.indexes.items()},
        )
        for entry in db.catalog.entries()
    }


def differential_db(seed):
    """Sparse views (40 base rows) of every maintainable aggregate, with
    bitmap and btree indexes at stored and coarser levels."""
    db = make_tiny_db(n_rows=40, seed=seed, index_tables=())
    db.create_bitmap_index("XY", "X")
    db.create_bitmap_index("XY", "X", level=1)
    db.create_bitmap_index("XY", "Y", kind="btree")
    db.materialize("X'Y")
    db.create_bitmap_index("X'Y", "X", kind="btree")
    db.create_bitmap_index("X'Y", "Y")
    db.create_bitmap_index("X'Y", "Y", level=1, kind="btree")
    for aggregate in (Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX):
        view = db.materialize("XY'", aggregate=aggregate)
        db.create_bitmap_index(view.name, "X")
        db.create_bitmap_index(view.name, "Y", kind="btree")
    db.materialize("X''Y''")
    return db


class TestDifferentialAgainstRescan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_rescan_algorithm(self, seed):
        maintained, reference = differential_db(seed), differential_db(seed)
        rng = random.Random(seed)
        appended = updated = 0
        for round_ in range(8):
            n = rng.randint(1, 60)
            rows = new_rows(maintained, n, seed=seed * 100 + round_)
            report = append_rows(maintained, rows)
            counts = reference_append(reference, rows)
            for name, (n_appended, n_updated) in counts.items():
                assert report[name] == n_appended
                appended += n_appended
                updated += n_updated
            assert database_state(maintained) == database_state(reference)
        # The sequence exercised both merge paths.
        assert appended > 0 and updated > 0
        # Every maintained index equals one built over the maintained table.
        for entry in maintained.catalog.entries():
            for key, index in entry.indexes.items():
                assert index_state(index) == index_state(
                    _rebuilt_index(maintained, entry, key, index)
                )


# -- the group index's lifecycle ----------------------------------------------


def batches(db, seed, n=3):
    return [new_rows(db, 30, seed=seed + i) for i in range(n)]


def lifecycle_db(**kwargs):
    return make_tiny_db(
        n_rows=40, materialized=("X'Y", "XY'"), index_tables=("XY", "X'Y"),
        **kwargs,
    )


def fresh_with(appends):
    db = lifecycle_db()
    for rows in appends:
        db.append_rows(rows)
    return db


class TestGroupIndexLifecycle:
    def test_group_index_tracks_view(self):
        db = lifecycle_db()
        for rows in batches(db, 5):
            db.append_rows(rows)
            for entry in db.catalog.entries():
                if entry.is_raw:
                    continue
                codes, positions = entry._group_index
                assert codes.size == positions.size == entry.n_rows
                assert (codes[1:] > codes[:-1]).all()
                assert sorted(positions.tolist()) == list(range(entry.n_rows))

    def test_rebuilt_when_view_table_grew_behind_its_back(self):
        db = lifecycle_db()
        first, second = batches(db, 7, n=2)
        db.append_rows(first)
        view = db.catalog.get("XY'")
        # A group added outside maintenance: the stale index is detected by
        # its length and rebuilt rather than trusted.
        missing = next(
            (x, y) for x in range(12) for y in range(4)
            if (x, y) not in view_as_dict(view)
        )
        view.table.append(missing + (0.0,))
        db.append_rows(second)
        assert view._group_index[0].size == view.n_rows
        assert len(view_as_dict(view)) == view.n_rows

    def test_persist_round_trip_then_append(self, tmp_path):
        from repro.engine.persist import load_database, save_database

        db = lifecycle_db()
        first, second = batches(db, 11, n=2)
        db.append_rows(first)
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        loaded.append_rows(second)
        assert database_state(loaded) == database_state(
            fresh_with([first, second])
        )

    def test_view_dropped_and_rematerialized(self):
        db = lifecycle_db()
        first, second = batches(db, 13, n=2)
        db.append_rows(first)
        db.catalog.drop("X'Y")
        db.materialize("X'Y")
        db.index_all_dimensions("X'Y")
        db.append_rows(second)
        # The fresh database never had a group index for the old view.
        fresh = make_tiny_db(
            n_rows=40, materialized=("XY'",), index_tables=("XY",)
        )
        fresh.append_rows(first)
        fresh.materialize("X'Y")
        fresh.index_all_dimensions("X'Y")
        fresh.append_rows(second)
        assert database_state(db) == database_state(fresh)

    def test_direct_maintenance_call(self):
        from repro.engine import maintenance
        from repro.engine.result_cache import attach_cache

        db = lifecycle_db()
        attach_cache(db)
        appends = batches(db, 17)
        db.append_rows(appends[0])
        maintenance.append_rows(db, appends[1])
        db.append_rows(appends[2])
        assert database_state(db) == database_state(fresh_with(appends))

    def test_csv_append(self, tmp_path):
        from repro.engine.csvload import load_csv

        db = lifecycle_db()
        first, second = batches(db, 19, n=2)
        db.append_rows(first)
        x, y = db.schema.dimensions
        lines = ["X,Y,m"] + [
            f"{x.member_name(0, a)},{y.member_name(0, b)},{m!r}"
            for a, b, m in second
        ]
        path = tmp_path / "facts.csv"
        path.write_text("\n".join(lines) + "\n")
        assert load_csv(db, path, append=True) == len(second)
        assert database_state(db) == database_state(
            fresh_with([first, second])
        )


class TestMaintenanceTracing:
    def test_append_spans(self):
        db = lifecycle_db()
        rows = new_rows(db, 30, seed=23)
        with db.trace():
            report = db.append_rows(rows)
        span = db.last_trace.find("maintenance.append")
        assert span is not None
        assert [child.name for child in span.children] == [
            "maintenance.base", "maintenance.base_indexes", "maintenance.views"
        ]
        assert span.attrs["rows"] == 30
        assert span.attrs["view_groups"] == report["X'Y"] + report["XY'"]
