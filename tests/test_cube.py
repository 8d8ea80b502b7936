"""Tests for the cube-build planner and executor."""

import pytest

from repro.engine.cube import build_cube, plan_cube_build
from repro.check import evaluate_reference
from repro.schema.lattice import lattice_size
from repro.schema.query import GroupBy, GroupByQuery

from helpers import make_tiny_db


class TestPlanning:
    def test_full_lattice_default(self):
        db = make_tiny_db(n_rows=200)
        report = plan_cube_build(db)
        # Everything except the base itself.
        assert len(report.steps) == lattice_size(db.schema) - 1

    def test_finest_first_order(self):
        db = make_tiny_db(n_rows=200)
        report = plan_cube_build(db)
        sums = [step.target.level_sum() for step in report.steps]
        assert sums == sorted(sums)

    def test_sources_available_when_used(self):
        """Each step's source is the base, an existing view, or an earlier
        step's target — never a later one."""
        db = make_tiny_db(n_rows=200)
        report = plan_cube_build(db)
        available = {"XY"}
        for step in report.steps:
            assert step.source_name in available
            available.add(step.target.name(db.schema))

    def test_chaining_prefers_small_sources(self):
        """Coarse targets derive from earlier views, not the base."""
        db = make_tiny_db(n_rows=500)
        report = plan_cube_build(db)
        top = next(
            step
            for step in report.steps
            if step.target == GroupBy((2, 2))
        )
        assert top.source_name != "XY"

    def test_existing_views_are_skipped_and_reused(self):
        db = make_tiny_db(n_rows=300, materialized=("X'Y",))
        report = plan_cube_build(db)
        names = [step.target.name(db.schema) for step in report.steps]
        assert "X'Y" not in names
        assert any(step.source_name == "X'Y" for step in report.steps)

    def test_explicit_targets(self):
        db = make_tiny_db(n_rows=200)
        targets = [GroupBy((1, 1)), GroupBy((2, 2))]
        report = plan_cube_build(db, targets)
        assert [step.target for step in report.steps] == targets

    def test_no_base_rejected(self):
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        with pytest.raises(ValueError, match="no base table"):
            plan_cube_build(db)


class TestBuilding:
    def test_build_creates_all_views(self):
        db = make_tiny_db(n_rows=300)
        targets = [GroupBy((1, 0)), GroupBy((1, 1)), GroupBy((2, 1))]
        report = build_cube(db, targets)
        assert sorted(report.created) == sorted(
            t.name(db.schema) for t in targets
        )
        for name in report.created:
            assert name in db.catalog

    def test_built_views_are_correct(self):
        db = make_tiny_db(n_rows=300)
        targets = [GroupBy((1, 1)), GroupBy((2, 2))]
        build_cube(db, targets)
        base = db.catalog.get("XY")
        for target in targets:
            query = GroupByQuery(groupby=target)
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            entry = db.catalog.get(target.name(db.schema))
            got = {
                (int(r[0]), int(r[1])): r[2] for r in entry.table.all_rows()
            }
            assert got.keys() == expected.groups.keys()
            for key, value in expected.groups.items():
                assert got[key] == pytest.approx(value)

    def test_actual_rows_recorded(self):
        db = make_tiny_db(n_rows=300)
        report = build_cube(db, [GroupBy((1, 1))])
        assert report.steps[0].actual_rows == db.catalog.get("X'Y'").n_rows

    def test_full_cube_build_small(self):
        db = make_tiny_db(n_rows=150)
        report = build_cube(db)
        assert len(report.created) == lattice_size(db.schema) - 1
        # The fully aggregated view has exactly one row: the grand total.
        grand = db.catalog.get("(all)")
        assert grand.n_rows == 1
        total = sum(r[2] for r in db.catalog.get("XY").table.all_rows())
        assert next(iter(grand.table.all_rows()))[2] == pytest.approx(total)

    def test_describe_renders(self):
        db = make_tiny_db(n_rows=100)
        report = build_cube(db, [GroupBy((1, 1))])
        text = report.describe(db.schema)
        assert "cube build" in text
        assert "X'Y'" in text
