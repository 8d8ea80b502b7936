"""Tests for OLAP navigation helpers (drill-down / roll-up / slice)."""

import pytest

from repro.engine.navigate import NavigationError, drill_down, roll_up, slice_member
from repro.check import evaluate_reference
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=400)


def base_query():
    return GroupByQuery(
        groupby=GroupBy((2, 2)),
        predicates=(DimPredicate(1, 2, frozenset({0})),),
        label="view",
    )


def check_executes(db, query):
    report = db.run_queries([query], "gg")
    base = db.catalog.get("XY")
    expected = evaluate_reference(
        db.schema, base.table.all_rows(), query, base.levels
    )
    assert report.result_for(query).approx_equals(expected)
    return report.result_for(query)


class TestDrillDown:
    def test_level_drops_by_one(self, db):
        drilled = drill_down(db.schema, base_query(), "X")
        assert drilled.groupby.levels[0] == 1
        assert drilled.groupby.levels[1] == 2  # untouched

    def test_drill_into_member_filters_to_children(self, db):
        drilled = drill_down(db.schema, base_query(), "X", "X1")
        pred = drilled.predicate_on(0)
        assert pred.level == 1
        dim = db.schema.dimensions[0]
        assert pred.member_ids == frozenset(dim.children(2, 0))

    def test_drill_from_all_goes_to_top(self, db):
        query = GroupByQuery(groupby=GroupBy((3, 2)))
        drilled = drill_down(db.schema, query, "X")
        assert drilled.groupby.levels[0] == 2

    def test_drill_below_leaf_rejected(self, db):
        query = GroupByQuery(groupby=GroupBy((0, 2)))
        with pytest.raises(NavigationError, match="leaf"):
            drill_down(db.schema, query, "X")

    def test_member_level_mismatch_rejected(self, db):
        with pytest.raises(NavigationError, match="level"):
            drill_down(db.schema, base_query(), "X", "XX1")

    def test_other_dim_predicates_kept(self, db):
        drilled = drill_down(db.schema, base_query(), "X", "X2")
        assert drilled.predicate_on(1) == base_query().predicates[0]

    def test_drilled_query_executes(self, db):
        drilled = drill_down(db.schema, base_query(), "X", "X1")
        result = check_executes(db, drilled)
        assert result.n_groups > 0

    def test_aggregate_preserved(self, db):
        from repro.schema.query import Aggregate

        query = GroupByQuery(groupby=GroupBy((2, 2)), aggregate=Aggregate.MAX)
        assert drill_down(db.schema, query, "X").aggregate is Aggregate.MAX


class TestRollUp:
    def test_level_rises_by_one(self, db):
        query = GroupByQuery(groupby=GroupBy((1, 2)))
        rolled = roll_up(db.schema, query, "X")
        assert rolled.groupby.levels[0] == 2

    def test_top_rolls_to_all(self, db):
        rolled = roll_up(db.schema, base_query(), "X")
        assert rolled.groupby.levels[0] == db.schema.dimensions[0].all_level

    def test_above_all_rejected(self, db):
        query = GroupByQuery(groupby=GroupBy((3, 2)))
        with pytest.raises(NavigationError, match="ALL"):
            roll_up(db.schema, query, "X")

    def test_finer_predicates_dropped(self, db):
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0, 1})),),
        )
        rolled = roll_up(db.schema, query, "X")
        assert rolled.predicate_on(0) is None

    def test_coarser_predicates_kept(self, db):
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 2, frozenset({0})),),
        )
        rolled = roll_up(db.schema, query, "X")
        assert rolled.predicate_on(0) == query.predicates[0]

    def test_drill_then_roll_is_identity_on_levels(self, db):
        query = base_query()
        back = roll_up(
            db.schema, drill_down(db.schema, query, "X"), "X"
        )
        assert back.groupby == query.groupby


class TestSlice:
    def test_slice_adds_predicate_and_caps_level(self, db):
        query = GroupByQuery(groupby=GroupBy((3, 3)))
        sliced = slice_member(db.schema, query, "Y", "YY2")
        assert sliced.predicate_on(1).member_ids == frozenset({1})
        assert sliced.groupby.levels[1] == 1

    def test_slice_replaces_same_level_predicate(self, db):
        sliced = slice_member(db.schema, base_query(), "Y", "Y2")
        assert sliced.predicate_on(1).member_ids == frozenset({1})
        assert len(sliced.predicates_on(1)) == 1

    def test_sliced_query_executes(self, db):
        sliced = slice_member(db.schema, base_query(), "X", "X1")
        check_executes(db, sliced)

    def test_navigation_sequence_consistency(self, db):
        """Drilling into a member and slicing to it then rolling up agree:
        the drilled result's values sum to the sliced member's total."""
        query = GroupByQuery(groupby=GroupBy((2, 3)))
        drilled = drill_down(db.schema, query, "X", "X1")
        sliced = slice_member(db.schema, query, "X", "X1")
        drilled_result = check_executes(db, drilled)
        sliced_result = check_executes(db, sliced)
        assert drilled_result.total() == pytest.approx(sliced_result.total())
