"""Tests for the brute-force reference evaluator and SQL rendering."""

import pytest

from repro.check import evaluate_reference
from repro.engine.sqlgen import level_column, to_sql
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery

from conftest import make_tiny_schema

SCHEMA = make_tiny_schema()

# Hand-checkable rows: (x_leaf, y_leaf, measure).
ROWS = [
    (0, 0, 1.0),
    (1, 0, 2.0),
    (6, 1, 4.0),   # x=6 rolls to mid 3, top 1
    (6, 4, 8.0),   # y=4 rolls to mid 2, top 1
    (11, 7, 16.0),
]


class TestReference:
    def test_sum_by_top_levels(self):
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        result = evaluate_reference(SCHEMA, ROWS, query)
        assert result.groups == {
            (0, 0): 3.0,
            (1, 0): 4.0,
            (1, 1): 24.0,
        }

    def test_predicate_filters(self):
        query = GroupByQuery(
            groupby=GroupBy((2, 3)),
            predicates=(DimPredicate(1, 2, frozenset({0})),),  # Y top = Y1
        )
        result = evaluate_reference(SCHEMA, ROWS, query)
        assert result.groups == {(0, 0): 3.0, (1, 0): 4.0}

    def test_count_min_max(self):
        for aggregate, expected in [
            (Aggregate.COUNT, 5.0),
            (Aggregate.MIN, 1.0),
            (Aggregate.MAX, 16.0),
        ]:
            query = GroupByQuery(
                groupby=GroupBy((3, 3)), aggregate=aggregate
            )
            result = evaluate_reference(SCHEMA, ROWS, query)
            assert result.groups == {(0, 0): expected}

    def test_source_levels(self):
        # Rows already at (mid, mid) levels.
        mid_rows = [(0, 0, 5.0), (3, 2, 7.0)]
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        result = evaluate_reference(SCHEMA, mid_rows, query, (1, 1))
        assert result.groups == {(0, 0): 5.0, (1, 1): 7.0}

    def test_unanswerable_rejected(self):
        query = GroupByQuery(groupby=GroupBy((0, 0)))
        with pytest.raises(ValueError):
            evaluate_reference(SCHEMA, [], query, (1, 1))

    def test_empty_input(self):
        query = GroupByQuery(groupby=GroupBy((1, 1)))
        assert evaluate_reference(SCHEMA, [], query).groups == {}


class TestResultHelpers:
    def test_to_named_rows_skips_all_dims(self):
        query = GroupByQuery(groupby=GroupBy((2, 3)))
        result = evaluate_reference(SCHEMA, ROWS, query)
        named = result.to_named_rows(SCHEMA)
        assert named == [(("X1",), 3.0), (("X2",), 28.0)]

    def test_approx_equals_detects_differences(self):
        query = GroupByQuery(groupby=GroupBy((3, 3)))
        a = evaluate_reference(SCHEMA, ROWS, query)
        b = evaluate_reference(SCHEMA, ROWS[:-1], query)
        assert not a.approx_equals(b)
        assert a.approx_equals(a)


class TestSqlGen:
    def test_level_column(self):
        assert level_column(SCHEMA, 0, 1) == "Xdim.X_1"
        assert level_column(SCHEMA, 0, 0) == "Xdim.X"
        with pytest.raises(ValueError):
            level_column(SCHEMA, 0, SCHEMA.dimensions[0].all_level)

    def test_full_query_rendering(self):
        query = GroupByQuery(
            groupby=GroupBy((1, 3)),
            predicates=(DimPredicate(1, 2, frozenset({0})),),
        )
        sql = to_sql(SCHEMA, query, fact_table="F")
        assert "SELECT Xdim.X_1, SUM(F.m)" in sql
        assert "JOIN Xdim ON Xdim.X = F.X" in sql
        assert "JOIN Ydim ON Ydim.Y = F.Y" in sql
        assert "WHERE Ydim.Y_2 IN ('Y1')" in sql
        assert sql.endswith("GROUP BY Xdim.X_1")

    def test_leaf_level_uses_fact_column(self):
        query = GroupByQuery(
            groupby=GroupBy((0, 3)),
            predicates=(DimPredicate(0, 0, frozenset({1, 0})),),
        )
        sql = to_sql(SCHEMA, query, fact_table="F")
        assert "F.X" in sql
        assert "Xdim" not in sql.split("WHERE")[0].split("FROM")[1]

    def test_fully_aggregated_query(self):
        query = GroupByQuery(groupby=GroupBy((3, 3)))
        sql = to_sql(SCHEMA, query, fact_table="F")
        assert "GROUP BY" not in sql
        assert sql.startswith("SELECT SUM(F.m)")
