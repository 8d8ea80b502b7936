"""Tests for the SalesCube demo schema and mixed-depth dimension handling.

The paper schema has uniform three-level hierarchies; SalesCube mixes a
two-level Product, four-level Time, and five-level Store dimension — the
shapes that flush out off-by-one errors in level arithmetic.
"""

import pytest

from repro.check import evaluate_reference
from repro.mdx import translate_mdx
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.sales_demo import build_sales_database, build_sales_schema


@pytest.fixture(scope="module")
def db():
    return build_sales_database(n_rows=4000)


class TestSchemaShape:
    def test_dimension_depths(self):
        schema = build_sales_schema()
        depths = {d.name: d.n_levels for d in schema.dimensions}
        assert depths == {
            "SalesPerson": 2,
            "Store": 5,
            "Time": 4,
            "Products": 2,
        }

    def test_store_hierarchy_chain(self):
        schema = build_sales_schema()
        store = schema.dimension("Store")
        # Tokyo is the 11th city (index 10); its stores are Store21/Store22.
        store_id = store.member_id(0, "Store21")
        assert store.member_name(1, store.rollup(0, 1, store_id)) == "Tokyo"
        assert store.member_name(2, store.rollup(0, 2, store_id)) == "Kanto"
        assert (
            store.member_name(3, store.rollup(0, 3, store_id)) == "Japan_Main"
        )
        assert store.member_name(4, store.rollup(0, 4, store_id)) == "Japan"

    def test_time_calendar(self):
        schema = build_sales_schema()
        time = schema.dimension("Time")
        march = time.member_id(1, "Mar")
        assert time.member_name(2, time.rollup(1, 2, march)) == "Qtr1"
        assert time.n_members(0) == 360
        assert time.member_name(3, 0) == "1991"

    def test_database_views(self, db):
        names = {name for name, _r, _p in db.table_report()}
        assert "WholeSalesData" in names
        assert "sales_state_month" in names


class TestMixedDepthQueries:
    def test_uneven_target_levels(self, db):
        # SalesPerson at leaf (depth 2 dim), Store at Region (depth 5 dim),
        # Time at Quarter (depth 4 dim), Products at ALL.
        query = GroupByQuery(
            groupby=GroupBy((0, 3, 2, 2)),
            predicates=(
                DimPredicate(1, 4, frozenset({0})),  # Country = USA
            ),
            label="uneven",
        )
        report = db.run_queries([query], "gg")
        base = db.catalog.get("WholeSalesData")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert report.result_for(query).approx_equals(expected)

    def test_all_algorithms_agree_on_sales(self, db):
        queries = translate_mdx(
            db.schema,
            """
            NEST ({Venkatrao, Netz}, {USA_North.CHILDREN, Japan}) on COLUMNS
            {Qtr1, Qtr2.CHILDREN} on ROWS
            CONTEXT SalesCube FILTER ([1991])
            """,
        )
        assert len(queries) == 4  # 2 store levels x 2 time levels
        reference = None
        for algorithm in ("naive", "tplo", "gg", "dp"):
            report = db.run_queries(queries, algorithm)
            if reference is None:
                reference = report.results
            else:
                for qid, result in report.results.items():
                    assert result.approx_equals(reference[qid]), algorithm

    def test_five_level_drill_chain(self, db):
        from repro.engine.navigate import drill_down

        schema = db.schema
        query = GroupByQuery(groupby=GroupBy((1, 4, 3, 2)), label="top")
        for _ in range(4):  # Country -> Region -> State -> City -> Store
            query = drill_down(schema, query, "Store")
        assert query.groupby.levels[1] == 0
        report = db.run_queries([query], "gg")
        base = db.catalog.get("WholeSalesData")
        expected = evaluate_reference(
            schema, base.table.all_rows(), query, base.levels
        )
        assert report.result_for(query).approx_equals(expected)
