"""Tests for MDX pivot rendering."""

import pytest

from repro.check import evaluate_reference
from repro.mdx.pivot import evaluate_pivot
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=500)


class TestSingleLevelGrid:
    MDX = "{X''.X1, X''.X2} on COLUMNS {Y''.Y1, Y''.Y2} on ROWS CONTEXT XY"

    def test_grid_shape(self, db):
        pivot = evaluate_pivot(db, self.MDX)
        assert len(pivot.grids) == 1
        grid = pivot.grids[0]
        assert len(grid.columns) == 2
        assert len(grid.rows) == 2
        assert len(grid.values) == 2
        assert all(len(r) == 2 for r in grid.values)

    def test_cell_values_match_reference(self, db):
        pivot = evaluate_pivot(db, self.MDX)
        grid = pivot.grids[0]
        base = db.catalog.get("XY")
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        for (row_index, row), (col_index, col) in [
            ((0, grid.rows[0]), (0, grid.columns[0])),
            ((1, grid.rows[1]), (1, grid.columns[1])),
        ]:
            x_member = col[0][2]
            y_member = row[0][2]
            assert grid.values[row_index][col_index] == pytest.approx(
                expected.groups[(x_member, y_member)]
            )

    def test_render_contains_headers_and_numbers(self, db):
        pivot = evaluate_pivot(db, self.MDX)
        text = pivot.render()
        assert "X1" in text and "X2" in text
        assert "Y1" in text and "Y2" in text
        assert "." in text  # some numeric cell


class TestMixedLevels:
    MDX = (
        "{X''.X1, X''.X2.CHILDREN} on COLUMNS "
        "{Y''.Y1} on ROWS CONTEXT XY"
    )

    def test_positions_expand_children(self, db):
        pivot = evaluate_pivot(db, self.MDX)
        grid = pivot.grids[0]
        # X1 plus the children of X2 (3 mid-level members).
        assert len(grid.columns) == 1 + len(
            db.schema.dimensions[0].children(2, 1)
        )

    def test_mixed_levels_route_to_their_components(self, db):
        pivot = evaluate_pivot(db, self.MDX)
        assert len(pivot.queries) == 2  # two level signatures
        grid = pivot.grids[0]
        for row_values in grid.values:
            assert all(v is not None for v in row_values)

    def test_values_sum_consistently(self, db):
        """The children's cells sum to what the parent's own cell would be."""
        pivot = evaluate_pivot(db, self.MDX)
        grid = pivot.grids[0]
        both = evaluate_pivot(
            db, "{X''.X2} on COLUMNS {Y''.Y1} on ROWS CONTEXT XY"
        )
        child_sum = sum(grid.values[0][1:])
        parent = both.grids[0].values[0][0]
        assert child_sum == pytest.approx(parent)


class TestPagesAndSlicer:
    def test_same_dimension_on_two_axes_rejected(self, db):
        from repro.mdx.resolver import MdxResolutionError

        with pytest.raises(MdxResolutionError, match="two axes"):
            evaluate_pivot(
                db,
                "{X''.X1} on COLUMNS {Y''.Y1} on ROWS "
                "{Y''.Y2} on PAGES CONTEXT XY",
            )

    def test_columns_required(self, db):
        with pytest.raises(ValueError, match="COLUMNS"):
            evaluate_pivot(db, "{X''.X1} on ROWS CONTEXT XY")

    def test_missing_rows_defaults_to_single_row(self, db):
        pivot = evaluate_pivot(db, "{X''.X1, X''.X2} on COLUMNS CONTEXT XY")
        grid = pivot.grids[0]
        assert len(grid.rows) == 1
        assert grid.rows[0] == ()

    def test_empty_cells_render_as_dash(self, db):
        # A leaf member with no data in a tiny sample may produce None; we
        # simulate by filtering to an impossible combination via slicer on
        # an unrelated dimension is hard here — instead check the dash
        # rendering path directly.
        pivot = evaluate_pivot(db, "{X''.X1} on COLUMNS CONTEXT XY")
        pivot.grids[0].values[0][0] = None
        assert "-" in pivot.render()


class TestMultiMemberSlicer:
    def test_cells_aggregate_over_slicer_members(self, db):
        """A slicer selecting several members sums the cell across them —
        equivalent to the same grid filtered by either member, added."""
        both = evaluate_pivot(
            db,
            "{X''.X1} on COLUMNS CONTEXT XY "
            "FILTER (Y''.Y1)",
        )
        other = evaluate_pivot(
            db,
            "{X''.X1} on COLUMNS CONTEXT XY "
            "FILTER (Y''.Y2)",
        )
        # Y'' has two members, so {Y1, Y2} is the whole domain: the summed
        # slicer equals the unfiltered grid.
        unfiltered = evaluate_pivot(db, "{X''.X1} on COLUMNS CONTEXT XY")
        v1 = both.grids[0].values[0][0]
        v2 = other.grids[0].values[0][0]
        total = unfiltered.grids[0].values[0][0]
        assert v1 + v2 == pytest.approx(total)


class TestPaperExpression:
    def test_three_axis_paper_query_renders(self, paper_db):
        from repro.workload.paper_queries import PAPER_MDX

        pivot = evaluate_pivot(paper_db, PAPER_MDX[3])
        # PAGES = {C''.C1, C''.C3} -> two grids.
        assert len(pivot.grids) == 2
        text = pivot.render()
        assert "PAGE: C1" in text
        assert "PAGE: C3" in text
        assert "A2" in text and "B2" in text

    def test_paper_grid_totals_match_component_results(self, paper_db):
        from repro.workload.paper_queries import PAPER_MDX

        pivot = evaluate_pivot(paper_db, PAPER_MDX[3])
        total = sum(
            v
            for grid in pivot.grids
            for row in grid.values
            for v in row
            if v is not None
        )
        component_total = sum(
            result
            for query in pivot.queries
            for result in [0.0]
        )
        # Cross-check against a direct evaluation of the one component.
        report = paper_db.run_mdx(PAPER_MDX[3], "gg")
        direct = sum(r.total() for r in report.results.values())
        assert total == pytest.approx(direct)
        _ = component_total
