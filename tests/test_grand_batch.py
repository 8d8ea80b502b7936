"""The grand batch: all nine paper queries optimized as one unit.

The paper's tests batch three queries at a time; a client could just as
well submit every expression at once.  This pins that the whole machinery —
greedy algorithms, the exact DP planner, shared operators of all three
kinds — scales to the full set and stays correct.
"""

import pytest

from repro.check import evaluate_reference


@pytest.fixture(scope="module")
def all_queries(paper_qs):
    return [paper_qs[i] for i in range(1, 10)]


class TestNineQueryBatch:
    @pytest.mark.parametrize("algorithm", ["tplo", "etplg", "bgg", "gg", "dp"])
    def test_correct_answers(self, paper_db, all_queries, algorithm):
        report = paper_db.run_queries(all_queries, algorithm)
        base = paper_db.catalog.get("ABCD")
        for query in all_queries:
            expected = evaluate_reference(
                paper_db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).approx_equals(expected), (
                algorithm,
                query.display_name(),
            )

    def test_dp_is_cheapest_estimate(self, paper_db, all_queries):
        dp = paper_db.optimize(all_queries, "dp").est_cost_ms
        for algorithm in ("naive", "tplo", "etplg", "bgg", "gg"):
            other = paper_db.optimize(all_queries, algorithm).est_cost_ms
            assert dp <= other + 1e-6, algorithm

    def test_gg_close_to_exact_optimum(self, paper_db, all_queries):
        dp = paper_db.optimize(all_queries, "dp").est_cost_ms
        gg = paper_db.optimize(all_queries, "gg").est_cost_ms
        assert gg <= dp * 1.25  # greedy stays within 25% of optimal here

    def test_substantial_win_over_naive(self, paper_db, all_queries):
        naive = paper_db.run_queries(all_queries, "naive").sim_ms
        gg = paper_db.run_queries(all_queries, "gg").sim_ms
        assert gg < 0.5 * naive

    def test_sharing_consolidates_classes(self, paper_db, all_queries):
        plan = paper_db.optimize(all_queries, "gg")
        assert len(plan.classes) < len(all_queries) / 2

    def test_session_dedup_with_all_mdx_texts(self, paper_db):
        from repro.engine.session import QuerySession
        from repro.workload.paper_queries import PAPER_MDX

        session = QuerySession(paper_db, algorithm="gg")
        for number, text in PAPER_MDX.items():
            session.add_mdx(text, f"expr{number}")
        session.add_mdx(PAPER_MDX[1], "repeat")  # a duplicate expression
        outcome = session.run()
        assert outcome.n_submitted == 10
        assert outcome.n_distinct == 9
