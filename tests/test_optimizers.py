"""Tests for the five optimizers: plan validity, answer correctness, and the
paper's cost orderings."""

import random

import pytest

from repro.core.optimizer import OPTIMIZERS, make_optimizer
from repro.core.optimizer.optimal import MAX_ASSIGNMENTS, ExhaustiveOptimizer
from repro.check import evaluate_reference
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db, random_query

ALGORITHMS = ("naive", "tplo", "etplg", "gg", "optimal")


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=800,
        materialized=("X'Y", "XY'", "X'Y'", "X''Y'"),
        index_tables=("XY", "X'Y"),
    )


def queries_mixed():
    return [
        GroupByQuery(groupby=GroupBy((1, 1)), label="qa"),
        GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0, 1})),),
            label="qb",
        ),
        GroupByQuery(
            groupby=GroupBy((2, 1)),
            predicates=(DimPredicate(1, 0, frozenset({2})),),
            label="qc",
        ),
    ]


class TestPlanValidity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_plan_covers_queries(self, db, algorithm):
        queries = queries_mixed()
        plan = make_optimizer(algorithm, db).optimize(queries)
        assert sorted(q.qid for q in plan.queries) == sorted(
            q.qid for q in queries
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_plan_is_answerable(self, db, algorithm):
        plan = make_optimizer(algorithm, db).optimize(queries_mixed())
        for cls in plan.classes:
            entry = db.catalog.get(cls.source)
            for local in cls.plans:
                assert local.query.answerable_from(entry.levels)

    @pytest.mark.parametrize("algorithm", ("tplo", "etplg", "gg", "optimal"))
    def test_no_duplicate_class_sources(self, db, algorithm):
        plan = make_optimizer(algorithm, db).optimize(queries_mixed())
        sources = [cls.source for cls in plan.classes]
        assert len(sources) == len(set(sources))

    def test_empty_input_rejected(self, db):
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError):
                make_optimizer(algorithm, db).optimize([])

    def test_duplicate_queries_rejected(self, db):
        query = queries_mixed()[0]
        with pytest.raises(ValueError):
            make_optimizer("gg", db).optimize([query, query])

    def test_unknown_algorithm(self, db):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("does-not-exist", db)

    def test_registry_contents(self):
        assert set(OPTIMIZERS) == {
            "naive", "tplo", "etplg", "gg", "bgg", "optimal", "dp", "dag",
        }


class TestAnswerCorrectness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_execution_matches_reference(self, db, algorithm):
        queries = queries_mixed()
        report = db.run_queries(queries, algorithm)
        base = db.catalog.get("XY")
        for query in queries:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).approx_equals(expected)

    def test_random_workloads_all_algorithms_agree(self, db):
        rng = random.Random(5)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"r{round_}.{i}")
                for i in range(3)
            ]
            reference = None
            for algorithm in ALGORITHMS:
                report = db.run_queries(queries, algorithm)
                if reference is None:
                    reference = report.results
                else:
                    for qid, result in report.results.items():
                        assert result.approx_equals(reference[qid]), algorithm


class TestCostOrderings:
    def test_optimal_is_cheapest_estimate(self, db):
        queries = queries_mixed()
        optimal = db.optimize(queries, "optimal").est_cost_ms
        for algorithm in ("naive", "tplo", "etplg", "gg"):
            assert optimal <= db.optimize(queries, algorithm).est_cost_ms + 1e-6

    def test_gg_never_above_naive(self, db):
        rng = random.Random(9)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"o{round_}.{i}")
                for i in range(3)
            ]
            gg = db.optimize(queries, "gg").est_cost_ms
            naive = db.optimize(queries, "naive").est_cost_ms
            assert gg <= naive + 1e-6

    def test_sharing_found_for_identical_requirements(self, db):
        """Three queries with identical requirements must land in one class
        under every merging algorithm."""
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label=f"t{i}")
            for i in range(3)
        ]
        for algorithm in ("etplg", "gg", "optimal"):
            plan = db.optimize(queries, algorithm)
            assert len(plan.classes) == 1, algorithm
            assert len(plan.classes[0].plans) == 3

    def test_naive_never_shares(self, db):
        queries = queries_mixed()
        plan = db.optimize(queries, "naive")
        assert len(plan.classes) == len(queries)


class TestGGRebasing:
    def test_gg_rebases_to_admit_second_query(self):
        """The paper's Example 2 mechanism: two queries whose locally optimal
        tables are mutually incompatible get rebased onto a common table."""
        db = make_tiny_db(
            n_rows=800,
            materialized=("X'Y''", "X''Y'", "X'Y'"),
            index_tables=(),
        )
        qa = GroupByQuery(groupby=GroupBy((1, 2)), label="qa")  # X'Y''
        qb = GroupByQuery(groupby=GroupBy((2, 1)), label="qb")  # X''Y'
        tplo = db.optimize([qa, qb], "tplo")
        assert len(tplo.classes) == 2  # locals differ, nothing merges
        gg = db.optimize([qa, qb], "gg")
        if len(gg.classes) == 1:
            # Rebased onto the common ancestor X'Y'.
            assert gg.classes[0].source == "X'Y'"
            assert gg.est_cost_ms <= tplo.est_cost_ms + 1e-6

    def test_gg_merges_classes_on_same_base(self, db):
        rng = random.Random(13)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"m{round_}.{i}")
                for i in range(4)
            ]
            plan = db.optimize(queries, "gg")
            sources = [cls.source for cls in plan.classes]
            assert len(sources) == len(set(sources))


class TestExhaustiveGuard:
    def test_budget_guard(self, db):
        optimizer = ExhaustiveOptimizer(db)
        queries = [
            GroupByQuery(groupby=GroupBy((2, 2)), label=f"g{i}")
            for i in range(12)
        ]
        n_candidates = len(
            [
                e
                for e in db.catalog.entries()
                if optimizer.model.standalone(e, queries[0]) is not None
            ]
        )
        if n_candidates**12 > MAX_ASSIGNMENTS:
            with pytest.raises(ValueError, match="exceed"):
                optimizer.optimize(queries)
