"""Hash-based star joins: the single-query pipelined right-deep plan and the
paper's *shared scan hash-based star join* (Section 3.1).

The shared operator streams the base table past every query's pipeline once:
the scan I/O is charged once, the dimension hash tables are built once per
distinct structure (via the shared :class:`~.pipeline.RollupCache`), and only
the per-query probe/filter/aggregate CPU grows with the number of queries —
exactly the trade-off the paper measures in Test 1 / Figure 10.

Both operators consume the scan as segment-sized columnar batches
(:func:`~.pipeline.run_shared_scan`): pages are read and charged one at a
time, and each segment of consecutive pages (columns taken from the
pages' cached arrays) feeds every pipeline in one call.
"""

from __future__ import annotations

from typing import List, Sequence

from ...obs.analyze import OperatorActuals
from ...schema.lattice import source_can_answer
from ...schema.query import GroupByQuery
from .pipeline import ExecContext, QueryPipeline, RollupCache, run_shared_scan
from .results import QueryResult


class SharedScanHashStarJoin:
    """Evaluate several queries with one sequential scan of one base table."""

    def __init__(
        self,
        ctx: ExecContext,
        source_name: str,
        queries: Sequence[GroupByQuery],
    ):
        if not queries:
            raise ValueError("need at least one query")
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.queries = list(queries)
        #: Filled during :meth:`run` — the operator's measured actuals.
        self.actuals = OperatorActuals(
            operator=type(self).__name__, source=source_name
        )
        for query in self.queries:
            if not source_can_answer(
                self.source.levels, self.source.source_aggregate, query
            ):
                raise ValueError(
                    f"{query.display_name()} cannot be answered from "
                    f"{source_name!r} (levels {self.source.levels}, "
                    f"measure {self.source.source_aggregate!r})"
                )

    def run(self) -> List[QueryResult]:
        """Execute the operator; returns per-query results in input order."""
        ctx = self.ctx
        rollups = RollupCache(
            ctx.schema, ctx.stats, pool=ctx.pool, dim_tables=ctx.dim_tables
        )
        pipelines = [
            QueryPipeline(
                ctx.schema,
                q,
                self.source.levels,
                rollups,
                source_aggregate=self.source.source_aggregate,
            )
            for q in self.queries
        ]
        actuals = self.actuals
        run_shared_scan(
            ctx, self.source, type(self).__name__, actuals, pipelines
        )
        results = [p.result() for p in pipelines]
        for query, pipeline, result in zip(self.queries, pipelines, results):
            actuals.record_pipeline(
                query.qid, pipeline, result, ctx.stats.rates
            )
        return results


class HashStarJoin(SharedScanHashStarJoin):
    """A single-query hash-based star join (the Figure 1 plan)."""

    def __init__(self, ctx: ExecContext, source_name: str, query: GroupByQuery):
        super().__init__(ctx, source_name, [query])

    def run_single(self) -> QueryResult:
        """Execute for the single query; returns its result."""
        return self.run()[0]
