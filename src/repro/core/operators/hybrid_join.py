"""Shared scan for hash-based *and* index-based star joins (Section 3.3).

When some plans over a base table are hash joins (which must scan the table)
and others are index joins (which would randomly probe it), the paper
converts the index plans' probe phase into a filtered consumption of the
shared sequential scan: each index plan still builds its result bitmap, but
instead of fetching pages at random it tests the bitmap against the rows
streaming past.  The random-probe I/O disappears entirely; only a small
bitmap-test CPU cost per index query remains — the behaviour measured in
Test 3 / Figure 12.

The scan arrives as segment-sized columnar batches
(:func:`~.pipeline.run_shared_scan`).  Each index query's filter stays a
packed :class:`~repro.index.bitmap.Bitmap`, sliced per segment with
:meth:`~repro.index.bitmap.Bitmap.slice_bool`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ...index.bitmap import Bitmap
from ...obs.analyze import OperatorActuals
from ...schema.lattice import source_can_answer
from ...schema.query import GroupByQuery
from ...storage.catalog import TableEntry
from .index_join import query_result_bitmap
from .pipeline import ExecContext, QueryPipeline, RollupCache, run_shared_scan
from .results import QueryResult


def index_member_filters(
    ctx: ExecContext,
    source: TableEntry,
    index_queries: Sequence[GroupByQuery],
    actuals: OperatorActuals,
) -> List[Bitmap]:
    """Phase 1 of each index plan: build its result bitmap.

    Returns one packed bitmap per query, for :func:`run_shared_scan`'s
    routing (each segment unpacks only its window of words).  Records each
    bitmap's popcount and zeroes the routing counters.
    """
    bitmaps = [query_result_bitmap(ctx, source, q) for q in index_queries]
    for query, bitmap in zip(index_queries, bitmaps):
        actuals.bitmap_popcounts[query.qid] = int(bitmap.count())
        actuals.tuples_tested[query.qid] = 0
        actuals.tuples_routed[query.qid] = 0
    return bitmaps


class SharedHybridStarJoin:
    """One scan serving hash-join queries and bitmap-filtered index queries."""

    def __init__(
        self,
        ctx: ExecContext,
        source_name: str,
        hash_queries: Sequence[GroupByQuery],
        index_queries: Sequence[GroupByQuery],
    ):
        if not hash_queries and not index_queries:
            raise ValueError("need at least one query")
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.hash_queries = list(hash_queries)
        self.index_queries = list(index_queries)
        #: Filled during :meth:`run` — the operator's measured actuals.
        self.actuals = OperatorActuals(
            operator=type(self).__name__, source=source_name
        )
        for query in self.hash_queries + self.index_queries:
            if not source_can_answer(
                self.source.levels, self.source.source_aggregate, query
            ):
                raise ValueError(
                    f"{query.display_name()} cannot be answered from "
                    f"{source_name!r} (levels {self.source.levels}, "
                    f"measure {self.source.source_aggregate!r})"
                )

    def run(self) -> Dict[int, QueryResult]:
        """Run all queries; returns ``{query.qid: result}``."""
        ctx = self.ctx
        actuals = self.actuals
        filters = index_member_filters(
            ctx, self.source, self.index_queries, actuals
        )
        rollups = RollupCache(
            ctx.schema, ctx.stats, pool=ctx.pool, dim_tables=ctx.dim_tables
        )
        hash_pipes = [
            QueryPipeline(
                ctx.schema,
                q,
                self.source.levels,
                rollups,
                source_aggregate=self.source.source_aggregate,
            )
            for q in self.hash_queries
        ]
        index_pipes = [
            QueryPipeline(
                ctx.schema,
                q,
                self.source.levels,
                rollups,
                source_aggregate=self.source.source_aggregate,
            )
            for q in self.index_queries
        ]
        # Phase 2: one shared sequential scan feeds everybody.
        run_shared_scan(
            ctx,
            self.source,
            type(self).__name__,
            actuals,
            hash_pipes,
            [
                (q.qid, pipe, bits)
                for q, pipe, bits in zip(self.index_queries, index_pipes, filters)
            ],
        )
        out: Dict[int, QueryResult] = {}
        for query, pipe in zip(
            self.hash_queries + self.index_queries, hash_pipes + index_pipes
        ):
            out[query.qid] = pipe.result()
            actuals.record_pipeline(
                query.qid, pipe, out[query.qid], ctx.stats.rates
            )
        return out

    def run_ordered(self) -> List[QueryResult]:
        """Results in constructor order (hash queries, then index queries)."""
        by_qid = self.run()
        return [by_qid[q.qid] for q in self.hash_queries + self.index_queries]
