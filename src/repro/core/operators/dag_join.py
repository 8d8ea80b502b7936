"""Shared scan with derive-from-sub-aggregate steps (the DAG layer's operator).

The AND-OR plan DAG (:mod:`repro.dag`) can decide that several of a class's
queries should not consume the base-table scan directly but instead
re-aggregate a shared *intermediate* — a predicate-free group-by at the meet
of their required levels, computed once from the very same scan.  This
operator extends :class:`SharedHybridStarJoin` with that derive phase:

* phase 1 (unchanged): each index member builds its result bitmap;
* phase 2 (unchanged, plus intermediates): one sequential scan, fed in
  segment-sized batches (:func:`~.pipeline.run_shared_scan`), reaches the
  hash members, the bitmap-filtered index members, *and* one extra pipeline
  per derive step that accumulates the intermediate aggregate;
* phase 3 (new): each finished intermediate is decoded back into columnar
  batches — its group keys are member ids at the intermediate's levels — and
  every derived member runs an ordinary :class:`QueryPipeline` over those
  few rows.  No I/O is charged: the intermediate lives in memory.

Because phase 3 reuses the same probe-filter-aggregate pipeline as every
other operator (sharing the class's :class:`RollupCache`), results are
byte-identical to scanning.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...obs.analyze import OperatorActuals
from ...obs.metrics import default_registry
from ...schema.lattice import source_can_answer
from ...schema.query import GroupByQuery
from .hybrid_join import index_member_filters
from .pipeline import ExecContext, QueryPipeline, RollupCache, run_shared_scan
from .results import QueryResult

#: A derive step in operator form: the intermediate aggregate to accumulate
#: during the scan, and the member queries answered from it afterwards.
DeriveSpec = Tuple[GroupByQuery, Sequence[GroupByQuery]]


def intermediate_source_aggregate(
    source_aggregate, intermediate: GroupByQuery
):
    """What the intermediate's measure column *holds* once materialized —
    the source's rollup kind when reading a view, else the intermediate's
    own aggregate kind (raw data folds into that)."""
    return source_aggregate or intermediate.aggregate.value


class SharedDagStarJoin:
    """One scan serving hash/index members and shared-sub-aggregate derives."""

    def __init__(
        self,
        ctx: ExecContext,
        source_name: str,
        hash_queries: Sequence[GroupByQuery],
        index_queries: Sequence[GroupByQuery],
        derives: Sequence[DeriveSpec],
    ):
        if not derives:
            raise ValueError("SharedDagStarJoin needs at least one derive step")
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.hash_queries = list(hash_queries)
        self.index_queries = list(index_queries)
        self.derives = [(inter, list(members)) for inter, members in derives]
        #: Filled during :meth:`run` — the operator's measured actuals
        #: (intermediates appear under their synthetic qids).
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
        for intermediate, members in self.derives:
            if intermediate.predicates:
                raise ValueError(
                    "derive intermediates must be predicate-free: "
                    f"{intermediate.display_name()}"
                )
            if not members:
                raise ValueError(
                    f"derive step {intermediate.display_name()} has no "
                    f"member queries"
                )
            if not source_can_answer(
                self.source.levels,
                self.source.source_aggregate,
                intermediate,
            ):
                raise ValueError(
                    f"intermediate {intermediate.display_name()} cannot be "
                    f"computed from {source_name!r}"
                )
            inter_agg = intermediate_source_aggregate(
                self.source.source_aggregate, intermediate
            )
            for query in members:
                if not source_can_answer(
                    intermediate.groupby.levels, inter_agg, query
                ):
                    raise ValueError(
                        f"{query.display_name()} cannot be derived from "
                        f"intermediate {intermediate.display_name()} "
                        f"(levels {intermediate.groupby.levels}, "
                        f"measure {inter_agg!r})"
                    )

    def run(self) -> Dict[int, QueryResult]:
        """Run all queries; returns ``{query.qid: result}`` with each
        intermediate's result included under its synthetic qid."""
        ctx = self.ctx
        actuals = self.actuals
        filters = index_member_filters(
            ctx, self.source, self.index_queries, actuals
        )
        rollups = RollupCache(
            ctx.schema, ctx.stats, pool=ctx.pool, dim_tables=ctx.dim_tables
        )
        source_agg = self.source.source_aggregate
        hash_pipes = [
            QueryPipeline(
                ctx.schema, q, self.source.levels, rollups,
                source_aggregate=source_agg,
            )
            for q in self.hash_queries
        ]
        index_pipes = [
            QueryPipeline(
                ctx.schema, q, self.source.levels, rollups,
                source_aggregate=source_agg,
            )
            for q in self.index_queries
        ]
        inter_pipes = [
            QueryPipeline(
                ctx.schema, intermediate, self.source.levels, rollups,
                source_aggregate=source_agg,
            )
            for intermediate, _members in self.derives
        ]
        derived_rows = default_registry().counter(
            "executor.derive_rows",
            "intermediate group rows fed to derived-query pipelines",
        )
        # Phase 2: one shared sequential scan feeds hash members, filtered
        # index members, and every derive step's intermediate aggregate.
        run_shared_scan(
            ctx,
            self.source,
            type(self).__name__,
            actuals,
            hash_pipes + inter_pipes,
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
        # Phase 3: decode each finished intermediate into one in-memory
        # columnar batch and run every derived member's pipeline over it.
        n_dims = ctx.schema.n_dims
        faults = ctx.faults
        for (intermediate, members), pipe in zip(self.derives, inter_pipes):
            if faults is not None:
                faults.check(
                    "operator.derive",
                    operator=type(self).__name__,
                    table=self.source.name,
                )
            inter_result = pipe.result()
            actuals.record_pipeline(
                intermediate.qid, pipe, inter_result, ctx.stats.rates
            )
            out[intermediate.qid] = inter_result
            n_groups = len(inter_result.groups)
            group_keys = list(inter_result.groups.keys())
            inter_measures = np.fromiter(
                inter_result.groups.values(),
                dtype=np.float64,
                count=n_groups,
            )
            inter_keys = [
                np.fromiter(
                    (key[d] for key in group_keys),
                    dtype=np.int64,
                    count=n_groups,
                )
                for d in range(n_dims)
            ]
            inter_agg = intermediate_source_aggregate(source_agg, intermediate)
            for query in members:
                derived_pipe = QueryPipeline(
                    ctx.schema,
                    query,
                    intermediate.groupby.levels,
                    rollups,
                    source_aggregate=inter_agg,
                )
                derived_pipe.process_batch(
                    inter_keys, inter_measures, ctx.stats
                )
                derived_rows.inc(n_groups)
                out[query.qid] = derived_pipe.result()
                actuals.record_pipeline(
                    query.qid, derived_pipe, out[query.qid], ctx.stats.rates
                )
        return out

    def run_ordered(self) -> List[QueryResult]:
        """Results in constructor order (hash, index, then derived members)."""
        by_qid = self.run()
        ordered = self.hash_queries + self.index_queries
        for _intermediate, members in self.derives:
            ordered.extend(members)
        return [by_qid[q.qid] for q in ordered]
