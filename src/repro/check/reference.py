"""The ground-truth evaluator: one query, one tuple-at-a-time scan.

Deliberately naive, per Gray et al.'s data-cube semantics: answer a
:class:`~repro.schema.query.GroupByQuery` by scanning rows one by one,
joining each tuple to its dimension hierarchies by per-row rollup
navigation, applying every predicate, and folding the measure into a plain
dict accumulator.  No sharing, no indexes, no buffer pool — nothing the
engine under test relies on, so an engine bug cannot leak into the oracle.
Oracle work is free: it never touches the simulated cost clock.

:func:`evaluate_reference` takes any row iterable (the raw fact table, or a
materialized view's rows together with the view's levels and measure);
:func:`reference_answer` is that evaluator over a database's raw fact table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..core.operators.results import QueryResult
from ..schema.lattice import aggregate_compatible, effective_aggregate
from ..schema.query import Aggregate, GroupByQuery
from ..schema.star import StarSchema
from ..storage.catalog import Catalog, TableEntry
from ..storage.page import Row
from .errors import PlanValidationError

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database


def evaluate_reference(
    schema: StarSchema,
    rows: Iterable[Row],
    query: GroupByQuery,
    source_levels: Optional[Tuple[int, ...]] = None,
    source_aggregate: Optional[str] = None,
) -> QueryResult:
    """Evaluate ``query`` over ``rows`` stored at ``source_levels``
    (default: the base/leaf levels).

    ``source_aggregate`` names the aggregate a view's measure column holds
    (None for raw data); the fold is adjusted exactly as re-aggregating a
    view requires (COUNT over a COUNT view sums the stored counts).
    Tuples passing all predicates contribute to exactly the one group the
    target group-by assigns them (the correctness contract behind the
    paper's "Filter tuples" routing).
    """
    if source_levels is None:
        source_levels = schema.base_levels()
    if not query.answerable_from(source_levels):
        raise ValueError("query is not answerable from the given source levels")
    if not aggregate_compatible(query.aggregate, source_aggregate):
        raise ValueError(
            "query aggregate is incompatible with the source's measure"
        )
    fold = effective_aggregate(query.aggregate, source_aggregate)
    n_dims = schema.n_dims
    groups: Dict[Tuple[int, ...], float] = {}
    counts: Dict[Tuple[int, ...], int] = {}
    for row in rows:
        # Join the tuple to each dimension: navigate from the stored key up
        # to whatever level a predicate or the target group-by needs.
        passed = True
        for pred in query.predicates:
            d = pred.dim_index
            dim = schema.dimensions[d]
            value = dim.rollup(source_levels[d], pred.level, int(row[d]))
            if value not in pred.member_ids:
                passed = False
                break
        if not passed:
            continue
        key = []
        for d in range(n_dims):
            dim = schema.dimensions[d]
            level = query.groupby.levels[d]
            if level == dim.all_level:
                key.append(0)
            else:
                key.append(dim.rollup(source_levels[d], level, int(row[d])))
        key = tuple(key)
        measure = float(row[n_dims])
        if fold is Aggregate.SUM:
            groups[key] = groups.get(key, 0.0) + measure
        elif fold is Aggregate.COUNT:
            groups[key] = groups.get(key, 0.0) + 1.0
        elif fold is Aggregate.MIN:
            groups[key] = min(groups.get(key, measure), measure)
        elif fold is Aggregate.MAX:
            groups[key] = max(groups.get(key, measure), measure)
        elif fold is Aggregate.AVG:
            groups[key] = groups.get(key, 0.0) + measure
            counts[key] = counts.get(key, 0) + 1
        else:  # pragma: no cover - Aggregate is a closed enum
            raise NotImplementedError(fold)
    if fold is Aggregate.AVG:
        groups = {key: total / counts[key] for key, total in groups.items()}
    return QueryResult(query=query, groups=groups)


def raw_base_entry(
    catalog: Catalog, base_name: Optional[str] = None
) -> TableEntry:
    """The raw (un-aggregated) fact table the reference scans.

    With ``base_name`` given, that table is fetched and checked; otherwise
    the catalog must hold exactly one raw table.
    """
    if base_name is not None:
        entry = catalog.get(base_name)
        if not entry.is_raw:
            raise PlanValidationError(
                f"{base_name!r} is a materialized view; the reference "
                f"evaluator needs raw fact data"
            )
        return entry
    raw = [entry for entry in catalog.entries() if entry.is_raw]
    if not raw:
        raise PlanValidationError(
            "no raw base table registered; nothing to evaluate against"
        )
    if len(raw) > 1:
        names = [entry.name for entry in raw]
        raise PlanValidationError(
            f"several raw tables exist ({names}); pass base_name"
        )
    return raw[0]


def reference_answer(
    db: "Database", query: GroupByQuery, base_name: Optional[str] = None
) -> QueryResult:
    """Ground truth for ``query``: :func:`evaluate_reference` over a naive
    scan of the raw fact table (no views, no indexes)."""
    query.validate(db.schema)
    entry = raw_base_entry(db.catalog, base_name)
    return evaluate_reference(
        db.schema, entry.table.all_rows(), query, entry.levels
    )
