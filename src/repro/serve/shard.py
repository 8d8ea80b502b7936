"""Sharded scatter-gather execution: partition the data, not the plan.

The serve layer compiles **one** global plan per micro-batch; this module
lets that plan execute across N data shards.  :func:`build_shards`
hash-partitions every catalog table on a chosen dimension key into N
:class:`Shard`\\ s — each shard owns private heap tables, private rebuilt
join indexes, and (at execution time) a private buffer pool + cost clock,
the same isolation machinery
:func:`~repro.core.executor.run_class_isolated` gives the parallel class
executor.  :func:`execute_plan_sharded` then scatters each plan class to
every shard, runs the (class x shard) grid concurrently, and gathers by
merging partial aggregates:

* SUM / COUNT merge by summation, MIN by ``min``, MAX by ``max`` — all
  distributive, per the Data Cube recipe (Gray et al.);
* AVG is *algebraic*: each shard's result carries its (sum, count) pairs
  in ``QueryResult.avg_state``, the gather sums both components across
  shards, and the final average is one division — exact, with no
  fallback to the unsharded executor (``shard.avg_fallbacks`` stays
  registered and is expected to read 0).

Invariants (enforced by the shard parity tests and the paranoia lane):

* **N=1 is byte-identical** to :func:`execute_plan_parallel` — the single
  shard holds every row in original order with the original page
  geometry, so results, simulated costs, and
  :class:`~repro.obs.analyze.OperatorActuals` all match exactly;
* **N>1 is result-identical**: the merged groups equal the unsharded
  groups (simulated cost differs — each shard pays its own dimension
  hash builds — which is the price of the parallelism).

Fault injection reaches shards through the ``shard.exec`` site (attrs:
``shard``, ``table``), so a chaos plan can kill a single shard; the serve
layer's retry/degrade ladder recovers the batch while sibling shards'
work is untouched.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.executor import (
    ClassExecution,
    ClassFailure,
    ExecutionReport,
    _validate_paranoid,
    execute_plan_parallel,
    run_class_accounted,
)
from ..core.operators.pipeline import ExecContext
from ..core.operators.results import GroupKey, QueryResult
from ..faults import InjectedFault
from ..obs.analyze import OperatorActuals
from ..obs.metrics import default_registry
from ..schema.query import Aggregate
from ..storage.buffer import BufferPool
from ..storage.catalog import Catalog
from ..storage.iostats import IOStats
from ..storage.table import HeapTable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.optimizer.plans import GlobalPlan, PlanClass
    from ..engine.database import Database

#: Knuth's multiplicative hash constant; spreads small consecutive
#: dimension keys across shards far better than a bare modulo.
_HASH_MULTIPLIER = 2654435761


def shard_of(keys, n_shards: int) -> np.ndarray:
    """Deterministic shard assignment of a dimension key, or elementwise of
    an array of keys.  The ``uint64`` product wraps mod 2**64, which keeps
    the low 32 bits of the hash exact."""
    hashed = np.asarray(keys, dtype=np.uint64) * np.uint64(_HASH_MULTIPLIER)
    return (hashed & np.uint64(0xFFFFFFFF)) % np.uint64(n_shards)


@dataclass
class Shard:
    """One data shard: a private catalog of row-disjoint table slices.

    The shard's tables reuse the originals' names, column layouts, and
    page sizes, so a plan class compiled against the global catalog lowers
    onto the shard unchanged; its indexes are rebuilt per shard at the
    same (dimension, level) keys and kinds as the originals.
    """

    shard_id: int
    catalog: Catalog
    #: Fact rows this shard owns (raw base table slice).
    n_rows: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard({self.shard_id}, {self.n_rows} fact row(s))"


@dataclass
class ShardSet:
    """The N shards of one database, plus the identity of the partition.

    ``data_version`` records the database mutation epoch the partition was
    built at; the serve layer rebuilds a stale set before executing on it.
    """

    shards: List[Shard]
    dim_name: str
    data_version: int
    _stale_since: Optional[int] = field(default=None, repr=False)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def stale(self, data_version: int) -> bool:
        """Whether the database has mutated since this set was built."""
        return data_version != self.data_version


def build_shards(
    db: "Database", n_shards: int, dim_name: Optional[str] = None
) -> ShardSet:
    """Hash-partition every catalog table of ``db`` into ``n_shards``.

    ``dim_name`` picks the partition dimension (default: the schema's
    first dimension).  Each table's rows are routed by the multiplicative
    hash of the partition dimension's *stored* key and appended in
    original scan order, so every row lands in exactly one shard and the
    single shard of ``n_shards=1`` is byte-identical to the original
    table (same rows, same order, same page geometry).  A table that
    aggregates the partition dimension to ALL stores key 0 for every row
    and legally collapses onto one shard.

    Partitioning and index rebuilds are offline work: nothing is charged
    to the query cost clock.  Emits ``shard.<i>.rows`` gauges so the
    balance of the partition is observable.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1 (got {n_shards})")
    schema = db.schema
    if dim_name is None:
        dim_name = schema.dimensions[0].name
    dim_index = schema.dim_index(dim_name)
    shards = [
        Shard(shard_id=i, catalog=Catalog()) for i in range(n_shards)
    ]
    for entry in db.catalog.entries():
        source = entry.table
        keys, measures = source.column_arrays()
        owner = shard_of(keys[dim_index], n_shards)
        parts = [
            HeapTable(
                source.name,
                source.columns,
                page_size=source.page_size,
                key_domains=source.key_domains,
            )
            for _ in range(n_shards)
        ]
        for shard_id, part in enumerate(parts):
            mine = owner == shard_id
            part.append_columns([column[mine] for column in keys], measures[mine])
        for shard, part in zip(shards, parts):
            shard_entry = shard.catalog.register(
                part,
                entry.levels,
                clustered=entry.clustered,
                source_aggregate=entry.source_aggregate,
            )
            if entry.is_raw:
                shard.n_rows += part.n_rows
            for (index_dim, level), index in entry.indexes.items():
                dim = schema.dimensions[index_dim]
                stored = entry.levels[index_dim]
                rebuilt = type(index).build(
                    part,
                    part.name,
                    index_dim,
                    level,
                    column_index=index_dim,
                    key_to_member=dim.rollup_map(stored, level),
                    n_members=dim.n_members(level),
                )
                shard_entry.add_index(index_dim, level, rebuilt)
    metrics = default_registry()
    for shard in shards:
        metrics.gauge(
            f"shard.{shard.shard_id}.rows",
            "fact rows owned by this shard",
        ).set(shard.n_rows)
    metrics.counter(
        "shard.sets_built", "shard partitions built or rebuilt"
    ).inc()
    return ShardSet(
        shards=shards, dim_name=dim_name, data_version=db.data_version
    )


def _shard_context(db: "Database", shard: Shard) -> ExecContext:
    """A private cold context over one shard's catalog: fresh pool + clock,
    the global schema/dimension tables, and the armed fault plan — the
    per-shard twin of :func:`~repro.core.executor._isolated_context`."""
    stats = IOStats(rates=db.stats.rates)
    pool = BufferPool(stats, capacity_pages=db.pool.capacity_pages)
    faults = getattr(db, "faults", None)
    pool.faults = faults
    return ExecContext(
        schema=db.schema,
        catalog=shard.catalog,
        pool=pool,
        stats=stats,
        dim_tables=db.dimension_tables or None,
        faults=faults,
    )


@dataclass
class _ShardOutcome:
    """One (class, shard) cell of the scatter grid."""

    shard_id: int
    sim: IOStats
    wall_s: float
    results: Optional[List[QueryResult]] = None
    actuals: Optional[OperatorActuals] = None
    error: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _run_shard_task(
    db: "Database",
    plan_class: "PlanClass",
    shard: Shard,
    ctx: Optional[ExecContext] = None,
    span=None,
) -> _ShardOutcome:
    """Execute one plan class against one shard in a private cold context;
    an injected fault (including a ``shard.exec`` kill) becomes a failed
    outcome carrying the cost charged before the abort.

    ``ctx`` and ``span`` are pre-created by the scatter loop on the
    scheduling thread (explicit cross-thread parent handoff: the
    ``shard.task`` span links under ``serve.scatter`` in grid order); the
    worker enters the span here on its own thread-local stack.  Each cell
    observes its wall and sim cost into the ``serve.stage.shard_exec_*``
    histograms — the per-shard leg of the request stage breakdown.
    """
    if ctx is None:
        ctx = _shard_context(db, shard)
    if span is None:
        span = ctx.tracer.span(
            "shard.task", shard=shard.shard_id, source=plan_class.source
        )
    outcome: _ShardOutcome
    with span:
        started = time.perf_counter()
        try:
            faults = getattr(db, "faults", None)
            if faults is not None:
                faults.check(
                    "shard.exec", shard=shard.shard_id, table=plan_class.source
                )
            results, actuals = run_class_accounted(ctx, plan_class)
        except InjectedFault as exc:
            span.set("failed", True)
            span.set("error", str(exc))
            outcome = _ShardOutcome(
                shard_id=shard.shard_id,
                sim=ctx.stats,
                wall_s=time.perf_counter() - started,
                error=exc,
            )
        else:
            span.set("sim_ms", round(ctx.stats.total_ms, 3))
            outcome = _ShardOutcome(
                shard_id=shard.shard_id,
                sim=ctx.stats,
                wall_s=time.perf_counter() - started,
                results=results,
                actuals=actuals,
            )
    metrics = default_registry()
    metrics.histogram(
        "serve.stage.shard_exec_ms",
        "wall ms one (class, shard) scatter cell took to execute",
    ).observe(outcome.wall_s * 1000.0)
    metrics.histogram(
        "serve.stage.shard_exec_sim_ms",
        "simulated ms one (class, shard) scatter cell charged",
    ).observe(outcome.sim.total_ms)
    return outcome


#: How each distributive aggregate combines two partial group values.
#: AVG is absent deliberately: it merges through ``QueryResult.avg_state``
#: (sum the sums, sum the counts, divide once) — see
#: :func:`merge_partial_results`.
_MERGERS = {
    Aggregate.SUM: lambda a, b: a + b,
    Aggregate.COUNT: lambda a, b: a + b,
    Aggregate.MIN: min,
    Aggregate.MAX: max,
}


def plan_is_decomposable(plan: "GlobalPlan") -> bool:
    """Whether every query's aggregate merges across data partitions.

    Always true today: the distributive aggregates merge by their
    combiner, and AVG merges exactly through its algebraic (sum, count)
    state.  Kept as the explicit gate so a future non-decomposable
    aggregate (MEDIAN, DISTINCT-COUNT without sketches) routes around the
    shard path instead of silently merging wrong.
    """
    return all(
        plan_query.query.aggregate in _MERGERS
        or plan_query.query.aggregate is Aggregate.AVG
        for plan_class in plan.classes
        for plan_query in plan_class.plans
    )


def _merge_avg(
    query, position: int, partials: List[List[QueryResult]]
) -> QueryResult:
    """Merge one AVG query's shard partials via their (sum, count) state."""
    state: Dict[GroupKey, Tuple[float, int]] = {}
    for shard_results in partials:
        partial = shard_results[position]
        if partial.avg_state is None:  # pragma: no cover - executor invariant
            raise ValueError(
                f"AVG partial for {partial.query.display_name()} carries no "
                f"avg_state; cannot merge shards exactly"
            )
        for key, (part_sum, part_count) in partial.avg_state.items():
            if key in state:
                acc_sum, acc_count = state[key]
                state[key] = (acc_sum + part_sum, acc_count + part_count)
            else:
                state[key] = (part_sum, part_count)
    groups = {key: s / c for key, (s, c) in state.items()}
    return QueryResult(query=query, groups=groups, avg_state=state)


def merge_partial_results(
    queries: List, partials: List[List[QueryResult]]
) -> List[QueryResult]:
    """Gather: combine per-shard partial results into final answers.

    ``partials`` holds each shard's result list in the class's plan order.
    Distributive aggregates merge group values with their combiner; AVG
    merges its (sum, count) pairs and divides once at the end, so the
    merged average is exact rather than an average of averages.  Iterating
    shards in shard order keeps group insertion order deterministic — and,
    for a single shard, identical to the unsharded execution.
    """
    merged: List[QueryResult] = []
    for position, query in enumerate(queries):
        if query.aggregate is Aggregate.AVG:
            merged.append(_merge_avg(query, position, partials))
            continue
        combine = _MERGERS[query.aggregate]
        groups: Dict[GroupKey, float] = {}
        for shard_results in partials:
            for key, value in shard_results[position].groups.items():
                if key in groups:
                    groups[key] = combine(groups[key], value)
                else:
                    groups[key] = value
        merged.append(QueryResult(query=query, groups=groups))
    return merged


def merge_actuals(partials: List[OperatorActuals]) -> OperatorActuals:
    """Gather: sum per-shard operator actuals into one class-level ledger.

    Every ``OperatorActuals`` counter is additive across row-disjoint
    partitions (rows scanned, probes issued, per-query pipeline counts and
    CPU charge), so shard-order summation is exact — and the single-shard
    merge returns a field-identical copy.  ``n_groups`` is deliberately
    *not* summed (a group present on two shards is still one group); the
    caller fills it from the merged results.
    """
    first = partials[0]
    merged = OperatorActuals(operator=first.operator, source=first.source)
    for part in partials:
        merged.rows_scanned += part.rows_scanned
        merged.pages_scanned += part.pages_scanned
        merged.probes_issued += part.probes_issued
        merged.union_popcount += part.union_popcount
        for attr in (
            "bitmap_popcounts",
            "tuples_tested",
            "tuples_routed",
            "rows_in",
            "rows_passed",
            "pipeline_cpu_ms",
        ):
            target = getattr(merged, attr)
            for qid, value in getattr(part, attr).items():
                target[qid] = target.get(qid, 0) + value
    return merged


def execute_plan_sharded(
    db: "Database",
    shard_set: ShardSet,
    plan: "GlobalPlan",
    n_workers: int = 4,
    paranoia: Optional[bool] = None,
) -> ExecutionReport:
    """Scatter a global plan across the shard set; gather merged results.

    Every (class, shard) pair runs concurrently in a private cold context
    over that shard's catalog slice.  Per class, the gather step merges
    partial aggregates (decomposable merge), sums the per-shard cost
    clocks into the database's shared clock, and sums the per-shard
    operator actuals.  A shard failure (injected fault) fails the whole
    class — its queries' partial results are discarded, sibling classes
    are untouched — exactly the failure granularity the serve layer's
    retry/degrade ladder expects.

    Every paper aggregate shards: the distributive ones merge by their
    combiner and AVG merges exactly through its (sum, count) state, so
    nothing falls back to the unsharded executor any more.  The
    ``shard.avg_fallbacks`` counter stays registered (dashboards pin it)
    and is expected to read 0; a genuinely non-decomposable future
    aggregate would route through it again.

    Paranoia validates the plan up front and cross-checks every merged
    class result against the brute-force reference over the *full* data —
    a direct proof the partition-and-merge was lossless.
    """
    if paranoia is None:
        paranoia = bool(getattr(db, "paranoia", False))
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive (got {n_workers})")
    metrics = default_registry()
    fallbacks = metrics.counter(
        "shard.avg_fallbacks",
        "plans routed to the unsharded executor (non-decomposable "
        "aggregate; AVG merges via avg_state so this stays 0)",
    )
    if not plan_is_decomposable(plan):  # pragma: no cover - closed enum
        fallbacks.inc()
        return execute_plan_parallel(
            db, plan, n_workers=n_workers, paranoia=paranoia
        )
    report = ExecutionReport(plan=plan)
    shards = shard_set.shards
    classes = list(plan.classes)
    with db.tracer.span(
        "execute.plan",
        algorithm=plan.algorithm,
        n_classes=len(classes),
        n_queries=plan.n_queries,
        paranoia=paranoia,
        sharded=True,
        n_shards=len(shards),
        shard_dim=shard_set.dim_name,
    ):
        if paranoia:
            _validate_paranoid(db, plan, db.tracer)
        if not classes:
            return report
        tasks: List[Tuple["PlanClass", Shard]] = [
            (plan_class, shard)
            for plan_class in classes
            for shard in shards
        ]
        with db.tracer.span(
            "serve.scatter",
            n_classes=len(classes),
            n_shards=len(shards),
            n_tasks=len(tasks),
        ) as scatter_span:
            metrics.counter(
                "shard.scatters", "plan classes scattered across shards"
            ).inc(len(classes))
            # Pre-create each cell's context and its shard.task span here,
            # in grid order: the explicit parent= pins sibling order under
            # serve.scatter deterministically, and stats= binds the span's
            # sim delta to the cell's private clock.
            traced = db.tracer.enabled
            cells_prepared = []
            for plan_class, shard in tasks:
                ctx = _shard_context(db, shard)
                if traced:
                    ctx.tracer = db.tracer.bound(ctx.stats)
                span = db.tracer.span(
                    "shard.task",
                    parent=scatter_span,
                    stats=ctx.stats,
                    shard=shard.shard_id,
                    source=plan_class.source,
                    n_queries=len(plan_class.queries),
                )
                cells_prepared.append((plan_class, shard, ctx, span))
            if len(tasks) == 1 or n_workers == 1:
                outcomes = [
                    _run_shard_task(db, *cell) for cell in cells_prepared
                ]
            else:
                with ThreadPoolExecutor(
                    max_workers=min(n_workers, len(tasks))
                ) as workers:
                    outcomes = list(
                        workers.map(
                            lambda cell: _run_shard_task(db, *cell),
                            cells_prepared,
                        )
                    )
        with db.tracer.span(
            "serve.gather", n_classes=len(classes), n_shards=len(shards)
        ) as gather_span:
            n_failed_classes = 0
            for class_no, plan_class in enumerate(classes):
                cells = outcomes[
                    class_no * len(shards): (class_no + 1) * len(shards)
                ]
                merged_sim = IOStats(rates=db.stats.rates)
                for cell in cells:
                    merged_sim.merge_from(cell.sim)
                    db.stats.merge_from(cell.sim)
                    shard_label = f"shard.{cell.shard_id}"
                    if cell.failed:
                        metrics.counter(
                            f"{shard_label}.class_failures",
                            "plan classes this shard aborted on an "
                            "injected fault",
                        ).inc()
                    else:
                        metrics.counter(
                            f"{shard_label}.classes_executed",
                            "plan classes this shard ran to completion",
                        ).inc()
                wall_s = sum(cell.wall_s for cell in cells)
                failures = [cell for cell in cells if cell.failed]
                if failures:
                    n_failed_classes += 1
                    first = failures[0]
                    with db.tracer.span(
                        "fault.class_failure",
                        source=plan_class.source,
                        n_queries=len(plan_class.queries),
                        shard=first.shard_id,
                        error=str(first.error),
                    ):
                        pass
                    metrics.counter(
                        "executor.class_failures",
                        "plan classes aborted by an injected fault",
                    ).inc()
                    report.failures.append(
                        ClassFailure(
                            plan_class=plan_class,
                            error=first.error,
                            sim=merged_sim,
                            wall_s=wall_s,
                        )
                    )
                    continue
                results = merge_partial_results(
                    plan_class.queries, [cell.results for cell in cells]
                )
                actuals = merge_actuals([cell.actuals for cell in cells])
                for result in results:
                    actuals.n_groups[result.query.qid] = result.n_groups
                metrics.counter(
                    "executor.classes_executed",
                    "plan classes run to completion",
                ).inc()
                metrics.counter(
                    "executor.queries_executed",
                    "component queries answered",
                ).inc(len(plan_class.queries))
                if paranoia:
                    from ..check.paranoia import check_results

                    with db.tracer.span(
                        "check.class",
                        source=plan_class.source,
                        n_results=len(results),
                        sharded=True,
                    ) as check_span:
                        checked = check_results(db, results, plan=plan)
                        check_span.set("n_checked", checked)
                report.class_executions.append(
                    ClassExecution(
                        plan_class=plan_class,
                        results=results,
                        sim=merged_sim,
                        wall_s=wall_s,
                        actuals=actuals,
                    )
                )
            metrics.counter(
                "shard.gathers", "plan classes gathered from shards"
            ).inc(len(classes))
            gather_span.set("n_failed_classes", n_failed_classes)
    return report
