"""Plan execution: lower each class onto the matching shared operator.

* all-hash class → shared scan hash star join (Section 3.1),
* all-index class → shared index join (Section 3.2),
* mixed class → shared scan for hash + index plans (Section 3.3),
* singleton classes → the plain single-query operators.

The executor reproduces the paper's measurement discipline: with
``cold=True`` (default) the buffer pool is flushed before each class, as the
paper "flushed both the Unix file system buffer and Paradise buffer pool
before running each test".  Each class's simulated cost (from the
:class:`~repro.storage.iostats.IOStats` clock) and real wall time are
reported separately.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..faults import InjectedFault, PartialResultError
from ..obs.analyze import OperatorActuals, q_error
from ..obs.metrics import default_registry
from ..schema.query import GroupByQuery
from ..storage.buffer import BufferPool
from ..storage.iostats import IOStats
from .operators.dag_join import SharedDagStarJoin
from .operators.hash_join import SharedScanHashStarJoin
from .operators.hybrid_join import SharedHybridStarJoin
from .operators.index_join import IndexStarJoin, SharedIndexStarJoin
from .operators.pipeline import ExecContext
from .operators.results import QueryResult
from .optimizer.plans import GlobalPlan, JoinMethod, PlanClass

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database


@dataclass
class ClassExecution:
    """The measured execution of one class."""

    plan_class: PlanClass
    results: List[QueryResult]
    sim: IOStats
    wall_s: float
    #: What the physical operator really did (rows scanned, probes issued,
    #: per-query routed tuples, …); None only for executions built by code
    #: predating plan accounting.
    actuals: Optional[OperatorActuals] = None

    @property
    def sim_ms(self) -> float:
        """Total simulated milliseconds (I/O + CPU)."""
        return self.sim.total_ms

    @property
    def est_ms(self) -> float:
        """The optimizer's estimated cost for this class."""
        return self.plan_class.est_cost_ms

    @property
    def q_error(self) -> float:
        """``max(est/actual, actual/est)`` of this class's cost estimate."""
        return q_error(self.est_ms, self.sim_ms)


@dataclass
class ClassFailure:
    """One class that failed mid-execution (fault isolation kept siblings).

    ``sim`` holds the cost charged *before* the failure — real work the
    clock already accounted — so reports stay truthful about spend even
    for aborted classes."""

    plan_class: PlanClass
    error: BaseException
    sim: IOStats
    wall_s: float

    @property
    def qids(self) -> List[int]:
        """The qids whose results this failure took down."""
        return [q.qid for q in self.plan_class.queries]

    @property
    def sim_ms(self) -> float:
        """Simulated milliseconds charged before the class aborted."""
        return self.sim.total_ms


@dataclass
class ExecutionReport:
    """The measured execution of a whole global plan.

    ``failures`` lists classes that aborted on an
    :class:`~repro.faults.InjectedFault`; their sibling classes'
    executions are unaffected and byte-identical to a fault-free run."""

    plan: GlobalPlan
    class_executions: List[ClassExecution] = field(default_factory=list)
    failures: List[ClassFailure] = field(default_factory=list)

    @property
    def results(self) -> Dict[int, QueryResult]:
        """Results keyed by ``query.qid``."""
        out: Dict[int, QueryResult] = {}
        for execution in self.class_executions:
            for result in execution.results:
                out[result.query.qid] = result
        return out

    @property
    def failed_qids(self) -> List[int]:
        """Sorted qids of every query whose class failed."""
        return sorted({qid for f in self.failures for qid in f.qids})

    def result_for(self, query: GroupByQuery) -> QueryResult:
        """The result of one submitted query, by its qid.

        Raises :class:`~repro.faults.PartialResultError` when the plan
        covered the query but its class failed mid-execution (the report is
        partial), and :class:`~repro.check.errors.PlanCoverageError` when
        the plan never covered it at all — both KeyError subclasses, so an
        empty or degenerate plan must not fail with a bare ``KeyError``.
        """
        results = self.results
        try:
            return results[query.qid]
        except KeyError:
            pass
        for failure in self.failures:
            if query.qid in failure.qids:
                raise PartialResultError(
                    f"no result for {query.display_name()} (qid "
                    f"{query.qid}): its class over {failure.plan_class.source!r}"
                    f" failed mid-execution ({failure.error}); "
                    f"{len(results)} sibling result(s) survived"
                ) from failure.error
        from ..check.errors import PlanCoverageError

        raise PlanCoverageError(
            f"no result for {query.display_name()} (qid {query.qid}): "
            f"the {self.plan.algorithm!r} plan placed it in no class "
            f"(covered qids: {sorted(results) or 'none'})"
        ) from None

    @property
    def sim_ms(self) -> float:
        """Total simulated milliseconds (I/O + CPU), including the partial
        cost charged by classes that later failed."""
        return sum(e.sim_ms for e in self.class_executions) + sum(
            f.sim_ms for f in self.failures
        )

    @property
    def sim_io_ms(self) -> float:
        """Simulated I/O milliseconds."""
        return sum(e.sim.io_ms for e in self.class_executions) + sum(
            f.sim.io_ms for f in self.failures
        )

    @property
    def sim_cpu_ms(self) -> float:
        """Simulated CPU milliseconds."""
        return sum(e.sim.cpu_ms for e in self.class_executions) + sum(
            f.sim.cpu_ms for f in self.failures
        )

    @property
    def wall_s(self) -> float:
        """Measured wall-clock seconds."""
        return sum(e.wall_s for e in self.class_executions) + sum(
            f.wall_s for f in self.failures
        )

    @property
    def est_ms(self) -> float:
        """The optimizer's estimated cost of the whole plan."""
        return self.plan.est_cost_ms

    @property
    def q_error(self) -> float:
        """Q-error of the whole plan's cost estimate."""
        return q_error(self.est_ms, self.sim_ms)

    def summary(self) -> str:
        """One-line summary for logs and console output."""
        failed = ""
        if self.failures:
            failed = (
                f", {len(self.failures)} class(es) FAILED "
                f"(qids {self.failed_qids})"
            )
        return (
            f"{self.plan.algorithm}: {self.plan.n_queries} queries, "
            f"{len(self.class_executions)} class(es), "
            f"sim {self.sim_ms:.1f} ms "
            f"(io {self.sim_io_ms:.1f} + cpu {self.sim_cpu_ms:.1f}), "
            f"wall {self.wall_s * 1000:.1f} ms{failed}"
        )

    def explain_analyze(self, schema, catalog) -> str:
        """EXPLAIN ANALYZE: each class's operator tree annotated with its
        estimated and *measured* cost — per class and per query — so the
        estimate/actual gap (Q-error) can be audited on a live plan."""
        from ..obs.analyze import account_execution
        from .explain import explain_class

        blocks = [self.summary()]
        for execution in self.class_executions:
            tree = explain_class(schema, catalog, execution.plan_class)
            accounting = account_execution(execution)
            est = accounting.est_ms
            actual = accounting.actual_ms
            gap = (actual / est - 1.0) * 100 if est else 0.0
            lines = [
                tree,
                f"   => est {est:.1f} sim-ms, actual {actual:.1f} "
                f"sim-ms ({gap:+.0f}%, q-error {accounting.q_error:.3f}), "
                f"wall {execution.wall_s * 1000:.1f} ms",
                f"   => actual io {accounting.actual_io_ms:.1f} + cpu "
                f"{accounting.actual_cpu_ms:.1f} sim-ms; "
                f"{accounting.seq_page_reads} seq / "
                f"{accounting.rand_page_reads} rand page read(s), "
                f"{accounting.buffer_hits} buffer hit(s)",
            ]
            actuals = accounting.actuals
            if actuals is not None:
                if actuals.rows_scanned:
                    lines.append(
                        f"   => scanned {actuals.rows_scanned} row(s) on "
                        f"{actuals.pages_scanned} page(s)"
                    )
                if actuals.probes_issued:
                    lines.append(
                        f"   => probed {actuals.probes_issued} row(s) via "
                        f"union bitmap (popcount "
                        f"{actuals.union_popcount})"
                    )
            for qa in accounting.queries:
                routed = (
                    f", routed {qa.tuples_routed}"
                    if qa.tuples_routed is not None
                    else ""
                )
                lines.append(
                    f"      {qa.label} [{qa.method}]: est standalone "
                    f"{qa.est_standalone_ms:.1f} / marginal "
                    f"{qa.est_marginal_ms:.1f} sim-ms; actual pipeline cpu "
                    f"{qa.actual_cpu_ms:.2f} sim-ms "
                    f"(rows {qa.rows_in} -> {qa.rows_passed}{routed}, "
                    f"{qa.n_groups} group(s))"
                )
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


def run_class_accounted(
    ctx: ExecContext, plan_class: PlanClass
) -> Tuple[List[QueryResult], OperatorActuals]:
    """Execute one class with the operator its method mix calls for,
    returning the results *and* the operator's measured actuals.

    Results are returned in the class's plan order.  When the context's
    tracer is live, the physical operator runs inside an
    ``operator.<kind>`` span whose cost-clock delta is exactly the class's
    charged work; the operator's actuals land in the span's ``actuals``
    attribute.
    """
    queries = plan_class.queries
    source = plan_class.source
    tracer = ctx.tracer
    if plan_class.has_derives:
        hash_queries = [
            p.query for p in plan_class.plans if p.method is JoinMethod.HASH
        ]
        index_queries = [
            p.query for p in plan_class.plans if p.method is JoinMethod.INDEX
        ]
        derives = [
            (step.intermediate, plan_class.derived_queries(step))
            for step in plan_class.derives
        ]
        with tracer.span(
            "operator.shared_dag",
            source=source,
            n_hash=len(hash_queries),
            n_index=len(index_queries),
            n_intermediates=len(derives),
            n_derived=sum(len(members) for _inter, members in derives),
        ) as span:
            operator = SharedDagStarJoin(
                ctx, source, hash_queries, index_queries, derives
            )
            by_qid = operator.run()
            results = [by_qid[q.qid] for q in queries]
    elif plan_class.is_pure_hash:
        with tracer.span(
            "operator.shared_scan_hash", source=source, n_queries=len(queries)
        ) as span:
            operator = SharedScanHashStarJoin(ctx, source, queries)
            results = operator.run()
    elif plan_class.is_pure_index and len(queries) == 1:
        with tracer.span(
            "operator.index_star", source=source, n_queries=1
        ) as span:
            operator = IndexStarJoin(ctx, source, queries[0])
            results = operator.run()
    elif plan_class.is_pure_index:
        with tracer.span(
            "operator.shared_index", source=source, n_queries=len(queries)
        ) as span:
            operator = SharedIndexStarJoin(ctx, source, queries)
            results = operator.run()
    else:
        hash_queries = [
            p.query for p in plan_class.plans if p.method is JoinMethod.HASH
        ]
        index_queries = [
            p.query for p in plan_class.plans if p.method is JoinMethod.INDEX
        ]
        with tracer.span(
            "operator.shared_hybrid",
            source=source,
            n_hash=len(hash_queries),
            n_index=len(index_queries),
        ) as span:
            operator = SharedHybridStarJoin(
                ctx, source, hash_queries, index_queries
            )
            by_qid = operator.run()
            results = [by_qid[q.qid] for q in queries]
    if tracer.enabled:
        span.set("actuals", operator.actuals.as_dict())
    return results, operator.actuals


def run_class(ctx: ExecContext, plan_class: PlanClass) -> List[QueryResult]:
    """Execute one class; results only (see :func:`run_class_accounted`)."""
    return run_class_accounted(ctx, plan_class)[0]


def _validate_paranoid(db: "Database", plan: GlobalPlan, tracer) -> None:
    """Paranoia pre-flight: structurally validate the plan before running.

    A structural violation is as much a wrong answer as a bad result, so
    it surfaces as :class:`~repro.check.errors.CorrectnessError` too.
    """
    from ..check.errors import CorrectnessError, PlanValidationError
    from ..check.validate import validate_global_plan

    with tracer.span(
        "check.validate", algorithm=plan.algorithm, n_queries=plan.n_queries
    ):
        try:
            validate_global_plan(db.schema, db.catalog, plan)
        except PlanValidationError as exc:
            raise CorrectnessError(
                f"global plan failed structural validation: {exc}", plan=plan
            ) from exc
    default_registry().counter(
        "check.plans_validated", "global plans structurally validated"
    ).inc()


def execute_plan(
    db: "Database",
    plan: GlobalPlan,
    cold: bool = True,
    paranoia: Optional[bool] = None,
) -> ExecutionReport:
    """Execute every class of ``plan``; measure each separately.

    ``paranoia`` (default: the database's :attr:`Database.paranoia` flag)
    validates the plan before execution and cross-checks every class's
    results against the brute-force reference evaluator.  Checking happens
    *outside* the measured sections, so paranoia never perturbs a class's
    reported simulated or wall cost.
    """
    if paranoia is None:
        paranoia = bool(getattr(db, "paranoia", False))
    report = ExecutionReport(plan=plan)
    ctx = db.ctx()
    metrics = default_registry()
    classes_counter = metrics.counter(
        "executor.classes_executed", "plan classes run to completion"
    )
    queries_counter = metrics.counter(
        "executor.queries_executed", "component queries answered"
    )
    with ctx.tracer.span(
        "execute.plan",
        algorithm=plan.algorithm,
        n_classes=len(plan.classes),
        n_queries=plan.n_queries,
        paranoia=paranoia,
    ):
        if paranoia:
            _validate_paranoid(db, plan, ctx.tracer)
        for plan_class in plan.classes:
            if cold:
                db.flush()
            failure: Optional[ClassFailure] = None
            with ctx.tracer.span(
                "execute.class",
                source=plan_class.source,
                n_queries=len(plan_class.queries),
                methods=[p.method.name for p in plan_class.plans],
            ) as span:
                before = db.stats.snapshot()
                started = time.perf_counter()
                try:
                    results, actuals = run_class_accounted(ctx, plan_class)
                except InjectedFault as exc:
                    # Fault isolation: this class is lost, siblings proceed.
                    wall_s = time.perf_counter() - started
                    delta = db.stats.delta_since(before)
                    failure = ClassFailure(
                        plan_class=plan_class,
                        error=exc,
                        sim=delta,
                        wall_s=wall_s,
                    )
                    span.set("failed", True)
                    span.set("error", str(exc))
                else:
                    wall_s = time.perf_counter() - started
                    delta = db.stats.delta_since(before)
                    span.set("sim_ms", round(delta.total_ms, 3))
                    span.set("est_ms", round(plan_class.est_cost_ms, 3))
            if failure is not None:
                with ctx.tracer.span(
                    "fault.class_failure",
                    source=plan_class.source,
                    n_queries=len(plan_class.queries),
                    error=str(failure.error),
                ):
                    pass
                metrics.counter(
                    "executor.class_failures",
                    "plan classes aborted by an injected fault",
                ).inc()
                report.failures.append(failure)
                if cold:
                    # Drop whatever the aborted class admitted so the next
                    # class still starts from an empty pool.
                    db.flush()
                continue
            classes_counter.inc()
            queries_counter.inc(len(plan_class.queries))
            if paranoia:
                from ..check.paranoia import check_results

                with ctx.tracer.span(
                    "check.class",
                    source=plan_class.source,
                    n_results=len(results),
                ) as check_span:
                    checked = check_results(db, results, plan=plan)
                    check_span.set("n_checked", checked)
            report.class_executions.append(
                ClassExecution(
                    plan_class=plan_class,
                    results=results,
                    sim=delta,
                    wall_s=wall_s,
                    actuals=actuals,
                )
            )
    return report


def _isolated_context(db: "Database") -> ExecContext:
    """A private cold ExecContext: fresh pool + clock, shared read-only
    catalog/schema, and the database's armed fault plan (if any).

    The context starts with the NULL tracer; the parallel/sharded
    executors bind the live tracer to the context's private stats
    (``tracer.bound(ctx.stats)``) before handing it to a worker, so
    operator spans charge the task's own cost clock."""
    stats = IOStats(rates=db.stats.rates)
    pool = BufferPool(stats, capacity_pages=db.pool.capacity_pages)
    faults = getattr(db, "faults", None)
    pool.faults = faults
    return ExecContext(
        schema=db.schema,
        catalog=db.catalog,
        pool=pool,
        stats=stats,
        dim_tables=db.dimension_tables or None,
        faults=faults,
    )


def run_class_isolated(db: "Database", plan_class: PlanClass) -> ClassExecution:
    """Execute one class in a private cold context: its own buffer pool and
    its own cost clock, sharing only the (read-only) catalog and schema.

    This is the unit of work the parallel class executor hands to a thread:
    because a fresh pool is indistinguishable from a just-flushed shared
    pool, the class's results *and* its simulated cost are byte-identical
    to what ``execute_plan(..., cold=True)`` measures serially — worker
    interleaving cannot perturb either.  Span stacks are per thread, so
    the parallel executor *does* thread the tracer through: it pre-creates
    an ``execute.class`` span per task with an explicit ``parent=`` link
    (deterministic plan order) and a ``stats=`` binding to the task's
    private clock; this standalone helper keeps the NULL tracer.

    An :class:`~repro.faults.InjectedFault` propagates to the caller; the
    parallel executor wraps this in :func:`_run_class_guarded` to convert
    it into a :class:`ClassFailure` instead.
    """
    ctx = _isolated_context(db)
    started = time.perf_counter()
    results, actuals = run_class_accounted(ctx, plan_class)
    wall_s = time.perf_counter() - started
    return ClassExecution(
        plan_class=plan_class,
        results=results,
        sim=ctx.stats,
        wall_s=wall_s,
        actuals=actuals,
    )


def _run_class_guarded(
    db: "Database",
    plan_class: PlanClass,
    ctx: Optional[ExecContext] = None,
    span=None,
) -> "ClassExecution | ClassFailure":
    """Like :func:`run_class_isolated`, but an injected fault becomes a
    :class:`ClassFailure` carrying the cost charged before the abort.

    ``ctx`` and ``span`` let the parallel executor pre-create the task's
    isolated context and its ``execute.class`` span on the scheduling
    thread (explicit cross-thread parent handoff); the worker enters the
    span here, on its own thread-local stack.
    """
    if ctx is None:
        ctx = _isolated_context(db)
    if span is None:
        span = ctx.tracer.span("execute.class", source=plan_class.source)
    with span:
        started = time.perf_counter()
        try:
            results, actuals = run_class_accounted(ctx, plan_class)
        except InjectedFault as exc:
            span.set("failed", True)
            span.set("error", str(exc))
            return ClassFailure(
                plan_class=plan_class,
                error=exc,
                sim=ctx.stats,
                wall_s=time.perf_counter() - started,
            )
        span.set("sim_ms", round(ctx.stats.total_ms, 3))
        span.set("est_ms", round(plan_class.est_cost_ms, 3))
        return ClassExecution(
            plan_class=plan_class,
            results=results,
            sim=ctx.stats,
            wall_s=time.perf_counter() - started,
            actuals=actuals,
        )


def execute_plan_parallel(
    db: "Database",
    plan: GlobalPlan,
    n_workers: int = 4,
    paranoia: Optional[bool] = None,
) -> ExecutionReport:
    """Execute a global plan's independent classes concurrently.

    Classes of a global plan share nothing at run time (each reads one
    source table through its own operators), so they can run on a thread
    pool.  Every class gets an isolated cold context
    (:func:`run_class_isolated`); finished per-class clocks are merged
    into the database's shared clock under its lock, and the report lists
    classes in plan order — so results, per-class simulated costs, and
    their sum are all identical to the serial cold
    :func:`execute_plan`, independent of scheduling.

    Paranoia checks (structural validation plus the differential
    cross-check of every result) run on the calling thread, outside the
    measured sections, exactly as in the serial executor.
    """
    if paranoia is None:
        paranoia = bool(getattr(db, "paranoia", False))
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive (got {n_workers})")
    report = ExecutionReport(plan=plan)
    metrics = default_registry()
    classes_counter = metrics.counter(
        "executor.classes_executed", "plan classes run to completion"
    )
    queries_counter = metrics.counter(
        "executor.queries_executed", "component queries answered"
    )
    with db.tracer.span(
        "execute.plan",
        algorithm=plan.algorithm,
        n_classes=len(plan.classes),
        n_queries=plan.n_queries,
        paranoia=paranoia,
        parallel=True,
        n_workers=n_workers,
    ) as plan_span:
        if paranoia:
            _validate_paranoid(db, plan, db.tracer)
        classes = list(plan.classes)
        if not classes:
            return report
        # Pre-create each task's isolated context and its span on this
        # thread, in plan order: the explicit parent= link pins sibling
        # order deterministically, and the stats= binding makes each span's
        # sim delta the task's private clock (the shared clock is merged
        # concurrently by other workers).  With tracing off this costs one
        # no-op span per class.
        traced = db.tracer.enabled
        tasks = []
        for plan_class in classes:
            ctx = _isolated_context(db)
            if traced:
                ctx.tracer = db.tracer.bound(ctx.stats)
            span = db.tracer.span(
                "execute.class",
                parent=plan_span,
                stats=ctx.stats,
                source=plan_class.source,
                n_queries=len(plan_class.queries),
                methods=[p.method.name for p in plan_class.plans],
            )
            tasks.append((plan_class, ctx, span))
        if len(classes) == 1 or n_workers == 1:
            outcomes = [
                _run_class_guarded(db, pc, ctx, span)
                for pc, ctx, span in tasks
            ]
        else:
            with ThreadPoolExecutor(
                max_workers=min(n_workers, len(classes))
            ) as workers:
                outcomes = list(
                    workers.map(
                        lambda task: _run_class_guarded(db, *task), tasks
                    )
                )
        for outcome in outcomes:
            db.stats.merge_from(outcome.sim)
            if isinstance(outcome, ClassFailure):
                with db.tracer.span(
                    "fault.class_failure",
                    source=outcome.plan_class.source,
                    n_queries=len(outcome.plan_class.queries),
                    error=str(outcome.error),
                ):
                    pass
                metrics.counter(
                    "executor.class_failures",
                    "plan classes aborted by an injected fault",
                ).inc()
                report.failures.append(outcome)
                continue
            classes_counter.inc()
            queries_counter.inc(len(outcome.plan_class.queries))
            if paranoia:
                from ..check.paranoia import check_results

                with db.tracer.span(
                    "check.class",
                    source=outcome.plan_class.source,
                    n_results=len(outcome.results),
                ) as check_span:
                    checked = check_results(db, outcome.results, plan=plan)
                    check_span.set("n_checked", checked)
            report.class_executions.append(outcome)
    return report
