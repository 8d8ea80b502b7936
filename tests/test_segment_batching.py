"""Segment batching in the shared scans changes wall time only.

The shared scan operators read, charge and fault-check every page on its
own, but feed their pipelines in segments of ``pipeline.SEGMENT_ROWS``
rows.  Whatever the segment size — one page, a size that does not divide a
page, or the default — every simulated counter, every recorded
:class:`~repro.obs.analyze.OperatorActuals`, every metric delta and, under
an injected fault, the aborted class's partial cost and the fault log must
be identical; answers must match the reference oracle.
"""

import pytest

from repro.check import first_divergence, reference_answer
from repro.core.operators import pipeline
from repro.core.optimizer.plans import GlobalPlan, JoinMethod, LocalPlan, PlanClass
from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.obs.analyze import CALIBRATION_TESTS
from repro.obs.metrics import default_registry
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

SCALE = 0.002
#: Per page (the scale's pages hold 25 rows), a size that splits no page
#: evenly, and the shipped default.
SEGMENT_SIZES = (1, 37, pipeline.SEGMENT_ROWS)
ALGORITHMS = ("gg", "dag", "tplo")
#: The hybrid class: hash members scan, index members are bitmap-routed.
HYBRID_SOURCE = "A'B'C'D"
HYBRID_HASH = (3, 5)
HYBRID_INDEX = (6, 7)


@pytest.fixture(scope="module")
def db():
    return build_paper_database(config=PaperConfig(scale=SCALE))


@pytest.fixture(scope="module")
def queries(db):
    return paper_queries(db.schema)


def hybrid_plan(queries):
    plans = [
        LocalPlan(query=queries[i], source=HYBRID_SOURCE, method=JoinMethod.HASH)
        for i in HYBRID_HASH
    ] + [
        LocalPlan(query=queries[i], source=HYBRID_SOURCE, method=JoinMethod.INDEX)
        for i in HYBRID_INDEX
    ]
    return GlobalPlan(
        algorithm="forced-hybrid",
        classes=[PlanClass(source=HYBRID_SOURCE, plans=plans)],
    )


def workload(db, queries):
    """(name, plan) for Tests 1-7 under each optimizer, plus the hybrid."""
    out = []
    for test, ids in sorted(CALIBRATION_TESTS.items()):
        batch = [queries[i] for i in ids]
        for algorithm in ALGORITHMS:
            out.append((f"{test}/{algorithm}", db.optimize(batch, algorithm)))
    out.append(("hybrid", hybrid_plan(queries)))
    return out


def counter_values():
    return {
        metric.name: metric.value
        for metric in default_registry()
        if metric.kind == "counter"
    }


def counter_delta(before, after):
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def accounting(report):
    """Everything the segment size must not move, for one execution."""
    return {
        "sim_ms": report.sim_ms,
        "counters": [e.sim.as_dict() for e in report.class_executions],
        "actuals": [e.actuals.as_dict() for e in report.class_executions],
        "failures": [
            (f.plan_class.source, str(f.error), f.sim.as_dict())
            for f in report.failures
        ],
    }


def sweep(db, plans, monkeypatch, segment_rows, faults=None):
    monkeypatch.setattr(pipeline, "SEGMENT_ROWS", segment_rows)
    before = counter_values()
    snapshots, results = {}, {}
    for name, plan in plans:
        if faults is not None:
            db.arm_faults(faults())
        try:
            report = db.execute(plan)
        finally:
            fault_plan = db.faults
            db.disarm_faults()
        snap = accounting(report)
        if fault_plan is not None:
            snap["events"] = [
                (e.site, e.point, e.attrs) for e in fault_plan.events_since(0)
            ]
        snapshots[name] = snap
        results[name] = report.results
    return snapshots, counter_delta(before, counter_values()), results


def test_segment_size_moves_no_charge_and_keeps_answers(
    db, queries, monkeypatch
):
    plans = workload(db, queries)
    operators = {
        e.actuals.operator
        for _name, plan in plans
        for e in db.execute(plan).class_executions
    }
    assert {
        "SharedScanHashStarJoin",
        "SharedHybridStarJoin",
        "SharedDagStarJoin",
    } <= operators
    truth = {q.qid: reference_answer(db, q).groups for q in queries.values()}
    runs = [sweep(db, plans, monkeypatch, rows) for rows in SEGMENT_SIZES]
    base_snaps, base_metrics, _results = runs[0]
    assert base_metrics["table.scan_pages"] > 0
    for rows, (snaps, metrics, results) in zip(SEGMENT_SIZES, runs):
        for name, snap in snaps.items():
            assert snap == base_snaps[name], f"{name}: rows={rows}"
        assert metrics == base_metrics, f"rows={rows}"
        for name, by_qid in results.items():
            for qid, result in by_qid.items():
                divergence = first_divergence(truth[qid], result.groups)
                assert divergence is None, (
                    f"{name} Q{qid} rows={rows}: {divergence.describe()}"
                )


#: Fault on the 52nd access: page 51 of the first shared scan — inside a
#: default-sized segment, the second page of a 37-row segment.
@pytest.mark.parametrize("site", ["storage.page_read", "operator.pipeline"])
def test_mid_segment_fault_leaves_per_page_partial_cost(
    db, queries, monkeypatch, site
):
    plans = [
        (name, plan)
        for name, plan in workload(db, queries)
        if name in ("test1/gg", "test1/dag", "hybrid")
    ]
    sources = {name: plan.classes[0].source for name, plan in plans}

    runs = []
    for rows in SEGMENT_SIZES:
        snaps = {}
        for name, plan in plans:
            snap, metrics, _results = sweep(
                db,
                [(name, plan)],
                monkeypatch,
                rows,
                faults=lambda name=name: FaultPlan(
                    [
                        InjectionPoint(
                            site=site, table=sources[name], nth=52, name="mid"
                        )
                    ]
                ),
            )
            snaps[name] = (snap[name], metrics)
        runs.append(snaps)
    for name, (snap, _metrics) in runs[0].items():
        (failure,) = snap["failures"]
        # The pages read before the fault were processed, not dropped.
        assert failure[2]["hash_probes"] > 0, name
        assert len(snap["events"]) == 1
    for rows, snaps in zip(SEGMENT_SIZES, runs):
        assert snaps == runs[0], f"rows={rows}"


def test_fault_propagates_after_flushing_pending_pages(db, monkeypatch):
    """The segmenting generator re-raises the scan's exception itself."""
    monkeypatch.setattr(pipeline, "SEGMENT_ROWS", 10_000)
    ctx = db.ctx()
    entry = ctx.entry(HYBRID_SOURCE)
    ctx.faults = FaultPlan(
        [InjectionPoint(site="operator.pipeline", table=entry.name, nth=3)]
    )
    segments = pipeline.scan_segments(ctx, entry, "probe")
    first = next(segments)
    assert first.n_pages == 2
    assert first.n_rows == 2 * entry.table.capacity
    assert (first.start, first.stop) == (0, 2 * entry.table.capacity)
    with pytest.raises(InjectedFault):
        next(segments)
