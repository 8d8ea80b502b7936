"""paper-tests: the paper's Tests 1-7 under gg and dag, closed loop, 1 client.

The paper database is built at scale 0.05: 100 000 base rows, and the base
table ``ABCD`` is about 4000 pages of 512 B against a 2048-page buffer pool,
so the base table does not fit the program's cache.  Each operation plans
one test's queries with one algorithm and executes the plan cold.  The
simulated clock is deterministic here, so its charges and the storage
counts are reported over one canonical cycle of the 14 (test, algorithm)
operations, and every repetition of an operation must charge exactly what
its first run charged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.analyze import CALIBRATION_TESTS
from repro.workload import PAPER_MDX

from . import common

WORKLOAD = "paper-tests"
SCALE = 0.05
ALGORITHMS = ("gg", "dag")
OPERATIONS = [(test, alg) for test in CALIBRATION_TESTS for alg in ALGORITHMS]
#: Fields of an operation that the simulated clock fixes exactly.
DETERMINISTIC = ("sim_ms", "costings", "n_classes") + common.EXECUTION_COUNTS


def _schedule(seed: int):
    """Endless seeded cycles, each a permutation of :data:`OPERATIONS`."""
    rng = common.seeded(WORKLOAD, "order", seed)
    while True:
        yield from rng.sample(OPERATIONS, len(OPERATIONS))


def _operation(db, batch, algorithm, spans, op):
    """Plan + cold execute; returns (report, plan wall ms, execute wall ms)."""
    with spans.span("op", op=op):
        started = time.perf_counter()
        with spans.span(f"optimize.{algorithm}", op=op):
            plan = db.optimize(batch, algorithm)
        planned = time.perf_counter()
        with spans.span("execute", op=op):
            report = db.execute(plan)
        done = time.perf_counter()
    return report, (planned - started) * 1000.0, (done - planned) * 1000.0


def _record(report) -> dict:
    """The counts one operation's report carries."""
    return {
        "sim_ms": report.sim_ms,
        "costings": report.plan.search_stats["plan_costings"],
        "n_classes": len(report.plan.classes),
        **common.execution_counts(report),
    }


@dataclass
class Pass:
    """One run of the closed loop."""

    ops: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall seconds spent inside operations.
    busy_s: float = 0.0
    #: Process CPU seconds spent inside operations, untraced and traced.
    cpu_s: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    #: Harness time between one operation's end and the next one's start.
    gaps_ms: list = field(default_factory=list)


def _loop(db, batches, refs, seed, spans, speed, seconds) -> Pass:
    """The closed loop: whole cycles of operations until ``seconds`` have
    been spent in them.  A traced run alternates traced and untraced
    cycles, so machine drift cancels out of the tracing overhead."""
    run, first, last_end = Pass(), {}, None
    traced_run = spans.enabled
    for i, (test, algorithm) in enumerate(_schedule(seed)):
        cycle, position = divmod(i, len(OPERATIONS))
        if position == 0:
            # A traced run ends after as many traced as untraced cycles.
            if (run.busy_s >= seconds and cycle >= 1
                    and not (traced_run and cycle % 2)):
                break
            spans.enabled = traced_run and cycle % 2 == 1
        batch = batches[test]
        run.attempted += 1
        cpu_started, started = time.process_time(), time.perf_counter()
        if last_end is not None:
            run.gaps_ms.append((started - last_end) * 1000.0)
        try:
            report, plan_ms, exec_ms = _operation(
                db, batch, algorithm, spans, op=i)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            last_end = time.perf_counter()
            run.failed += 1
            run.errors.append(
                f"op {i} {test}/{algorithm}: {type(exc).__name__}: {exc}")
            continue
        done = time.perf_counter()
        run.busy_s += done - started
        run.cpu_s[spans.enabled] += time.process_time() - cpu_started
        speed.sample()
        last_end = time.perf_counter()
        # Checks run outside the timed section.
        problems = [p for q in batch
                    if (p := refs.mismatch(q, report.result_for(q)))]
        record = _record(report)
        key = (test, algorithm)
        signature = tuple(record[name] for name in DETERMINISTIC)
        if first.setdefault(key, signature) != signature:
            problems.append("simulated charges differ from the first run")
        if problems:
            run.failed += 1
            run.errors += [f"op {i} {test}/{algorithm}: {p}" for p in problems]
        record.update(key=key, n_queries=len(batch), plan_ms=plan_ms,
                      exec_ms=exec_ms, latency_ms=plan_ms + exec_ms,
                      done=done, ok=not problems)
        run.ops.append(record)
    spans.enabled = traced_run
    return run


def _canonical(ops) -> dict:
    """Deterministic counts summed over one cycle of the 14 operations."""
    by_key = {}
    for record in ops:
        by_key.setdefault(record["key"], record)
    cycle = [by_key[key] for key in OPERATIONS if key in by_key]
    totals = {name: sum(r[name] for r in cycle) for name in DETERMINISTIC}
    totals["n_queries"] = sum(r["n_queries"] for r in cycle)
    totals["n_ops"] = len(cycle)
    return totals


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    config = common.paper_config(WORKLOAD, seed, SCALE)
    speed = common.HostSpeed()
    db, setup_s = common.build_database(config, speed)
    spans = common.Spans(trace)
    qids = sorted({qid for ids in CALIBRATION_TESTS.values() for qid in ids})
    queries = {
        qid: common.translate(db.schema, PAPER_MDX[qid], spans, op=f"q{qid}")[0]
        for qid in qids
    }
    batches = {test: [queries[qid] for qid in ids]
               for test, ids in CALIBRATION_TESTS.items()}
    refs = common.References(db)
    for query in queries.values():
        refs.expected(query)

    loop = _loop(db, batches, refs, seed, spans, speed, seconds)
    probe = common.write_probe(
        db, common.append_batches(db.schema, WORKLOAD, seed,
                                  common.PROBE_APPENDS),
        spans, speed, batches["test1"])
    errors = loop.errors + probe.errors
    attempted = loop.attempted + probe.attempted
    failed = loop.failed + probe.failed
    append_e2e, append_layer = common.append_metrics(
        probe.append_ms, probe.view_groups)
    canon = _canonical(loop.ops)
    ops = loop.ops
    latencies = [r["latency_ms"] * speed.scale_at(r["done"]) for r in ops]
    busy_s = sum(latencies) / 1000.0
    good = sum(1 for r, ms in zip(ops, latencies)
               if r["ok"] and ms <= common.LATENCY_LIMIT_MS)
    end_to_end = {
        "setup_s": setup_s,
        "query_ms.p50": common.median(latencies),
        "query_ms.p90": common.percentile(latencies, 90),
        "queries_per_s": sum(r["n_queries"] for r in ops) / busy_s,
        "goodput_rps": good / busy_s,
        "sim_ms_per_query": canon["sim_ms"] / canon["n_queries"],
        **append_e2e,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    per_layer = {}
    if trace:
        gg = spans.self_ms("optimize.gg")
        dag = spans.self_ms("optimize.dag")
        scale = speed.scale()
        per_layer = {
            "mdx.translate_ms":
                common.median(spans.self_ms("translate")) * scale,
            "plan.ms": common.median(gg + dag) * scale,
            "plan.dag_over_gg": common.median(dag) / common.median(gg),
            "plan.costings": canon["costings"] / canon["n_ops"],
            "plan.n_classes": canon["n_classes"] / canon["n_ops"],
            "exec.ms": common.median(spans.self_ms("execute")) * scale,
            **common.execution_layers(canon, loop.ops, canon["n_queries"]),
            **append_layer,
            "cache.hit_rate": 0.0,
            "cache.invalidations": 0.0,
            **common.CLOSED_LOOP_SERVE,
            "harness.late_ms.p95": common.percentile(loop.gaps_ms, 95) * scale,
            "trace.overhead_frac": common.overhead_frac(loop.cpu_s[False],
                                                        loop.cpu_s[True]),
        }
    return common.Outcome(end_to_end, per_layer, attempted, failed, errors,
                          spans)
