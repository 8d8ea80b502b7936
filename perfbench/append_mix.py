"""append-mix: reads through the result cache with appends between them.

Closed loop, 1 client, on the paper database at scale 0.01 (20 000 base
rows in 800 pages) with ``attach_cache``.  The run is a fixed script of
rounds: each round appends 200 fresh seeded fact rows, then translates and
answers, through ``run_queries``, each MDX expression of a pool of four
once and one of them a second time, in a seeded order.  So every round
misses the cache four times and hits it once, and the read latencies'
quartiles fall inside single expressions rather than between them.  The pool is part of the
workload's definition; the seed draws the data, the appended rows, the
repeats and the order.  The script's length follows ``--seconds`` only, never the
program's speed, so every run of one seed appends the same volume, sees the
same data and charges the same simulated cost.  Each append runs view and
index maintenance and empties the result cache; every answer is checked
against the reference at the data epoch it was asked at.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.engine.result_cache import attach_cache
from repro.workload.serve_load import expression_pool

from . import common

WORKLOAD = "append-mix"
SCALE = 0.01
POOL_SIZE = 4
POOL_SEED = 3
REPEATS_PER_ROUND = 1
#: Rounds per second of ``--seconds``; sized so a run measures about that
#: long at the nominal host speed.
ROUNDS_PER_SECOND = 2.5


@dataclass
class Script:
    """What one run of the script observed."""

    reads: list = field(default_factory=list)
    #: (wall ms, perf_counter time the append returned)
    appends: list = field(default_factory=list)
    view_groups: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Process CPU seconds spent in operations of untraced / traced rounds.
    cpu_s: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    gaps_ms: list = field(default_factory=list)


def _read_record(report) -> dict:
    """The counts one ``run_queries`` report carries (0 for cache hits)."""
    return {
        "n_queries": report.n_queries,
        "sim_ms": report.sim_ms,
        "executed": bool(report.class_executions),
        "costings": report.plan.search_stats.get("plan_costings", 0),
        "n_classes": len(report.plan.classes),
        "plan_ms": report.plan.search_stats.get("planning_s", 0.0) * 1000.0,
        "exec_ms": report.wall_s * 1000.0,
        **common.execution_counts(report),
    }


def _script(db, rounds, picks, batches, spans, speed) -> Script:
    """Run the script; a traced run traces every other round."""
    out, last_end = Script(), None
    refs = common.References(db)
    traced_run = spans.enabled
    op = 0

    def started_op():
        now = time.perf_counter()
        if last_end is not None:
            out.gaps_ms.append((now - last_end) * 1000.0)
        return time.process_time(), now

    for r in range(rounds):
        spans.enabled = traced_run and r % 2 == 1
        out.attempted += 1
        cpu, _ = started_op()
        try:
            wall_ms, groups = common.timed_append(db, batches[r], spans, op=op)
            out.cpu_s[spans.enabled] += time.process_time() - cpu
            out.appends.append((wall_ms, time.perf_counter()))
            speed.sample()
            out.view_groups.append(groups)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            out.failed += 1
            out.errors.append(f"append {r}: {type(exc).__name__}: {exc}")
        last_end = time.perf_counter()
        op += 1
        for text in picks[r]:
            out.attempted += 1
            cpu, started = started_op()
            try:
                with spans.span("op", op=op):
                    queries = common.translate(db.schema, text, spans, op=op)
                    with spans.span("run_queries", op=op):
                        report = db.run_queries(queries, "gg")
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                last_end = time.perf_counter()
                out.failed += 1
                out.errors.append(f"read {op}: {type(exc).__name__}: {exc}")
                op += 1
                continue
            done = time.perf_counter()
            out.cpu_s[spans.enabled] += time.process_time() - cpu
            speed.sample()
            last_end = time.perf_counter()
            # Checks run outside the timed section.
            problems = [p for q in queries
                        if (p := refs.mismatch(q, report.result_for(q)))]
            if problems:
                out.failed += 1
                out.errors += [f"read {op}: {p}" for p in problems]
            record = _read_record(report)
            record.update(latency_ms=(done - started) * 1000.0, done=done,
                          ok=not problems)
            out.reads.append(record)
            op += 1
    spans.enabled = traced_run
    return out


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    config = common.paper_config(WORKLOAD, seed, SCALE)
    speed = common.HostSpeed()
    db, setup_s = common.build_database(config, speed)
    cache = attach_cache(db)
    spans = common.Spans(trace)
    pool = expression_pool(db.schema, random.Random(POOL_SEED), POOL_SIZE)
    rng = common.seeded(WORKLOAD, "reads", seed)
    # Whole pairs of rounds, so a traced run traces exactly half of them.
    rounds = 2 * max(1, round(seconds * ROUNDS_PER_SECOND / 2))
    picks = [rng.sample(pool + rng.sample(pool, REPEATS_PER_ROUND),
                        POOL_SIZE + REPEATS_PER_ROUND)
             for _ in range(rounds)]
    batches = common.append_batches(db.schema, WORKLOAD, seed, rounds)
    out = _script(db, rounds, picks, batches, spans, speed)

    reads = out.reads
    total = {name: sum(r[name] for r in reads)
             for name in ("n_queries", "sim_ms") + common.EXECUTION_COUNTS}
    latencies = [r["latency_ms"] * speed.scale_at(r["done"]) for r in reads]
    busy_s = sum(latencies) / 1000.0
    good = sum(1 for r, ms in zip(reads, latencies)
               if r["ok"] and ms <= common.LATENCY_LIMIT_MS)
    append_e2e, append_layer = common.append_metrics(
        [ms * speed.scale_at(done) for ms, done in out.appends],
        out.view_groups)
    end_to_end = {
        "setup_s": setup_s,
        "query_ms.p50": common.median(latencies),
        "query_ms.p90": common.percentile(latencies, 90),
        "queries_per_s": total["n_queries"] / busy_s,
        "goodput_rps": good / busy_s,
        "sim_ms_per_query": total["sim_ms"] / total["n_queries"],
        **append_e2e,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    per_layer = {}
    if trace:
        executed = [r for r in reads if r["executed"]]
        scale = speed.scale()
        per_layer = {
            "mdx.translate_ms":
                common.median(spans.self_ms("translate")) * scale,
            "plan.ms": common.median([r["plan_ms"] for r in executed]) * scale,
            "plan.dag_over_gg": 0.0,
            "plan.costings":
                sum(r["costings"] for r in executed) / len(executed),
            "plan.n_classes":
                sum(r["n_classes"] for r in executed) / len(executed),
            "exec.ms":
                common.median([r["exec_ms"] for r in executed]) * scale,
            **common.execution_layers(total, executed, total["n_queries"]),
            **append_layer,
            "cache.hit_rate": cache.stats.hit_rate,
            "cache.invalidations": float(cache.stats.invalidations),
            **common.CLOSED_LOOP_SERVE,
            "harness.late_ms.p95": common.percentile(out.gaps_ms, 95) * scale,
            "trace.overhead_frac": common.overhead_frac(out.cpu_s[False],
                                                        out.cpu_s[True]),
        }
    return common.Outcome(end_to_end, per_layer, out.attempted, out.failed,
                          out.errors, spans)
