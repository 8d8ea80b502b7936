"""serve-mdx: open-loop MDX serving, first at a low then at a high rate.

Requests come from ``client_scripts``: four clients' scripts over one
shared pool of eight MDX expressions, three in four requests drawn from the
pool and the rest one-off.  The first client's requests make the lo phase,
10 requests/s for a third of ``--seconds``; the other three clients'
requests make the hi phase, 15 requests/s for the rest.  The scripts are
part of the workload's definition, so each phase serves the same requests
on every seed; the seed draws the data, the order of each phase's requests
and their arrival times.  Arrivals are stratified: the k-th request of a
phase is due at a uniformly drawn point of the k-th 1/rate slot.  A Poisson
schedule's bursts moved p50 and p90 by half between seeds at this run
length; the stratified one keeps random arrival times without the bursts.
One generator thread submits each request to a ``QueryService`` (gg, 2
workers, no result cache) when it is due, whether or not earlier requests
have been answered.  Latency runs from the due
time to the moment the response is in hand, so a stall also charges the
requests queued behind it.  The database is the paper's at scale 0.01:
20 000 base rows in 800 pages, which fit the 2048-page buffer pool.

Latencies are reported at the nominal host speed (see
``common.NOMINAL_PROBE_MS``): the collector runs the speed probe whenever
the service is idle, and each request's latency, less the batching window
it waited (a fixed wall-clock wait that no host speed scales), is scaled by
the probes nearest its due time.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import default_registry
from repro.serve import QueryService, ServeConfig
from repro.workload.serve_load import client_scripts

from . import common

WORKLOAD = "serve-mdx"
#: (name, offered rate in requests per second, clients whose scripts it
#: serves); the phases split ``--seconds`` in proportion to their requests.
PHASES = (("lo", 10.0, 1), ("hi", 15.0, 3))
SCALE = 0.01
N_WORKERS = 2
OVERLAP = 0.75
POOL_SIZE = 8
SCRIPT_SEED = 0
#: The schedule starts this long after the generator thread.
LEAD_S = 0.05
#: The collector probes the host's speed when the service is idle and the
#: next request is due no sooner than this.
IDLE_PROBE_S = 0.008
#: The run is invalid when the generator submits later than this at p95.
LATE_LIMIT_MS = 250.0
RESULT_TIMEOUT_S = 60.0
#: Registry counters read around a phase (the service returns no plans).
COUNTERS = ("optimizer.plan_costings", "executor.classes_executed")


@dataclass
class Phase:
    """What one open-loop phase observed."""

    requests: list = field(default_factory=list)
    #: (request index, due, submitted, done, response or None, error or None)
    records: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    origin: float = 0.0
    cpu_s: float = 0.0
    stats: dict = field(default_factory=dict)
    batch_sizes: list = field(default_factory=list)
    io: object = None
    counters: dict = field(default_factory=dict)


def _counters() -> dict:
    values = default_registry().as_dict()
    return {name: values.get(name, 0) for name in COUNTERS}


def _stat_fields(stats) -> dict:
    return {name: getattr(stats, name) for name in (
        "n_batches", "n_queries_submitted", "n_queries_planned",
        "n_cache_hits", "sim_ms_total")}


def _phase(db, requests, arrivals, spans, speed) -> Phase:
    """Serve every request at its due time; collect responses in order."""
    phase = Phase(requests=requests)
    service = QueryService(db, ServeConfig(n_workers=N_WORKERS))
    with service:
        # Warm-up: lazy set-up is paid before the measured schedule starts.
        service.submit(requests[0]).result(timeout=RESULT_TIMEOUT_S)
        stats_before = service.stats.snapshot()
        io_before = db.stats.snapshot()
        counters_before = _counters()
        speed.sample(common.PROBE_WINDOW + 1)
        cpu_started = time.process_time()
        pending: "queue.Queue[tuple]" = queue.Queue()
        phase.origin = time.perf_counter() + LEAD_S

        def generate() -> None:
            for i, offset in enumerate(arrivals):
                due = phase.origin + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submitted = time.perf_counter()
                try:
                    outcome = service.submit(requests[i])
                except Exception as exc:  # noqa: BLE001 - a refused request
                    outcome = exc
                pending.put((i, due, submitted, outcome))

        generator = threading.Thread(target=generate, name="perfbench-load")
        generator.start()
        try:
            for k in range(len(arrivals)):
                i, due, submitted, outcome = pending.get(
                    timeout=arrivals[-1] + RESULT_TIMEOUT_S)
                phase.late_ms.append((submitted - due) * 1000.0)
                response = error = None
                if isinstance(outcome, Exception):
                    error = outcome
                else:
                    try:
                        response = outcome.result(timeout=RESULT_TIMEOUT_S)
                    except Exception as exc:  # noqa: BLE001 - a failed request
                        error = exc
                done = time.perf_counter()
                spans.add("request", submitted, done, op=i)
                phase.records.append((i, due, submitted, done, response, error))
                # Every submitted request is answered: the service is idle.
                if (k + 1 < len(arrivals) and pending.empty()
                        and phase.origin + arrivals[k + 1] - time.perf_counter()
                        > IDLE_PROBE_S):
                    speed.sample()
        finally:
            generator.join()
        phase.cpu_s = time.process_time() - cpu_started
        speed.sample(common.PROBE_WINDOW + 1)
        stats_after = service.stats.snapshot()
    before, after = _stat_fields(stats_before), _stat_fields(stats_after)
    phase.stats = {name: after[name] - before[name] for name in after}
    phase.batch_sizes = stats_after.batch_sizes[len(stats_before.batch_sizes):]
    phase.io = db.stats.delta_since(io_before)
    counters_after = _counters()
    phase.counters = {name: counters_after[name] - counters_before[name]
                      for name in COUNTERS}
    return phase


def _check(phase: Phase, refs) -> dict:
    """Compare every response with the reference answers (untimed);
    returns {request index: what went wrong} for the failed requests."""
    failures = {}
    for i, _, _, _, response, error in phase.records:
        if error is not None:
            failures[i] = f"{type(error).__name__}: {error}"
            continue
        for query in phase.requests[i]:
            problem = refs.mismatch(query, response.result_for(query))
            if problem:
                failures[i] = problem
                break
    return failures


def _latencies(phase: Phase, speed) -> list:
    """Latency of each answered request, in ms at the nominal host speed."""
    window_ms = ServeConfig().window_ms
    latencies = []
    for _, due, _, done, response, _ in phase.records:
        if response is None:
            continue
        waited_ms = min(response.stages["queued"].wall_ms, window_ms)
        latencies.append(waited_ms + ((done - due) * 1000.0 - waited_ms)
                         * speed.scale_at(due))
    return latencies


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    config = common.paper_config(WORKLOAD, seed, SCALE)
    speed = common.HostSpeed()
    db, setup_s = common.build_database(config, speed)
    spans = common.Spans(trace)
    # Requests per client, so that the phases together last ``seconds``.
    per_client = max(1, round(seconds / sum(n / rate for _, rate, n in PHASES)))
    scripts = client_scripts(db.schema, sum(n for _, _, n in PHASES),
                             per_client, seed=SCRIPT_SEED, overlap=OVERLAP,
                             pool_size=POOL_SIZE)
    texts = dict.fromkeys(t for script in scripts for t in script.mdx_texts)
    for i, text in enumerate(texts):
        common.translate(db.schema, text, spans, op=f"setup-{i}")
    rng = common.seeded(WORKLOAD, "arrivals", seed)
    schedule, first = [], 0
    for _, rate, n_clients in PHASES:
        requests = [r for script in scripts[first:first + n_clients]
                    for r in script.requests]
        first += n_clients
        n = len(requests)
        arrivals = [(k + rng.random()) / rate for k in range(n)]
        schedule.append((rng.sample(requests, n), arrivals))
    refs = common.References(db)
    for requests, _ in schedule:
        for request in requests:
            for query in request:
                refs.expected(query)

    passes = [[_phase(db, reqs, arrivals, common.Spans(False), speed)
               for reqs, arrivals in schedule]]
    if trace:
        passes.append([_phase(db, reqs, arrivals, spans, speed)
                       for reqs, arrivals in schedule])
    phases = [phase for run_phases in passes for phase in run_phases]
    failures = [_check(phase, refs) for phase in phases]
    errors = [f"request {i}: {problem}"
              for failed in failures for i, problem in failed.items()]
    late_p95 = max(common.percentile(p.late_ms, 95) for p in phases)
    if late_p95 > LATE_LIMIT_MS:
        raise common.InvalidRun(
            f"the generator ran {late_p95:.1f} ms late at p95, over the "
            f"{LATE_LIMIT_MS:.0f} ms limit")
    probe = common.write_probe(
        db, common.append_batches(db.schema, WORKLOAD, seed,
                                  common.PROBE_APPENDS),
        spans, speed, schedule[0][0][0])
    attempted = sum(len(p.records) for p in phases) + probe.attempted
    failed = len(errors) + probe.failed
    errors += probe.errors
    append_e2e, append_layer = common.append_metrics(
        probe.append_ms, probe.view_groups)

    measured = passes[-1]
    by_phase = [_latencies(phase, speed) for phase in measured]
    latencies = [ms for phase in by_phase for ms in phase]
    span_s = sum(max(r[3] for r in phase.records) - phase.origin
                 for phase in measured)
    n_queries = good = 0
    for phase, phase_latencies, failed_ids in zip(
            measured, by_phase, failures[-len(measured):]):
        served = [r for r in phase.records if r[4] is not None]
        n_queries += sum(len(phase.requests[r[0]]) for r in served)
        good += sum(1 for r, ms in zip(served, phase_latencies)
                    if ms <= common.LATENCY_LIMIT_MS and r[0] not in failed_ids)
    stats = {name: sum(phase.stats[name] for phase in measured)
             for name in measured[0].stats}
    end_to_end = {
        "setup_s": setup_s,
        "query_ms.p50": common.median(latencies),
        "query_ms.p90": common.percentile(latencies, 90),
        "queries_per_s": n_queries / span_s,
        "goodput_rps": good / span_s,
        "sim_ms_per_query": stats["sim_ms_total"] / stats["n_queries_submitted"],
        **append_e2e,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    per_layer = {}
    if trace:
        batches, queued_ms = {}, 0.0
        for phase in measured:
            for record in phase.records:
                response = record[4]
                if response is not None:
                    batches.setdefault((id(phase), response.batch_id),
                                       response.stages)
                    queued_ms += response.stages["queued"].wall_ms
        io_reads = {name: sum(getattr(phase.io, name) for phase in measured)
                    for name in ("seq_page_reads", "rand_page_reads",
                                 "buffer_hits")}
        reads = io_reads["seq_page_reads"] + io_reads["rand_page_reads"]
        counters = {name: sum(phase.counters[name] for phase in measured)
                    for name in COUNTERS}
        batch_sizes = [n for phase in measured for n in phase.batch_sizes]
        n_batches = stats["n_batches"]
        lo, hi = by_phase
        per_layer = {
            "mdx.translate_ms":
                common.median(spans.self_ms("translate")) * speed.scale(),
            "plan.ms": common.median(
                [s["plan"].wall_ms for s in batches.values()]),
            "plan.dag_over_gg": 0.0,
            "plan.costings": counters["optimizer.plan_costings"] / n_batches,
            "plan.n_classes": counters["executor.classes_executed"] / n_batches,
            "exec.ms": common.median(
                [s["execute"].wall_ms for s in batches.values()]),
            **{f"exec.class_share.{kind}": 0.0
               for kind in common.OPERATOR_KINDS},
            "exec.rows_scanned_per_result_row": 0.0,
            "storage.seq_pages": io_reads["seq_page_reads"] / n_queries,
            "storage.rand_pages": io_reads["rand_page_reads"] / n_queries,
            "storage.pool_hit_rate": common.share(
                io_reads["buffer_hits"], io_reads["buffer_hits"] + reads),
            "index.union_popcount": 0.0,
            **append_layer,
            "cache.hit_rate": 0.0,
            "cache.invalidations": 0.0,
            "serve.queue_share": common.share(
                queued_ms, sum((r[3] - r[1]) * 1000.0 for phase in measured
                               for r in phase.records if r[4] is not None)),
            "serve.batch_requests.mean": float(np.mean(batch_sizes)),
            "serve.coalesce_ratio": common.share(
                stats["n_queries_submitted"],
                stats["n_queries_planned"] + stats["n_cache_hits"]),
            "serve.hi_over_lo.p50": common.median(hi) / common.median(lo),
            "serve.hi_over_lo.p90":
                common.percentile(hi, 90) / common.percentile(lo, 90),
            "harness.late_ms.p95": common.percentile(
                [ms for phase in measured for ms in phase.late_ms], 95),
            "trace.overhead_frac": common.overhead_frac(
                sum(p.cpu_s for p in passes[0]),
                sum(p.cpu_s for p in passes[1])),
        }
    return common.Outcome(end_to_end, per_layer, attempted, failed, errors,
                          spans)
