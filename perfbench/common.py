"""What every workload shares: the metric table, benchmark-owned spans,
statistics, seeded set-up, answer checks and the write probe.

The benchmark drives only the program's public API.  Wall times come from
the benchmark's own timers and spans around calls into the program; counts
come from values the program returns (plans, execution reports, storage
counter snapshots, cache and service statistics).
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import resource
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.check import reference_answer
from repro.check.paranoia import first_divergence
from repro.engine.session import query_key
from repro.mdx import translate_mdx
from repro.workload import PaperConfig, build_paper_database, generate_fact_rows

#: End-to-end metrics, reported by the untraced run of every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "queries_per_s": "1/s",
    "goodput_rps": "1/s",
    "sim_ms_per_query": "ms",
    "append_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

#: Operator kinds the executor's class actuals are grouped into.
OPERATOR_KINDS = ("hash", "index", "hybrid", "dag")

#: Per-layer metrics, reported by the traced run of every workload.  A
#: layer a workload does not exercise, or whose values the program does not
#: return on that path, reads 0.
PER_LAYER: Dict[str, str] = {
    "mdx.translate_ms": "ms",
    "plan.ms": "ms",
    "plan.dag_over_gg": "ratio",
    "plan.costings": "count",
    "plan.n_classes": "count",
    "exec.ms": "ms",
    **{f"exec.class_share.{kind}": "ratio" for kind in OPERATOR_KINDS},
    "exec.rows_scanned_per_result_row": "ratio",
    "storage.seq_pages": "count",
    "storage.rand_pages": "count",
    "storage.pool_hit_rate": "ratio",
    "index.union_popcount": "count",
    "append.ms_per_krow": "ms",
    "append.view_groups": "count",
    "cache.hit_rate": "ratio",
    "cache.invalidations": "count",
    "serve.queue_share": "ratio",
    "serve.batch_requests.mean": "count",
    "serve.coalesce_ratio": "ratio",
    "serve.hi_over_lo.p50": "ratio",
    "serve.hi_over_lo.p90": "ratio",
    "harness.late_ms.p95": "ms",
    "trace.overhead_frac": "ratio",
}

#: Wall times are reported at a nominal host speed: each is multiplied by
#: NOMINAL_PROBE_MS over the speed probe's wall time measured next to it.
#: The probe's time moves with the host (other tenants, clock changes) as
#: the program's does, so the ratio cancels host drift that would otherwise
#: swamp a run-to-run comparison on a shared machine.
NOMINAL_PROBE_MS = 2.0
#: Probe samples on each side of an operation that set its scale.
PROBE_WINDOW = 4
#: A read answered later than this counts against goodput.
LATENCY_LIMIT_MS = 1000.0
#: Database builds per run; ``setup_s`` is their median.
SETUP_BUILDS = 5
#: Fact rows per append, on every workload.
APPEND_ROWS = 200
#: Appends of the write probe that ends the read-only workloads.
PROBE_APPENDS = 50


_PROBE_KEYS = np.random.default_rng(0).integers(0, 1000, 4096)


def speed_probe_ms() -> float:
    """Wall ms of a fixed task shaped like the program's inner loops: small
    numpy calls on 32-row slices feeding a dict keyed by tuples."""
    started = time.perf_counter()
    counts: Dict[tuple, int] = {}
    for start in range(0, len(_PROBE_KEYS), 32):
        members, n = np.unique(_PROBE_KEYS[start:start + 32] % 13,
                               return_counts=True)
        for member, k in zip(members.tolist(), n.tolist()):
            key = (member, start & 7)
            counts[key] = counts.get(key, 0) + k
    return (time.perf_counter() - started) * 1000.0


class HostSpeed:
    """Speed-probe samples taken between operations, and the scale that
    converts a wall time measured near them to the nominal host speed."""

    def __init__(self):
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.times.append(time.perf_counter())
            self.samples.append(speed_probe_ms())

    def scale(self) -> float:
        """Scale from every sample so far."""
        return NOMINAL_PROBE_MS / median(self.samples)

    def scale_at(self, when: float) -> float:
        """Scale from the samples nearest to ``perf_counter`` time ``when``:
        the first one taken after it and :data:`PROBE_WINDOW` on each side."""
        i = bisect.bisect_left(self.times, when)
        window = self.samples[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        return NOMINAL_PROBE_MS / median(window or self.samples)


class InvalidRun(RuntimeError):
    """The load generator could not keep to its schedule; the run measured
    the harness, not the program, and reports nothing."""


@dataclass
class Outcome:
    """One run's metrics and operation counts."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    #: Why a failure happened, one line each (printed to stderr).
    errors: List[str] = field(default_factory=list)
    #: The traced pass's spans (empty when untraced).
    spans: Optional["Spans"] = None


class Spans:
    """Spans the benchmark records around its calls into the program.

    Each span is a name, a start and an end (``perf_counter`` seconds), the
    span that encloses it on the same thread, and an operation id.  Spans
    stay in memory until :meth:`write`.  A disabled instance records
    nothing, so an untraced pass pays one no-op context manager per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, op, parent, span_id)

    def add(self, name, start, end, op, parent=None, span_id=None) -> None:
        """Record a span measured elsewhere (e.g. across two threads)."""
        if not self.enabled:
            return
        if span_id is None:
            span_id = next(self._ids)
        record = {"id": span_id, "name": name, "start": start, "end": end,
                  "parent": parent, "op": op}
        with self._lock:
            self.records.append(record)

    def self_ms(self, name: str) -> List[float]:
        """Self times of every span called ``name``: its duration minus the
        durations of the spans it encloses."""
        children = defaultdict(float)
        for record in self.records:
            if record["parent"] is not None:
                children[record["parent"]] += record["end"] - record["start"]
        return [
            (r["end"] - r["start"] - children[r["id"]]) * 1000.0
            for r in self.records
            if r["name"] == name
        ]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Serve-layer metrics of a closed loop: one client, so no queue, one
#: request per batch and nothing coalesced.
CLOSED_LOOP_SERVE = {
    "serve.queue_share": 0.0,
    "serve.batch_requests.mean": 1.0,
    "serve.coalesce_ratio": 1.0,
    "serve.hi_over_lo.p50": 0.0,
    "serve.hi_over_lo.p90": 0.0,
}

#: Counts an execution report carries, summed over its classes.
EXECUTION_COUNTS = ("seq_pages", "rand_pages", "pool_hits", "union_popcount",
                    "rows_scanned", "result_rows")


def execution_counts(report) -> dict:
    """Storage, index and operator counts of one execution report, and its
    class wall ms by operator kind (``class_ms``)."""
    counts = dict.fromkeys(EXECUTION_COUNTS, 0)
    counts["class_ms"] = defaultdict(float)
    for execution in report.class_executions:
        counts["seq_pages"] += execution.sim.seq_page_reads
        counts["rand_pages"] += execution.sim.rand_page_reads
        counts["pool_hits"] += execution.sim.buffer_hits
        counts["result_rows"] += sum(r.n_groups for r in execution.results)
        actuals = execution.actuals
        counts["union_popcount"] += actuals.union_popcount
        counts["rows_scanned"] += actuals.rows_scanned
        kind = operator_kind(actuals.operator)
        counts["class_ms"][kind] += execution.wall_s * 1000.0
    return counts


def execution_layers(totals: dict, records, n_queries: int) -> dict:
    """Executor, storage and index metrics of a closed loop, from counts
    summed over its executions (``totals``) and the operations' records."""
    class_ms = defaultdict(float)
    for record in records:
        for kind, ms in record["class_ms"].items():
            class_ms[kind] += ms
    total_class_ms = sum(class_ms.values())
    hits = totals["pool_hits"]
    reads = totals["seq_pages"] + totals["rand_pages"]
    return {
        **{f"exec.class_share.{kind}": share(class_ms[kind], total_class_ms)
           for kind in OPERATOR_KINDS},
        "exec.rows_scanned_per_result_row":
            totals["rows_scanned"] / totals["result_rows"],
        "storage.seq_pages": totals["seq_pages"] / n_queries,
        "storage.rand_pages": totals["rand_pages"] / n_queries,
        "storage.pool_hit_rate": share(hits, hits + reads),
        "index.union_popcount": totals["union_popcount"] / n_queries,
    }


def operator_kind(operator: str) -> str:
    """Group an operator class name (``SharedHybridStarJoin``, ...)."""
    for kind in ("dag", "hybrid", "index", "hash"):
        if kind in operator.lower():
            return kind
    raise ValueError(f"unknown operator {operator!r}")


def seeded(workload: str, purpose: str, seed: int) -> random.Random:
    """An RNG for one purpose of one workload, derived from the seed."""
    return random.Random(f"{workload}:{purpose}:{seed}")


def paper_config(workload: str, seed: int, scale: float) -> PaperConfig:
    """The paper database's configuration, its fact data drawn from the seed."""
    data_seed = seeded(workload, "data", seed).randrange(2**31)
    return PaperConfig(scale=scale, seed=data_seed)


def build_database(config: PaperConfig, speed: HostSpeed):
    """Build the database :data:`SETUP_BUILDS` times; returns the last build
    and the median build time in seconds at the nominal host speed."""
    times = []
    db = None
    for _ in range(SETUP_BUILDS):
        db = None  # free the previous build before timing the next
        started = time.perf_counter()
        db = build_paper_database(config=config)
        done = time.perf_counter()
        speed.sample(PROBE_WINDOW + 1)
        times.append((done - started) * speed.scale_at(done))
    return db, median(times)


def translate(schema, text: str, spans: Spans, op) -> list:
    """One ``translate_mdx`` call inside a ``translate`` span."""
    with spans.span("translate", op=op):
        return translate_mdx(schema, text)


class References:
    """Reference answers (:func:`repro.check.reference_answer`) keyed by
    query identity, recomputed when the data epoch moves."""

    def __init__(self, db):
        self.db = db
        self._epoch = db.data_version
        self._answers: Dict[tuple, object] = {}

    def expected(self, query):
        if self.db.data_version != self._epoch:
            self._epoch = self.db.data_version
            self._answers.clear()
        key = query_key(query)
        if key not in self._answers:
            self._answers[key] = reference_answer(self.db, query)
        return self._answers[key]

    def mismatch(self, query, result) -> Optional[str]:
        """None when ``result`` equals the reference, else a description."""
        expected = self.expected(query)
        divergence = first_divergence(expected.groups, result.groups)
        if divergence is None:
            return None
        return f"{query.display_name()}: {divergence.describe()}"


def append_batches(schema, workload: str, seed: int, n: int) -> List[list]:
    """``n`` seeded batches of :data:`APPEND_ROWS` fresh fact rows."""
    rng = seeded(workload, "appends", seed)
    return [
        generate_fact_rows(schema, APPEND_ROWS, seed=rng.randrange(2**31))
        for _ in range(n)
    ]


def timed_append(db, rows, spans: Spans, op) -> tuple:
    """One ``append_rows`` call; returns (wall ms, view groups appended)."""
    raw = {entry.name for entry in db.catalog.entries() if entry.is_raw}
    started = time.perf_counter()
    with spans.span("append", op=op):
        report = db.append_rows(rows)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return wall_ms, sum(n for name, n in report.items() if name not in raw)


@dataclass
class WriteProbe:
    append_ms: List[float]
    view_groups: List[int]
    attempted: int
    failed: int
    errors: List[str]


def write_probe(db, batches, spans: Spans, speed: HostSpeed,
                verify_queries) -> WriteProbe:
    """The maintenance window that ends a read-only workload: append every
    batch, then answer ``verify_queries`` once and check them at the new
    data epoch, so maintenance that corrupts a view or index fails the run.
    Append times are at the nominal host speed."""
    measured, view_groups = [], []
    for i, rows in enumerate(batches):
        wall_ms, groups = timed_append(db, rows, spans, op=f"probe-{i}")
        measured.append((wall_ms, time.perf_counter()))
        speed.sample()
        view_groups.append(groups)
    append_ms = [ms * speed.scale_at(done) for ms, done in measured]
    errors = []
    refs = References(db)
    try:
        report = db.run_queries(verify_queries, "gg")
        for query in verify_queries:
            problem = refs.mismatch(query, report.result_for(query))
            if problem:
                errors.append(f"after appends, {problem}")
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        errors.append(f"after appends: {type(exc).__name__}: {exc}")
    return WriteProbe(append_ms, view_groups, len(batches) + 1,
                      int(bool(errors)), errors)


def append_metrics(append_ms: Sequence[float], view_groups: Sequence[int]):
    """The write path's end-to-end and per-layer numbers, from append times
    already at the nominal host speed."""
    end_to_end = {"append_ms.p50": median(append_ms)}
    per_layer = {
        "append.ms_per_krow": median(append_ms) * 1000.0 / APPEND_ROWS,
        "append.view_groups": float(np.mean(view_groups)),
    }
    return end_to_end, per_layer


def overhead_frac(untraced_cpu_s: float, traced_cpu_s: float) -> float:
    """Tracing overhead: the traced pass's extra process CPU time over the
    untraced pass's, for the same operations."""
    return share(traced_cpu_s - untraced_cpu_s, untraced_cpu_s)
