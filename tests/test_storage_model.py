"""Model-based test of heap-table storage.

A seeded random sequence of bulk loads and appends (1 to 3 pages' worth of
rows each, so batches cross page boundaries and force the column arrays to
grow) is applied both to a :class:`HeapTable` and to a plain list of row
tuples.  After every step, each read path must agree with the list —
``all_rows``, ``row_at``, ``page(i).columns()``, the shared scan's
segments and ``fetch_positions`` — and the buffer pool must charge, and
keep resident, exactly what a model LRU over the per-page requests
predicts.  Column slices taken before a step must be unchanged after it,
including across the reallocation that growing the arrays takes.
"""

import random
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.operators import pipeline
from repro.core.operators.pipeline import ExecContext, scan_segments
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable

from conftest import make_tiny_schema

#: 3 columns * 4 bytes = 12 bytes a row: 4 rows on a 48-byte page.
PAGE_SIZE = 48
CAPACITY = 4
POOL_PAGES = 3
STEPS = 12


def model_lru(requests, capacity):
    """(misses, hits, resident pages) of an LRU pool of ``capacity`` pages
    serving the page numbers in ``requests`` in order."""
    frames = OrderedDict()
    misses = hits = 0
    for page_no in requests:
        if page_no in frames:
            frames.move_to_end(page_no)
            hits += 1
            continue
        misses += 1
        if len(frames) >= capacity:
            frames.popitem(last=False)
        frames[page_no] = True
    return misses, hits, set(frames)


def random_rows(rng, n):
    return [
        (rng.randrange(12), rng.randrange(8), round(rng.uniform(-50, 50), 2))
        for _ in range(n)
    ]


def as_rows(keys, measures):
    return list(zip(*(k.tolist() for k in keys), measures.tolist()))


def check_reads(table, model, ctx, rng):
    n = len(model)
    assert table.n_rows == n
    assert table.n_pages == -(-n // CAPACITY)
    assert list(table.all_rows()) == model
    for position in rng.sample(range(n), min(n, 10)):
        assert table.row_at(position) == model[position]
    for page_no in range(table.n_pages):
        page = table.page(page_no)
        start = page_no * CAPACITY
        assert (page.start, page.stop) == (start, min(start + CAPACITY, n))
        assert as_rows(*page.columns()) == model[page.start : page.stop]
        assert list(page) == model[page.start : page.stop]


def check_scan(table, model, ctx):
    ctx.pool.flush()
    misses, hits, resident = model_lru(range(table.n_pages), POOL_PAGES)
    before = ctx.stats.snapshot()
    segments = list(scan_segments(ctx, ctx.entry(table.name), "model"))
    delta = ctx.stats.delta_since(before)
    assert (delta.seq_page_reads, delta.buffer_hits) == (misses, hits)
    assert delta.rand_page_reads == 0
    assert sum(s.n_pages for s in segments) == table.n_pages
    assert [s.start for s in segments] == [0] + [s.stop for s in segments[:-1]]
    rows = [row for s in segments for row in as_rows(s.keys, s.measures)]
    assert rows == model
    assert {
        p for p in range(table.n_pages) if ctx.pool.resident(table, p)
    } == resident


def check_fetch(table, model, ctx, rng):
    ctx.pool.flush()
    positions = [rng.randrange(len(model)) for _ in range(rng.randint(1, 15))]
    # Runs of one page share a request; every change of page is a request.
    requests = [
        position // CAPACITY
        for i, position in enumerate(positions)
        if i == 0 or position // CAPACITY != positions[i - 1] // CAPACITY
    ]
    misses, hits, resident = model_lru(requests, POOL_PAGES)
    before = ctx.stats.snapshot()
    keys, measures = table.fetch_positions(ctx.pool, np.asarray(positions))
    delta = ctx.stats.delta_since(before)
    assert as_rows(keys, measures) == [model[p] for p in positions]
    assert (delta.rand_page_reads, delta.buffer_hits) == (misses, hits)
    assert delta.seq_page_reads == 0
    assert {
        p for p in range(table.n_pages) if ctx.pool.resident(table, p)
    } == resident


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_list_model(seed, monkeypatch):
    # Small segments, so scans yield several multi-page slices.
    monkeypatch.setattr(pipeline, "SEGMENT_ROWS", 7)
    rng = random.Random(seed)
    schema = make_tiny_schema()
    table = HeapTable(
        "T", ("X", "Y", "m"), page_size=PAGE_SIZE, key_domains=(12, 8)
    )
    assert table.capacity == CAPACITY
    catalog = Catalog()
    catalog.register(table, (0, 0))
    stats = IOStats()
    ctx = ExecContext(
        schema=schema,
        catalog=catalog,
        pool=BufferPool(stats, capacity_pages=POOL_PAGES),
        stats=stats,
    )
    model = []
    regrown = 0
    for _ in range(STEPS):
        rows = random_rows(rng, rng.randint(1, 3 * CAPACITY))
        old_keys, old_measures = table.column_arrays()
        frozen = as_rows(old_keys, old_measures)
        if rng.random() < 0.5:
            first = table.extend(rows)
        else:
            keys = [np.asarray([row[d] for row in rows]) for d in range(2)]
            first = table.append_columns(keys, [row[2] for row in rows])
        assert first == len(model)
        model.extend(rows)
        # Slices taken before the append still read the same rows ...
        assert as_rows(old_keys, old_measures) == frozen
        # ... including when the append had to reallocate the arrays.
        if old_measures.size and not np.shares_memory(
            old_measures, table.column_arrays()[1]
        ):
            regrown += 1
        check_reads(table, model, ctx, rng)
        check_scan(table, model, ctx)
        check_fetch(table, model, ctx, rng)
    assert regrown > 0
