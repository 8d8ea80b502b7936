"""Unit tests for heap tables, including I/O accounting via the pool."""

import numpy as np
import pytest

from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.table import HeapTable


def make_table(n_rows=100, page_size=80):
    # 3 columns * 4 bytes = 12 bytes/row -> 6 rows per 80-byte page.
    table = HeapTable("t", ("a", "b", "m"), page_size=page_size)
    table.extend((i, i % 7, float(i)) for i in range(n_rows))
    return table


class TestGeometry:
    def test_counts(self):
        table = make_table(100)
        assert table.n_rows == 100
        assert table.capacity == 6
        assert table.n_pages == 17  # ceil(100 / 6)

    def test_column_index(self):
        table = make_table(1)
        assert table.column_index("b") == 1
        with pytest.raises(KeyError):
            table.column_index("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            HeapTable("bad", ("a", "a"))

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            HeapTable("bad", ())

    def test_position_mapping(self):
        table = make_table(20)
        assert table.position_to_page(0) == (0, 0)
        assert table.position_to_page(6) == (1, 0)
        assert table.position_to_page(13) == (2, 1)
        with pytest.raises(IndexError):
            table.position_to_page(20)
        with pytest.raises(IndexError):
            table.position_to_page(-1)


class TestReadsAndWrites:
    def test_row_width_checked(self):
        table = make_table(0)
        with pytest.raises(ValueError):
            table.append((1, 2))

    def test_row_at(self):
        table = make_table(50)
        assert table.row_at(0) == (0, 0, 0.0)
        assert table.row_at(49) == (49, 0, 49.0)

    def test_all_rows_order(self):
        table = make_table(30)
        assert [r[0] for r in table.all_rows()] == list(range(30))


class TestAccountedAccess:
    def test_scan_charges_sequential(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        rows = [row for page in table.scan_pages(pool) for row in page]
        assert len(rows) == 100
        assert stats.seq_page_reads == table.n_pages
        assert stats.rand_page_reads == 0

    @pytest.mark.parametrize("fault_page", [0, 1, 9, 16])
    def test_scan_pages_metric_counts_only_fetched_pages(self, fault_page):
        # A storage.page_read fault on page k aborts the scan after k
        # fetched pages; the metric must not claim the whole table.
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        pool.faults = FaultPlan(
            [InjectionPoint(site="storage.page_read", nth=fault_page + 1)]
        )
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            fetched = 0
            with pytest.raises(InjectedFault):
                for _page in table.scan_pages(pool):
                    fetched += 1
            assert fetched == fault_page
            assert fresh.get("table.scan_pages").value == fault_page
            assert stats.seq_page_reads == fault_page
        finally:
            set_default_registry(previous)

    def test_probe_charges_one_random_read_per_distinct_page(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=64)
        # Positions 0,1,2 share page 0; 6 is page 1; 13 page 2.
        keys, _measures = table.fetch_positions(pool, [0, 1, 2, 6, 13])
        assert keys[0].tolist() == [0, 1, 2, 6, 13]
        assert stats.rand_page_reads == 3
        assert stats.seq_page_reads == 0

    def test_probe_returns_correct_rows(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=64)
        keys, measures = table.fetch_positions(pool, [5, 50, 99])
        rows = list(zip(keys[0].tolist(), keys[1].tolist(), measures.tolist()))
        assert rows == [(p, p % 7, float(p)) for p in (5, 50, 99)]

    def test_probe_revisiting_page_after_leaving_recharges(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=1)
        # Page sequence 0 -> 1 -> 0; the pool holds one page, and the probe
        # re-fetches when the page number changes.
        table.fetch_positions(pool, [0, 6, 1])
        assert stats.rand_page_reads == 3
        # With room in the pool the revisit is a buffer hit instead.
        stats = IOStats()
        table.fetch_positions(BufferPool(stats, capacity_pages=64), [0, 6, 1])
        assert (stats.rand_page_reads, stats.buffer_hits) == (2, 1)


class TestBatchAccess:
    def test_page_columns_match_scan_pages(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=4)
        rows = [
            (int(keys[0][i]), int(keys[1][i]), float(measures[i]))
            for page in table.scan_pages(pool)
            for keys, measures in [page.columns()]
            for i in range(measures.size)
        ]
        assert stats.seq_page_reads == table.n_pages
        assert stats.rand_page_reads == 0
        assert rows == list(table.all_rows())

    def test_fetch_positions_matches_row_at(self):
        table = make_table(100)
        positions = np.asarray([0, 1, 2, 6, 13, 7, 0, 99], dtype=np.int64)
        stats = IOStats()
        keys, measures = table.fetch_positions(
            BufferPool(stats, capacity_pages=64), positions
        )
        fetched = [
            (int(keys[0][i]), int(keys[1][i]), float(measures[i]))
            for i in range(positions.size)
        ]
        assert fetched == [table.row_at(p) for p in positions.tolist()]
        # One page request per page *change* (pages 0,1,2,1,0,16): four
        # misses charged as random reads, the two revisits buffer hits.
        assert (stats.rand_page_reads, stats.buffer_hits) == (4, 2)
        assert stats.seq_page_reads == 0

    def test_fetch_positions_recharges_on_page_revisit(self):
        table = make_table(100)
        stats = IOStats()
        pool = BufferPool(stats, capacity_pages=1)
        table.fetch_positions(pool, np.asarray([0, 6, 1], dtype=np.int64))
        assert stats.rand_page_reads == 3

    def test_fetch_positions_empty(self):
        table = make_table(10)
        stats = IOStats()
        keys, measures = table.fetch_positions(
            BufferPool(stats, capacity_pages=4),
            np.empty(0, dtype=np.int64),
        )
        assert [k.size for k in keys] == [0, 0]
        assert measures.size == 0
        assert stats.rand_page_reads == 0
