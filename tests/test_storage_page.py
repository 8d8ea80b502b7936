"""Unit tests for fixed-width pages: descriptors over a heap table's
column arrays."""

import numpy as np
import pytest

from repro.storage.page import (
    BYTES_PER_COLUMN,
    DEFAULT_PAGE_SIZE,
    rows_per_page,
)
from repro.storage.table import HeapTable


class TestRowsPerPage:
    def test_paper_geometry(self):
        # The paper's 20-byte five-attribute tuple on an 8 KB page.
        assert rows_per_page(5, 8192) == 8192 // (5 * BYTES_PER_COLUMN)

    def test_small_page(self):
        assert rows_per_page(5, 512) == 512 // 20

    def test_single_column(self):
        assert rows_per_page(1, DEFAULT_PAGE_SIZE) == DEFAULT_PAGE_SIZE // 4

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            rows_per_page(0)

    def test_row_wider_than_page_rejected(self):
        with pytest.raises(ValueError):
            rows_per_page(100, 64)


def make_table(rows, page_size):
    """A heap table of ``rows`` (all the same width) on ``page_size`` pages."""
    names = [f"c{i}" for i in range(len(rows[0]))]
    table = HeapTable("t", names, page_size=page_size)
    table.extend(rows)
    return table


class TestPage:
    def test_append_and_read(self):
        # 3 columns * 4 bytes = 12 bytes/row -> 3 rows per 36-byte page.
        table = HeapTable("t", ("a", "b", "m"), page_size=36)
        assert table.append((1, 2, 3.0)) == 0
        assert table.append((4, 5, 6.0)) == 1
        page = table.page(0)
        assert page[0] == (1, 2, 3.0)
        assert page[1] == (4, 5, 6.0)
        assert len(page) == 2
        assert not page.is_full
        with pytest.raises(IndexError):
            page[2]

    def test_full_page_rejects_append(self):
        table = HeapTable("t", ("m",), page_size=BYTES_PER_COLUMN)
        table.append((1,))
        assert table.page(0).is_full
        # The next row opens a new page; the full one keeps its single row.
        assert table.append((2,)) == 1
        assert [len(table.page(i)) for i in range(table.n_pages)] == [1, 1]
        assert list(table.page(0)) == [(1.0,)]

    def test_zero_capacity_rejected(self):
        # An 8-byte row does not fit a 4-byte page: no table of capacity 0.
        with pytest.raises(ValueError):
            HeapTable("t", ("a", "m"), page_size=4)
        with pytest.raises(IndexError):
            HeapTable("t", ("m",)).page(0)

    def test_iteration_preserves_order(self):
        rows = [(i, float(i)) for i in range(7)]
        table = make_table(rows, page_size=80)
        assert list(table.page(0)) == rows


class TestPackRows:
    def test_dense_packing(self):
        rows = [(i, float(i)) for i in range(10)]
        # 8 bytes per row, 32-byte pages -> 4 rows per page.
        table = make_table(rows, page_size=8 * 4)
        pages = [table.page(i) for i in range(table.n_pages)]
        assert [len(p) for p in pages] == [4, 4, 2]
        assert [p.page_no for p in pages] == [0, 1, 2]
        assert [(p.start, p.stop) for p in pages] == [(0, 4), (4, 8), (8, 10)]

    def test_roundtrip(self):
        rows = [(i, i * 2, float(i)) for i in range(25)]
        table = make_table(rows, page_size=120)
        unpacked = [row for i in range(table.n_pages) for row in table.page(i)]
        assert unpacked == rows

    def test_empty(self):
        table = HeapTable("t", ("a", "b", "m"))
        table.extend([])
        assert table.n_pages == 0
        assert list(table.all_rows()) == []


class TestColumns:
    def test_values_match_rows(self):
        table = make_table([(i, i % 3, float(i) * 1.5) for i in range(5)], 120)
        keys, measures = table.page(0).columns()
        assert [k.dtype == np.int64 for k in keys] == [True, True]
        assert measures.dtype == np.float64
        assert keys[0].tolist() == [0, 1, 2, 3, 4]
        assert keys[1].tolist() == [0, 1, 2, 0, 1]
        assert measures.tolist() == [0.0, 1.5, 3.0, 4.5, 6.0]

    def test_cached_between_calls(self):
        # A page's columns are views of the table's arrays, never copies.
        table = make_table([(1, 2.0), (3, 4.0)], page_size=32)
        first = table.page(0).columns()
        second = table.page(0).columns()
        assert np.shares_memory(first[0][0], second[0][0])
        assert np.shares_memory(first[1], second[1])
        assert np.shares_memory(first[1], table.column_arrays()[1])

    def test_append_invalidates_cache(self):
        table = HeapTable("t", ("k", "m"), page_size=32)
        table.append((1, 2.0))
        keys, _measures = table.page(0).columns()
        assert keys[0].tolist() == [1]
        table.append((7, 8.0))
        keys, measures = table.page(0).columns()
        assert keys[0].tolist() == [1, 7]
        assert measures.tolist() == [2.0, 8.0]

    def test_empty_page(self):
        table = HeapTable("t", ("a", "b", "c", "m"))
        keys, measures = table.column_arrays()
        assert [k.size for k in keys] == [0, 0, 0]
        assert measures.size == 0

    def test_update_invalidates_cache(self):
        table = HeapTable("t", ("k", "m"), page_size=32)
        table.append((1, 2.0))
        assert table.page(0).columns()[1].tolist() == [2.0]
        table.set_measures([0], [9.0])
        keys, measures = table.page(0).columns()
        assert keys[0].tolist() == [1]
        assert measures.tolist() == [9.0]
