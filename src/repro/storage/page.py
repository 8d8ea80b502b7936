"""Fixed-width pages: numbered windows over a heap table's column arrays.

A heap table (:mod:`repro.storage.table`) stores its data column-wise, as
one ``int64`` array per dimension-key column plus one ``float64`` measure
array.  A :class:`Page` holds no data of its own: page ``page_no`` is the
row range ``start .. stop-1`` with ``start = page_no * capacity`` and
``stop`` capped by the table's row count.  The byte-level layout is only
*accounted* (row width in bytes drives page capacity and hence I/O cost),
which preserves the paper's I/O arithmetic (e.g. its 20-byte,
five-attribute base tuples) without serializing anything.

:meth:`Page.columns` is a zero-copy slice of the table's arrays — what the
shared operators (see :mod:`repro.core.operators`) read.  Row tuples
(iteration and indexing) are derived from those slices on demand, for the
callers that want rows: tests, the reference oracle, debugging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .table import HeapTable

Row = Tuple  # a fixed-width tuple of ints (keys) and a numeric measure

#: A run of rows column-wise: per-key ``int64`` arrays and the ``float64``
#: measure column, aligned by slot.
ColumnBatch = Tuple[List[np.ndarray], np.ndarray]

#: Default page size, matching the common 8 KB database page.
DEFAULT_PAGE_SIZE = 8192

#: Accounted bytes per column: 4-byte integers / 4-byte floats, as in the
#: paper's 20-byte five-column base tuple.
BYTES_PER_COLUMN = 4


def rows_per_page(n_columns: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """How many ``n_columns``-wide rows fit in one page of ``page_size`` bytes."""
    if n_columns <= 0:
        raise ValueError("a row must have at least one column")
    width = n_columns * BYTES_PER_COLUMN
    capacity = page_size // width
    if capacity <= 0:
        raise ValueError(
            f"page of {page_size} bytes cannot hold a {width}-byte row"
        )
    return capacity


def batch_rows(keys: List[np.ndarray], measures: np.ndarray) -> Iterator[Row]:
    """The row tuples ``(key_0, …, key_{n-1}, measure)`` of a column batch,
    as Python ints and a float."""
    return zip(*(column.tolist() for column in keys), measures.tolist())


class Page:
    """Page ``page_no`` of ``table``: a descriptor, made on demand.

    Its bounds are computed from the table, so a page that is not yet full
    grows as rows are appended, whoever holds it (the buffer pool keeps
    pages as its frames).
    """

    __slots__ = ("table", "page_no")

    def __init__(self, table: "HeapTable", page_no: int):
        self.table = table
        self.page_no = page_no

    @property
    def start(self) -> int:
        """Position of the page's first row."""
        return self.page_no * self.table.capacity

    @property
    def stop(self) -> int:
        """One past the position of the page's last row."""
        return min(self.start + self.table.capacity, self.table.n_rows)

    @property
    def is_full(self) -> bool:
        """True when the page has no free slot."""
        return len(self) >= self.table.capacity

    def columns(self) -> ColumnBatch:
        """The page's key columns and measure column: zero-copy slices of
        the table's arrays."""
        return self.table.column_arrays(self.start, self.stop)

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self) -> Iterator[Row]:
        return batch_rows(*self.columns())

    def __getitem__(self, slot: int) -> Row:
        if not 0 <= slot < len(self):
            raise IndexError(f"slot {slot} out of range for page {self.page_no}")
        return self.table.row_at(self.start + slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page(no={self.page_no}, rows={len(self)}/{self.table.capacity})"
