"""Paged heap tables stored as column arrays.

A :class:`HeapTable` stores its rows column-wise — one ``int64`` array per
dimension-key column plus one ``float64`` measure array (the last column) —
and that is the only stored form of the table.  Its pages
(:class:`~repro.storage.page.Page`) are ``(page_no, start, stop)``
descriptors over those arrays, so a page's columns, or a run of whole
pages, are zero-copy slices.  Row tuples are derived on demand for the
callers that want them (:meth:`HeapTable.all_rows`, :meth:`HeapTable.row_at`,
iterating a page).

Rows are addressed by a dense global *row position* (``page_no * capacity
+ slot``); bitmap join indexes use these positions as bit offsets, exactly
like the paper's "position based" join indexes.

Every append goes through one bulk primitive, :meth:`HeapTable.append_columns`,
which validates the whole batch before writing any of it: keys must be
integral and inside their column's domain, measures numeric and finite.
The arrays grow by reallocation, so a column slice taken before an append
never changes because of it.

Scans and probes go through the owning :class:`~repro.storage.buffer.BufferPool`
so that sequential vs. random I/O is accounted.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import default_registry
from .page import DEFAULT_PAGE_SIZE, ColumnBatch, Page, Row, rows_per_page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .buffer import BufferPool

_table_ids = itertools.count(1)

#: Largest magnitude a float key may have and still be an exact integer.
_MAX_EXACT_FLOAT = 2.0**53


class InvalidDataError(ValueError):
    """A write rejected as a whole: a row of the wrong width, a key that is
    not an integer or lies outside its column's domain, or a measure that
    is not a finite number.  Nothing of the batch was written."""


def _key_column(name: str, values, limit: Optional[int]) -> np.ndarray:
    """``values`` as an ``int64`` key column in ``0 .. limit-1`` (or just
    non-negative without a limit), or InvalidDataError."""
    column = np.asarray(values)
    if column.dtype.kind == "f":
        integral = (np.trunc(column) == column) & (np.abs(column) < _MAX_EXACT_FLOAT)
        if not integral.all():
            bad = column[~integral][0].item()
            raise InvalidDataError(f"key {bad!r} in column {name!r} is not an integer")
    elif column.dtype.kind not in "biu" or column.ndim != 1:
        raise InvalidDataError(
            f"column {name!r} holds non-integer keys or is not 1-d "
            f"({column.ndim}-d {column.dtype})"
        )
    column = column.astype(np.int64, copy=False)
    bad = column < 0 if limit is None else (column < 0) | (column >= limit)
    if bad.any():
        domain = "non-negative" if limit is None else f"0..{limit - 1}"
        raise InvalidDataError(
            f"key {int(column[bad][0])} out of range for column {name!r} ({domain})"
        )
    return column


def _measure_column(name: str, values) -> np.ndarray:
    """``values`` as a finite ``float64`` measure column, or InvalidDataError."""
    column = np.asarray(values)
    if column.dtype.kind not in "biuf" or column.ndim != 1:
        raise InvalidDataError(
            f"column {name!r} holds non-numeric measures or is not 1-d "
            f"({column.ndim}-d {column.dtype})"
        )
    column = column.astype(np.float64, copy=False)
    finite = np.isfinite(column)
    if not finite.all():
        bad = column[~finite][0].item()
        raise InvalidDataError(f"measure {bad!r} in column {name!r} is not finite")
    return column


class HeapTable:
    """An append-only paged table of fixed-width tuples, stored by column.

    The first ``n_columns - 1`` columns are integer keys, the last one the
    numeric measure.  ``key_domains`` (optional) gives each key column's
    domain size: its keys must lie in ``0 .. size-1``.  Without it keys
    need only be non-negative.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        page_size: int = DEFAULT_PAGE_SIZE,
        key_domains: Optional[Sequence[int]] = None,
    ):
        if not columns:
            raise ValueError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {columns!r}")
        self.table_id = next(_table_ids)
        self.name = name
        self.columns = tuple(columns)
        self.page_size = page_size
        self.capacity = rows_per_page(len(columns), page_size)
        self.n_keys = len(columns) - 1
        if key_domains is not None:
            key_domains = tuple(int(size) for size in key_domains)
            if len(key_domains) != self.n_keys:
                raise ValueError(
                    f"{len(key_domains)} key domains for {self.n_keys} key "
                    f"columns of {name!r}"
                )
        self.key_domains: Optional[Tuple[int, ...]] = key_domains
        # The stored data: rows 0 .. n_rows-1 of these (over-allocated) arrays.
        self._keys: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self.n_keys)
        ]
        self._measures = np.empty(0, dtype=np.float64)
        self._n_rows = 0

    # -- geometry ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return -(-self._n_rows // self.capacity)

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Index of a column by name (KeyError if unknown)."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def position_to_page(self, position: int) -> Tuple[int, int]:
        """Map a global row position to ``(page_no, slot)``."""
        if not 0 <= position < self._n_rows:
            raise IndexError(
                f"row position {position} out of range for {self.name!r} "
                f"({self._n_rows} rows)"
            )
        return divmod(position, self.capacity)

    # -- writes ---------------------------------------------------------------

    def append_columns(self, keys: Sequence, measures) -> int:
        """Append rows given column-wise — ``n_keys`` key columns and the
        measure column — and return the first new row's position.

        The table's one append primitive: the whole batch is validated
        (raising :class:`InvalidDataError`) before any of it is written.
        """
        if len(keys) != self.n_keys:
            raise InvalidDataError(
                f"{self.name!r} takes {self.n_keys} key columns, got {len(keys)}"
            )
        measures = _measure_column(self.columns[-1], measures)
        domains = self.key_domains or (None,) * self.n_keys
        columns = [
            _key_column(name, values, limit)
            for name, values, limit in zip(self.columns, keys, domains)
        ]
        if any(column.size != measures.size for column in columns):
            raise InvalidDataError(
                f"ragged columns for {self.name!r}: "
                f"{[c.size for c in columns] + [measures.size]} values"
            )
        start = self._n_rows
        stop = start + measures.size
        if stop > self._measures.size:
            self._grow(stop)
        for stored, column in zip(self._keys, columns):
            stored[start:stop] = column
        self._measures[start:stop] = measures
        self._n_rows = stop
        return start

    def extend(self, rows: Iterable[Row]) -> int:
        """Append row tuples: converted to columns once and written by
        :meth:`append_columns`.  Returns the first new row's position."""
        rows = list(rows)
        width = len(self.columns)
        for row in rows:
            if len(row) != width:
                raise InvalidDataError(
                    f"row width {len(row)} != table width {width} for {self.name!r}"
                )
        if not rows:
            return self._n_rows
        columns = list(zip(*rows))
        return self.append_columns(columns[:-1], columns[-1])

    def append(self, row: Row) -> int:
        """Append one row; return its global row position."""
        return self.extend([row])

    def set_measures(self, positions, values) -> None:
        """Overwrite the measure of existing rows in place (incremental view
        maintenance); keys and positions never change."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and not (
            0 <= positions.min() and positions.max() < self._n_rows
        ):
            raise IndexError(f"row positions out of range for {self.name!r}")
        self._measures[positions] = _measure_column(self.columns[-1], values)

    def _grow(self, needed: int) -> None:
        """Reallocate the arrays to hold at least ``needed`` rows (doubling,
        so appends are amortized O(1) per row).  Earlier slices keep the
        old arrays, unchanged."""
        size = max(needed, 2 * self._measures.size)
        n = self._n_rows

        def grown(old: np.ndarray) -> np.ndarray:
            new = np.empty(size, dtype=old.dtype)
            new[:n] = old[:n]
            return new

        self._keys = [grown(column) for column in self._keys]
        self._measures = grown(self._measures)

    # -- reads (unaccounted; operators must go through the buffer pool) ------

    def page(self, page_no: int) -> Page:
        """The page at the given number (unaccounted)."""
        if not 0 <= page_no < self.n_pages:
            raise IndexError(
                f"page {page_no} out of range for {self.name!r} ({self.n_pages} pages)"
            )
        return Page(self, page_no)

    def column_arrays(self, start: int = 0, stop: Optional[int] = None) -> ColumnBatch:
        """Rows ``start .. stop-1`` (default: all) column-wise, as zero-copy
        slices of the stored arrays (unaccounted)."""
        stop = self._n_rows if stop is None else min(stop, self._n_rows)
        return (
            [column[start:stop] for column in self._keys],
            self._measures[start:stop],
        )

    def all_rows(self) -> Iterator[Row]:
        """Iterate every row, derived page by page, without I/O accounting
        (tests, the reference oracle and loading only)."""
        for page_no in range(self.n_pages):
            yield from Page(self, page_no)

    def row_at(self, position: int) -> Row:
        """The row at a global position (unaccounted)."""
        self.position_to_page(position)
        return tuple(int(column[position]) for column in self._keys) + (
            float(self._measures[position]),
        )

    # -- accounted access ------------------------------------------------------

    def scan_pages(self, pool: "BufferPool") -> Iterator[Page]:
        """Sequentially scan all pages through the buffer pool."""
        faults = getattr(pool, "faults", None)
        if faults is not None:
            faults.check("storage.scan", table=self.name)
        metrics = default_registry()
        metrics.counter("table.scans", "full sequential table scans").inc()
        scan_pages = metrics.counter(
            "table.scan_pages", "pages fetched by sequential scans"
        )
        for page_no in range(self.n_pages):
            page = pool.get_page(self, page_no, sequential=True)
            # Counted once fetched, so a scan aborted by a fault reports
            # only the pages it really read.
            scan_pages.inc()
            yield page

    def fetch_positions(self, pool: "BufferPool", positions: np.ndarray) -> ColumnBatch:
        """Positional fetch: gather the rows at ``positions`` column-wise,
        in input order.

        Charges one random page read per *page change* in first-touch order
        (consecutive positions on one page share the fetch, as a real probe
        of sorted RIDs would; a revisit after an intervening page fetches
        again), counts each in the ``table.probe_pages`` metric, and checks
        each read's fault site.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return self.column_arrays(0, 0)
        if int(positions.min()) < 0 or int(positions.max()) >= self._n_rows:
            bad = positions[(positions < 0) | (positions >= self._n_rows)][0]
            raise IndexError(
                f"row position {int(bad)} out of range for {self.name!r} "
                f"({self._n_rows} rows)"
            )
        probe_pages = default_registry().counter(
            "table.probe_pages", "distinct pages fetched by random probes"
        )
        page_nos = positions // self.capacity
        # The first page of each run of equal page numbers, in order.
        runs = page_nos[np.concatenate(([True], page_nos[1:] != page_nos[:-1]))]
        for page_no in runs.tolist():
            pool.get_page(self, page_no, sequential=False)
            probe_pages.inc()
        return [column[positions] for column in self._keys], self._measures[positions]

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapTable({self.name!r}, {self._n_rows} rows, "
            f"{self.n_pages} pages, cols={list(self.columns)})"
        )
