"""Incremental maintenance of materialized group-bys and join indexes.

The paper's Section 1 motivates precomputation with the literature on
"techniques for effectively creating and maintaining materialized
group-bys".  This module supplies the maintenance half: appending a batch of
fact rows to the base table propagates, without recomputation, into

* every materialized group-by whose aggregate is insert-maintainable
  (SUM/COUNT/MIN/MAX all are — deletes would break MIN/MAX, and this
  engine's OLAP workload is append-only),
* every join index on the base table and on the views (new row positions
  are added to the affected members' bitmaps / RID lists).

Each view carries a compact **group index**: its groups' mixed-radix codes,
sorted, next to their row positions — two ``int64`` arrays, 16 bytes per
group (see :func:`_group_index`).  An append folds the new rows into one
per-view delta column-wise, finds the delta's groups with one
``np.searchsorted``, updates existing groups in their slots, appends new
groups at the tail and splices their codes in with ``np.insert``.

Maintenance never moves a row: an updated group keeps its position and
key, so a view's join indexes are extended with only the appended groups,
the same way the base table's are.  Appended groups land at the tail, so a
maintained view does lose the page-locality guarantee of a freshly built
one.  The catalog's ``clustered`` flag is cleared accordingly, and the cost
model stops assuming locality for it — exactly what a real system's
statistics would do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..schema.query import Aggregate
from ..storage.catalog import TableEntry
from ..storage.page import Row
from .materialize import group_code_strides, group_codes


class MaintenanceError(RuntimeError):
    """A view or index cannot be incrementally maintained."""


def _group_index(
    entry: TableEntry, strides: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A view's ``(sorted group codes, row positions)``.

    Built from the table's key columns on first use, and again whenever
    it no longer covers every row of the table.
    """
    index = entry._group_index  # noqa: SLF001 - engine-internal state
    if index is not None and index[0].size == entry.table.n_rows:
        return index
    codes = group_codes(entry.table.column_arrays()[0], strides)
    order = np.argsort(codes, kind="stable")
    index = (codes[order], order.astype(np.int64))
    entry._group_index = index  # noqa: SLF001
    return index


def _fold_delta(
    aggregate: Aggregate,
    keys: List[np.ndarray],
    strides: np.ndarray,
    measures: np.ndarray,
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """Fold the new rows' measures per group, in row order (so SUMs are
    bit-identical to a sequential fold).  Returns the groups' sorted codes,
    their key columns and their folded values."""
    uniq, first, inverse = np.unique(
        group_codes(keys, strides), return_index=True, return_inverse=True
    )
    if aggregate is Aggregate.SUM:
        values = np.bincount(inverse, weights=measures, minlength=uniq.size)
    elif aggregate is Aggregate.COUNT:
        values = np.bincount(inverse, minlength=uniq.size).astype(np.float64)
    elif aggregate in (Aggregate.MIN, Aggregate.MAX):
        ufunc = np.minimum if aggregate is Aggregate.MIN else np.maximum
        values = measures[first]
        ufunc.at(values, inverse, measures)
    else:
        raise MaintenanceError(
            f"{aggregate.value.upper()} views are not insert-maintainable"
        )
    return uniq, [column[first] for column in keys], values


def _merge_into_view(
    entry: TableEntry,
    aggregate: Aggregate,
    strides: np.ndarray,
    codes: np.ndarray,
    keys: List[np.ndarray],
    values: np.ndarray,
) -> List[np.ndarray]:
    """Merge a per-group delta (sorted distinct ``codes``, their ``keys``
    columns and folded ``values``) into a view's heap table in place.

    Existing groups are updated in their slots; new groups are appended in
    code order.  Returns the appended groups' key columns.
    """
    view_codes, positions = _group_index(entry, strides)
    slots = np.searchsorted(view_codes, codes)
    found = slots < view_codes.size
    found[found] = view_codes[slots[found]] == codes[found]
    table = entry.table
    targets = positions[slots[found]]
    current = table.column_arrays()[1][targets]
    if aggregate in (Aggregate.SUM, Aggregate.COUNT):
        merged = current + values[found]
    elif aggregate is Aggregate.MIN:
        merged = np.minimum(current, values[found])
    else:
        merged = np.maximum(current, values[found])
    table.set_measures(targets, merged)
    new = ~found
    new_keys = [column[new] for column in keys]
    first_position = table.append_columns(new_keys, values[new])
    new_positions = np.arange(first_position, table.n_rows, dtype=np.int64)
    entry._group_index = (  # noqa: SLF001
        np.insert(view_codes, slots[new], codes[new]),
        np.insert(positions, slots[new], new_positions),
    )
    return new_keys


def _extend_indexes(
    schema, entry: TableEntry, keys: List[np.ndarray], first_position: int
) -> None:
    """Extend every join index on ``entry`` with the rows appended at
    ``first_position``, whose key columns (at the table's stored levels)
    are ``keys``."""
    for (dim_index, level), index in entry.indexes.items():
        rollup = schema.dimensions[dim_index].rollup_map(
            entry.levels[dim_index], level
        )
        _maintain_index(index, rollup[keys[dim_index]], first_position)


def append_rows(
    db, rows: Iterable[Row], base_name: str | None = None
) -> Dict[str, int]:
    """Append fact rows to the base table and maintain every dependent view
    and index incrementally.

    Returns ``{table name: groups appended}`` (0 for updated-in-place-only
    views; the base table reports the row count).  Maintenance is offline
    work and is not charged to the query cost clock.  Traced under a
    ``maintenance.append`` span on ``db.tracer``.
    """
    schema = db.schema
    if base_name is None:
        raw = [entry for entry in db.catalog.entries() if entry.is_raw]
        if not raw:
            raise MaintenanceError("the database has no raw base table")
        if len(raw) > 1:
            names = [entry.name for entry in raw]
            raise MaintenanceError(
                f"several raw tables exist ({names}); pass base_name"
            )
        base = raw[0]
        base_name = base.name
    else:
        base = db.catalog.get(base_name)
    if not base.is_raw:
        raise MaintenanceError(
            f"{base_name!r} is a materialized view, not a base table"
        )
    rows = list(rows)
    report: Dict[str, int] = {}
    if not rows:
        return report
    views = [
        (entry, group_code_strides(schema, entry.levels))
        for entry in db.catalog.entries()
        if not entry.is_raw
    ]

    tracer = db.tracer
    with tracer.span("maintenance.append", rows=len(rows)) as span:
        # 1. Append to the base table.  The table validates the whole batch
        # first (out-of-range keys would silently wrap in the rollup
        # gathers below); the deltas are then computed from what it stored.
        with tracer.span("maintenance.base"):
            first_position = base.table.extend(rows)
        base_keys, measures = base.table.column_arrays(first_position)

        # 2. Maintain the base table's join indexes.
        with tracer.span("maintenance.base_indexes"):
            _extend_indexes(schema, base, base_keys, first_position)

        # 3. Propagate a per-view delta into every materialized group-by.
        with tracer.span("maintenance.views"):
            for entry, strides in views:
                aggregate = Aggregate(entry.source_aggregate)
                keys = [
                    dim.rollup_map(from_level, level)[column]
                    for dim, from_level, level, column in zip(
                        schema.dimensions, base.levels, entry.levels, base_keys
                    )
                ]
                delta = _fold_delta(aggregate, keys, strides, measures)
                view_first = entry.table.n_rows
                new_keys = _merge_into_view(entry, aggregate, strides, *delta)
                appended = entry.table.n_rows - view_first
                report[entry.name] = appended
                if appended:
                    # Appended groups break the sorted invariant.
                    entry.clustered = False
                    _extend_indexes(schema, entry, new_keys, view_first)
        span.set("view_groups", sum(report.values()))

    report[base_name] = len(rows)
    # Answers have changed: bump the mutation epoch so semantic result
    # caches invalidate even when this function is called directly rather
    # than through a wrapped Database.append_rows.
    db.notify_mutation()
    return report


def _maintain_index(index, members: np.ndarray, first_position: int) -> None:
    """Extend a join index with rows appended at ``first_position``, whose
    keys roll up to ``members`` at the index's level."""
    from ..index.bitmap import WORD_BITS, Bitmap
    from ..index.bitmap_index import BitmapJoinIndex
    from ..index.btree import PositionListJoinIndex

    new_total = first_position + members.size
    positions = np.arange(first_position, new_total, dtype=np.int64)
    distinct, rank = np.unique(members, return_inverse=True)
    if isinstance(index, BitmapJoinIndex):
        bitmaps = index._bitmaps  # noqa: SLF001 - engine-internal access
        # The new bits all fall in the words from ``low`` on: OR them up
        # per member in one pass, then grow every bitmap and OR its tail.
        low = first_position // WORD_BITS
        tails = np.zeros(
            (distinct.size, (new_total + WORD_BITS - 1) // WORD_BITS - low),
            dtype=np.uint64,
        )
        np.bitwise_or.at(
            tails,
            (rank, positions // WORD_BITS - low),
            np.uint64(1) << (positions % WORD_BITS).astype(np.uint64),
        )
        for member, bitmap in list(bitmaps.items()):
            bitmaps[member] = bitmap.grown(new_total)
        for member, tail in zip(distinct.tolist(), tails):
            bitmap = bitmaps.get(member)
            if bitmap is None:
                bitmap = bitmaps[member] = Bitmap.zeros(new_total)
            bitmap.words[low:] |= tail
    elif isinstance(index, PositionListJoinIndex):
        rid_lists = index._rid_lists  # noqa: SLF001 - engine-internal access
        # Positions grouped by member, ascending within each group.
        grouped = np.split(
            positions[np.argsort(rank, kind="stable")],
            np.cumsum(np.bincount(rank))[:-1],
        )
        for member, new in zip(distinct.tolist(), grouped):
            existing = rid_lists.get(member)
            rid_lists[member] = (
                new if existing is None else np.concatenate([existing, new])
            )
    else:  # pragma: no cover - the two kinds above are the catalog's
        raise MaintenanceError(f"cannot maintain index type {type(index)!r}")
    index.n_rows = new_total
