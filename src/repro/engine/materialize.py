"""Computing materialized group-bys (precomputed aggregates).

OLAP systems speed dimensional queries by precomputing group-bys (the paper's
Section 1 cites the cubing / view-selection literature).  This module
computes a target group-by from the finest available source — materialization
is an offline precomputation step, so it does not charge the query cost
clock.  The computation is column-at-a-time: the source's key columns are
rolled up with rollup arrays, folded into mixed-radix group codes, reduced
with one ``np.unique`` and a grouped fold, and the distinct codes decoded
back into key columns (``codes // strides % sizes``), which are written to
the new table in one bulk append.  Output rows are sorted by dimension key
order, which matches how a cube build would cluster its output and gives
index probes the page locality the paper's Test 2 relies on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..schema.lattice import aggregate_compatible, effective_aggregate
from ..schema.query import Aggregate
from ..schema.star import StarSchema
from ..storage.catalog import TableEntry
from ..storage.page import ColumnBatch
from ..storage.table import HeapTable


def group_code_strides(
    schema: StarSchema, levels: Sequence[int]
) -> np.ndarray:
    """Mixed-radix strides for group codes at ``levels``: each level's
    member count is its radix (ALL counts as 1) and the first dimension is
    the most significant, so code order is key-tuple order."""
    sizes = [
        dim.n_members(level) for dim, level in zip(schema.dimensions, levels)
    ]
    strides = [1]
    for size in reversed(sizes[1:]):
        strides.insert(0, strides[0] * size)
    if strides[0] * sizes[0] > np.iinfo(np.int64).max:
        raise ValueError(
            f"group codes at levels {tuple(levels)} overflow int64"
        )
    return np.asarray(strides, dtype=np.int64)


def group_codes(keys: Sequence[np.ndarray], strides: np.ndarray) -> np.ndarray:
    """Each row's group code, from its per-dimension key columns."""
    return sum(column * stride for column, stride in zip(keys, strides))


def compute_groupby_columns(
    schema: StarSchema,
    source: TableEntry,
    target_levels: Sequence[int],
    aggregate: Aggregate = Aggregate.SUM,
) -> ColumnBatch:
    """Aggregate ``source`` to ``target_levels``.

    The target must be derivable: every target level must be
    coarser-or-equal to the source's stored level on that dimension, and
    ``aggregate`` must re-aggregate over the source's measure (any
    aggregate over raw base data; only the same aggregate over a view,
    with COUNT views re-aggregating by summing their counts).
    Returns the group-by's key columns and value column, sorted by key.
    """
    target_levels = schema.check_levels(target_levels)
    if aggregate is Aggregate.AVG:
        raise ValueError(
            "AVG is not re-aggregable; materialize SUM and COUNT views "
            "instead (AVG queries always read a raw or derived pair)"
        )
    if not aggregate_compatible(aggregate, source.source_aggregate):
        raise ValueError(
            f"cannot build a {aggregate.value.upper()} group-by from "
            f"{source.name!r}, whose measure holds "
            f"{source.source_aggregate!r} rollups"
        )
    fold = effective_aggregate(aggregate, source.source_aggregate)
    for dim, src_level, dst_level in zip(
        schema.dimensions, source.levels, target_levels
    ):
        if dst_level < src_level:
            raise ValueError(
                f"cannot derive level {dst_level} of {dim.name!r} from a "
                f"source stored at level {src_level}"
            )
    source_keys, measures = source.table.column_arrays()
    key_columns: List[np.ndarray] = []
    for d, dim in enumerate(schema.dimensions):
        keys = source_keys[d]
        if target_levels[d] != source.levels[d]:
            keys = dim.rollup_map(source.levels[d], target_levels[d])[keys]
        key_columns.append(keys)
    sizes = [
        dim.n_members(level) for dim, level in zip(schema.dimensions, target_levels)
    ]
    strides = group_code_strides(schema, target_levels)
    codes = group_codes(key_columns, strides)
    uniq, inverse = np.unique(codes, return_inverse=True)
    if fold is Aggregate.SUM:
        folded = np.bincount(inverse, weights=measures, minlength=uniq.size)
    elif fold is Aggregate.COUNT:
        folded = np.bincount(inverse, minlength=uniq.size).astype(np.float64)
    else:
        ufunc = np.minimum if fold is Aggregate.MIN else np.maximum
        order = np.argsort(inverse, kind="stable")
        boundaries = np.searchsorted(
            inverse[order], np.arange(uniq.size), side="left"
        )
        folded = ufunc.reduceat(measures[order], boundaries)
    return [uniq // stride % size for stride, size in zip(strides, sizes)], folded


def pick_materialization_source(
    schema: StarSchema,
    entries: Sequence[TableEntry],
    target_levels: Sequence[int],
    aggregate: Aggregate = Aggregate.SUM,
) -> TableEntry:
    """Choose the cheapest (fewest-rows) existing table able to derive the
    target group-by with the given aggregate."""
    target_levels = tuple(target_levels)
    usable: List[TableEntry] = []
    for entry in entries:
        if all(s <= t for s, t in zip(entry.levels, target_levels)) and (
            aggregate_compatible(aggregate, entry.source_aggregate)
        ):
            usable.append(entry)
    if not usable:
        raise ValueError(
            f"no registered table can derive a {aggregate.value.upper()} "
            f"group-by at levels {target_levels}"
        )
    return min(usable, key=lambda e: (e.n_rows, e.name))


def fact_table(
    schema: StarSchema,
    name: str,
    levels: Sequence[int],
    page_size: int,
    measure_column: Optional[str] = None,
) -> HeapTable:
    """An empty heap table with the star schema's fact layout (one key
    column per dimension, then the measure) whose key columns only accept
    member ids at ``levels``."""
    columns = [dim.name for dim in schema.dimensions]
    columns.append(measure_column or schema.measure)
    domains = [dim.n_members(level) for dim, level in zip(schema.dimensions, levels)]
    return HeapTable(name, columns, page_size=page_size, key_domains=domains)


def build_groupby_table(
    schema: StarSchema,
    source: TableEntry,
    target_levels: Sequence[int],
    name: str,
    page_size: int,
    measure_column: Optional[str] = None,
    aggregate: Aggregate = Aggregate.SUM,
) -> HeapTable:
    """Materialize a group-by into a new (sorted) heap table."""
    table = fact_table(schema, name, target_levels, page_size, measure_column)
    table.append_columns(
        *compute_groupby_columns(schema, source, target_levels, aggregate)
    )
    return table
