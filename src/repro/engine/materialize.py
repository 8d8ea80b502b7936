"""Computing materialized group-bys (precomputed aggregates).

OLAP systems speed dimensional queries by precomputing group-bys (the paper's
Section 1 cites the cubing / view-selection literature).  This module
computes a target group-by from the finest available source — materialization
is an offline precomputation step, so it does not charge the query cost
clock.  Output rows are sorted by dimension key order, which matches how a
cube build would cluster its output and gives index probes the page locality
the paper's Test 2 relies on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..schema.lattice import aggregate_compatible, effective_aggregate
from ..schema.query import Aggregate
from ..schema.star import StarSchema
from ..storage.catalog import TableEntry
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


def compute_groupby_rows(
    schema: StarSchema,
    source: TableEntry,
    target_levels: Sequence[int],
    aggregate: Aggregate = Aggregate.SUM,
) -> List[Tuple]:
    """Aggregate ``source`` to ``target_levels``.

    The target must be derivable: every target level must be
    coarser-or-equal to the source's stored level on that dimension, and
    ``aggregate`` must re-aggregate over the source's measure (any
    aggregate over raw base data; only the same aggregate over a view,
    with COUNT views re-aggregating by summing their counts).
    Returns rows ``(key_0, …, key_{n-1}, value)`` sorted by key.
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
    n_dims = schema.n_dims
    rows = list(source.table.all_rows())
    if not rows:
        return []
    matrix = np.asarray(rows, dtype=np.float64)
    measures = matrix[:, n_dims]
    key_columns: List[np.ndarray] = []
    sizes: List[int] = []
    for d, dim in enumerate(schema.dimensions):
        keys = matrix[:, d].astype(np.int64)
        if target_levels[d] == dim.all_level:
            keys = np.zeros_like(keys)
        elif target_levels[d] != source.levels[d]:
            keys = dim.rollup_map(source.levels[d], target_levels[d])[keys]
        key_columns.append(keys)
        sizes.append(dim.n_members(target_levels[d]))
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
    out: List[Tuple] = []
    for code, total in zip(uniq.tolist(), folded.tolist()):
        key = []
        for d in range(n_dims):
            key.append(int(code // strides[d]) % sizes[d] if sizes[d] > 1 else 0)
        out.append(tuple(key) + (total,))
    return out


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
    columns = [dim.name for dim in schema.dimensions]
    columns.append(measure_column or schema.measure)
    table = HeapTable(name, columns, page_size=page_size)
    table.extend(
        compute_groupby_rows(schema, source, target_levels, aggregate)
    )
    return table
