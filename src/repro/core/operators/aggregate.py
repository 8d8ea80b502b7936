"""Hash aggregation.

The final stage of every star-join plan in the paper: joined tuples are
hashed on the target group-by attributes and the measure is folded into the
group's accumulator.  The implementation packs the per-dimension target
member ids into a single integer group code (mixed-radix over the target
level cardinalities) and folds each batch (a scan segment, a probe set)
with numpy, which is both fast and matches the per-tuple cost the clock
charges (:meth:`~repro.storage.iostats.IOStats.charge_agg_update`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...schema.query import Aggregate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.iostats import IOStats
from .results import GroupKey, QueryResult


class HashAggregator:
    """Accumulates one query's groups across an arbitrary number of batches.

    ``aggregate`` overrides the fold applied to the input measure column —
    needed when answering a COUNT query from a COUNT view, where the stored
    counts must be *summed* (see
    :func:`repro.schema.lattice.effective_aggregate`).  The result is still
    reported under ``query``.
    """

    def __init__(
        self,
        schema: StarSchema,
        query: GroupByQuery,
        aggregate: Aggregate | None = None,
    ):
        self.schema = schema
        self.query = query
        self.aggregate = aggregate or query.aggregate
        sizes: List[int] = []
        for dim, level in zip(schema.dimensions, query.groupby.levels):
            sizes.append(dim.n_members(level))
        # Mixed-radix strides: code = sum(member_id[d] * stride[d]).
        strides: List[int] = []
        acc = 1
        for size in reversed(sizes):
            strides.append(acc)
            acc *= size
        strides.reverse()
        self._sizes = sizes
        self._strides = np.asarray(strides, dtype=np.int64)
        self._acc: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}

    @property
    def n_groups(self) -> int:
        """Number of result groups."""
        return len(self._acc)

    def update(
        self,
        target_columns: Sequence[np.ndarray],
        measures: np.ndarray,
        stats: IOStats,
    ) -> None:
        """Fold one batch: ``target_columns[d]`` holds the target-level member
        id of each tuple for dimension ``d``; ``measures`` the measure values.
        """
        n = measures.size
        if n == 0:
            return
        stats.charge_agg_update(n)
        codes = np.zeros(n, dtype=np.int64)
        for column, stride in zip(target_columns, self._strides):
            if stride == 1:
                codes += column
            else:
                codes += column * stride
        uniq, inverse = np.unique(codes, return_inverse=True)
        if self.aggregate in (Aggregate.SUM, Aggregate.AVG):
            folded = np.bincount(inverse, weights=measures, minlength=uniq.size)
            for code, value in zip(uniq.tolist(), folded.tolist()):
                self._acc[code] = self._acc.get(code, 0.0) + value
            if self.aggregate is Aggregate.AVG:
                counts = np.bincount(inverse, minlength=uniq.size)
                for code, count in zip(uniq.tolist(), counts.tolist()):
                    self._counts[code] = self._counts.get(code, 0) + count
        elif self.aggregate is Aggregate.COUNT:
            folded = np.bincount(inverse, minlength=uniq.size)
            for code, value in zip(uniq.tolist(), folded.tolist()):
                self._acc[code] = self._acc.get(code, 0.0) + value
        elif self.aggregate in (Aggregate.MIN, Aggregate.MAX):
            ufunc = np.minimum if self.aggregate is Aggregate.MIN else np.maximum
            order = np.argsort(inverse, kind="stable")
            boundaries = np.searchsorted(
                inverse[order], np.arange(uniq.size), side="left"
            )
            folded = ufunc.reduceat(measures[order], boundaries)
            pick = min if self.aggregate is Aggregate.MIN else max
            for code, value in zip(uniq.tolist(), folded.tolist()):
                if code in self._acc:
                    self._acc[code] = pick(self._acc[code], value)
                else:
                    self._acc[code] = value
        else:  # pragma: no cover - Aggregate is a closed enum
            raise NotImplementedError(self.aggregate)

    def _decode_all(self) -> List[GroupKey]:
        """Every accumulated group code decoded to its member-id tuple, in
        accumulation order — one vectorized pass per dimension."""
        codes = np.fromiter(self._acc, dtype=np.int64, count=len(self._acc))
        columns = [
            ((codes // stride) % size).tolist()
            for size, stride in zip(self._sizes, self._strides.tolist())
        ]
        return list(zip(*columns))

    def result(self) -> QueryResult:
        """Finalize and return the accumulated QueryResult.

        AVG results also carry their algebraic (sum, count) state in
        ``avg_state`` so partial results from row-disjoint data shards can
        be merged exactly (sum the sums, sum the counts, divide once).
        """
        keys = self._decode_all()
        if self.aggregate is Aggregate.AVG:
            groups = {}
            avg_state = {}
            for key, (code, value) in zip(keys, self._acc.items()):
                count = self._counts[code]
                groups[key] = value / count
                avg_state[key] = (value, count)
            return QueryResult(
                query=self.query, groups=groups, avg_state=avg_state
            )
        return QueryResult(
            query=self.query, groups=dict(zip(keys, self._acc.values()))
        )
