"""The Section 5.1 cost model.

For a query ``X`` computed from a base table ``B``:

* hash-based star join: ``C = Cost_CPU + ΔCost_IO`` — the scan of ``B`` is
  the class's shared I/O; the query's own cost is CPU (probe, filter, copy,
  aggregate).
* index-based star join: ``C = Cost_CPU + Cost_IO_index + ΔCost_IO`` — the
  index lookups are private; the base-table probe is shared through the
  union bitmap (or becomes free when another class member already scans
  ``B``, Section 3.3).

The model mirrors the charges the executor actually makes, unit for unit, so
estimated and simulated cost correlate (checked by an ablation benchmark).
Estimates assume uniformly distributed data — the standard optimizer
assumption — plus a page-locality correction for tables clustered on their
leading dimension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...index.bitmap import WORD_BITS
from ...schema.lattice import (
    estimate_groupby_rows,
    expected_distinct,
    source_can_answer,
)
from ...schema.query import DimPredicate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.catalog import Catalog, TableEntry
from ...storage.iostats import CostRates
from .plans import JoinMethod


@dataclass
class ClassCosting:
    """The outcome of costing one class: total cost plus the per-query join
    methods the model picked (aligned with the query list passed in)."""

    source: str
    cost_ms: float
    methods: List[JoinMethod]
    shared_io_ms: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)


def _per_entry_query(method):
    """Memoize a ``(entry, query)`` estimate per model instance, keyed by
    (entry name, qid) — the lifetime contract of ``_standalone_cache``."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, entry: TableEntry, query: GroupByQuery):
        key = (name, entry.name, query.qid)
        try:
            return self._estimates[key]
        except KeyError:
            value = self._estimates[key] = method(self, entry, query)
            return value

    return memoized


class CostModel:
    """Estimates local-plan and class costs over the current catalog.

    ``statistics`` (the output of :func:`repro.engine.statistics.analyze`)
    switches predicate selectivities from the uniform assumption to measured
    frequencies for analyzed tables.
    """

    def __init__(
        self,
        schema: StarSchema,
        catalog: Catalog,
        rates: CostRates,
        statistics: Optional[Dict[str, object]] = None,
        dim_tables: Optional[Dict[str, object]] = None,
    ):
        self.schema = schema
        self.catalog = catalog
        self.rates = rates
        self.statistics = statistics or {}
        self.dim_tables = dim_tables or {}
        #: Number of class costings performed — the optimizers' search
        #: effort metric (the paper's future-work trade-off: GG searches
        #: more global plans than ETPLG, which searches more than TPLO).
        self.n_plan_costings = 0
        # Single-query costings recur constantly during greedy search; they
        # are memoized for the lifetime of this model (one optimize run).
        self._standalone_cache: Dict[Tuple[str, int], Optional[Tuple[JoinMethod, float]]] = {}
        # Per-(entry, query) elementary estimates, under the same contract.
        self._estimates: Dict[Tuple[str, str, int], object] = {}

    # -- selectivity (uniform by default, measured when analyzed) -------------

    def predicate_selectivity(
        self, entry: TableEntry, predicate
    ) -> float:
        """Selectivity of one predicate (measured when statistics exist, else uniform)."""
        stats = self.statistics.get(entry.name)
        if stats is not None:
            measured = stats.predicate_selectivity(self.schema, predicate)
            if measured is not None:
                return measured
        return predicate.selectivity(self.schema)

    def query_selectivity(self, entry: TableEntry, query: GroupByQuery) -> float:
        """Product of the query's predicate selectivities on this source."""
        sel = 1.0
        for predicate in query.predicates:
            sel *= self.predicate_selectivity(entry, predicate)
        return sel

    # -- feasibility ------------------------------------------------------------

    def find_index(
        self, entry: TableEntry, predicate: DimPredicate
    ) -> Optional[Tuple[object, int]]:
        """The index usable for ``predicate`` on ``entry`` and the number of
        member payloads a lookup retrieves, or None."""
        dim = self.schema.dimensions[predicate.dim_index]
        stored = entry.levels[predicate.dim_index]
        for level in range(predicate.level, stored - 1, -1):
            index = entry.index_for(predicate.dim_index, level)
            if index is not None:
                if level == predicate.level:
                    n_lookups = len(predicate.member_ids)
                else:
                    per_member = dim.n_members(level) / dim.n_members(
                        predicate.level
                    )
                    n_lookups = int(
                        math.ceil(len(predicate.member_ids) * per_member)
                    )
                return index, n_lookups
        return None

    def can_index(self, entry: TableEntry, query: GroupByQuery) -> bool:
        """True if an index-based plan for ``query`` on ``entry`` exists —
        i.e. at least one predicate has a usable join index (the rest become
        residual filters)."""
        return any(
            self.find_index(entry, pred) is not None
            for pred in query.predicates
        )

    # -- elementary estimates ------------------------------------------------------

    def _probe_dims(self, query: GroupByQuery) -> int:
        """Dimensions whose hash table each tuple probes (mirrors
        :class:`QueryPipeline`)."""
        count = 0
        for d, dim in enumerate(self.schema.dimensions):
            target = query.groupby.levels[d]
            if target != dim.all_level or query.predicate_on(d) is not None:
                count += 1
        return count

    def _bitmap_words(self, entry: TableEntry) -> int:
        return (entry.n_rows + WORD_BITS - 1) // WORD_BITS

    @_per_entry_query
    def _matching_rows(self, entry: TableEntry, query: GroupByQuery) -> float:
        return entry.n_rows * self.query_selectivity(entry, query)

    def _process_cpu_ms(
        self, query: GroupByQuery, n_fed: float, n_pass: float
    ) -> float:
        """CPU to feed ``n_fed`` tuples through the query's pipeline, of
        which ``n_pass`` survive the filters."""
        r = self.rates
        return (
            n_fed * self._probe_dims(query) * r.hash_probe_ms
            + n_fed * len(query.predicates) * r.predicate_eval_ms
            + n_pass * (r.tuple_copy_ms + r.agg_update_ms)
        )

    def _builds_cpu_ms(
        self, entry: TableEntry, queries: Sequence[GroupByQuery]
    ) -> float:
        """Shared dimension-hash-table build cost: one rollup map per
        (dimension, target level) and one mask per distinct predicate."""
        r = self.rates
        maps: set = set()
        masks: set = set()
        for query in queries:
            for d, dim in enumerate(self.schema.dimensions):
                stored = entry.levels[d]
                target = query.groupby.levels[d]
                if target not in (stored, dim.all_level):
                    maps.add((d, target))
                pred = query.predicate_on(d)
                if pred is not None:
                    masks.add((d, pred.level, pred.member_ids))
        total = 0.0
        scan_ms = 0.0
        for d, _target in maps:
            total += self.schema.dimensions[d].n_members(entry.levels[d])
            scan_ms += self._dim_scan_ms(d)
        for d, _level, _members in masks:
            total += self.schema.dimensions[d].n_members(entry.levels[d])
            scan_ms += self._dim_scan_ms(d)
        return total * r.hash_build_ms + scan_ms

    def _dim_scan_ms(self, dim_index: int) -> float:
        """I/O to scan a stored dimension table for one structure build
        (zero when dimensions live in metadata only)."""
        dim_table = self.dim_tables.get(self.schema.dimensions[dim_index].name)
        if dim_table is None:
            return 0.0
        return dim_table.n_pages * self.rates.seq_page_read_ms

    @_per_entry_query
    def _index_phase(
        self, entry: TableEntry, query: GroupByQuery
    ) -> Optional[Tuple[float, float, float]]:
        """(io_ms, cpu_ms, indexed_selectivity) of building the query's
        result bitmap, or None when infeasible.

        ``indexed_selectivity`` is the product over *indexed* predicates
        only; unindexed predicates do not narrow the bitmap (they run as
        residual filters downstream).
        """
        if not query.predicates:
            return None
        r = self.rates
        words = self._bitmap_words(entry)
        io_ms = 0.0
        cpu_ms = 0.0
        indexed_sel = 1.0
        n_indexed = 0
        for pred in query.predicates:
            found = self.find_index(entry, pred)
            if found is None:
                continue
            index, n_lookups = found
            n_indexed += 1
            indexed_sel *= self.predicate_selectivity(entry, pred)
            io_ms += index.pages_per_lookup(n_lookups) * r.seq_page_read_ms
            cpu_ms += n_lookups * r.index_lookup_ms
            if n_lookups > 1:
                cpu_ms += (n_lookups - 1) * words * r.bitmap_word_ms
        if n_indexed == 0:
            return None
        if n_indexed > 1:
            cpu_ms += (n_indexed - 1) * words * r.bitmap_word_ms
        return io_ms, cpu_ms, indexed_sel

    @_per_entry_query
    def _region_and_runs(
        self, entry: TableEntry, query: GroupByQuery
    ) -> Tuple[float, int]:
        """Page locality of an index probe on a *clustered* table.

        Materialized group-bys are sorted by dimension-key order, so rows
        matching indexed predicates on a *prefix* of the dimension order
        cluster: each prefix predicate multiplies the candidate region down
        by its selectivity, but also splits the selection into one
        contiguous run per selected key combination, each potentially
        touching a partial boundary page.  Returns ``(region fraction,
        number of runs)``; the walk stops at the first dimension without an
        indexed predicate — deeper selections scatter across that
        dimension's runs and no longer shrink the region.
        """
        fraction = 1.0
        runs = 1
        for d in range(self.schema.n_dims):
            pred = query.predicate_on(d)
            if pred is None or self.find_index(entry, pred) is None:
                break
            fraction *= self.predicate_selectivity(entry, pred)
            dim = self.schema.dimensions[d]
            stored = entry.levels[d]
            # Selected key count at the table's stored level: each predicate
            # member fans out to its descendants there.
            per_member = dim.n_members(stored) / dim.n_members(pred.level)
            runs *= max(1, round(len(pred.member_ids) * per_member))
        return fraction, runs

    def _probe_pages(
        self,
        entry: TableEntry,
        queries: Sequence[GroupByQuery],
        indexed_sels: Sequence[float],
    ) -> float:
        """Expected distinct pages a union-bitmap probe touches: Cardenas
        over the clustered candidate region, plus one boundary page per
        additional contiguous run."""
        n, p = entry.n_rows, entry.n_pages
        union_sel = 1.0
        region_union = 1.0
        total_runs = 0
        for query, indexed_sel in zip(queries, indexed_sels):
            union_sel *= 1.0 - indexed_sel
            fraction, runs = self._region_and_runs(entry, query)
            region_union *= 1.0 - fraction
            total_runs += runs
        union_sel = 1.0 - union_sel
        region_union = 1.0 - region_union
        k_union = n * union_sel
        if not entry.clustered:
            return expected_distinct(float(p), k_union)
        region = max(1.0, p * region_union)
        pages = expected_distinct(region, k_union) + max(0, total_runs - 1)
        # A union probe can never touch more pages than the queries would
        # touch separately.
        separate_total = 0.0
        for query, indexed_sel in zip(queries, indexed_sels):
            fraction, runs = self._region_and_runs(entry, query)
            separate_total += expected_distinct(
                max(1.0, p * fraction), n * indexed_sel
            ) + max(0, runs - 1)
        return min(float(p), pages, separate_total)

    # -- class costing -----------------------------------------------------------

    def _scan_class(
        self, entry: TableEntry, queries: Sequence[GroupByQuery]
    ) -> ClassCosting:
        """Cost of the class when the base table is sequentially scanned:
        hash plans consume the scan; index plans filter it (Section 3.3)."""
        r = self.rates
        n = entry.n_rows
        scan_io = entry.n_pages * r.seq_page_read_ms
        total = scan_io + self._builds_cpu_ms(entry, queries)
        methods: List[JoinMethod] = []
        for query in queries:
            k = self._matching_rows(entry, query)
            hash_marginal = self._process_cpu_ms(query, n_fed=n, n_pass=k)
            index_phase = self._index_phase(entry, query)
            if index_phase is not None:
                idx_io, idx_cpu, indexed_sel = index_phase
                k_fed = n * indexed_sel
                filtered_marginal = (
                    idx_io
                    + idx_cpu
                    + n * r.bitmap_test_ms
                    + self._process_cpu_ms(query, n_fed=k_fed, n_pass=k)
                )
            else:
                filtered_marginal = math.inf
            if hash_marginal <= filtered_marginal:
                methods.append(JoinMethod.HASH)
                total += hash_marginal
            else:
                methods.append(JoinMethod.INDEX)
                total += filtered_marginal
        return ClassCosting(
            source=entry.name,
            cost_ms=total,
            methods=methods,
            shared_io_ms=scan_io,
            detail={"scan_io_ms": scan_io},
        )

    def _index_class(
        self, entry: TableEntry, queries: Sequence[GroupByQuery]
    ) -> Optional[ClassCosting]:
        """Cost of the class when all members are index joins sharing one
        union-bitmap probe (Section 3.2), or None if infeasible."""
        r = self.rates
        phases = []
        for query in queries:
            phase = self._index_phase(entry, query)
            if phase is None:
                return None
            phases.append(phase)
        indexed_sels = [phase[2] for phase in phases]
        probe_pages = self._probe_pages(entry, queries, indexed_sels)
        probe_io = probe_pages * r.rand_page_read_ms
        union_rows = entry.n_rows * (
            1.0 - math.prod(1.0 - sel for sel in indexed_sels)
        )
        total = probe_io + self._builds_cpu_ms(entry, queries)
        words = self._bitmap_words(entry)
        if len(queries) > 1:
            total += (len(queries) - 1) * words * r.bitmap_word_ms  # union OR
        for query, (idx_io, idx_cpu, indexed_sel) in zip(queries, phases):
            k = self._matching_rows(entry, query)
            k_fed = entry.n_rows * indexed_sel
            total += idx_io + idx_cpu
            total += union_rows * r.bitmap_test_ms  # tuple routing
            total += self._process_cpu_ms(query, n_fed=k_fed, n_pass=k)
        return ClassCosting(
            source=entry.name,
            cost_ms=total,
            methods=[JoinMethod.INDEX] * len(queries),
            shared_io_ms=probe_io,
            detail={"probe_io_ms": probe_io, "probe_pages": probe_pages},
        )

    def plan_class(
        self, entry: TableEntry, queries: Sequence[GroupByQuery]
    ) -> Optional[ClassCosting]:
        """Best costing of ``queries`` as one class on ``entry``; None if
        some query is not answerable from it."""
        if not queries:
            raise ValueError("a class needs at least one query")
        self.n_plan_costings += 1
        for query in queries:
            if not source_can_answer(
                entry.levels, entry.source_aggregate, query
            ):
                return None
        candidates = [self._scan_class(entry, queries)]
        all_index = self._index_class(entry, queries)
        if all_index is not None:
            candidates.append(all_index)
        return min(candidates, key=lambda c: c.cost_ms)

    def class_cost_given(
        self,
        entry: TableEntry,
        queries: Sequence[GroupByQuery],
        methods: Sequence[JoinMethod],
    ) -> float:
        """Cost of a class whose per-query join methods are already fixed
        (used to cost TPLO's merged plans, which keep local choices).

        **Linearity contract**: for fixed methods, the returned cost is an
        exact linear function of the :class:`CostRates` fields — every
        term is ``predicted_units * rate`` with the unit counts depending
        only on the catalog, statistics, and query shapes.  The
        calibration fitter (:mod:`repro.calibrate`) relies on this to
        extract per-unit predictions by re-costing classes against unit
        basis rates; a costing path that breaks linearity (e.g. a rate
        inside a ``max``/branch condition) would silently corrupt the fit,
        so :func:`repro.calibrate.observations.estimated_units` re-checks
        the decomposition per class.
        """
        if len(queries) != len(methods):
            raise ValueError("queries and methods must align")
        r = self.rates
        n = entry.n_rows
        if all(m is JoinMethod.INDEX for m in methods):
            costing = self._index_class(entry, queries)
            if costing is None:
                raise ValueError(
                    "index methods requested but index plan infeasible"
                )
            return costing.cost_ms
        total = entry.n_pages * r.seq_page_read_ms
        total += self._builds_cpu_ms(entry, queries)
        for query, method in zip(queries, methods):
            k = self._matching_rows(entry, query)
            if method is JoinMethod.HASH:
                total += self._process_cpu_ms(query, n_fed=n, n_pass=k)
            else:
                phase = self._index_phase(entry, query)
                if phase is None:
                    raise ValueError(
                        f"no index plan for {query.display_name()} on "
                        f"{entry.name!r}"
                    )
                idx_io, idx_cpu, indexed_sel = phase
                total += (
                    idx_io
                    + idx_cpu
                    + n * r.bitmap_test_ms
                    + self._process_cpu_ms(
                        query, n_fed=n * indexed_sel, n_pass=k
                    )
                )
        return total

    # -- DAG class costing (derive-from-shared-sub-aggregate) --------------------

    def _dag_builds_cpu_ms(
        self,
        entry: TableEntry,
        scan_queries: Sequence[GroupByQuery],
        derive_steps: Sequence[Tuple[GroupByQuery, Sequence[GroupByQuery]]],
    ) -> float:
        """Shared structure-build cost of a DAG class, mirroring the
        RollupCache keys the executor uses: one rollup map per (dimension,
        from level, to level) and one mask per distinct (dimension, from
        level, predicate).  Derived queries read the intermediate, so their
        structures key off — and are sized by — the intermediate's levels,
        not the base table's."""
        r = self.rates
        maps: set = set()
        masks: set = set()

        def collect(query: GroupByQuery, from_levels: Sequence[int]) -> None:
            for d, dim in enumerate(self.schema.dimensions):
                stored = from_levels[d]
                target = query.groupby.levels[d]
                if target not in (stored, dim.all_level):
                    maps.add((d, stored, target))
                pred = query.predicate_on(d)
                if pred is not None:
                    masks.add((d, stored, pred.level, pred.member_ids))

        for query in scan_queries:
            collect(query, entry.levels)
        for intermediate, derived in derive_steps:
            collect(intermediate, entry.levels)
            for query in derived:
                collect(query, intermediate.groupby.levels)

        total = 0.0
        scan_ms = 0.0
        for d, from_level, _target in maps:
            total += self.schema.dimensions[d].n_members(from_level)
            scan_ms += self._dim_scan_ms(d)
        for d, from_level, _level, _members in masks:
            total += self.schema.dimensions[d].n_members(from_level)
            scan_ms += self._dim_scan_ms(d)
        return total * r.hash_build_ms + scan_ms

    def intermediate_rows(
        self, entry: TableEntry, intermediate: GroupByQuery
    ) -> float:
        """Expected group count of a derive step's intermediate aggregate
        computed over ``entry``."""
        return float(
            estimate_groupby_rows(
                self.schema, intermediate.groupby.levels, entry.n_rows
            )
        )

    def derive_class(
        self,
        entry: TableEntry,
        scan_queries: Sequence[GroupByQuery],
        derive_steps: Sequence[Tuple[GroupByQuery, Sequence[GroupByQuery]]],
        row_safety: float = 1.0,
    ) -> Optional[ClassCosting]:
        """Cost of a DAG class (see :mod:`repro.dag`): one shared scan of
        ``entry`` feeds the ``scan_queries`` *and* each step's intermediate
        sub-aggregate; the step's derived queries then re-aggregate the
        in-memory intermediate — pure CPU over its (far fewer) group rows,
        no extra I/O.

        ``methods`` in the returned costing aligns with ``scan_queries``
        followed by every step's derived queries in order.  ``row_safety``
        inflates the intermediates' estimated group counts (the greedy
        search's guard against Cardenas underestimates; the final plan is
        costed with 1.0).  Returns None when a query or intermediate is
        not answerable.
        """
        if not derive_steps:
            raise ValueError("a DAG class needs at least one derive step")
        self.n_plan_costings += 1
        r = self.rates
        n = entry.n_rows
        for query in scan_queries:
            if not source_can_answer(
                entry.levels, entry.source_aggregate, query
            ):
                return None
        for intermediate, derived in derive_steps:
            if intermediate.predicates:
                return None
            if not source_can_answer(
                entry.levels, entry.source_aggregate, intermediate
            ):
                return None
            inter_agg = entry.source_aggregate or intermediate.aggregate.value
            for query in derived:
                if not source_can_answer(
                    intermediate.groupby.levels, inter_agg, query
                ):
                    return None
        scan_io = entry.n_pages * r.seq_page_read_ms
        total = scan_io + self._dag_builds_cpu_ms(
            entry, scan_queries, derive_steps
        )
        methods: List[JoinMethod] = []
        for query in scan_queries:
            k = self._matching_rows(entry, query)
            hash_marginal = self._process_cpu_ms(query, n_fed=n, n_pass=k)
            index_phase = self._index_phase(entry, query)
            if index_phase is not None:
                idx_io, idx_cpu, indexed_sel = index_phase
                filtered_marginal = (
                    idx_io
                    + idx_cpu
                    + n * r.bitmap_test_ms
                    + self._process_cpu_ms(
                        query, n_fed=n * indexed_sel, n_pass=k
                    )
                )
            else:
                filtered_marginal = math.inf
            if hash_marginal <= filtered_marginal:
                methods.append(JoinMethod.HASH)
                total += hash_marginal
            else:
                methods.append(JoinMethod.INDEX)
                total += filtered_marginal
        derive_rows = 0.0
        for intermediate, derived in derive_steps:
            # The intermediate has no predicates: every fed tuple updates
            # its aggregator, exactly as QueryPipeline will charge.
            total += self._process_cpu_ms(intermediate, n_fed=n, n_pass=n)
            m = row_safety * self.intermediate_rows(entry, intermediate)
            derive_rows += m
            for query in derived:
                k = m * self.query_selectivity(entry, query)
                total += self._process_cpu_ms(query, n_fed=m, n_pass=k)
                methods.append(JoinMethod.DERIVE)
        return ClassCosting(
            source=entry.name,
            cost_ms=total,
            methods=methods,
            shared_io_ms=scan_io,
            detail={"scan_io_ms": scan_io, "derive_rows": derive_rows},
        )

    # -- local-plan selection ------------------------------------------------------

    def standalone(
        self, entry: TableEntry, query: GroupByQuery
    ) -> Optional[Tuple[JoinMethod, float]]:
        """Best (method, cost) for the query alone on ``entry``
        (memoized per model instance)."""
        key = (entry.name, query.qid)
        if key in self._standalone_cache:
            return self._standalone_cache[key]
        costing = self.plan_class(entry, [query])
        result = (
            None if costing is None else (costing.methods[0], costing.cost_ms)
        )
        self._standalone_cache[key] = result
        return result

    def best_local(
        self,
        query: GroupByQuery,
        entries: Optional[Sequence[TableEntry]] = None,
    ) -> Tuple[TableEntry, JoinMethod, float]:
        """The paper's "optimal local plan": the cheapest (table, method)
        over the candidate materialized group-bys."""
        if entries is None:
            entries = self.catalog.entries()
        best: Optional[Tuple[TableEntry, JoinMethod, float]] = None
        for entry in entries:
            result = self.standalone(entry, query)
            if result is None:
                continue
            method, cost = result
            if best is None or cost < best[2]:
                best = (entry, method, cost)
        if best is None:
            raise ValueError(
                f"no candidate table can answer {query.display_name()}"
            )
        return best
