"""Memory regression: a table is stored once, as its column arrays.

After the paper database is built, everything it retains — six tables'
arrays, page descriptors, join indexes, catalog — must stay within 3× the
raw data (rows × columns × 8 bytes).  Keeping a second representation of
the rows (per-row tuples, per-page copies) exceeds that.
"""

import gc
import tracemalloc

from repro.workload.paper_schema import PaperConfig, build_paper_database


def test_built_database_retains_at_most_three_times_its_raw_arrays():
    # Warm imports and per-schema caches outside the measurement.
    build_paper_database(config=PaperConfig(scale=0.001))
    gc.collect()
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = build_paper_database(config=PaperConfig(scale=0.01))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not already_tracing:
            tracemalloc.stop()
    raw = sum(
        entry.n_rows * entry.table.n_columns * 8
        for entry in db.catalog.entries()
    )
    assert raw > 2_000_000  # ~350k cells: fixed overheads are noise
    assert retained <= 3 * raw, (retained, raw)
