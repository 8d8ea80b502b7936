"""Query evaluation operators, including the paper's three shared star joins.

* :class:`HashStarJoin` / :class:`SharedScanHashStarJoin` — Section 3.1.
* :class:`IndexStarJoin` / :class:`SharedIndexStarJoin` — Section 3.2.
* :class:`SharedHybridStarJoin` — Section 3.3.
"""

from .aggregate import HashAggregator
from .hash_join import HashStarJoin, SharedScanHashStarJoin
from .hybrid_join import SharedHybridStarJoin
from .index_join import (
    IndexStarJoin,
    MissingIndexError,
    SharedIndexStarJoin,
    query_result_bitmap,
    usable_index,
)
from .pipeline import ExecContext, QueryPipeline, RollupCache
from .results import GroupKey, QueryResult

__all__ = [
    "ExecContext",
    "GroupKey",
    "HashAggregator",
    "HashStarJoin",
    "IndexStarJoin",
    "MissingIndexError",
    "QueryPipeline",
    "QueryResult",
    "RollupCache",
    "SharedHybridStarJoin",
    "SharedIndexStarJoin",
    "SharedScanHashStarJoin",
    "query_result_bitmap",
    "usable_index",
]
