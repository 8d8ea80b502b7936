"""repro.check — the differential correctness harness.

The paper's sharing claim is an *exactness* claim: the shared operators
must produce, for every component query, precisely the answer the
single-query plan would.  This package is the oracle asserting it:

* :mod:`repro.check.reference` — ground truth by naive tuple-at-a-time
  scan of the raw fact table (no sharing, no indexes, no views), or of
  any row iterable (:func:`evaluate_reference`);
* :mod:`repro.check.validate` — structural validation of a global plan
  (coverage, lattice ancestry, method mix) before it runs;
* :mod:`repro.check.paranoia` — group-for-group cross-checking of executed
  results and served cache hits against the reference.

Turn it on end to end with ``Database(schema, paranoia=True)`` (or set
``db.paranoia = True``, or pass ``--paranoia`` on the CLI): every plan is
validated before execution, every shared-operator result is cross-checked,
and a sample of each batch's cache hits is recomputed from scratch.
Failures raise :class:`CorrectnessError` naming the query and the first
divergent group.
"""

from .errors import (
    CorrectnessError,
    Divergence,
    PlanCoverageError,
    PlanValidationError,
)
from .paranoia import (
    check_result,
    check_results,
    first_divergence,
    recheck_cache_hits,
)
from .reference import evaluate_reference, raw_base_entry, reference_answer
from .validate import expected_operator, validate_class, validate_global_plan

__all__ = [
    "CorrectnessError",
    "Divergence",
    "PlanCoverageError",
    "PlanValidationError",
    "check_result",
    "check_results",
    "evaluate_reference",
    "expected_operator",
    "first_divergence",
    "raw_base_entry",
    "recheck_cache_hits",
    "reference_answer",
    "validate_class",
    "validate_global_plan",
]
