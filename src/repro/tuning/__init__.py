"""Grade-guided mixed-precision tuning (``repro tune``).

The graded sensitivity types of the paper say exactly how much each
``rnd`` site's roundoff contributes to a program's error bound; this
package turns that from "check a bound" into "synthesize a program": given
a target error bound, it searches per-site format assignments
(bfloat16/binary16/binary32/binary64, with optional stochastic-rounding
execution semantics) for the cheapest configuration whose *certified*
bound — concrete per-site-grade inference plus a differential
mixed-precision sampling run — meets the target.

Layout:

* :mod:`~repro.tuning.assignment` — the format ladder, per-site
  assignments and the unsharing rebuild that names ``rnd`` occurrences.
* :mod:`~repro.tuning.empirical` — differential measurement of one
  assignment: validation's executor with a per-site precision table.
* :mod:`~repro.tuning.search` — the symbolic probe, the greedy search,
  certification fan-out, and the service work unit ``tune_item``.
* :mod:`~repro.tuning.bench` — the ``BENCH_tuning.json`` corpus benchmark
  and its regression gate.
* :mod:`~repro.tuning.stats` — process-local counters (the ``tuning``
  block of ``/stats``).
"""

from .assignment import (
    FORMAT_COSTS,
    LADDER,
    WIDEST_FORMAT,
    PrecisionAssignment,
    format_unit_roundoff,
    unshare_term,
)
from .empirical import measure_assignment
from .search import (
    DEFAULT_TARGET_RATIO,
    TUNING_SCHEMA,
    CandidateCertificate,
    ItemTuning,
    PrecisionTuner,
    SubjectTuning,
    TuningOptions,
    TuningResult,
    candidate_key,
    certify_candidate,
    parse_fraction,
    tune_item,
    tuning_key,
)
from .stats import record_tuning, reset_tuning_stats, tuning_stats

__all__ = [
    "FORMAT_COSTS",
    "LADDER",
    "WIDEST_FORMAT",
    "PrecisionAssignment",
    "format_unit_roundoff",
    "unshare_term",
    "measure_assignment",
    "DEFAULT_TARGET_RATIO",
    "TUNING_SCHEMA",
    "CandidateCertificate",
    "ItemTuning",
    "PrecisionTuner",
    "SubjectTuning",
    "TuningOptions",
    "TuningResult",
    "candidate_key",
    "certify_candidate",
    "parse_fraction",
    "tune_item",
    "tuning_key",
    "record_tuning",
    "reset_tuning_stats",
    "tuning_stats",
]
