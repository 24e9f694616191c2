"""Process-local tuning counters (the ``tuning`` block of ``/stats``).

Mirrors :func:`repro.core.inference.engine_fallback_stats` (the
``resilience`` block): counters live in the process doing the tuning work,
each ``repro serve`` worker reports its own block, and the cluster router
merges the blocks across workers exactly like it merges the resilience
counters.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["record_tuning", "tuning_stats", "reset_tuning_stats"]

_FIELDS = (
    "subjects",        # programs tuned (cache hits included)
    "candidates",      # assignments whose bound the search needed
    "certifications",  # candidate bounds inferred (cache misses)
    "cache_hits",      # candidate bounds served from the analysis cache
    "probe_failures",  # symbolic probes that produced no usable weights
    "tuned",           # subjects cheaper than uniform binary64 (uniform narrowing included)
    "infeasible",      # subjects with no certified assignment at the target
)

_lock = threading.Lock()
_counters: Dict[str, int] = {name: 0 for name in _FIELDS}


def record_tuning(**amounts: int) -> None:
    """Bump the named counters (unknown names are an error, not a typo sink)."""
    with _lock:
        for name, amount in amounts.items():
            if name not in _counters:
                raise KeyError(f"unknown tuning counter {name!r}")
            _counters[name] += int(amount)


def tuning_stats() -> Dict[str, int]:
    """Snapshot of the counters, for ``/stats`` and the CLI summary."""
    with _lock:
        return dict(_counters)


def reset_tuning_stats() -> None:
    """Zero the counters (tests only)."""
    with _lock:
        for name in _counters:
            _counters[name] = 0
