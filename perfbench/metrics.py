"""Metric names, units and the small statistics the benchmark reports.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py`` checks
that the two agree and that every name matches ``[A-Za-z0-9_.-]+``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .layers import CACHE_METRIC, layer_names

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
)

#: Counter-derived per-layer metrics of the sweep workloads.
SWEEP_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("core.inference.memo_hit_ratio", "ratio"),
    ("core.compiled.plan_hit_ratio", "ratio"),
    ("core.compiled.frac_fallbacks", "count"),
    ("core.grades.memo_hit_ratio", "ratio"),
    ("analysis.cache.hits", "count"),
    ("analysis.cache.misses", "count"),
    ("analysis.cache.puts", "count"),
    ("floats.exactmath.rp_hit_ratio", "ratio"),
    ("floats.exactmath.log_hit_ratio", "ratio"),
    ("floats.exactmath.exp_hit_ratio", "ratio"),
    ("tuning.search.candidate_hit_ratio", "ratio"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Per-layer metrics of ``serve``, read from ``/stats`` and metrics deltas.
SERVE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("service.router.route_memo_hit_ratio", "ratio"),
    ("service.router.route_s", "s"),
    ("service.server.hot_lookups", "count"),
    ("service.server.hot_mean_s", "s"),
    ("service.server.memory_lookups", "count"),
    ("service.server.memory_mean_s", "s"),
    ("service.server.disk_lookups", "count"),
    ("service.server.disk_mean_s", "s"),
    ("service.server.inferences", "count"),
    ("service.server.coalesced", "count"),
    ("service.scheduler.queue_wait_s", "s"),
    ("service.scheduler.busy", "count"),
    ("service.cachefarm.hit_ratio", "ratio"),
    ("service.cachefarm.disk_hits", "count"),
    ("service.cachefarm.evictions", "count"),
    ("service.engine.parse_s", "s"),
    ("service.engine.lower_s", "s"),
    ("service.engine.execute_s", "s"),
    ("service.engine.convert_s", "s"),
    ("service.engine.interpret_s", "s"),
    ("loader.late_p99_ms", "ms"),
)


def timed_layer_metrics() -> List[Tuple[str, str]]:
    rows: List[Tuple[str, str]] = []
    for layer in layer_names():
        if layer in CACHE_METRIC:
            rows.append((CACHE_METRIC[layer], "s"))
        else:
            rows += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    return rows


def per_layer() -> List[Tuple[str, str]]:
    """Every per-layer metric, printed by every workload with ``--trace 1``.

    A layer a workload never enters reads 0 there.
    """
    return timed_layer_metrics() + list(SWEEP_COUNTERS) + list(SERVE_LAYERS)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def smooth_percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis percentile (``q`` in [0, 100]): a weighted mean of every
    order statistic, with weights from a Beta((n+1)p, (n+1)(1-p)) law.

    Used where the sample is a few dozen programs of very different sizes:
    there the one or two order statistics a plain percentile reads can sit
    on either side of a wide gap (``validate``'s median program is 70 ms or
    150 ms depending on which of two neighbours runs a little faster), while
    this estimator moves smoothly with every program near the percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    n = len(ordered)
    p = min(max(q / 100.0, 0.0), 1.0)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    if a <= 0.0 or b <= 0.0:
        return ordered[0] if a <= 0.0 else ordered[-1]
    cumulative = [_beta_cdf(a, b, index / n) for index in range(n + 1)]
    return sum(value * (cumulative[index + 1] - cumulative[index]) for index, value in enumerate(ordered))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 300):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return result


def result_line(
    correct: bool, attempted: int, failed: int, values: Dict[str, float],
    names: Sequence[Tuple[str, str]],
) -> Dict[str, object]:
    """The last stdout line: exactly the listed metrics, each with its unit."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names
        },
    }
