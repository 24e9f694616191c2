"""A dependency-free metrics registry with Prometheus text exposition.

The registry is the single source of truth for service counters — the
ad-hoc counter dicts that used to live in ``service/server.py``,
``service/scheduler.py`` and ``service/router.py`` are now
:class:`CounterGroup` views over registry-owned :class:`Counter`
instances, so the same numbers appear (a) in the backwards-compatible
``/stats`` blocks, (b) in the structured ``{"op": "metrics"}`` response,
and (c) in the ``# TYPE``/``# HELP`` Prometheus text of
``repro query --metrics --prom``.

Counters and gauges are plain attribute updates (cheap enough for the
event loop's hot paths); histograms use fixed bucket boundaries, so an
observation is one bisect plus two adds, and quantiles (p50/p95/p99) are
interpolated from the bucket counts at snapshot time, never on the
request path.  Collector callables (:meth:`MetricsRegistry.counter_func`
/ :meth:`MetricsRegistry.gauge_func`) absorb counters whose storage
lives elsewhere — the result cache's :class:`CacheStats`, the
parse cache, the process-wide bounded memos — without touching their
lock-guarded mutation paths.

Snapshots (:meth:`MetricsRegistry.to_dict`) are self-describing, which
is what lets the cluster router re-render every worker's snapshot with a
``worker="<slot>"`` label added (:func:`render_prometheus`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - alias only
    from collections.abc import MutableMapping
except ImportError:  # pragma: no cover - Python < 3.3 never runs this
    from collections import MutableMapping  # type: ignore

__all__ = [
    "Counter",
    "CounterGroup",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "render_prometheus",
]

#: Default latency bucket upper bounds, in seconds.  Spanning 100 µs (a
#: memory-cache hit) to 30 s (a deadline-sized inference); +Inf is
#: implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Quantiles summarized in every histogram snapshot.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket latency histogram with interpolated quantiles.

    ``observe`` is lock-guarded (executor threads may observe alongside
    the event loop) but cheap: a bisect over ~17 boundaries and two
    additions.
    """

    __slots__ = ("buckets", "counts", "total", "count", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        # One slot per finite bucket plus the +Inf overflow slot.
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the bucket counts."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                if index < len(self.buckets):
                    lower = self.buckets[index]
                continue
            if cumulative + bucket_count >= rank:
                if index >= len(self.buckets):
                    # Overflow bucket: the best upper estimate is the mean
                    # capped below by the last finite boundary.
                    return max(lower, self.total / self.count)
                upper = self.buckets[index]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
            if index < len(self.buckets):
                lower = self.buckets[index]
        return lower

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self.counts)
            total = self.total
            count = self.count
        cumulative = 0
        buckets: List[List[Any]] = []
        for index, boundary in enumerate(self.buckets):
            cumulative += counts[index]
            buckets.append([boundary, cumulative])
        buckets.append(["+Inf", count])
        summary = {
            f"p{int(q * 100)}": self.quantile(q) for q in SUMMARY_QUANTILES
        }
        return {"buckets": buckets, "sum": total, "count": count, **summary}


class CounterGroup(MutableMapping):
    """A dict-shaped view over named registry counters.

    Call sites keep their ``counters["requests"] += 1`` idiom (and
    ``dict(counters)`` keeps producing the exact ``/stats`` blocks the
    tests and CI pin), while the storage lives in the registry and is
    therefore visible to the metrics op and the Prometheus exposition.
    """

    def __init__(self, counters: Dict[str, Counter]) -> None:
        self._counters = dict(counters)

    def __getitem__(self, name: str) -> int:
        return self._counters[name].value

    def __setitem__(self, name: str, value: int) -> None:
        self._counters[name].value = value

    def __delitem__(self, name: str) -> None:  # pragma: no cover - unused
        raise TypeError("counter groups have a fixed key set")

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Counters, gauges and histograms, keyed by (name, label set)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> {"type": ..., "help": ..., "samples": {label_key: instrument}}
        self._metrics: "Dict[str, Dict[str, Any]]" = {}

    # -- creation -------------------------------------------------------------

    def _instrument(
        self, kind: str, name: str, help_text: str, labels: Mapping[str, str], factory
    ):
        key = _label_key(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = {"type": kind, "help": help_text, "samples": {}}
                self._metrics[name] = metric
            elif metric["type"] != kind:
                raise ValueError(
                    f"metric {name!r} is a {metric['type']}, not a {kind}"
                )
            sample = metric["samples"].get(key)
            if sample is None:
                sample = factory()
                metric["samples"][key] = sample
            return sample

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._instrument("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._instrument("gauge", name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._instrument(
            "histogram", name, help, labels, lambda: Histogram(buckets)
        )

    def counter_func(
        self, name: str, fn: Callable[[], float], help: str = "", **labels: str
    ) -> None:
        """A counter whose value is sampled from ``fn`` at snapshot time."""
        self._instrument("counter", name, help, labels, lambda: fn)

    def gauge_func(
        self, name: str, fn: Callable[[], float], help: str = "", **labels: str
    ) -> None:
        """A gauge whose value is sampled from ``fn`` at snapshot time."""
        self._instrument("gauge", name, help, labels, lambda: fn)

    def group(
        self, prefix: str, names: Sequence[str], help: str = "", **labels: str
    ) -> CounterGroup:
        """One :class:`CounterGroup` over ``<prefix>_<name>_total`` counters."""
        return CounterGroup(
            {
                name: self.counter(f"{prefix}_{name}_total", help, **labels)
                for name in names
            }
        )

    # -- snapshots ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Self-describing snapshot (re-renderable by the cluster router)."""
        metrics: List[Dict[str, Any]] = []
        with self._lock:
            items = [
                (name, metric["type"], metric["help"], dict(metric["samples"]))
                for name, metric in sorted(self._metrics.items())
            ]
        for name, kind, help_text, samples in items:
            rendered: List[Dict[str, Any]] = []
            for key, instrument in sorted(samples.items()):
                labels = dict(key)
                if isinstance(instrument, Histogram):
                    rendered.append({"labels": labels, **instrument.snapshot()})
                elif callable(instrument) and not isinstance(
                    instrument, (Counter, Gauge)
                ):
                    try:
                        value = instrument()
                    except Exception:
                        continue
                    rendered.append({"labels": labels, "value": value})
                else:
                    rendered.append({"labels": labels, "value": instrument.value})
            metrics.append(
                {"name": name, "type": kind, "help": help_text, "samples": rendered}
            )
        return {"metrics": metrics}

    def render_prometheus(
        self, extra_labels: Optional[Mapping[str, str]] = None
    ) -> str:
        return render_prometheus([(extra_labels or {}, self.to_dict())])


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, str(value).replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(
    snapshots: Sequence[Tuple[Mapping[str, str], Dict[str, Any]]]
) -> str:
    """Render ``(extra_labels, registry.to_dict())`` pairs as exposition text.

    Metrics with the same name across snapshots merge under one
    ``# HELP``/``# TYPE`` header; ``extra_labels`` (the router's
    ``worker="<slot>"``) are added to every sample of that snapshot.
    """
    merged: "Dict[str, Dict[str, Any]]" = {}
    order: List[str] = []
    for extra, snapshot in snapshots:
        for metric in snapshot.get("metrics", []):
            name = metric["name"]
            entry = merged.get(name)
            if entry is None:
                entry = {"type": metric["type"], "help": metric["help"], "samples": []}
                merged[name] = entry
                order.append(name)
            for sample in metric.get("samples", []):
                labels = dict(sample.get("labels", {}))
                labels.update(extra)
                entry["samples"].append({**sample, "labels": labels})
    lines: List[str] = []
    for name in sorted(order):
        entry = merged[name]
        if entry["help"]:
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            labels = sample["labels"]
            if entry["type"] == "histogram":
                for boundary, cumulative in sample.get("buckets", []):
                    lines.append(
                        f"{name}_bucket"
                        + _format_labels({**labels, "le": boundary})
                        + f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum" + _format_labels(labels)
                    + f" {_format_value(sample.get('sum', 0.0))}"
                )
                lines.append(
                    f"{name}_count" + _format_labels(labels)
                    + f" {sample.get('count', 0)}"
                )
            else:
                lines.append(
                    name + _format_labels(labels)
                    + f" {_format_value(sample.get('value', 0))}"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The process-global registry (library code with no service around)
# ---------------------------------------------------------------------------

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (the client library counts here)."""
    return _GLOBAL
