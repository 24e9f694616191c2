"""Outside-in layer timer: wraps public entry points of ``repro`` modules.

Nothing under ``src/`` is edited.  :meth:`LayerTimer.install` replaces each
listed function with a timing wrapper and rebinds *every* module attribute
that aliases the same function object — ``validation.sampling`` and
``analysis.analyzer`` hold their own ``rp_distance_enclosure`` names from
``from ..floats.exactmath import ...``, so patching only ``exactmath``
would miss their calls.  Methods are wrapped on their class.

Each wrapper pushes a frame on a span stack; on exit the span's duration
minus the time its timed children covered is the layer's *self time*, so
self times of all layers plus the untimed remainder (``other``) add up to
the wall time of the traced region.  Spans are kept in memory (compact
arrays, capped) and written out by :meth:`LayerTimer.write_spans`.

Counter layers (memo hit ratios) are read as deltas of the program's own
``cache_info()``/``*_memo_stats`` snapshots around the traced region.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: ``(layer, module, attribute)``; ``attribute`` may be ``Class.method``.
#: The layer names are the metric prefixes listed in ``README.md``.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("core.parser", "repro.core.parser.parser", "parse_program"),
    ("frontend.fpcore", "repro.frontend.fpcore", "parse_fpcore"),
    ("frontend.compiler", "repro.frontend.compiler", "compile_expression"),
    ("core.ast", "repro.core.ast", "intern_term"),
    ("core.inference", "repro.core.inference", "infer"),
    ("core.compiled", "repro.core.compiled", "infer_compiled"),
    ("analysis.analyzer", "repro.analysis.analyzer", "analyze_term"),
    ("analysis.analyzer", "repro.analysis.analyzer", "analyze_program"),
    ("analysis.batch", "repro.analysis.batch", "BatchAnalyzer.analyze_items"),
    ("analysis.cache.get", "repro.analysis.cache", "AnalysisCache.get"),
    ("analysis.cache.put", "repro.analysis.cache", "AnalysisCache.put"),
    ("analysis.cache.parse", "repro.analysis.cache", "AnalysisCache.cached_parse"),
    ("core.semantics.evaluator", "repro.core.semantics.evaluator", "run_monadic"),
    ("floats.rounding", "repro.floats.rounding", "round_to_precision"),
    ("floats.exactmath.rp_distance_enclosure", "repro.floats.exactmath", "rp_distance_enclosure"),
    ("floats.exactmath.log_enclosure", "repro.floats.exactmath", "log_enclosure"),
    ("floats.exactmath.exp_enclosure", "repro.floats.exactmath", "exp_enclosure"),
    ("floats.exactmath.sqrt_round", "repro.floats.exactmath", "sqrt_round"),
    ("validation.sampling", "repro.validation.sampling", "sample_point"),
    ("validation.harness", "repro.validation.harness", "ValidationEngine.validate_subject"),
    ("validation.backends.lnum", "repro.validation.backends", "GradedInferenceBackend.bound"),
    ("validation.backends.gappa_like", "repro.validation.backends", "IntervalBackend.bound"),
    ("validation.backends.fptaylor_like", "repro.validation.backends", "TaylorBackend.bound"),
    ("validation.backends.standard_bounds", "repro.validation.backends", "StandardBackend.bound"),
    ("tuning.search", "repro.tuning.search", "probe_subject"),
    ("tuning.search", "repro.tuning.search", "certify_candidate"),
    ("tuning.empirical", "repro.tuning.empirical", "measure_assignment"),
    ("tuning.empirical", "repro.tuning.empirical", "sample_point_mixed"),
)

#: Modules imported before wrapping, so every alias exists when the module
#: attributes are scanned (a module imported later would bind the original).
PRELOAD = (
    "repro.analysis.batch",
    "repro.analysis.cache",
    "repro.core.compiled",
    "repro.validation.harness",
    "repro.validation.bench",
    "repro.validation.backends",
    "repro.validation.sampling",
    "repro.tuning.search",
    "repro.tuning.empirical",
    "repro.baselines.gappa_like",
    "repro.baselines.fptaylor_like",
    "repro.baselines.standard_bounds",
)

#: Per-call spans kept in memory; beyond this only the aggregates grow.
SPAN_CAP = 200_000


def layer_names() -> List[str]:
    """Distinct timed layer names, in declaration order."""
    seen: List[str] = []
    for layer, _module, _attribute in TIMED:
        if layer not in seen:
            seen.append(layer)
    return seen


class LayerTimer:
    """Span stack + per-layer self time and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.layer_ids: Dict[str, int] = {}
        # One frame per open span: [layer, start, time covered by children].
        self._stack: List[list] = []
        self._span_layer = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._open_index: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Inference memos seen by ``_resolve_memo`` (memo, hits, misses at entry).
        self.memo_log: List[Tuple[Any, int, int]] = []

    # -- spans -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        start = self.clock()
        self._stack.append([layer, start, 0.0])
        if len(self._span_start) < SPAN_CAP:
            self._open_index.append(len(self._span_start))
            self._span_layer.append(self.layer_ids.setdefault(layer, len(self.layer_ids)))
            self._span_parent.append(self._open_index[-2] if len(self._open_index) > 1 else -1)
            self._span_start.append(start)
            self._span_end.append(start)
        else:
            self._open_index.append(-1)  # past the cap: aggregates only

    def exit(self) -> None:
        end = self.clock()
        layer, start, children = self._stack.pop()
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        index = self._open_index.pop()
        if index >= 0:
            self._span_end[index] = end

    def wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(function)
        def timed(*arguments: Any, **keywords: Any) -> Any:
            enter(layer)
            try:
                return function(*arguments, **keywords)
            finally:
                exit_()

        timed.__perfbench_original__ = function  # type: ignore[attr-defined]
        return timed

    def total_self(self) -> float:
        return sum(self.self_s.values())

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`TIMED` (undo with :meth:`uninstall`)."""
        for name in PRELOAD:
            importlib.import_module(name)
        for layer, module_name, attribute in TIMED:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                self._set(owner, method, self.wrap(layer, owner.__dict__[method]))
            else:
                original = getattr(module, attribute)
                self.rebind(original, self.wrap(layer, original))
        self._hook_memo_resolution()

    def rebind(self, original: Any, replacement: Any) -> int:
        """Point every ``repro`` module attribute that *is* ``original`` elsewhere."""
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, replacement)
                    count += 1
        return count

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    def _hook_memo_resolution(self) -> None:
        """Record the memo each ``infer`` call resolves, to read its counters.

        ``infer`` builds its per-call memo internally; ``_resolve_memo`` is
        the one seam that hands it out, so its return value is logged with
        the counters it had at that moment.
        """
        inference = importlib.import_module("repro.core.inference")
        original = inference._resolve_memo
        log = self.memo_log

        def resolve(term: Any, memo: Any) -> Any:
            resolved = original(term, memo)
            if resolved is not None:
                log.append((resolved, resolved.hits, resolved.misses))
            return resolved

        self._set(inference, "_resolve_memo", resolve)

    def memo_counts(self) -> Tuple[int, int]:
        """Inference-memo (hits, misses) accrued since each memo was first seen.

        A long-lived memo (``validate`` shares one across every subject) is
        logged once per ``infer`` call; only its first entry counts, so its
        activity is counted once.  The log holds every memo alive, so no two
        distinct memos share an ``id``.
        """
        first: Dict[int, Tuple[Any, int, int]] = {}
        for entry in self.memo_log:
            first.setdefault(id(entry[0]), entry)
        hits = misses = 0
        for memo, hits0, misses0 in first.values():
            hits += memo.hits - hits0
            misses += memo.misses - misses0
        return hits, misses

    # -- output ------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        names = {index: layer for layer, index in self.layer_ids.items()}
        return [
            {
                "layer": names[self._span_layer[i]],
                "parent": self._span_parent[i],
                "start": self._span_start[i],
                "end": self._span_end[i],
            }
            for i in range(len(self._span_start))
        ]

    def write_spans(self, path: str) -> None:
        """One JSON object per span (index order = start order)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Counter snapshots (program-reported counters, read as deltas)
# ---------------------------------------------------------------------------


def counter_snapshot() -> Dict[str, int]:
    """Flat hit/miss counters from the program's own memo reports."""
    from repro.analysis.cache import memo_report

    report = memo_report()
    grades = report["grades"]
    plans = report["compiled"]["plans"]
    packed = report["compiled"]["packed"]
    exact = report.get("exactmath", {})
    flat = {
        "grades.hits": grades["add"]["hits"] + grades["mul"]["hits"],
        "grades.misses": grades["add"]["misses"] + grades["mul"]["misses"],
        "plans.hits": plans["hits"],
        "plans.misses": plans["misses"],
        "frac_fallbacks": packed["frac_fallbacks"],
        "vectorized_ops": packed["vectorized_ops"],
    }
    for short, name in (
        ("rp", "rp_distance_cached"),
        ("log", "log_enclosure_cached"),
        ("exp", "exp_enclosure_cached"),
    ):
        info = exact.get(name, {"hits": 0, "misses": 0})
        flat[f"{short}.hits"] = info["hits"]
        flat[f"{short}.misses"] = info["misses"]
    return flat


def ratio(hits: float, misses: float) -> float:
    """hits / (hits + misses); 0 when nothing was looked up."""
    total = hits + misses
    return hits / total if total else 0.0


def counter_metrics(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    return {
        "core.grades.memo_hit_ratio": ratio(delta["grades.hits"], delta["grades.misses"]),
        "core.compiled.plan_hit_ratio": ratio(delta["plans.hits"], delta["plans.misses"]),
        "core.compiled.frac_fallbacks": float(delta["frac_fallbacks"]),
        "floats.exactmath.rp_hit_ratio": ratio(delta["rp.hits"], delta["rp.misses"]),
        "floats.exactmath.log_hit_ratio": ratio(delta["log.hits"], delta["log.misses"]),
        "floats.exactmath.exp_hit_ratio": ratio(delta["exp.hits"], delta["exp.misses"]),
    }


def layer_metrics(timer: LayerTimer, traced_wall: float) -> Dict[str, float]:
    """``<layer>.self_s``/``.calls`` for every layer, plus ``other`` and the wall.

    ``other.self_s`` is the traced wall minus every layer's self time, so
    the rows add up to ``trace.wall_s`` exactly.
    """
    metrics: Dict[str, float] = {}
    for layer in layer_names():
        key = CACHE_METRIC.get(layer)
        if key is not None:
            metrics[key] = timer.self_s.get(layer, 0.0)
            continue
        metrics[f"{layer}.self_s"] = timer.self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = float(timer.calls.get(layer, 0))
    metrics["other.self_s"] = traced_wall - timer.total_self()
    metrics["trace.wall_s"] = traced_wall
    hits, misses = timer.memo_counts()
    metrics["core.inference.memo_hit_ratio"] = ratio(hits, misses)
    return metrics


#: The result-cache spans report as ``get_s``/``put_s``/``parse_s`` self time.
CACHE_METRIC: Dict[str, str] = {
    "analysis.cache.get": "analysis.cache.get_s",
    "analysis.cache.put": "analysis.cache.put_s",
    "analysis.cache.parse": "analysis.cache.parse_s",
}
