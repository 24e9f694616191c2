"""One measured pass of a sweep workload (``batch``, ``validate``, ``tune``).

Run by ``run.py`` as a fresh interpreter per pass, so every pass starts
cold: imports, intern tables and the exact-math ``lru_cache`` tables are
empty, as for a user's ``repro batch|validate|tune`` command.  Prints one
JSON object on its last stdout line.

    PYTHONPATH=src python3 -m perfbench.sweep --workload batch --seed 1 --cache-dir DIR

Phases, in order: set-up (imports and entry objects; ``setup_s`` counts
from ``--spawned-at``), the timed *miss* pass over the inputs against an
empty disk cache (``wall_s``, one latency sample per program), then *hit*
passes that re-run the inputs through fresh cache instances over the
now-warm cache directory (one latency sample per program each).  With
``--trace`` the miss pass runs under :class:`layers.LayerTimer`.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

from . import layers
from .corpus import batch_corpus

#: The pinned tuning slice: a deep chain, sqrt slack, division and a guard.
TUNE_SLICE = (
    "table3::Horner10",
    "table3::sqrt_add",
    "table3::predatorPrey",
    "table5::squareRoot3",
)
VALIDATE_SUITES = ("table3", "table5")
#: Hit samples per pass are at least this many (the inputs are repeated).
HIT_SAMPLES = 1200


def _judgement(report: Any) -> List[List[str]]:
    """The engine-independent content of one batch report (no timings)."""
    if not report.ok:
        return [["error", str(report.error)]]
    return [
        [
            analysis.name,
            str(analysis.result_type),
            str(analysis.error_grade),
            str(analysis.rp_bound),
            str(analysis.relative_error_bound),
        ]
        for analysis in report.analyses
    ]


class Sweep:
    """A workload's entry object over one disk-cache directory."""

    def __init__(self, seed: int, cache_dir: str) -> None:
        from repro.analysis.cache import AnalysisCache

        self.seed = seed
        self.cache_dir = cache_dir
        self.cache = AnalysisCache(directory=cache_dir)
        self.runner = self.make_runner(self.cache)

    def make_runner(self, cache: Any) -> Any:
        raise NotImplementedError

    def fresh(self) -> "Sweep":
        """Same cache directory, new cache instance: every lookup reads disk."""
        clone = copy.copy(self)
        clone.cache = type(self.cache)(directory=self.cache_dir)
        clone.runner = self.make_runner(clone.cache)
        return clone

    def close(self) -> None:
        self.runner.close()


class Batch(Sweep):
    """``BatchAnalyzer(jobs=1, engine="auto")`` over the generated corpus."""

    def __init__(self, seed: int, cache_dir: str) -> None:
        from repro.analysis.batch import BatchAnalyzer, BatchItem

        self.analyzer_class = BatchAnalyzer
        self.item_class = BatchItem
        super().__init__(seed, cache_dir)

    def make_runner(self, cache: Any) -> Any:
        return self.analyzer_class(jobs=1, cache=cache, engine="auto")

    def inputs(self) -> List[Any]:
        return [self.item_class(*program) for program in batch_corpus(self.seed)]

    def run(self, item: Any) -> Any:
        return self.runner.analyze_items([item]).reports[0]

    def output(self, item: Any, report: Any) -> Tuple[str, Any]:
        return item.name, _judgement(report)


class Validate(Sweep):
    """``ValidationEngine(jobs=1)`` over the pinned table3 + table5 suites.

    The workload seed orders the subjects; the points are sampled at
    ``sampling_seed`` (see ``run.SAMPLING_SEEDED``).
    """

    def __init__(self, seed: int, cache_dir: str, sampling_seed: int) -> None:
        from repro.validation.bench import suite_subjects
        from repro.validation.harness import ValidationEngine, ValidationOptions

        subjects, failures = suite_subjects(list(VALIDATE_SUITES))
        if failures:
            raise SystemExit(f"suite construction failed: {[f.name for f in failures]}")
        random.Random(f"perfbench-validate-{seed}").shuffle(subjects)
        self.subjects = subjects
        self.engine_class = ValidationEngine
        self.options = ValidationOptions(seed=sampling_seed)
        super().__init__(seed, cache_dir)

    def make_runner(self, cache: Any) -> Any:
        return self.engine_class(jobs=1, cache=cache, options=self.options)

    def inputs(self) -> List[Any]:
        return list(self.subjects)

    def run(self, subject: Any) -> Any:
        return self.runner.validate_subject(subject)

    def output(self, subject: Any, result: Any) -> Tuple[str, Any]:
        return subject.name, result.verdict


class Tune(Sweep):
    """``PrecisionTuner(jobs=1)`` over the pinned four-program slice."""

    def __init__(self, seed: int, cache_dir: str) -> None:
        from repro.tuning.search import PrecisionTuner, TuningOptions
        from repro.validation.bench import suite_subjects

        subjects, _failures = suite_subjects(sorted({name.split("::")[0] for name in TUNE_SLICE}))
        by_name = {subject.name: subject for subject in subjects}
        missing = [name for name in TUNE_SLICE if name not in by_name]
        if missing:
            raise SystemExit(f"tuning slice programs not found: {missing}")
        self.subjects = [by_name[name] for name in TUNE_SLICE]
        self.tuner_class = PrecisionTuner
        self.options = TuningOptions(seed=seed)
        super().__init__(seed, cache_dir)

    def make_runner(self, cache: Any) -> Any:
        return self.tuner_class(jobs=1, cache=cache, options=self.options)

    def inputs(self) -> List[Any]:
        return list(self.subjects)

    def run(self, subject: Any) -> Any:
        return self.runner.tune_subject(subject)

    def output(self, subject: Any, result: Any) -> Tuple[str, Any]:
        formats = None if result.assignment is None else list(result.assignment.formats)
        return subject.name, [result.status, formats, str(result.certified_rp)]

    def recertify(self, outputs: Dict[str, Any]) -> List[str]:
        """Re-certify each winner at another sampling seed; returns the failures.

        An independent check of "the winner is certified sound": the
        tuner's own certificate is not consulted, the assignment is judged
        afresh.
        """
        from repro.tuning.search import certify_candidate

        sampling = {
            "points": self.options.points,
            "samples": self.options.samples,
            "seed": self.seed + 7919,
        }
        problems = []
        for subject in self.subjects:
            status, formats, certified = outputs[subject.name]
            if status != "tuned" or formats is None:
                problems.append(f"{subject.name}: status {status}")
                continue
            certificate = certify_candidate(
                subject, tuple(formats), False, None, sampling,
                f"perfbench-recertify-{subject.name}",
            )
            if not certificate.sound or str(certificate.rp_bound) != certified:
                problems.append(f"{subject.name}: re-certification failed ({certificate.message})")
        return problems


WORKLOADS = {"batch": Batch, "validate": Validate, "tune": Tune}


def batch_oracle(seed: int) -> Dict[str, Any]:
    """Judgements of the interpreted engine, no cache: the batch oracle."""
    from repro.analysis.batch import BatchAnalyzer, BatchItem

    with BatchAnalyzer(jobs=1, engine="interpreted") as analyzer:
        result = analyzer.analyze_items([BatchItem(*program) for program in batch_corpus(seed)])
    return {report.name: _judgement(report) for report in result.reports}


def traced_layers(workload: Sweep, inputs: List[Any], spans: str) -> Tuple[List[Any], List[float], float, Dict[str, float]]:
    """The miss pass under the layer timer, plus its per-layer rows."""
    timer = layers.LayerTimer()
    timer.install()
    counters = layers.counter_snapshot()
    stats = workload.cache.stats
    cache_before = (stats.hits, stats.misses, stats.puts)
    try:
        results, miss_s, wall_s = miss_pass(workload, inputs)
    finally:
        timer.uninstall()
    rows = layers.layer_metrics(timer, wall_s)
    rows.update(layers.counter_metrics(counters, layers.counter_snapshot()))
    for name, before, after in zip(("hits", "misses", "puts"), cache_before, (stats.hits, stats.misses, stats.puts)):
        rows[f"analysis.cache.{name}"] = float(after - before)
    if spans:
        timer.write_spans(spans)
    return results, miss_s, wall_s, rows


def miss_pass(workload: Sweep, inputs: List[Any]) -> Tuple[List[Any], List[float], float]:
    results: List[Any] = []
    miss_s: List[float] = []
    start = time.perf_counter()
    for item in inputs:
        began = time.perf_counter()
        results.append(workload.run(item))
        miss_s.append(time.perf_counter() - began)
    return results, miss_s, time.perf_counter() - start


def hit_passes(workload: Sweep, inputs: List[Any]) -> Tuple[List[List[float]], Dict[str, Any]]:
    """Warm re-runs until ``HIT_SAMPLES`` latencies; per-program samples, first outputs."""
    hit_s: List[List[float]] = [[] for _ in inputs]
    outputs: Dict[str, Any] = {}
    while sum(map(len, hit_s)) < HIT_SAMPLES:
        warm = workload.fresh()
        for item, samples in zip(inputs, hit_s):
            began = time.perf_counter()
            result = warm.run(item)
            samples.append(time.perf_counter() - began)
            name, value = warm.output(item, result)
            outputs.setdefault(name, value)
        warm.close()
    return hit_s, outputs


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sampling-seed", type=int, default=None, help="validate: sample points at this seed")
    parser.add_argument("--cache-dir", default="")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="", help="write traced spans (JSON lines) here")
    parser.add_argument("--recertify", action="store_true")
    parser.add_argument("--oracle", action="store_true", help="print the batch oracle and exit")
    parser.add_argument("--warmup", action="store_true", help="import everything and exit")
    parser.add_argument("--setup-only", action="store_true", help="build the entry objects, print setup_s and exit")
    arguments = parser.parse_args(argv)
    spawned = arguments.spawned_at if arguments.spawned_at is not None else time.monotonic()

    if arguments.warmup:
        for name in layers.PRELOAD:
            __import__(name)
        print(json.dumps({"warm": True}))
        return 0
    if arguments.oracle:
        print(json.dumps({"oracle": batch_oracle(arguments.seed)}))
        return 0

    if arguments.workload == "validate":
        sampling_seed = arguments.seed if arguments.sampling_seed is None else arguments.sampling_seed
        workload: Sweep = Validate(arguments.seed, arguments.cache_dir, sampling_seed)
    else:
        workload = WORKLOADS[arguments.workload](arguments.seed, arguments.cache_dir)
    setup_s = time.monotonic() - spawned
    if arguments.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    inputs = workload.inputs()

    rows: Dict[str, float] = {}
    if arguments.trace:
        results, miss_s, wall_s, rows = traced_layers(workload, inputs, arguments.spans)
    else:
        results, miss_s, wall_s = miss_pass(workload, inputs)
    outputs = dict(workload.output(item, result) for item, result in zip(inputs, results))
    if isinstance(workload, Tune):
        candidates = sum(result.candidates for result in results)
        hits = sum(result.cache_hits for result in results)
        rows["tuning.search.candidate_hit_ratio"] = hits / candidates if candidates else 0.0

    hit_s, hit_outputs = hit_passes(workload, inputs)
    problems = workload.recertify(outputs) if arguments.recertify and isinstance(workload, Tune) else []
    workload.close()

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "miss_s": miss_s,
        "hit_s": hit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "hit_outputs": hit_outputs,
        "problems": problems,
        "layers": rows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
