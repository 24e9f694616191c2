"""Tests of the benchmark's own code: generators, layer timer, metric names."""

from __future__ import annotations

import json
import os
import re
import sys
import types
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import corpus, layers, metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- generators ---------------------------------------------------------------


def test_batch_corpus_is_deterministic_per_seed():
    assert corpus.batch_corpus(5) == corpus.batch_corpus(5)
    assert corpus.batch_corpus(5) != corpus.batch_corpus(6)


def test_batch_corpus_shape_is_seed_independent():
    shapes = {
        tuple(sorted(Counter(name.rstrip("0123456789") for name, _kind, _source in corpus.batch_corpus(seed)).items()))
        for seed in range(4)
    }
    assert shapes == {(("dot", 12), ("horner", 12), ("letdag", 12), ("lnum", 12), ("sum", 12))}


def test_serve_misses_are_deterministic_and_distinct():
    first = corpus.serve_misses(3, 200)
    assert first == corpus.serve_misses(3, 200)
    assert first != corpus.serve_misses(4, 200)
    assert len({source for _name, _kind, source in first}) == 200


def test_generated_programs_analyse_cleanly():
    from repro.analysis.batch import BatchAnalyzer, BatchItem

    programs = corpus.batch_corpus(0)[:12] + corpus.serve_misses(0, 30)
    with BatchAnalyzer(jobs=1) as analyzer:
        result = analyzer.analyze_items([BatchItem(*program) for program in programs])
    assert [report.error for report in result.reports if not report.ok] == []


def test_an_error_judgement_is_wrong_even_when_the_oracle_agrees():
    from perfbench import run

    error = [["error", "unbound variable x"]]
    good = [["f", "num", "eps", "1", "1"]]
    passes = [{
        "outputs": {"p0": error, "p1": good},
        "hit_outputs": {"p0": error, "p1": good},
        "problems": [],
    }]
    assert run.check("batch", passes, {"p0": error, "p1": good}) == (2, 1)


def test_pass_count_and_seeds_depend_on_the_arguments_only():
    from perfbench import run

    assert [run.pass_count(workload, 15, False) for workload in ("batch", "validate", "tune")] == [3, 3, 2]
    assert run.pass_count("batch", 60, False) == 12
    assert run.pass_count("batch", 60, True) == 12
    assert run.pass_count("validate", 1, True) == 2
    assert [run.sampling_seed("tune", index, False) for index in range(3)] == [None, None, None]
    assert [run.sampling_seed("validate", index, False) for index in range(3)] == [1, 2, 3]
    assert [run.sampling_seed("validate", index, True) for index in range(4)] == [1, 1, 2, 2]


# -- self-time arithmetic --------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_and_other_add_up_to_wall():
    clock = FakeClock()
    timer = layers.LayerTimer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)
        wrapped_leaf()

    wrapped_leaf = timer.wrap("core.inference", leaf)
    wrapped_middle = timer.wrap("analysis.analyzer", middle)
    start = clock()
    clock.advance(0.25)  # untimed: lands in ``other``
    wrapped_middle()
    wrapped_leaf()
    wall = clock() - start

    assert timer.self_s == {"core.inference": 6.0, "analysis.analyzer": 1.5}
    assert timer.calls == {"core.inference": 3, "analysis.analyzer": 1}
    rows = layers.layer_metrics(timer, wall)
    assert rows["core.inference.self_s"] == 6.0
    assert rows["analysis.analyzer.self_s"] == 1.5
    assert rows["other.self_s"] == pytest.approx(0.25)
    assert rows["trace.wall_s"] == wall
    timed = [name for name, unit in metrics.per_layer() if unit == "s" and name.startswith(tuple(layers.layer_names()) + ("analysis.cache.", "other."))]
    assert sum(rows.get(name, 0.0) for name in timed) == pytest.approx(wall)
    spans = timer.spans()
    assert [span["layer"] for span in spans] == [
        "analysis.analyzer", "core.inference", "core.inference", "core.inference"
    ]
    assert [span["parent"] for span in spans] == [-1, 0, 0, -1]


def test_exception_still_closes_the_span():
    clock = FakeClock()
    timer = layers.LayerTimer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("no")

    with pytest.raises(ValueError):
        timer.wrap("boom", boom)()
    assert timer.self_s == {"boom": 1.0}
    assert timer._stack == []


def test_a_memo_shared_across_calls_is_counted_once():
    from fractions import Fraction

    from repro.core import ast as A
    from repro.core import types as T
    from repro.core.inference import JudgementMemo, infer

    x = A.Rnd(A.Op("add", A.WithPair(A.Var("x"), A.Const(Fraction(1, 3)))))
    term = A.intern_term(A.WithPair(x, x))
    memo = JudgementMemo()
    timer = layers.LayerTimer()
    timer._hook_memo_resolution()
    try:
        infer(term, {"x": T.NUM}, memo=memo)
        after_first = (memo.hits, memo.misses)
        infer(term, {"x": T.NUM}, memo=memo)  # logged again, with warm counters
    finally:
        timer.uninstall()
    assert len(timer.memo_log) == 2
    assert memo.hits > after_first[0]
    assert timer.memo_counts() == (memo.hits, memo.misses)


# -- alias rebinding ---------------------------------------------------------------


def test_rebind_replaces_every_alias(monkeypatch):
    def original():
        return "original"

    home = types.ModuleType("repro._perfbench_home")
    alias = types.ModuleType("repro._perfbench_alias")
    outside = types.ModuleType("_perfbench_outside")
    home.target = alias.imported = outside.target = original
    for module in (home, alias, outside):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    timer = layers.LayerTimer()
    wrapped = timer.wrap("home", original)
    assert timer.rebind(original, wrapped) == 2
    assert home.target is wrapped and alias.imported is wrapped
    assert outside.target is original  # only the program's modules are touched
    timer.uninstall()
    assert home.target is original and alias.imported is original


def test_install_covers_every_alias_of_every_entry_point():
    import importlib

    timer = layers.LayerTimer()
    originals = []
    for _layer, module_name, attribute in layers.TIMED:
        if "." not in attribute:
            originals.append(getattr(importlib.import_module(module_name), attribute))
    timer.install()
    try:
        from repro.analysis import analyzer
        from repro.validation import sampling

        # Both modules import the enclosure by name: patching exactmath alone misses them.
        assert hasattr(sampling.rp_distance_enclosure, "__perfbench_original__")
        assert hasattr(analyzer.rp_distance_enclosure, "__perfbench_original__")
        leftovers = [
            f"{name}.{attribute}"
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("repro")
            for attribute, value in vars(module).items()
            if any(value is original for original in originals)
        ]
        assert leftovers == []
    finally:
        timer.uninstall()
    from repro.validation import sampling

    assert not hasattr(sampling.rp_distance_enclosure, "__perfbench_original__")


# -- metric names ------------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [name for name, _unit in metrics.END_TO_END] + [name for name, _unit in metrics.per_layer()]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_metrics_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(row["name"], row["unit"]) for row in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(row["name"], row["unit"]) for row in spec["per_layer"]] == metrics.per_layer()
    assert [row["name"] for row in spec["workloads"]] == ["batch", "validate", "tune", "serve"]


def test_percentile_interpolates():
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert metrics.percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_smooth_percentile_weighs_every_neighbour():
    # Harrell-Davis: symmetric data give the middle, the weights sum to 1.
    assert metrics.smooth_percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert metrics.smooth_percentile([7.0] * 9, 99) == pytest.approx(7.0)
    # A gap at the median: the plain percentile jumps with one program,
    # the smooth one moves a little.
    low = [40.0] * 10 + [69.0] + [150.0] * 10
    high = [40.0] * 10 + [151.0] + [150.0] * 10
    assert metrics.percentile(high, 50) - metrics.percentile(low, 50) == pytest.approx(81.0)
    assert metrics.smooth_percentile(high, 50) - metrics.smooth_percentile(low, 50) < 81.0 / 4
    assert metrics.smooth_percentile([1.0, 2.0, 3.0, 100.0], 99) > 90.0


def test_a_serve_error_report_is_wrong_even_when_the_oracle_agrees():
    from perfbench import serve

    error = {"ok": False, "error": "parse error"}
    good = {"ok": True, "functions": [{"name": "f", "grade": "eps", "inference_seconds": 0.1}]}
    assert serve.wrong({"status": "ok", "report": error}, serve._functions(error))
    assert not serve.wrong({"status": "ok", "report": good}, [{"name": "f", "grade": "eps"}])
    assert serve.wrong({"status": "error"}, [{"name": "f", "grade": "eps"}])


def test_worker_pins_give_each_worker_a_cpu_of_its_own():
    from perfbench import serve

    spawned = b"python\0-c\0from multiprocessing.spawn import spawn_main; spawn_main(tracker_fd=5)\0--multiprocessing-fork"
    cmdlines = {
        41: spawned,
        43: spawned,
        42: b"python\0-c\0from multiprocessing.resource_tracker import main;main(4)",
        44: b"python\0-m\0repro\0serve",
    }
    assert serve.worker_pins(cmdlines, [0, 1]) == {41: 0, 43: 1}
    assert serve.worker_pins(cmdlines, [3]) == {41: 3, 43: 3}


def test_serve_schedule_is_seeded_and_holds_enough_misses():
    from perfbench import serve

    misses = serve.MIN_MISSES
    span = misses / serve.MISS_RATE
    hits = int(round(serve.HIT_RATE * span))
    plan = serve.schedule(5, span, hits, misses, 7)
    assert plan == serve.schedule(5, span, hits, misses, 7)
    assert plan != serve.schedule(6, span, hits, misses, 7)
    dues = [due for due, _kind, _index in plan]
    assert dues == sorted(dues)
    assert [index for _due, kind, index in plan if kind == "miss"] == list(range(misses))
    assert misses // 100 >= 10  # ten misses beyond the p99
