"""Tests for the perf subsystem (families, harness, gate)."""

import json
import os

import pytest

from repro.benchsuite.large import (
    conditional_ladder_benchmark,
    conditional_ladder_term,
    mixed_chain_benchmark,
    mixed_chain_expression,
)
from repro.core import types as T
from repro.core.ast import term_size
from repro.core.inference import infer
from repro.perf.bench import (
    compare_with_baseline,
    load_report,
    render_report,
    run_suite,
    write_report,
)
from repro.perf.families import FAMILIES, build_family, parameter_for_nodes


class TestFamilies:
    def test_registry_names(self):
        assert {
            "serial_sum",
            "horner",
            "dot_product",
            "conditional_ladder",
            "mixed_chain",
            "dag_fanout",
            "dag_cascade",
        } == set(FAMILIES)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families_scale_linearly(self, name):
        _, _, small, _ = build_family(name, 16)
        _, _, large, _ = build_family(name, 64)
        assert large > small
        density_small = small / 16
        density_large = large / 64
        assert density_large == pytest.approx(density_small, rel=0.25)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_parameter_for_nodes_hits_target(self, name):
        parameter = parameter_for_nodes(name, 2_000)
        _, _, nodes, _ = build_family(name, parameter)
        assert 1_500 <= nodes <= 2_500

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families_infer(self, name):
        term, skeleton, _, _ = build_family(name, 12)
        result = infer(term, skeleton)
        assert isinstance(result.type, T.Monadic)

    @pytest.mark.parametrize("name", ["dag_fanout", "dag_cascade"])
    def test_dag_families_share_subterms(self, name):
        _, _, tree, dag = build_family(name, 32)
        assert dag * 3 < tree  # heavy sharing is the family's whole point

    @pytest.mark.parametrize(
        "name", ["serial_sum", "dot_product", "conditional_ladder"]
    )
    def test_spine_families_report_matching_counts(self, name):
        # Sharing-free shapes: tree and DAG counts agree (up to leaf
        # collapse of repeated constants/variables).
        _, _, tree, dag = build_family(name, 32)
        assert dag <= tree <= dag * 1.2

    def test_conditional_ladder_structure(self):
        term, skeleton = conditional_ladder_term(10)
        assert term_size(term) == 4 * 10 + 2
        assert sum(1 for name in skeleton if name.startswith("b")) == 10

    def test_mixed_chain_alternates(self):
        from repro.frontend import expr as E

        expression = mixed_chain_expression(4)
        kinds = set()
        stack = [expression]
        while stack:
            node = stack.pop()
            kinds.add(type(node).__name__)
            for attr in ("left", "right"):
                child = getattr(node, attr, None)
                if child is not None:
                    stack.append(child)
        assert {"Add", "Mul"} <= kinds


class TestHarness:
    @pytest.fixture(scope="class")
    def tiny_report(self):
        # One small family, tiny sizes: fast enough for every CI run.
        return run_suite(
            quick=True, families=["serial_sum"], sizes=[300]
        )

    def test_report_shape(self, tiny_report):
        assert tiny_report["suite"] == "repro-perf"
        assert tiny_report["schema"] == 4
        names = [entry["name"] for entry in tiny_report["benchmarks"]]
        assert "infer/serial_sum/300" in names
        assert "grade/ring_ops" in names
        assert "context/wide_merge" in names
        assert "exactmath/rp_enclosure" in names
        for entry in tiny_report["benchmarks"]:
            assert entry["seconds"] > 0
            assert "legacy_seconds" not in entry
            assert "legacy_skipped" not in entry

    def test_write_and_load_round_trip(self, tiny_report, tmp_path):
        path = write_report(tiny_report, str(tmp_path / "bench.json"))
        assert load_report(path) == json.loads(json.dumps(tiny_report))

    def test_render_mentions_every_benchmark(self, tiny_report):
        rendered = render_report(tiny_report)
        for entry in tiny_report["benchmarks"]:
            assert entry["name"] in rendered
        assert "nan" not in rendered  # missing timings render as "-"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown inference families"):
            run_suite(families=["no_such_family"], sizes=[100])

    def test_dag_and_incremental_rows(self):
        report = run_suite(quick=True, sizes=[400])
        by_name = {entry["name"]: entry for entry in report["benchmarks"]}

        fanout = by_name["infer/dag_fanout/400"]
        assert fanout["dag_nodes"] < fanout["tree_nodes"] == fanout["nodes"]
        assert fanout["nomemo_seconds"] > 0
        assert fanout["memo_speedup"] == pytest.approx(
            fanout["nomemo_seconds"] / fanout["seconds"]
        )
        assert fanout["memo_hits"] > 0
        assert 0 < fanout["memo_hit_rate"] <= 1

        spine = by_name["infer/serial_sum/400"]
        assert spine["tree_nodes"] == spine["dag_nodes"] == spine["nodes"]
        assert "nomemo_seconds" not in spine  # sharing-free: nothing to compare

        replay = by_name["incremental/edit_replay/400"]
        assert replay["category"] == "incremental"
        assert replay["edits"] > 0
        assert replay["full_seconds"] > 0 and replay["cold_seconds"] > 0
        assert 0 < replay["memo_hit_rate"] <= 1
        assert replay["speedup"] == pytest.approx(
            replay["full_seconds"] / replay["seconds"]
        )

    def test_explicit_family_selection_skips_edit_replay(self):
        report = run_suite(
            quick=True, families=["serial_sum"], sizes=[200]
        )
        names = [entry["name"] for entry in report["benchmarks"]]
        assert not any(name.startswith("incremental/") for name in names)


class TestBaselineGate:
    def _report(self, target_seconds, anchors=(0.02, 0.03, 0.04)):
        # A handful of stable anchor benchmarks plus one benchmark of
        # interest, mirroring a real suite run.
        benchmarks = [
            {"name": f"anchor/{index}", "seconds": seconds}
            for index, seconds in enumerate(anchors)
        ]
        benchmarks.append({"name": "infer/serial_sum/300", "seconds": target_seconds})
        return {"benchmarks": benchmarks}

    def test_passes_within_ratio(self):
        ok, _ = compare_with_baseline(self._report(0.02), self._report(0.01), 3.0)
        assert ok

    def test_fails_beyond_ratio(self):
        ok, lines = compare_with_baseline(self._report(0.05), self._report(0.01), 3.0)
        assert not ok
        assert any("REGRESSED" in line for line in lines)

    def test_uniformly_slower_host_passes(self):
        # A CI runner 4x slower than the baseline machine shifts every
        # benchmark equally; the host-normalized gate must not fire.
        current = {
            "benchmarks": [
                {"name": entry["name"], "seconds": entry["seconds"] * 4}
                for entry in self._report(0.01)["benchmarks"]
            ]
        }
        ok, lines = compare_with_baseline(current, self._report(0.01), 3.0)
        assert ok, lines

    def test_faster_host_does_not_tighten_gate(self):
        # On a 10x faster machine a benchmark 2x over baseline is still ok.
        current = {
            "benchmarks": [
                {"name": entry["name"], "seconds": entry["seconds"] / 10}
                for entry in self._report(0.01)["benchmarks"][:-1]
            ]
            + [{"name": "infer/serial_sum/300", "seconds": 0.02}]
        }
        ok, lines = compare_with_baseline(current, self._report(0.01), 3.0)
        assert ok, lines

    def test_noise_floor_never_fails(self):
        # Microsecond-scale jitter on loaded CI machines must not fail CI.
        ok, _ = compare_with_baseline(self._report(0.004), self._report(0.0001), 3.0)
        assert ok

    def test_new_benchmarks_are_informational(self):
        ok, lines = compare_with_baseline(self._report(10.0), {"benchmarks": []}, 3.0)
        assert ok
        assert any("no baseline" in line for line in lines)


@pytest.mark.slow
class TestAtScale:
    def test_conditional_ladder_benchmark_50k_nodes(self):
        benchmark = conditional_ladder_benchmark(12_500)
        analysis = benchmark.analyze_lnum()
        assert str(analysis.result_type) == "M[0]num"

    def test_mixed_chain_benchmark_50k_nodes(self):
        benchmark = mixed_chain_benchmark(6_250)
        analysis = benchmark.analyze_lnum()
        assert analysis.error_grade is not None
