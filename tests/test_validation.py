"""Tests for the differential soundness harness (``repro.validation``)."""

import os
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.analysis.batch import BatchItem
from repro.analysis.cache import AnalysisCache
from repro.core import ast as A
from repro.core import types as T
from repro.frontend import expr as E
from repro.validation.backends import (
    BackendBound,
    StandardBackend,
    TaylorBackend,
    default_backends,
)
from repro.validation.extract import ExtractionError, extract_program_expression
from repro.validation.harness import (
    ProgramValidation,
    ValidationEngine,
    ValidationOptions,
    ValidationResult,
    decide_backend_status,
    decide_verdict,
    subjects_from_item,
    validate_item,
    validation_key,
)
from repro.validation.sampling import EmpiricalSummary, point_seed

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "programs"
)

FMA_SOURCE = """
function FMA (x: num) (y: num) (z: num) : M[eps]num {
  a = mul (x, y);
  b = add (|a, z|);
  rnd b
}
"""

HORNER_SOURCE = FMA_SOURCE + """
function Horner2 (a0: num) (a1: num) (a2: num) (x: ![2]num) : M[2*eps]num {
  let [x1] = x;
  s1 = FMA a2 x1 a1;
  let z = s1;
  FMA z x1 a0
}
"""

EPS = Fraction(1, 2**52)


def _empirical(max_rel, max_rp=None, rounds=3, sqrt_calls=0, ok=True):
    max_rel = Fraction(max_rel)
    return EmpiricalSummary(
        ok=ok,
        points=2,
        runs=10,
        max_rel=max_rel,
        max_rp=Fraction(max_rp) if max_rp is not None else max_rel,
        worst_inputs={"x": Fraction(1, 2)},
        worst_mode="ru",
        max_rounds=rounds,
        max_sqrt_calls=sqrt_calls,
        seconds=0.0,
    )


class TestVerdictLogic:
    def test_sound_pair(self):
        bound = BackendBound(backend="b", relative_error=4 * EPS)
        report = decide_backend_status(bound, _empirical(2 * EPS), precision=53)
        assert report.status == "ok"
        assert report.tightness == pytest.approx(0.5)

    def test_violating_pair(self):
        bound = BackendBound(backend="b", relative_error=EPS)
        report = decide_backend_status(bound, _empirical(2 * EPS), precision=53)
        assert report.status == "violation"
        assert decide_verdict([report], _empirical(2 * EPS)) == "violation"

    def test_rp_domain_comparison_with_round_down_slack(self):
        # Empirical RP exceeding the grade by under rounds * u^2 is still
        # sound: the grade charges u per rounding while a round-down step
        # costs up to -ln(1-u) = u + u^2-ish.
        bound = BackendBound(backend="lnum", relative_error=2 * EPS, rp_bound=2 * EPS)
        just_over = 2 * EPS + Fraction(1, 2**104)
        report = decide_backend_status(
            bound, _empirical(2 * EPS, max_rp=just_over, rounds=2), precision=53
        )
        assert report.status == "ok"
        far_over = 2 * EPS + Fraction(8, 2**104)
        report = decide_backend_status(
            bound, _empirical(2 * EPS, max_rp=far_over, rounds=2), precision=53
        )
        assert report.status == "violation"

    def test_failed_and_unsupported_backends_do_not_decide(self):
        failed = decide_backend_status(
            BackendBound(backend="b", relative_error=None, failed=True, message="x"),
            _empirical(EPS),
            precision=53,
        )
        unsupported = decide_backend_status(
            BackendBound(backend="b", relative_error=None, unsupported=True),
            _empirical(EPS),
            precision=53,
        )
        assert failed.status == "failed"
        assert unsupported.status == "unsupported"
        assert decide_verdict([failed, unsupported], _empirical(EPS)) == "inconclusive"

    def test_inconclusive_without_empirical_evidence(self):
        bound = BackendBound(backend="b", relative_error=EPS)
        empirical = _empirical(0, ok=False)
        report = decide_backend_status(bound, empirical, precision=53)
        assert report.status == "unchecked"
        assert decide_verdict([report], empirical) == "inconclusive"

    def test_zero_error_is_sound_with_zero_tightness(self):
        bound = BackendBound(backend="b", relative_error=EPS)
        report = decide_backend_status(bound, _empirical(0, max_rp=0), precision=53)
        assert report.status == "ok"
        assert report.tightness == 0.0


class TestExpressionExtraction:
    def test_fma_extracts_to_mul_add(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        (subject,) = subjects_from_item(item)
        assert subject.expression is not None
        assert {name for name, _tau in subject.parameters} == {"x", "y", "z"}
        assert E.evaluate_exact(
            subject.expression, {"x": 2, "y": 3, "z": 5}
        ) == Fraction(11)

    def test_extraction_beta_reduces_through_definitions(self):
        item = BatchItem(name="horner", kind="lnum", source=HORNER_SOURCE)
        fma_subject, horner_subject = subjects_from_item(item)
        assert horner_subject.name.endswith("::Horner2")
        # a2*x^2 + a1*x + a0 at (a0, a1, a2, x) = (1, 2, 3, 10).
        assert E.evaluate_exact(
            horner_subject.expression, {"a0": 1, "a1": 2, "a2": 3, "x": 10}
        ) == Fraction(321)

    def test_conditionals_extract_to_cond(self):
        source = (
            "function pick (a: ![inf]num) (b: ![inf]num) : M[eps]num {\n"
            "  let [a1] = a;\n  let [b1] = b;\n"
            "  if geq (a1, b1) then rnd a1 else rnd b1\n}"
        )
        (subject,) = subjects_from_item(BatchItem(name="p", kind="lnum", source=source))
        assert isinstance(subject.expression, E.Cond)

    def test_unknown_shapes_raise_extraction_error(self):
        # A higher-order result is outside the fragment.
        term = A.Lambda("f", T.Arrow(T.NUM, T.NUM), A.Var("f"))
        with pytest.raises(ExtractionError):
            extract_program_expression(A.intern_term(term))


class TestStandardBackend:
    def test_gamma_uses_observed_rounds_not_node_counts(self):
        item = BatchItem(name="horner", kind="lnum", source=HORNER_SOURCE)
        _fma, horner = subjects_from_item(item)
        backend = StandardBackend()
        # Horner2 executes two FMA calls = 2 roundings, even though the
        # single FMA definition contains one syntactic rnd node.
        bound = backend.bound(horner, _empirical(EPS, rounds=2))
        assert bound.details["rounds"] == 2
        assert bound.relative_error == Fraction(2) * EPS / (1 - 2 * EPS)

    def test_needs_empirical_evidence(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        (subject,) = subjects_from_item(item)
        assert StandardBackend().bound(subject, None).unsupported

    def test_taylor_cap_marks_large_programs_unsupported(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        (subject,) = subjects_from_item(item)
        assert TaylorBackend(operation_cap=1).bound(subject).unsupported
        assert not TaylorBackend().bound(subject).failed


class TestEngine:
    def test_examples_are_sound(self):
        engine = ValidationEngine(
            jobs=1, options=ValidationOptions(points=2, samples=8)
        )
        result = engine.validate_paths([EXAMPLES])
        assert result.programs >= 4
        assert result.violations == 0 and result.errors == 0
        assert result.exit_code() == 0
        for report in result.reports:
            assert report.verdict == "sound"
            lnum = report.backend("lnum")
            assert lnum is not None and lnum.status == "ok"
            assert 0 <= lnum.tightness <= 1

    def test_fanout_determinism_under_fixed_seed(self):
        options = ValidationOptions(points=3, samples=9, seed=7)
        serial = ValidationEngine(jobs=1, options=options).validate_paths([EXAMPLES])
        with ValidationEngine(jobs=2, options=options) as engine:
            parallel = engine.validate_paths([EXAMPLES])
        assert [r.name for r in serial.reports] == [r.name for r in parallel.reports]
        for left, right in zip(serial.reports, parallel.reports):
            assert left.verdict == right.verdict
            assert left.empirical.max_rel == right.empirical.max_rel
            assert left.empirical.max_rp == right.empirical.max_rp
            assert left.empirical.worst_inputs == right.empirical.worst_inputs
            assert left.empirical.max_rounds == right.empirical.max_rounds

    def test_seed_changes_the_sampled_points(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        (subject,) = subjects_from_item(item)
        one = ValidationEngine(
            jobs=1, options=ValidationOptions(points=1, samples=2, seed=1)
        ).validate_subject(subject)
        two = ValidationEngine(
            jobs=1, options=ValidationOptions(points=1, samples=2, seed=2)
        ).validate_subject(subject)
        assert one.empirical.worst_inputs != two.empirical.worst_inputs

    def test_parse_failure_is_an_error_verdict(self, tmp_path):
        broken = tmp_path / "broken.lnum"
        broken.write_text("function f (x num { rnd x }")
        result = ValidationEngine(
            jobs=1, options=ValidationOptions(points=1, samples=1)
        ).validate_paths([str(broken)])
        assert result.errors == 1
        assert result.exit_code() == 2


class TestCacheKeys:
    def _subject(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        return subjects_from_item(item)[0]

    def test_key_is_stable_for_identical_runs(self):
        options = ValidationOptions(points=2, samples=8, seed=3)
        assert validation_key(self._subject(), None, options) == validation_key(
            self._subject(), None, options
        )

    def test_key_covers_every_sampling_parameter(self):
        subject = self._subject()
        base = ValidationOptions(points=2, samples=8, seed=3)
        key = validation_key(subject, None, base)
        assert validation_key(subject, None, replace(base, samples=9)) != key
        assert validation_key(subject, None, replace(base, points=3)) != key
        assert validation_key(subject, None, replace(base, seed=4)) != key
        assert validation_key(subject, None, replace(base, precision=24)) != key

    def test_key_covers_the_declared_input_error_model(self):
        base = ValidationOptions(points=2, samples=8)
        plain = self._subject()
        with_errors = self._subject()
        with_errors.input_errors = {"x": Fraction(1, 2**52)}
        assert validation_key(plain, None, base) != validation_key(
            with_errors, None, base
        )

    def test_point_seed_is_chunking_independent(self):
        assert point_seed(0, "k", 1) == point_seed(0, "k", 1)
        assert point_seed(0, "k", 1) != point_seed(0, "k", 2)
        assert point_seed(0, "k", 1) != point_seed(1, "k", 1)

    def test_cached_results_are_replayed(self, tmp_path):
        cache = AnalysisCache(directory=str(tmp_path))
        options = ValidationOptions(points=1, samples=2)
        engine = ValidationEngine(jobs=1, cache=cache, options=options)
        first = engine.validate_subject(self._subject())
        second = engine.validate_subject(self._subject())
        assert not first.from_cache and second.from_cache
        assert second.verdict == first.verdict
        # A fresh process (fresh engine) hits the disk tier.
        warm_engine = ValidationEngine(
            jobs=1, cache=AnalysisCache(directory=str(tmp_path)), options=options
        )
        warm = warm_engine.validate_subject(self._subject())
        assert warm.from_cache


class TestValidateItem:
    def test_item_validation_shape(self):
        item = BatchItem(name="horner", kind="lnum", source=HORNER_SOURCE)
        result = validate_item(item, options={"points": 1, "samples": 2})
        assert result.ok and result.verdict == "sound"
        assert [r.name.split("::")[-1] for r in result.reports] == ["FMA", "Horner2"]
        payload = result.to_dict()
        assert payload["verdict"] == "sound"
        assert payload["reports"][0]["backends"]

    def test_parse_failure(self):
        item = BatchItem(name="broken", kind="lnum", source="function f (x num {")
        result = validate_item(item)
        assert not result.ok and result.verdict == "error"

    def test_empty_source_is_inconclusive_not_sound(self):
        item = BatchItem(name="empty", kind="lnum", source="# just a comment\n")
        result = validate_item(item)
        assert result.ok and result.reports == []
        assert result.verdict == "inconclusive"

    def test_binary32_backends_match_the_sampling_precision(self):
        from repro.core.grades import Grade
        from repro.core.inference import InferenceConfig
        from repro.floats.formats import STANDARD_FORMATS

        fmt = STANDARD_FORMATS["binary32"]
        config = InferenceConfig().with_rnd_grade(
            Grade.constant(fmt.unit_roundoff(True))
        )
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        (subject,) = subjects_from_item(item)
        engine = ValidationEngine(
            jobs=1,
            config=config,
            options=ValidationOptions(points=2, samples=8, precision=fmt.precision),
        )
        report = engine.validate_subject(subject)
        # Empirical errors are ~2^-24; every backend must claim at the same
        # precision or flag spurious violations.
        assert report.verdict == "sound"
        assert report.empirical.max_rel > Fraction(1, 2**40)
        for backend_report in report.backends:
            assert backend_report.status != "violation"


class TestCli:
    def test_sound_corpus_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            ["validate", EXAMPLES, "--points", "1", "--samples", "4", "--no-cache"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SOUND" in output and "violation" in output

    def test_violation_exits_nonzero(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.validation import harness

        def fake_validate_subjects(self, subjects):
            return ValidationResult(
                reports=[
                    ProgramValidation(name="prog", kind="lnum", verdict="violation")
                ],
                wall_seconds=0.0,
                jobs=1,
            )

        monkeypatch.setattr(
            harness.ValidationEngine, "validate_subjects", fake_validate_subjects
        )
        code = main(["validate", EXAMPLES, "--no-cache"])
        assert code == 1
        capsys.readouterr()

    def test_parse_error_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        broken = tmp_path / "broken.lnum"
        broken.write_text("function f (x num { rnd x }")
        assert main(["validate", str(broken), "--no-cache"]) == 2
        capsys.readouterr()

    def test_requires_paths_or_suite_or_inputs(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["validate"])

    def test_nearest_is_rejected_in_corpus_mode(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["validate", EXAMPLES, "--nearest"])

    def test_zero_points_is_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["validate", EXAMPLES, "--points", "0", "--no-cache"])
        with pytest.raises(ValueError):
            ValidationOptions(points=0)

    def test_json_and_bench_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            [
                "validate",
                os.path.join(EXAMPLES, "fma.lnum"),
                "--points",
                "1",
                "--samples",
                "2",
                "--no-cache",
                "--json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.split("report written")[0])
        assert payload["aggregate"]["violations"] == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        (entry,) = report["programs"]
        assert entry["verdict"] == "sound"
        assert 0 <= entry["backends"]["lnum"]["tightness"] <= 1


class TestBaselineGate:
    def _report(self, tightness=0.5, status="ok", verdict="sound"):
        return {
            "schema": 1,
            "programs": [
                {
                    "name": "p",
                    "verdict": verdict,
                    "backends": {
                        "lnum": {"status": status, "bound": 1e-16, "tightness": tightness}
                    },
                }
            ],
        }

    def test_gate_passes_on_identical_reports(self):
        from repro.validation.bench import compare_with_baseline

        ok, _lines = compare_with_baseline(self._report(), self._report())
        assert ok

    def test_gate_fails_on_violation(self):
        from repro.validation.bench import compare_with_baseline

        ok, lines = compare_with_baseline(
            self._report(verdict="violation"), self._report()
        )
        assert not ok and any("VIOLATION" in line for line in lines)

    def test_gate_fails_on_loosened_bound(self):
        from repro.validation.bench import compare_with_baseline

        ok, lines = compare_with_baseline(
            self._report(tightness=0.05), self._report(tightness=0.5), max_loosening=4.0
        )
        assert not ok and any("loosened" in line for line in lines)

    def test_gate_fails_when_a_backend_loses_its_bound(self):
        from repro.validation.bench import compare_with_baseline

        ok, lines = compare_with_baseline(
            self._report(status="failed"), self._report()
        )
        assert not ok and any("lost its bound" in line for line in lines)

    def test_new_programs_are_informational(self):
        from repro.validation.bench import compare_with_baseline

        ok, lines = compare_with_baseline(self._report(), {"programs": []})
        assert ok and any("new" in line for line in lines)

    def test_subset_runs_leave_missing_rows_informational(self):
        from repro.validation.bench import compare_with_baseline

        baseline = self._report()
        baseline["programs"].append(dict(baseline["programs"][0], name="other::q"))
        ok, lines = compare_with_baseline(self._report(), baseline)
        assert ok and any("missing" in line for line in lines)

    def test_parse_regression_swallowing_rows_fails_the_gate(self):
        from repro.validation.bench import compare_with_baseline

        baseline = {
            "programs": [
                {
                    "name": "dir/prog.lnum::FMA",
                    "verdict": "sound",
                    "backends": {"lnum": {"status": "ok", "tightness": 0.5}},
                }
            ]
        }
        # The file now fails to parse: one error row, function rows gone.
        current = {
            "programs": [
                {"name": "dir/prog.lnum", "verdict": "error", "backends": {}}
            ]
        }
        ok, lines = compare_with_baseline(current, baseline)
        assert not ok
        assert any("lost to an error" in line for line in lines)


class TestStochasticSummarySatellite:
    def test_summary_names_the_worst_sample(self):
        from repro.core.parser import parse_term
        from repro.core.semantics.evaluator import build_environment
        from repro.core.semantics.randomized import stochastic_error_statistics

        term = parse_term("rnd x")
        env = build_environment({"x": Fraction(1, 10)}, {"x": T.NUM})
        summary = stochastic_error_statistics(term, env, samples=20, seed=3)
        assert summary.worst_result is not None
        assert 0 <= summary.worst_sample < 20
        _, high = __import__(
            "repro.floats.exactmath", fromlist=["rp_distance_enclosure"]
        ).rp_distance_enclosure(summary.ideal_value, summary.worst_result)
        assert Fraction(high) == summary.max_error

    def test_explicit_rng_overrides_seed(self):
        import random

        from repro.core.parser import parse_term
        from repro.core.semantics.evaluator import build_environment
        from repro.core.semantics.randomized import stochastic_error_statistics

        term = parse_term("rnd x")
        env = build_environment({"x": Fraction(1, 10)}, {"x": T.NUM})
        one = stochastic_error_statistics(term, env, samples=5, rng=random.Random(9))
        two = stochastic_error_statistics(term, env, samples=5, rng=random.Random(9))
        assert one == two

    def test_rejects_zero_samples(self):
        from repro.core.parser import parse_term
        from repro.core.semantics.randomized import stochastic_error_statistics

        with pytest.raises(ValueError):
            stochastic_error_statistics(parse_term("rnd x"), None, samples=0)


def test_table5_matches_the_committed_bench_report():
    """Re-validating table5 at seed 0 reproduces BENCH_validation.json's rows."""
    import json

    from repro.validation.bench import suite_subjects

    path = os.path.join(os.path.dirname(os.path.dirname(EXAMPLES)), "BENCH_validation.json")
    with open(path) as handle:
        committed = {row["name"]: row for row in json.load(handle)["programs"]}
    subjects, failures = suite_subjects(["table5"])
    assert not failures
    with ValidationEngine(jobs=1, options=ValidationOptions(seed=0)) as engine:
        result = engine.validate_subjects(subjects)
    assert len(result.reports) == 4
    for report in result.reports:
        row = committed[report.name]
        assert report.verdict == row["verdict"]
        assert float(report.empirical.max_rp) == row["empirical_max_rp"]
        assert float(report.empirical.max_rel) == row["empirical_max_rel"]
        assert report.empirical.worst_mode == row["worst_mode"]


def test_to_dict_writes_exact_fields_past_the_int_digit_cap():
    import json

    huge = Fraction(1, 7**6000)  # a 5,071-digit denominator
    for payload in (
        _empirical(huge).to_dict(),
        BackendBound(backend="gappa_like", relative_error=huge).to_dict(),
    ):
        decoded = json.loads(json.dumps(payload))
        exact = [value for key, value in decoded.items() if key.endswith("_exact")]
        assert exact and all(len(value) > 5000 for value in exact)


def test_default_backends_filter():
    backends = default_backends(names=["lnum", "gappa_like"])
    assert [backend.name for backend in backends] == ["lnum", "gappa_like"]
    with pytest.raises(ValueError):
        default_backends(names=["nope"])


@pytest.mark.parametrize("suite", ["table3", "table5"])
def test_a_uniform_site_table_reproduces_the_uniform_run(suite):
    """Mapping every site of the unshared term to 53 bits changes nothing."""
    from repro.core.inference import enumerate_rnd_sites
    from repro.tuning.assignment import unshare_term
    from repro.validation.bench import suite_subjects
    from repro.validation.harness import point_tasks
    from repro.validation.sampling import SampleOptions, sample_point

    subjects, failures = suite_subjects([suite])
    assert subjects and not failures
    sample = SampleOptions(points=2, samples=2, seed=7)
    for subject in subjects:
        key = validation_key(subject, None, ValidationOptions())
        unshared = unshare_term(subject.term)
        table = {id(node): 53 for node in enumerate_rnd_sites(unshared, subject.skeleton)}
        uniform_tasks = point_tasks(subject, sample, key)
        sited_tasks = point_tasks(subject, sample, key, unshared)
        for uniform_task, sited_task in zip(uniform_tasks, sited_tasks):
            uniform = sample_point(*uniform_task)
            sited = sample_point(*sited_task, table)
            assert sited == uniform, subject.name
            assert uniform.error is None, (subject.name, uniform.error)
            assert uniform.rounding_slack == uniform.rounds * Fraction(1, 2**104)
