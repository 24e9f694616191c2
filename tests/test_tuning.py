"""Tests for grade-guided mixed-precision tuning (``repro tune``).

Covers the search layers bottom-up: the format ladder and assignment
algebra, the unsharing rebuild that names ``rnd`` occurrences, per-site
grade inference, candidate certification (including re-verifying a
returned winner at a *different* seed — the soundness claim the tuner
makes), search determinism, cache-key stability, the CLI exit codes, and
the ``tune`` op of the analysis service.
"""

import json
import os
import time
from fractions import Fraction

import pytest

from repro.analysis.batch import BatchItem
from repro.analysis.cache import AnalysisCache, config_key
from repro.core.errors import TypeInferenceError
from repro.core.grades import Grade
from repro.core.inference import InferenceConfig, enumerate_rnd_sites, infer
from repro.tuning import (
    FORMAT_COSTS,
    LADDER,
    PrecisionAssignment,
    TuningOptions,
    PrecisionTuner,
    candidate_key,
    certify_candidate,
    parse_fraction,
    tune_item,
    tuning_key,
    unshare_term,
)
from repro.validation.harness import subjects_from_item

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "programs"
)

FMA_SOURCE = open(os.path.join(EXAMPLES, "fma.lnum")).read()
PYTH_SOURCE = open(os.path.join(EXAMPLES, "pythagorean_sum.lnum")).read()

TWO_SITE_SOURCE = """
function Two (x: num) (y: num) (z: num) : M[2*eps]num {
  a = mul (x, y);
  let r = rnd a;
  b = add (|r, z|);
  rnd b
}
"""

#: Small sampling settings keep every certification in milliseconds.
FAST = TuningOptions(points=2, samples=4)


def subject_named(source, name=None, kind="lnum"):
    item = BatchItem(name="<test>", kind=kind, source=source)
    subjects = subjects_from_item(item)
    if name is None:
        return subjects[-1]
    for subject in subjects:
        if subject.name.endswith(f"::{name}"):
            return subject
    raise AssertionError(f"no subject {name!r}")


# ---------------------------------------------------------------------------
# Assignments and the unshare rebuild
# ---------------------------------------------------------------------------


class TestAssignment:
    def test_ladder_is_cost_ordered(self):
        costs = [FORMAT_COSTS[name] for name in LADDER]
        assert costs == sorted(costs)
        assert LADDER[-1] == "binary64"

    def test_cost_and_reduction(self):
        uniform = PrecisionAssignment.uniform("binary64", 4)
        assert uniform.cost == 32 and uniform.cost_reduction == 0.0
        mixed = uniform.with_format(0, "binary16").with_format(1, "bfloat16")
        assert mixed.cost == 2 + 1 + 8 + 8
        assert not mixed.is_uniform
        assert mixed.cost_reduction == pytest.approx(1 - 19 / 32)

    def test_narrowed_steps_down_the_ladder(self):
        assignment = PrecisionAssignment.uniform("binary32", 2)
        narrower = assignment.narrowed(1)
        assert narrower.formats == ("binary32", "binary16")
        floor = PrecisionAssignment.uniform("bfloat16", 1)
        assert floor.narrowed(0) is None

    def test_key_part_distinguishes_stochastic(self):
        plain = PrecisionAssignment.uniform("binary16", 2)
        noisy = PrecisionAssignment(formats=plain.formats, stochastic=True)
        assert plain.key_part() != noisy.key_part()

    def test_unshare_gives_unique_rnd_identities(self):
        subject = subject_named(PYTH_SOURCE, "PythagoreanSum")
        unshared = unshare_term(subject.term)
        sites = enumerate_rnd_sites(unshared, subject.skeleton)
        assert len(sites) == 5
        assert len({id(site) for site in sites}) == len(sites)
        # The rebuild must not change what the term means to inference.
        original = infer(subject.term, skeleton=subject.skeleton)
        rebuilt = infer(unshared, skeleton=subject.skeleton)
        assert str(original.type) == str(rebuilt.type)


# ---------------------------------------------------------------------------
# Per-site grade inference
# ---------------------------------------------------------------------------


def test_table5_tuning_matches_the_committed_bench_report():
    """Re-tuning two table5 programs at seed 0 reproduces BENCH_tuning.json's rows."""
    from repro.validation.bench import suite_subjects

    path = os.path.join(os.path.dirname(os.path.dirname(EXAMPLES)), "BENCH_tuning.json")
    with open(path) as handle:
        committed = {row["name"]: row for row in json.load(handle)["programs"]}
    wanted = {"table5::squareRoot3", "table5::HammarlingDistance"}
    subjects, _failures = suite_subjects(["table5"])
    subjects = [subject for subject in subjects if subject.name in wanted]
    with PrecisionTuner(jobs=1, options=TuningOptions(seed=0)) as tuner:
        result = tuner.tune_subjects(subjects)
    assert {report.name for report in result.reports} == wanted
    for report in result.reports:
        row = committed[report.name]
        assert report.assignment.counts() == row["assignment"]
        assert float(report.certified_rp) == row["certified_rp"]
        assert report.cost_reduction == row["cost_reduction"]


def test_to_dict_writes_exact_fields_past_the_int_digit_cap():
    from repro.tuning.search import CandidateCertificate, SubjectTuning

    huge = Fraction(1, 7**6000)  # a 5,071-digit denominator
    payloads = (
        CandidateCertificate(
            formats=("binary64",), stochastic=False, rp_bound=huge, sound=True,
            empirical_ok=True, max_rp=huge, slack=huge, seconds=0.0,
        ).to_dict(),
        SubjectTuning(
            name="p", kind="bench", status="tuned", target=huge, certified_rp=huge
        ).to_dict(),
    )
    for payload in payloads:
        decoded = json.loads(json.dumps(payload))
        exact = [value for key, value in decoded.items() if key.endswith("_exact")]
        assert exact and all(len(value) > 5000 for value in exact)


class TestSiteGrades:
    def test_site_grades_override_the_uniform_grade(self):
        subject = subject_named(FMA_SOURCE)
        sites = enumerate_rnd_sites(subject.term, subject.skeleton)
        assert len(sites) == 1
        config = InferenceConfig().with_rnd_site_grades(
            (Grade.constant(Fraction(1, 8)),)
        )
        judgement = infer(subject.term, skeleton=subject.skeleton, config=config)
        assert "1/8" in str(judgement.type)

    def test_site_count_mismatch_is_an_error(self):
        subject = subject_named(FMA_SOURCE)
        config = InferenceConfig().with_rnd_site_grades(
            (Grade.constant(Fraction(1, 8)), Grade.constant(Fraction(1, 8)))
        )
        with pytest.raises(TypeInferenceError):
            infer(subject.term, skeleton=subject.skeleton, config=config)

    def test_compiled_engine_rejects_site_grades(self):
        from repro.core.compiled import infer_compiled

        subject = subject_named(FMA_SOURCE)
        config = InferenceConfig().with_rnd_site_grades(
            (Grade.constant(Fraction(1, 8)),)
        )
        with pytest.raises(ValueError):
            infer_compiled(subject.term, skeleton=subject.skeleton, config=config)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


class TestCertification:
    def test_uniform_binary64_certifies_sound(self):
        subject = subject_named(FMA_SOURCE)
        assignment = PrecisionAssignment.uniform("binary64", 1)
        cert = certify_candidate(
            subject,
            assignment.formats,
            False,
            None,
            {"points": 2, "samples": 4, "seed": 0},
            "test-key",
        )
        assert cert.sound and cert.empirical_ok
        assert cert.rp_bound is not None and cert.max_rp <= cert.rp_bound + cert.slack

    def test_mixed_slack_sums_u_squared_of_each_executed_site(self):
        # Each run executes both sites once: u_binary16^2 + u_binary64^2.
        from repro.tuning import measure_assignment
        from repro.validation.sampling import SampleOptions

        subject = subject_named(TWO_SITE_SOURCE)
        assert len(enumerate_rnd_sites(subject.term, subject.skeleton)) == 2
        assignment = PrecisionAssignment(formats=("binary16", "binary64"))
        summary = measure_assignment(
            subject, assignment, SampleOptions(points=2, samples=4), "two-site"
        )
        assert summary.ok and summary.runs == 2 * 3 + 4
        assert summary.max_rounds == 2
        assert summary.rounding_slack == Fraction(1, 2**20) + Fraction(1, 2**104)
        # The binary16 site really rounds at 11 bits.
        assert summary.max_rp > Fraction(1, 2**16)

    def test_winner_re_certifies_at_a_different_seed(self):
        # The tuner's claim is per-configuration, not per-sample: a winning
        # assignment must stay certified when the empirical evidence is
        # drawn from a different seed.
        subject = subject_named(PYTH_SOURCE, "PythagoreanSum")
        with PrecisionTuner(options=FAST) as tuner:
            outcome = tuner.tune_subject(subject)
        assert outcome.status == "tuned"
        assert outcome.assignment is not None
        recheck = certify_candidate(
            subject,
            outcome.assignment.formats,
            outcome.assignment.stochastic,
            None,
            {"points": 3, "samples": 6, "seed": 12345},
            "recheck-key",
        )
        assert recheck.sound
        assert recheck.rp_bound == outcome.certified_rp
        assert outcome.target is not None
        assert recheck.rp_bound <= outcome.target


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_result(self):
        subject = subject_named(PYTH_SOURCE, "PythagoreanSum")
        outcomes = []
        for _ in range(2):
            with PrecisionTuner(options=FAST) as tuner:
                outcomes.append(tuner.tune_subject(subject))
        first, second = outcomes
        assert first.assignment.formats == second.assignment.formats
        assert first.certified_rp == second.certified_rp
        assert first.candidates == second.candidates

    def test_result_is_independent_of_jobs(self):
        subject = subject_named(PYTH_SOURCE, "scaled")
        with PrecisionTuner(jobs=1, options=FAST) as tuner:
            serial = tuner.tune_subject(subject)
        with PrecisionTuner(jobs=2, options=FAST) as tuner:
            fanned = tuner.tune_subject(subject)
        assert serial.assignment.formats == fanned.assignment.formats
        assert serial.certified_rp == fanned.certified_rp

    def test_different_seed_may_change_evidence_not_bound(self):
        # The certified bound is inference-side; seeds only move the
        # empirical evidence underneath it.
        subject = subject_named(FMA_SOURCE)
        with PrecisionTuner(options=FAST) as tuner:
            base = tuner.tune_subject(subject)
        with PrecisionTuner(
            options=TuningOptions(points=2, samples=4, seed=7)
        ) as tuner:
            moved = tuner.tune_subject(subject)
        assert base.assignment.formats == moved.assignment.formats
        assert base.certified_rp == moved.certified_rp


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


class TestCacheKeys:
    def test_tuning_key_is_stable(self):
        subject = subject_named(FMA_SOURCE)
        assert tuning_key(subject, None, FAST) == tuning_key(subject, None, FAST)

    def test_tuning_key_tracks_every_option(self):
        subject = subject_named(FMA_SOURCE)
        base = tuning_key(subject, None, FAST)
        variants = [
            TuningOptions(points=2, samples=4, seed=1),
            TuningOptions(points=2, samples=4, budget=12),
            TuningOptions(points=2, samples=4, stochastic=True),
            TuningOptions(points=2, samples=4, target=Fraction(1, 1000)),
            TuningOptions(points=2, samples=4, target_ratio=Fraction(2**20)),
            TuningOptions(points=3, samples=4),
            TuningOptions(points=2, samples=8),
        ]
        keys = {tuning_key(subject, None, options) for options in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_candidate_key_tracks_the_assignment(self):
        subject = subject_named(PYTH_SOURCE, "PythagoreanSum")
        uniform = PrecisionAssignment.uniform("binary16", 5)
        mixed = uniform.with_format(2, "binary32")
        assert candidate_key(subject, None, uniform, FAST) != candidate_key(
            subject, None, mixed, FAST
        )

    def test_config_key_includes_site_grades(self):
        plain = InferenceConfig()
        sited = plain.with_rnd_site_grades((Grade.constant(Fraction(1, 256)),))
        assert config_key(plain) != config_key(sited)

    def test_subject_cache_round_trip(self, tmp_path):
        subject = subject_named(FMA_SOURCE)
        cache = AnalysisCache(directory=str(tmp_path))
        with PrecisionTuner(cache=cache, options=FAST) as tuner:
            first = tuner.tune_subject(subject)
        with PrecisionTuner(cache=cache, options=FAST) as tuner:
            second = tuner.tune_subject(subject)
        assert not first.from_cache and second.from_cache
        assert second.assignment.formats == first.assignment.formats

    def test_parse_fraction_accepts_rationals_and_decimals(self):
        assert parse_fraction("1/1024") == Fraction(1, 1024)
        assert parse_fraction("0.25") == Fraction(1, 4)
        assert parse_fraction("1e-3") == Fraction(1, 1000)


# ---------------------------------------------------------------------------
# The work unit and the CLI
# ---------------------------------------------------------------------------


class TestTuneItem:
    def test_tune_item_ok(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        report = tune_item(item, options={"points": 2, "samples": 4})
        assert report.ok and report.verdict == "ok"
        assert report.reports[0].status == "tuned"
        assert report.reports[0].cost < report.reports[0].assignment.baseline_cost

    def test_tune_item_parse_error(self):
        item = BatchItem(name="bad", kind="lnum", source="function oops {")
        report = tune_item(item)
        assert not report.ok and report.verdict == "error"

    def test_unreachable_target_is_infeasible(self):
        item = BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)
        report = tune_item(
            item,
            options={"points": 2, "samples": 4, "target": f"1/{2 ** 200}"},
        )
        assert report.verdict == "infeasible"


class TestTuneCLI:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_requires_paths_or_suite(self):
        with pytest.raises(SystemExit):
            self.run_cli(["tune"])

    def test_tune_examples_ok(self, capsys, tmp_path):
        path = os.path.join(EXAMPLES, "fma.lnum")
        code = self.run_cli(
            [
                "tune", path,
                "--points", "2", "--samples", "4",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "tuned" in output and "cost" in output

    def test_unreachable_target_exits_1(self, capsys):
        path = os.path.join(EXAMPLES, "fma.lnum")
        code = self.run_cli(
            [
                "tune", path,
                "--points", "2", "--samples", "4", "--no-cache",
                "--target", f"1/{2 ** 200}",
            ]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_bad_targets_exit_with_a_message(self, capsys):
        path = os.path.join(EXAMPLES, "fma.lnum")
        for target in ("inf", "1/0", "1e10000000"):
            with pytest.raises(SystemExit) as info:
                self.run_cli(["tune", path, "--no-cache", "--target", target])
            assert str(info.value).startswith("repro tune: "), target

    def test_bad_program_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.lnum"
        bad.write_text("function oops {")
        code = self.run_cli(["tune", str(bad), "--no-cache"])
        assert code == 2

    def test_report_and_baseline_gate(self, capsys, tmp_path):
        path = os.path.join(EXAMPLES, "fma.lnum")
        out = tmp_path / "BENCH_tuning.json"
        code = self.run_cli(
            [
                "tune", path,
                "--points", "2", "--samples", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["tuned"] == 1
        assert report["programs"][0]["cost_reduction"] > 0
        # A run gated against its own report passes.
        code = self.run_cli(
            [
                "tune", path,
                "--points", "2", "--samples", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--baseline", str(out),
            ]
        )
        assert code == 0
        assert "tuning gate passed" in capsys.readouterr().out

    def test_json_output(self, capsys, tmp_path):
        path = os.path.join(EXAMPLES, "fma.lnum")
        code = self.run_cli(
            [
                "tune", path, "--json",
                "--points", "2", "--samples", "4",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuned"] == 1
        assert payload["reports"][0]["assignment"]["formats"] == ["binary16"]


# ---------------------------------------------------------------------------
# The service surface
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_server():
    from repro.perf.service_bench import _ServerHarness
    from repro.service import ServiceConfig

    with _ServerHarness(ServiceConfig()) as harness:
        yield harness.port


class TestServeTune:
    def test_client_tune_round_trip(self, live_server):
        from repro.service import ServiceClient

        with ServiceClient(port=live_server) as client:
            response = client.tune(FMA_SOURCE, name="fma", samples=4, points=2)
            assert response["status"] == "ok"
            report = response["report"]
            assert report["verdict"] == "ok"
            assert report["reports"][0]["status"] == "tuned"
            repeat = client.tune(FMA_SOURCE, name="fma", samples=4, points=2)
            assert repeat["cached"]
            stats = client.stats()
            assert stats["service"]["tune_requests"] == 2
            assert stats["tuning"]["subjects"] >= 1

    def test_bad_tune_params_rejected(self, live_server):
        from repro.service import ServiceClient, ServiceError

        with ServiceClient(port=live_server) as client:
            # Non-finite text, a zero denominator and an exponent whose
            # exact value would take seconds to build are each rejected
            # up front, well inside a second.
            for target in ("not-a-number", "inf", "1/0", "1e10000000"):
                started = time.monotonic()
                with pytest.raises(ServiceError) as info:
                    client.tune(FMA_SOURCE, target=target)
                assert info.value.response["code"] == 400, target
                assert time.monotonic() - started < 1.0, target
            with pytest.raises(ServiceError):
                client.tune(FMA_SOURCE, budget=0)

    def test_query_cli_tune_flag(self, live_server, capsys):
        from repro.cli import main

        path = os.path.join(EXAMPLES, "fma.lnum")
        code = main(
            [
                "query", path, "--tune",
                "--samples", "4", "--points", "2",
                "--port", str(live_server),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "tuned" in output and "assignment" in output

    def test_query_rejects_validate_plus_tune(self, live_server):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["query", "x.lnum", "--validate", "--tune"])
