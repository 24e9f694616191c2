"""Differential measurement of one mixed-precision assignment.

The validation harness (:mod:`repro.validation.sampling`) measures a
*uniform* working precision; here every ``rnd`` site rounds in its own
format.  The mechanics are otherwise the same: deterministic in-box input
points, exact-rational execution of the ideal and floating-point
semantics, per-run RP distances against the ideal value, and a soundness
slack made of the working-precision-sqrt allowance plus one ``u_site^2``
second-order term per rounding actually executed (the round-down gap of
the paper's RP algebra, now format-dependent per site).

Sites are named by node identity in an *unshared* rebuild of the term
(:func:`repro.tuning.assignment.unshare_term`): hash-consing makes equal
subterms pointer-identical, so only an unshared tree gives every ``rnd``
occurrence a distinct identity for the evaluator's ``site_rounder``.
Everything here runs inline in whatever process certifies the candidate —
no nested pools, mirroring ``validate_item``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from ..core import ast as A
from ..core import types as T
from ..core.errors import LnumError
from ..core.inference import enumerate_rnd_sites
from ..core.semantics.evaluator import (
    EvaluationConfig,
    build_environment,
    run_monadic,
)
from ..core.semantics.randomized import stochastic_rounder
from ..core.signature import standard_signature
from ..floats.exactmath import exact_str, rp_distance_enclosure
from ..floats.formats import STANDARD_FORMATS
from ..floats.rounding import RoundingMode, round_to_precision
from ..validation.harness import ValidationSubject, _lift_argument, _sample_inputs
from ..validation.sampling import SampleOptions, _counting_sqrt_signature, point_seed
from .assignment import PrecisionAssignment, unshare_term

__all__ = ["MixedPoint", "MixedSummary", "measure_assignment", "sample_point_mixed"]


@dataclass(frozen=True)
class MixedPoint:
    """Errors observed at one input point under every rounding regime."""

    inputs: Dict[str, Fraction]
    runs: int = 0
    max_rel: Fraction = Fraction(0)
    max_rp: Fraction = Fraction(0)
    #: Largest per-run ``sum(u_site^2)`` over the roundings the run executed.
    rounding_slack: Fraction = Fraction(0)
    sqrt_calls: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class MixedSummary:
    """Aggregate over every sampled execution of one assignment."""

    ok: bool
    points: int
    runs: int
    max_rel: Fraction
    max_rp: Fraction
    rounding_slack: Fraction
    max_sqrt_calls: int
    seconds: float
    message: str = ""
    failed_points: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "points": self.points,
            "runs": self.runs,
            "max_relative_error": float(self.max_rel),
            "max_rp": float(self.max_rp),
            "max_rp_exact": exact_str(self.max_rp),
            "rounding_slack": float(self.rounding_slack),
            "max_sqrt_calls": self.max_sqrt_calls,
            "seconds": self.seconds,
            "message": self.message,
            "failed_points": self.failed_points,
        }


def sample_point_mixed(
    term: A.Term,
    skeleton: Dict[str, T.Type],
    env_inputs: Dict[str, Fraction],
    site_table: Dict[int, Tuple[int, Fraction]],
    stochastic_runs: int,
    seed: int,
    report_inputs: Optional[Dict[str, Fraction]] = None,
) -> MixedPoint:
    """Execute one input point under per-site rounding, all regimes.

    ``site_table`` maps ``id(rnd-node)`` to ``(precision, unit_roundoff)``;
    the caller must keep the nodes alive for the duration of the call so
    the ids stay unique.  Directed modes (toward +∞, toward −∞, to
    nearest) run once each, then ``stochastic_runs`` stochastic-rounding
    executions draw from a ``seed``-derived RNG — each site rounding
    stochastically at its own precision.
    """
    inputs = report_inputs if report_inputs is not None else env_inputs
    try:
        environment = build_environment(env_inputs, skeleton)
        sqrt_counter = [0]
        ideal = run_monadic(
            term,
            environment,
            EvaluationConfig(
                mode="ideal", signature=_counting_sqrt_signature(sqrt_counter)
            ),
        )
        if ideal <= 0:
            return MixedPoint(
                inputs=inputs, error=f"ideal value {ideal} is not strictly positive"
            )
        sqrt_calls = sqrt_counter[0]
        signature = standard_signature()

        max_rel = Fraction(0)
        max_rp = Fraction(0)
        worst_slack = Fraction(0)
        runs = 0

        def run_with(round_site) -> None:
            nonlocal max_rel, max_rp, worst_slack, runs
            slack = [Fraction(0)]

            def rounder(node: A.Rnd, value: Fraction) -> Fraction:
                precision, unit = site_table[id(node)]
                slack[0] += unit * unit
                return round_site(precision, value)

            value = run_monadic(
                term,
                environment,
                EvaluationConfig(mode="fp", signature=signature, site_rounder=rounder),
            )
            runs += 1
            if value <= 0:
                raise LnumError(f"mixed-precision execution produced non-positive {value}")
            rel = abs(value / ideal - 1)
            _low, rp_high = rp_distance_enclosure(ideal, value)
            if rel > max_rel:
                max_rel = rel
            if rp_high > max_rp:
                max_rp = rp_high
            if slack[0] > worst_slack:
                worst_slack = slack[0]

        for rounding in (
            RoundingMode.TOWARD_POSITIVE,
            RoundingMode.TOWARD_NEGATIVE,
            RoundingMode.NEAREST_EVEN,
        ):
            run_with(
                lambda precision, value, _r=rounding: round_to_precision(
                    value, precision, _r
                )
            )

        rng = random.Random(seed)
        for _ in range(stochastic_runs):
            run_with(
                lambda precision, value: stochastic_rounder(precision, rng)(value)
            )

        return MixedPoint(
            inputs=inputs,
            runs=runs,
            max_rel=max_rel,
            max_rp=max_rp,
            rounding_slack=worst_slack,
            sqrt_calls=sqrt_calls,
        )
    except (LnumError, ArithmeticError, ValueError, RecursionError) as error:
        return MixedPoint(inputs=inputs, error=f"{type(error).__name__}: {error}")


def _applied_term(
    subject: ValidationSubject, unshared: A.Term, inputs: Dict[str, Fraction]
) -> Tuple[A.Term, Dict[str, T.Type], Dict[str, Fraction]]:
    """The (term, skeleton, env-inputs) triple one point executes.

    Mirrors the harness's ``_point_task`` but applies the *unshared* term,
    so the embedded ``rnd`` nodes are the very objects the site table keys
    on (constant argument terms add no ``rnd`` sites).
    """
    if subject.parameters:
        applied: A.Term = unshared
        for name, tau in subject.parameters:
            applied = A.App(applied, _lift_argument(inputs[name], tau))
        return applied, {}, {}
    return unshared, dict(subject.skeleton), dict(inputs)


def measure_assignment(
    subject: ValidationSubject,
    assignment: PrecisionAssignment,
    sample: SampleOptions,
    key: str,
) -> MixedSummary:
    """Sample every point of one subject under one assignment, inline."""
    start = time.perf_counter()
    results: List[MixedPoint] = []
    try:
        unshared = unshare_term(subject.term)
        sites = enumerate_rnd_sites(unshared, subject.skeleton)
        if len(sites) != assignment.sites:
            raise LnumError(
                f"assignment has {assignment.sites} formats but the term has "
                f"{len(sites)} rnd sites"
            )
        site_table: Dict[int, Tuple[int, Fraction]] = {}
        for node, name in zip(sites, assignment.formats):
            fmt = STANDARD_FORMATS[name]
            site_table[id(node)] = (fmt.precision, fmt.unit_roundoff_directed)
        if len(site_table) != len(sites):
            raise LnumError("unshared term still shares rnd occurrences")
        for index in range(max(1, sample.points)):
            seed = point_seed(sample.seed, key, index)
            rng = random.Random(seed)
            inputs = _sample_inputs(subject, rng)
            term, skeleton, env_inputs = _applied_term(subject, unshared, inputs)
            results.append(
                sample_point_mixed(
                    term,
                    skeleton,
                    env_inputs,
                    site_table,
                    sample.stochastic_for_point(index),
                    seed,
                    inputs,
                )
            )
    except LnumError as error:
        results.append(MixedPoint(inputs={}, error=str(error)))
    seconds = time.perf_counter() - start
    good = [result for result in results if result.error is None]
    failed = [result for result in results if result.error is not None]
    if not good:
        message = failed[0].error if failed else "no input points sampled"
        return MixedSummary(
            ok=False,
            points=len(results),
            runs=0,
            max_rel=Fraction(0),
            max_rp=Fraction(0),
            rounding_slack=Fraction(0),
            max_sqrt_calls=0,
            seconds=seconds,
            message=message or "",
            failed_points=len(failed),
        )
    return MixedSummary(
        ok=True,
        points=len(results),
        runs=sum(result.runs for result in good),
        max_rel=max(result.max_rel for result in good),
        max_rp=max(result.max_rp for result in good),
        rounding_slack=max(result.rounding_slack for result in good),
        max_sqrt_calls=max(result.sqrt_calls for result in good),
        seconds=seconds,
        message="; ".join(result.error or "" for result in failed),
        failed_points=len(failed),
    )
