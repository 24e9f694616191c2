"""Empirical forward-error measurement for the validation harness.

For each program the harness draws deterministic input points from the
program's input box and, per point, executes the term under every rounding
regime the type-level bound must dominate:

* round toward positive / negative (the directed modes of the paper's
  instantiation),
* round to nearest (ties to even),
* ``k`` stochastic-rounding executions (:mod:`repro.core.semantics.randomized`).

Each execution's error against the ideal semantics is measured twice — as a
relative error ``|fl/ideal - 1|`` (what the baselines bound) and as an RP
distance ``|ln(fl/ideal)|`` (what graded inference bounds) — in exact
rational arithmetic, so two runs of the same seed produce bit-identical
summaries regardless of how the points were chunked across worker processes.

Every floating-point execution is instrumented to count the roundings it
performs (a rounded guard can send different modes down different
branches) and the ideal execution counts its (working-precision) square
roots; the former parameterises the textbook ``gamma_n`` backend, the
latter the soundness slack for the ideal semantics' inexact ``sqrt``.

This is the repo's one differential executor: ``repro tune`` measures a
mixed-precision assignment by passing :func:`sample_point` a per-site
precision table, and every run also tallies ``sum(u_site^2)`` over the
roundings it executed (the round-down slack, ``rounds * u^2`` when every
site rounds at the same precision).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import ast as A
from ..core import types as T
from ..core.errors import LnumError
from ..core.semantics.evaluator import (
    EvaluationConfig,
    build_environment,
    run_monadic,
)
from ..core.semantics.randomized import stochastic_round
from ..core.signature import Operation, Signature, standard_signature
from ..floats.exactmath import exact_str, rp_distance_enclosure
from ..floats.rounding import RoundingMode, round_to_precision

__all__ = [
    "EmpiricalSummary",
    "PointResult",
    "SampleOptions",
    "point_seed",
    "sample_point",
    "summarize_points",
]


@dataclass(frozen=True)
class SampleOptions:
    """How much empirical evidence to gather per program."""

    #: Input points drawn from the program's input box.
    points: int = 4
    #: Stochastic-rounding executions per program (split across the points;
    #: the three deterministic modes run at every point regardless).
    samples: int = 64
    #: Working precision of the floating-point semantics.
    precision: int = 53
    #: Master seed; every derived RNG is a pure function of it.
    seed: int = 0

    def stochastic_for_point(self, index: int) -> int:
        """Round-robin split of the stochastic budget across the points."""
        if self.points <= 0:
            return 0
        base, extra = divmod(max(0, self.samples), self.points)
        return base + (1 if index < extra else 0)


@dataclass(frozen=True)
class PointResult:
    """Errors observed at one input point (all modes)."""

    inputs: Dict[str, Fraction]
    runs: int = 0
    max_rel: Fraction = Fraction(0)
    max_rp: Fraction = Fraction(0)
    worst_mode: str = ""
    #: Maximum number of roundings executed by any single run at this
    #: point.  Every run is instrumented: a rounded guard can flip a
    #: branch between modes, putting more roundings on one path.
    rounds: int = 0
    #: Largest per-run ``sum(u_site^2)`` over the roundings that run
    #: executed (``rounds * u^2`` at uniform precision).
    rounding_slack: Fraction = Fraction(0)
    #: Working-precision square roots executed by the ideal run.
    sqrt_calls: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class EmpiricalSummary:
    """Aggregate of every sampled execution of one program."""

    ok: bool
    points: int
    runs: int
    max_rel: Fraction
    max_rp: Fraction
    worst_inputs: Dict[str, Fraction]
    worst_mode: str
    max_rounds: int
    max_sqrt_calls: int
    seconds: float
    message: str = ""
    failed_points: int = 0
    #: Largest per-run ``sum(u_site^2)`` of any point; not serialized.
    rounding_slack: Fraction = Fraction(0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "points": self.points,
            "runs": self.runs,
            "max_relative_error": float(self.max_rel),
            "max_relative_error_exact": exact_str(self.max_rel),
            "max_rp": float(self.max_rp),
            "max_rp_exact": exact_str(self.max_rp),
            "worst_inputs": {
                name: str(value) for name, value in self.worst_inputs.items()
            },
            "worst_mode": self.worst_mode,
            "max_rounds": self.max_rounds,
            "max_sqrt_calls": self.max_sqrt_calls,
            "seconds": self.seconds,
            "message": self.message,
            "failed_points": self.failed_points,
        }


def point_seed(master_seed: int, subject_key: str, index: int) -> int:
    """A stable per-point seed, independent of chunking and worker count."""
    digest = hashlib.sha256(
        f"{master_seed}|{subject_key}|{index}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _counting_sqrt_signature(counter: List[int]) -> Signature:
    """The standard signature with ``sqrt`` instrumented to count its calls."""
    base = standard_signature()
    operations = []
    for operation in base:
        if operation.name != "sqrt":
            operations.append(operation)
            continue
        inner = operation.func

        def counted(argument: object, _inner=inner) -> object:
            counter[0] += 1
            return _inner(argument)

        operations.append(
            Operation(
                name=operation.name,
                input_type=operation.input_type,
                result_type=operation.result_type,
                func=counted,
                justification=operation.justification,
            )
        )
    return Signature(operations)


def sample_point(
    term: A.Term,
    skeleton: Dict[str, T.Type],
    env_inputs: Dict[str, Fraction],
    stochastic: int,
    precision: int,
    seed: int,
    report_inputs: Optional[Dict[str, Fraction]] = None,
    site_precisions: Optional[Dict[int, int]] = None,
) -> PointResult:
    """Run every rounding regime at one input point and fold the errors.

    ``env_inputs`` populate the evaluation environment (empty for function
    subjects, whose inputs are baked in as constant arguments);
    ``report_inputs`` are the sampled values named in the summary either
    way.  ``site_precisions`` maps ``id(rnd node)`` to that site's
    precision for mixed-precision runs (the caller keeps the nodes alive so
    the ids stay unique); ``None`` rounds every site at ``precision``.
    Top-level (and, without a site table, purely value-in, value-out) so it
    pickles into the process pool; exceptions from the semantics become an
    ``error`` field rather than propagating, keeping one bad point from
    sinking a program.
    """
    inputs = report_inputs if report_inputs is not None else env_inputs
    try:
        environment = build_environment(env_inputs, skeleton)
        sqrt_counter = [0]
        ideal_signature = _counting_sqrt_signature(sqrt_counter)
        ideal = run_monadic(
            term, environment, EvaluationConfig(mode="ideal", signature=ideal_signature)
        )
        if ideal <= 0:
            return PointResult(
                inputs=inputs, error=f"ideal value {ideal} is not strictly positive"
            )
        sqrt_calls = sqrt_counter[0]

        # Each site rounds at its precision p and adds u_p^2 = 4^(1-p) of
        # slack, tallied as the integer 4^(top-p) in units of 4^(1-top).
        uniform = (precision, 1)
        table: Optional[Dict[int, Tuple[int, int]]] = None
        top = precision
        if site_precisions is not None:
            top = max(site_precisions.values(), default=precision)
            table = {
                site: (site_precision, 4 ** (top - site_precision))
                for site, site_precision in site_precisions.items()
            }

        max_rel = Fraction(0)
        max_rp = Fraction(0)
        worst_mode = ""
        runs = 0
        rounds = 0
        units = 0
        # Every execution counts the roundings it actually performed (a
        # rounded guard can send different modes down different branches,
        # so no single run's count is safe).
        signature = standard_signature()

        def run(
            mode: str, round_site: Callable[[Fraction, int, Any], Fraction], how: Any
        ) -> None:
            nonlocal max_rel, max_rp, worst_mode, runs, rounds, units
            tally = [0, 0]

            def rounder(node: A.Rnd, value: Fraction) -> Fraction:
                site_precision, site_units = uniform if table is None else table[id(node)]
                tally[0] += 1
                tally[1] += site_units
                return round_site(value, site_precision, how)

            value = run_monadic(
                term,
                environment,
                EvaluationConfig(mode="fp", signature=signature, rounder=rounder),
            )
            runs += 1
            if tally[0] > rounds:
                rounds = tally[0]
            if tally[1] > units:
                units = tally[1]
            if value <= 0:
                raise LnumError(f"{mode} execution produced non-positive {value}")
            rel = abs(value / ideal - 1)
            _low, rp_high = rp_distance_enclosure(ideal, value)
            if rel > max_rel or not worst_mode:
                worst_mode = mode
            if rel > max_rel:
                max_rel = rel
            if rp_high > max_rp:
                max_rp = rp_high

        run("ru", round_to_precision, RoundingMode.TOWARD_POSITIVE)
        run("rd", round_to_precision, RoundingMode.TOWARD_NEGATIVE)
        run("rn", round_to_precision, RoundingMode.NEAREST_EVEN)
        rng = random.Random(seed)
        for sample_index in range(stochastic):
            run(f"stochastic[{sample_index}]", stochastic_round, rng)

        return PointResult(
            inputs=inputs,
            runs=runs,
            max_rel=max_rel,
            max_rp=max_rp,
            worst_mode=worst_mode,
            rounds=rounds,
            rounding_slack=Fraction(units, 4 ** (top - 1)),
            sqrt_calls=sqrt_calls,
        )
    except (LnumError, ArithmeticError, ValueError, RecursionError) as error:
        return PointResult(inputs=inputs, error=f"{type(error).__name__}: {error}")


def summarize_points(
    results: Sequence[PointResult], seconds: float
) -> EmpiricalSummary:
    """Fold per-point results into one program-level summary."""
    good = [result for result in results if result.error is None]
    failed = [result for result in results if result.error is not None]
    if not good:
        message = failed[0].error if failed else "no input points sampled"
        return EmpiricalSummary(
            ok=False,
            points=len(results),
            runs=0,
            max_rel=Fraction(0),
            max_rp=Fraction(0),
            worst_inputs={},
            worst_mode="",
            max_rounds=0,
            max_sqrt_calls=0,
            seconds=seconds,
            message=message or "",
            failed_points=len(failed),
        )
    worst = max(good, key=lambda result: result.max_rel)
    return EmpiricalSummary(
        ok=True,
        points=len(results),
        runs=sum(result.runs for result in good),
        max_rel=worst.max_rel,
        max_rp=max(result.max_rp for result in good),
        worst_inputs=dict(worst.inputs),
        worst_mode=worst.worst_mode,
        max_rounds=max(result.rounds for result in good),
        max_sqrt_calls=max(result.sqrt_calls for result in good),
        seconds=seconds,
        rounding_slack=max(result.rounding_slack for result in good),
        message="; ".join(
            f"point {{{', '.join(f'{k}={v}' for k, v in result.inputs.items())}}}: "
            f"{result.error}"
            for result in failed
        ),
        failed_points=len(failed),
    )
