"""Operational semantics for the Section 7.2 rounding extensions.

The graded monads of Section 7.2 (non-deterministic, state-dependent and
probabilistic rounding) come with corresponding *executable* semantics:

* :func:`run_nondeterministic` enumerates every execution obtained by
  resolving each rounding to one of the two neighbouring floating-point
  values (round down or round up), returning the set of possible results —
  the operational counterpart of the powerset-layered monads ``TP±``;
* :func:`run_stochastic` samples executions under unbiased stochastic
  rounding, and :func:`stochastic_error_statistics` summarises the observed
  RP errors so they can be compared against the worst-case and expected-case
  grades of the probabilistic monads;
* :func:`run_with_rounding_schedule` runs the program with an explicit
  per-rounding schedule (a list of rounding modes), the operational analogue
  of state-dependent rounding where the machine state selects the mode.

All of these reuse the big-step evaluator with a custom ``rounder``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ...floats.exactmath import rp_distance_enclosure
from ...floats.rounding import RoundingMode, round_to_precision
from .. import ast as A
from ..signature import Signature
from .evaluator import EvaluationConfig, run_monadic
from .values import Environment

__all__ = [
    "run_nondeterministic",
    "run_stochastic",
    "run_with_rounding_schedule",
    "stochastic_round",
    "stochastic_rounder",
    "StochasticSummary",
    "StochasticStatistics",
    "stochastic_error_statistics",
]


def _neighbours(value: Fraction, precision: int) -> Tuple[Fraction, Fraction]:
    down = round_to_precision(value, precision, RoundingMode.TOWARD_NEGATIVE)
    up = round_to_precision(value, precision, RoundingMode.TOWARD_POSITIVE)
    return down, up


def run_nondeterministic(
    term: A.Term,
    environment: Environment | None = None,
    precision: int = 53,
    signature: Signature | None = None,
    max_paths: int = 4096,
) -> Set[Fraction]:
    """All results reachable by resolving every rounding up or down.

    The number of paths is exponential in the number of inexact roundings;
    ``max_paths`` caps the exploration (an error is raised if it would be
    exceeded, to avoid silently incomplete answers).
    """
    results: Set[Fraction] = set()
    pending: List[List[int]] = [[]]  # each entry: choices made so far (0 = down, 1 = up)
    explored = 0

    while pending:
        prefix = pending.pop()
        choices = list(prefix)
        used = 0
        branched = False

        def rounder(_node: A.Rnd, value: Fraction) -> Fraction:
            nonlocal used, branched
            down, up = _neighbours(value, precision)
            if down == up:
                return down
            if used < len(choices):
                selected = up if choices[used] else down
                used += 1
                return selected
            # First undetermined rounding on this path: schedule both branches.
            branched = True
            used += 1
            return down

        config = EvaluationConfig(mode="fp", signature=signature or _default_signature(), rounder=rounder)
        result = run_monadic(term, environment, config)
        explored += 1
        if explored > max_paths:
            raise RuntimeError(f"more than {max_paths} rounding paths; raise max_paths")
        if branched:
            # Re-explore with the first undetermined rounding forced both ways.
            pending.append(prefix + [1])
            pending.append(prefix + [0])
        else:
            results.add(result)
    return results


def _default_signature() -> Signature:
    from ..signature import standard_signature

    return standard_signature()


def run_with_rounding_schedule(
    term: A.Term,
    schedule: Sequence[RoundingMode],
    environment: Environment | None = None,
    precision: int = 53,
    signature: Signature | None = None,
) -> Fraction:
    """Run the FP semantics with the i-th rounding using ``schedule[i]``.

    When the schedule is shorter than the number of roundings the last mode is
    reused — modelling a machine whose rounding-mode register is set once and
    then left alone.
    """
    if not schedule:
        raise ValueError("the rounding schedule must contain at least one mode")
    counter = {"index": 0}

    def rounder(_node: A.Rnd, value: Fraction) -> Fraction:
        index = min(counter["index"], len(schedule) - 1)
        counter["index"] += 1
        return round_to_precision(value, precision, schedule[index])

    config = EvaluationConfig(mode="fp", signature=signature or _default_signature(), rounder=rounder)
    return run_monadic(term, environment, config)


def stochastic_round(value: Fraction, precision: int, rng: random.Random) -> Fraction:
    """The unbiased stochastic rounding operator ``ρ_sr`` at ``precision``.

    An inexact value rounds up with probability proportional to its
    distance from the lower neighbour, drawing one number from ``rng``;
    exact values draw nothing.  Same argument order as
    :func:`~repro.floats.rounding.round_to_precision`, with the RNG in the
    mode's place, so the differential executor
    (:func:`repro.validation.sampling.sample_point`) calls either one
    per rounding at each site's own precision.
    """
    down, up = _neighbours(value, precision)
    if down == up:
        return down
    probability_up = (value - down) / (up - down)
    return up if rng.random() < float(probability_up) else down


def stochastic_rounder(
    precision: int, rng: random.Random
) -> Callable[[A.Rnd, Fraction], Fraction]:
    """An evaluator ``rounder`` applying :func:`stochastic_round` at every site."""

    def rounder(_node: A.Rnd, value: Fraction) -> Fraction:
        return stochastic_round(value, precision, rng)

    return rounder


def run_stochastic(
    term: A.Term,
    environment: Environment | None = None,
    precision: int = 53,
    signature: Signature | None = None,
    rng: Optional[random.Random] = None,
) -> Fraction:
    """One execution under unbiased stochastic rounding."""
    rng = rng or random.Random()
    config = EvaluationConfig(
        mode="fp",
        signature=signature or _default_signature(),
        rounder=stochastic_rounder(precision, rng),
    )
    return run_monadic(term, environment, config)


@dataclass(frozen=True)
class StochasticSummary:
    """Summary of the RP errors observed over stochastic-rounding samples.

    Beyond the aggregate statistics, the summary names the worst case so
    soundness reports can point at the offending execution: ``worst_result``
    is the sampled floating-point value whose RP error was ``max_error``,
    and ``worst_sample`` is its 0-based sample index (re-running with the
    same seed replays it deterministically).
    """

    samples: int
    ideal_value: Fraction
    max_error: Fraction
    mean_error: Fraction
    distinct_results: int
    worst_result: Optional[Fraction] = None
    worst_sample: Optional[int] = None

    def within_worst_case(self, bound: Fraction) -> bool:
        return self.max_error <= bound

    def within_expected(self, bound: Fraction) -> bool:
        return self.mean_error <= bound


#: Backwards-compatible alias (the pre-validation name of the summary).
StochasticStatistics = StochasticSummary


def stochastic_error_statistics(
    term: A.Term,
    environment: Environment | None = None,
    samples: int = 100,
    precision: int = 53,
    signature: Signature | None = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> StochasticSummary:
    """Sample stochastic-rounding executions and summarise their RP errors.

    Seeding ergonomics: pass ``seed`` for a self-contained deterministic
    run, or an explicit ``rng`` to draw from a caller-owned stream (several
    summaries sharing one :class:`random.Random` never repeat each other's
    rounding choices; ``seed`` is ignored when ``rng`` is given).
    """
    from .evaluator import ideal_config

    if samples <= 0:
        raise ValueError("stochastic_error_statistics requires samples >= 1")
    rng = rng if rng is not None else random.Random(seed)
    ideal_value = run_monadic(term, environment, ideal_config(signature))
    errors: List[Fraction] = []
    results: Set[Fraction] = set()
    worst_result: Optional[Fraction] = None
    worst_sample: Optional[int] = None
    worst_error = Fraction(-1)
    for index in range(samples):
        result = run_stochastic(term, environment, precision, signature, rng)
        results.add(result)
        _, high = rp_distance_enclosure(ideal_value, result)
        error = Fraction(high)
        if error > worst_error:
            worst_error = error
            worst_result = result
            worst_sample = index
        errors.append(error)
    total = sum(errors, Fraction(0))
    return StochasticSummary(
        samples=samples,
        ideal_value=ideal_value,
        max_error=max(errors),
        mean_error=total / samples,
        distinct_results=len(results),
        worst_result=worst_result,
        worst_sample=worst_sample,
    )
