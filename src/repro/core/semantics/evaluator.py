"""Big-step evaluators for Λnum: the ideal and floating-point semantics.

The paper defines the two semantics by refining the operational semantics
with rules for ``rnd`` (Definition 4.16)::

    rnd k  ->_id  ret k            (rounding is the identity)
    rnd k  ->_fp  ret ρ(k)         (rounding applies the rounding operator)

The evaluators here are environment-based big-step interpreters computing the
same results as the small-step semantics (tests cross-check the two).  The FP
evaluator supports two rounding back-ends:

* the *standard model* back-end (default): ``ρ`` rounds to ``p`` significant
  bits in the chosen direction with an unbounded exponent, matching the
  assumption of Sections 5–6 that no overflow or underflow occurs;
* the *exceptional* back-end of Section 7.1: ``ρ*`` rounds into an actual
  IEEE format and produces the exceptional value ``err`` on overflow or on
  underflow to zero, which then propagates through ``let-bind``.

All numeric computation is exact rational arithmetic; ``sqrt`` is correctly
rounded to :data:`~repro.core.signature.WORKING_PRECISION` bits in the ideal
semantics and to the target precision in the FP semantics.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Tuple

from ...floats.exactmath import sqrt_round
from ...floats.formats import BINARY64, FloatFormat
from ...floats.rounding import RoundingMode, round_to_format, round_to_precision
from .. import ast as A
from .. import types as T
from ..errors import EvaluationError, FloatingPointExceptionError
from ..signature import Signature, standard_signature
from .values import (
    BoxV,
    ClosureV,
    Environment,
    ErrV,
    InlV,
    InrV,
    MonadicV,
    NumV,
    TensorV,
    UnitV,
    Value,
    WithV,
    from_plain,
    to_plain,
)

__all__ = [
    "EvaluationConfig",
    "ideal_config",
    "fp_config",
    "evaluate",
    "run_monadic",
    "run_both",
    "lift_input",
    "build_environment",
]

_MIN_RECURSION_LIMIT = 20_000


@dataclass(frozen=True)
class EvaluationConfig:
    """Which semantics to run and how rounding behaves."""

    mode: str = "ideal"  # "ideal" or "fp"
    signature: Signature = field(default_factory=standard_signature)
    precision: int = 53
    rounding: RoundingMode = RoundingMode.TOWARD_POSITIVE
    exceptional: bool = False
    fmt: FloatFormat = BINARY64
    #: Optional custom rounding overriding the standard model: called as
    #: ``rounder(node, value)`` with the ``A.Rnd`` node being evaluated, so
    #: mixed-precision runs can round each site in its own format (the tuner
    #: evaluates *unshared* trees, so node identity names the occurrence).
    rounder: Optional[Callable[[A.Rnd, Fraction], Fraction]] = None

    def round(self, value: Fraction) -> Value:
        """Apply the standard-model rounding operator ρ (or ρ*) and wrap the result."""
        if self.exceptional:
            result = round_to_format(value, self.fmt, self.rounding)
            if result.value is None or result.is_exceptional:
                return ErrV("overflow" if result.overflow else "underflow to zero")
            return NumV(result.value)
        return NumV(round_to_precision(value, self.precision, self.rounding))


def ideal_config(signature: Signature | None = None) -> EvaluationConfig:
    return EvaluationConfig(mode="ideal", signature=signature or standard_signature())


def fp_config(
    precision: int = 53,
    rounding: RoundingMode = RoundingMode.TOWARD_POSITIVE,
    signature: Signature | None = None,
    exceptional: bool = False,
    fmt: FloatFormat = BINARY64,
) -> EvaluationConfig:
    return EvaluationConfig(
        mode="fp",
        signature=signature or standard_signature(),
        precision=precision,
        rounding=rounding,
        exceptional=exceptional,
        fmt=fmt,
    )


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


def evaluate(term: A.Term, environment: Environment | None = None, config: EvaluationConfig | None = None) -> Value:
    """Evaluate a term to a value under the given semantics."""
    config = config or ideal_config()
    environment = dict(environment or {})
    if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
        sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
    return _eval(term, environment, config)


def _eval(term: A.Term, env: Environment, config: EvaluationConfig) -> Value:
    if isinstance(term, A.Var):
        try:
            return env[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r} at run time") from None
    if isinstance(term, A.Const):
        return NumV(term.value)
    if isinstance(term, A.UnitVal):
        return UnitV()
    if isinstance(term, A.Err):
        return ErrV()
    if isinstance(term, A.WithPair):
        return WithV(_eval(term.left, env, config), _eval(term.right, env, config))
    if isinstance(term, A.TensorPair):
        return TensorV(_eval(term.left, env, config), _eval(term.right, env, config))
    if isinstance(term, A.Inl):
        return InlV(_eval(term.value, env, config))
    if isinstance(term, A.Inr):
        return InrV(_eval(term.value, env, config))
    if isinstance(term, A.Lambda):
        return ClosureV(term.parameter, term.body, dict(env))
    if isinstance(term, A.Box):
        return BoxV(_eval(term.value, env, config))
    if isinstance(term, A.Ret):
        return MonadicV(_eval(term.value, env, config))
    if isinstance(term, A.Rnd):
        inner = _eval(term.value, env, config)
        if not isinstance(inner, NumV):
            raise EvaluationError(f"rnd applied to a non-numeric value {inner!r}")
        if config.mode == "ideal":
            return MonadicV(inner)
        if config.rounder is not None:
            return MonadicV(NumV(config.rounder(term, inner.value)))
        rounded = config.round(inner.value)
        if isinstance(rounded, ErrV):
            return rounded
        return MonadicV(rounded)
    if isinstance(term, A.App):
        function = _eval(term.function, env, config)
        argument = _eval(term.argument, env, config)
        if not isinstance(function, ClosureV):
            raise EvaluationError(f"application of a non-function value {function!r}")
        call_env = dict(function.environment)
        call_env[function.parameter] = argument
        return _eval(function.body, call_env, config)
    if isinstance(term, A.Proj):
        value = _eval(term.value, env, config)
        if not isinstance(value, WithV):
            raise EvaluationError(f"projection from a non-with-pair {value!r}")
        return value.left if term.index == 1 else value.right
    if isinstance(term, A.LetTensor):
        value = _eval(term.value, env, config)
        if not isinstance(value, TensorV):
            raise EvaluationError(f"let (x, y) = ... applied to {value!r}")
        inner_env = dict(env)
        inner_env[term.left_var] = value.left
        inner_env[term.right_var] = value.right
        return _eval(term.body, inner_env, config)
    if isinstance(term, A.Case):
        scrutinee = _eval(term.scrutinee, env, config)
        inner_env = dict(env)
        if isinstance(scrutinee, InlV):
            inner_env[term.left_var] = scrutinee.value
            return _eval(term.left_body, inner_env, config)
        if isinstance(scrutinee, InrV):
            inner_env[term.right_var] = scrutinee.value
            return _eval(term.right_body, inner_env, config)
        raise EvaluationError(f"case on a non-sum value {scrutinee!r}")
    if isinstance(term, A.LetBox):
        value = _eval(term.value, env, config)
        if not isinstance(value, BoxV):
            raise EvaluationError(f"let [x] = ... applied to {value!r}")
        inner_env = dict(env)
        inner_env[term.variable] = value.value
        return _eval(term.body, inner_env, config)
    if isinstance(term, A.LetBind):
        value = _eval(term.value, env, config)
        if isinstance(value, ErrV):
            # let-bind(err, x. f) ->_fp err (Section 7.1)
            return value
        if not isinstance(value, MonadicV):
            raise EvaluationError(f"let-bind applied to a non-monadic value {value!r}")
        inner_env = dict(env)
        inner_env[term.variable] = value.value
        return _eval(term.body, inner_env, config)
    if isinstance(term, A.Let):
        bound = _eval(term.bound, env, config)
        inner_env = dict(env)
        inner_env[term.variable] = bound
        return _eval(term.body, inner_env, config)
    if isinstance(term, A.Op):
        operation = config.signature.lookup(term.name)
        argument = _eval(term.value, env, config)
        plain = to_plain(argument)
        result = operation.apply(plain)
        return from_plain(result)
    raise EvaluationError(f"cannot evaluate term node {type(term).__name__}")


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------


def lift_input(value: object, tau: T.Type) -> Value:
    """Wrap a plain Python input according to the type it should inhabit."""
    if isinstance(tau, T.Num):
        return NumV(Fraction(value))
    if isinstance(tau, T.Unit):
        return UnitV()
    if isinstance(tau, T.Bang):
        return BoxV(lift_input(value, tau.inner))
    if isinstance(tau, T.Monadic):
        return MonadicV(lift_input(value, tau.inner))
    if isinstance(tau, (T.WithProduct, T.TensorProduct)):
        left, right = value  # type: ignore[misc]
        wrapper = WithV if isinstance(tau, T.WithProduct) else TensorV
        return wrapper(lift_input(left, tau.left), lift_input(right, tau.right))
    if isinstance(tau, T.SumType):
        if isinstance(value, bool):
            return InlV(UnitV()) if value else InrV(UnitV())
    raise EvaluationError(f"cannot lift input {value!r} at type {tau}")


def build_environment(
    inputs: Mapping[str, object], skeleton: Mapping[str, T.Type]
) -> Environment:
    """Build an evaluation environment from plain inputs and a type skeleton."""
    env: Environment = {}
    for name, value in inputs.items():
        if name not in skeleton:
            raise EvaluationError(f"input {name!r} does not appear in the skeleton")
        env[name] = lift_input(value, skeleton[name])
    return env


def _unwrap_monadic(value: Value) -> Fraction:
    if isinstance(value, ErrV):
        raise FloatingPointExceptionError(f"floating-point evaluation produced err: {value.reason}")
    if isinstance(value, MonadicV):
        inner = value.value
        if isinstance(inner, NumV):
            return inner.value
    if isinstance(value, NumV):
        return value.value
    raise EvaluationError(f"expected a monadic numeric result, got {value!r}")


def run_monadic(
    term: A.Term,
    environment: Environment | None = None,
    config: EvaluationConfig | None = None,
) -> Fraction:
    """Evaluate a program of type ``M_u num`` and return the numeric payload."""
    return _unwrap_monadic(evaluate(term, environment, config))


def run_both(
    term: A.Term,
    environment: Environment | None = None,
    precision: int = 53,
    rounding: RoundingMode = RoundingMode.TOWARD_POSITIVE,
    signature: Signature | None = None,
) -> Tuple[Fraction, Fraction]:
    """Run the ideal and floating-point semantics and return both results.

    This realises the pairing of Lemma 4.19: the first component is the ideal
    result, the second the floating-point result.
    """
    ideal = run_monadic(term, environment, ideal_config(signature))
    approx = run_monadic(term, environment, fp_config(precision, rounding, signature))
    return ideal, approx
