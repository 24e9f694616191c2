"""Bound-producing backends behind one protocol.

Every analyser that claims a *sound* worst-case rounding-error bound is
wrapped as a :class:`BoundBackend`, so the differential harness can run all
of them uniformly over one program and compare each claim against the same
empirical executions:

* ``lnum`` — graded inference (the paper's type system, the bound under
  test), through the DAG-memoized engine;
* ``gappa_like`` — interval propagation of relative-error enclosures
  (:mod:`repro.baselines.gappa_like`);
* ``fptaylor_like`` — first-order symbolic Taylor forms
  (:mod:`repro.baselines.fptaylor_like`);
* ``standard_bounds`` — the textbook ``gamma_n`` bound
  (:mod:`repro.baselines.standard_bounds`) instantiated with the number of
  roundings the sampled executions actually performed.

The empirical executions mix round-up, round-down, round-to-nearest and
stochastic rounding, so the baseline analysers are instantiated with the
*symmetric* standard model ``|delta| <= u`` at the directed unit roundoff
``u = 2^(1-p)`` — the smallest enclosure that covers every neighbour-
returning rounding the sampler exercises.  A one-sided instantiation (the
paper's round-toward-positive tables) would under-cover round-down steps and
report spurious violations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..analysis.analyzer import analyze_term
from ..baselines.fptaylor_like import FPTaylorLikeAnalyzer
from ..baselines.gappa_like import BaselineResult, GappaLikeAnalyzer
from ..baselines.standard_bounds import gamma
from ..core.inference import InferenceConfig
from ..floats.exactmath import exact_str
from ..floats.formats import BINARY64, FloatFormat
from ..floats.rounding import RoundingMode
from ..frontend import expr as E

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .harness import ValidationSubject
    from .sampling import EmpiricalSummary

__all__ = [
    "BackendBound",
    "BoundBackend",
    "GradedInferenceBackend",
    "IntervalBackend",
    "TaylorBackend",
    "StandardBackend",
    "default_backends",
    "TAYLOR_OPERATION_CAP",
]

#: The Taylor-form baseline differentiates once per rounded node and
#: interval-evaluates each derivative, an O(n^2)-and-worse optimiser; beyond
#: this many rounded operations it is reported as unsupported rather than
#: letting one SerialSum-sized program dominate a validation sweep.
TAYLOR_OPERATION_CAP = 128


@dataclass(frozen=True)
class BackendBound:
    """One backend's claim about one program."""

    backend: str
    #: A sound worst-case bound on ``|fl(f)/f - 1|``, or None when the
    #: backend failed or does not support the program.
    relative_error: Optional[Fraction]
    #: The bound in the RP metric (``|ln(fl(f)/f)|``), when the backend
    #: natively produces one (graded inference does; the others do not).
    rp_bound: Optional[Fraction] = None
    seconds: float = 0.0
    #: ``failed`` — the backend supports the program but could not produce a
    #: bound; ``unsupported`` — the program is outside the backend's fragment.
    failed: bool = False
    unsupported: bool = False
    message: str = ""
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def has_bound(self) -> bool:
        return not self.failed and not self.unsupported and self.relative_error is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "relative_error": (
                None if self.relative_error is None else float(self.relative_error)
            ),
            "relative_error_exact": (
                None if self.relative_error is None else exact_str(self.relative_error)
            ),
            "rp_bound": None if self.rp_bound is None else float(self.rp_bound),
            "seconds": self.seconds,
            "failed": self.failed,
            "unsupported": self.unsupported,
            "message": self.message,
            "details": dict(self.details),
        }


class BoundBackend:
    """Protocol: produce a sound error bound for one validation subject.

    ``empirical`` is the already-measured execution summary; most backends
    ignore it, but the textbook ``gamma_n`` bound is parameterised by the
    number of roundings the executions performed, which is only known after
    sampling (a let-bound function applied twice executes its roundings
    twice, so no static node count is safe).
    """

    name: str = "backend"

    def bound(
        self,
        subject: "ValidationSubject",
        empirical: Optional["EmpiricalSummary"] = None,
    ) -> BackendBound:
        raise NotImplementedError

    def _unsupported(self, message: str) -> BackendBound:
        return BackendBound(
            backend=self.name, relative_error=None, unsupported=True, message=message
        )


class GradedInferenceBackend(BoundBackend):
    """The bound under test: graded inference through the memoized engine."""

    name = "lnum"

    def __init__(
        self, config: Optional[InferenceConfig] = None, memo: Any = None
    ) -> None:
        self.config = config
        #: A shared :class:`~repro.core.inference.JudgementMemo`: subterms
        #: common across a validation sweep's programs are inferred once.
        self.memo = memo

    def bound(
        self,
        subject: "ValidationSubject",
        empirical: Optional["EmpiricalSummary"] = None,
    ) -> BackendBound:
        start = time.perf_counter()
        try:
            analysis = analyze_term(
                subject.term,
                subject.skeleton,
                self.config,
                name=subject.name,
                memo=self.memo if self.memo is not None else True,
            )
        except Exception as error:  # LnumError subclasses and friends
            return BackendBound(
                backend=self.name,
                relative_error=None,
                seconds=time.perf_counter() - start,
                failed=True,
                message=f"{type(error).__name__}: {error}",
            )
        elapsed = time.perf_counter() - start
        if analysis.error_grade is None:
            return BackendBound(
                backend=self.name,
                relative_error=None,
                seconds=elapsed,
                failed=True,
                message="no monadic error grade in the result type",
            )
        if analysis.relative_error_bound is None or analysis.rp_bound is None:
            return BackendBound(
                backend=self.name,
                relative_error=None,
                seconds=elapsed,
                failed=True,
                message=f"infinite error grade {analysis.error_grade}",
                details={"grade": str(analysis.error_grade)},
            )
        return BackendBound(
            backend=self.name,
            relative_error=analysis.relative_error_bound,
            rp_bound=analysis.rp_bound,
            seconds=elapsed,
            details={
                "grade": str(analysis.error_grade),
                "type": str(analysis.result_type),
                "operations": analysis.operations,
            },
        )


def _symmetric_analyzer(cls: type, fmt: FloatFormat) -> Any:
    """Instantiate a baseline analyser with the symmetric ``|delta| <= u`` model.

    ``NEAREST_EVEN`` selects the symmetric rounding interval; the unit
    roundoff is then widened to the directed ``2^(1-p)`` so the enclosure
    covers round-up, round-down and stochastic executions alike.
    """
    analyzer = cls(fmt, RoundingMode.NEAREST_EVEN)
    analyzer.unit_roundoff = fmt.unit_roundoff_directed
    return analyzer


def _count_operations_capped(expression: E.RealExpr, cap: int) -> int:
    """Rounded-operation count, stopping once ``cap`` is exceeded.

    Extracted expressions can share subtrees (a let-bound value used twice is
    one object referenced twice); counting with an explicit budget keeps this
    linear in the visited prefix instead of exponential in the sharing depth.
    """
    count = 0
    stack: List[E.RealExpr] = [expression]
    while stack and count <= cap:
        node = stack.pop()
        if isinstance(node, (E.Add, E.Sub, E.Mul, E.Div, E.Sqrt, E.Fma)):
            count += 1
        stack.extend(node.children())
    return count


def _from_baseline(name: str, result: BaselineResult) -> BackendBound:
    if result.failed or result.relative_error is None:
        return BackendBound(
            backend=name,
            relative_error=None,
            seconds=result.seconds,
            failed=True,
            message=result.message or "no relative-error bound",
        )
    return BackendBound(
        backend=name,
        relative_error=Fraction(result.relative_error),
        seconds=result.seconds,
        details={"absolute_error": (
            None if result.absolute_error is None else float(result.absolute_error)
        )},
    )


class IntervalBackend(BoundBackend):
    """The Gappa-style interval-propagation baseline."""

    name = "gappa_like"

    def __init__(self, fmt: FloatFormat = BINARY64) -> None:
        self.fmt = fmt

    def bound(
        self,
        subject: "ValidationSubject",
        empirical: Optional["EmpiricalSummary"] = None,
    ) -> BackendBound:
        if subject.expression is None:
            return self._unsupported(subject.extraction_note or "no expression form")
        analyzer = _symmetric_analyzer(GappaLikeAnalyzer, self.fmt)
        result = analyzer.analyze(
            subject.expression, subject.input_ranges, subject.input_errors
        )
        return _from_baseline(self.name, result)


class TaylorBackend(BoundBackend):
    """The FPTaylor-style first-order Taylor-form baseline."""

    name = "fptaylor_like"

    def __init__(
        self, fmt: FloatFormat = BINARY64, operation_cap: int = TAYLOR_OPERATION_CAP
    ) -> None:
        self.fmt = fmt
        self.operation_cap = operation_cap

    def bound(
        self,
        subject: "ValidationSubject",
        empirical: Optional["EmpiricalSummary"] = None,
    ) -> BackendBound:
        if subject.expression is None:
            return self._unsupported(subject.extraction_note or "no expression form")
        if _count_operations_capped(subject.expression, self.operation_cap) > self.operation_cap:
            return self._unsupported(
                f"more than {self.operation_cap} rounded operations "
                "(the Taylor-form optimiser is superquadratic)"
            )
        analyzer = _symmetric_analyzer(FPTaylorLikeAnalyzer, self.fmt)
        result = analyzer.analyze(
            subject.expression, subject.input_ranges, subject.input_errors
        )
        return _from_baseline(self.name, result)


class StandardBackend(BoundBackend):
    """The textbook ``gamma_n = n*u / (1 - n*u)`` worst-case bound.

    ``n`` is the *observed* maximum number of roundings over the sampled
    executions (Higham's Lemma 3.1 bounds any product of ``n`` factors
    ``(1+delta_i)^{+-1}`` with ``|delta_i| <= u`` by ``gamma_n``, which
    covers the positive straight-line fragment this corpus lives in).  The
    claim is therefore scoped to exactly the executions it is compared
    against, sidestepping the static-vs-dynamic rounding-count mismatch of
    shared function bodies.
    """

    name = "standard_bounds"

    def __init__(self, fmt: FloatFormat = BINARY64) -> None:
        self.fmt = fmt

    def bound(
        self,
        subject: "ValidationSubject",
        empirical: Optional["EmpiricalSummary"] = None,
    ) -> BackendBound:
        if empirical is None or not empirical.ok:
            return self._unsupported("needs the observed rounding count")
        rounds = empirical.max_rounds
        start = time.perf_counter()
        if rounds == 0:
            return BackendBound(
                backend=self.name,
                relative_error=Fraction(0),
                seconds=time.perf_counter() - start,
                details={"rounds": 0},
            )
        u = self.fmt.unit_roundoff_directed
        try:
            bound = gamma(rounds, u)
        except ValueError as error:
            return BackendBound(
                backend=self.name,
                relative_error=None,
                seconds=time.perf_counter() - start,
                failed=True,
                message=str(error),
            )
        return BackendBound(
            backend=self.name,
            relative_error=bound,
            seconds=time.perf_counter() - start,
            details={"rounds": rounds},
        )


def default_backends(
    config: Optional[InferenceConfig] = None,
    memo: Any = None,
    fmt: FloatFormat = BINARY64,
    names: Optional[Sequence[str]] = None,
) -> List[BoundBackend]:
    """The registered backends, optionally filtered by name."""
    backends: List[BoundBackend] = [
        GradedInferenceBackend(config, memo=memo),
        IntervalBackend(fmt),
        TaylorBackend(fmt),
        StandardBackend(fmt),
    ]
    if names is None:
        return backends
    wanted = set(names)
    unknown = wanted - {backend.name for backend in backends}
    if unknown:
        raise ValueError(f"unknown validation backends: {', '.join(sorted(unknown))}")
    return [backend for backend in backends if backend.name in wanted]
