"""The differential validation engine: verdicts, caching and fan-out.

One :class:`ValidationSubject` is one program under test; validating it
means measuring its empirical forward error (:mod:`repro.validation.sampling`)
and comparing every registered backend's claimed bound
(:mod:`repro.validation.backends`) against those same executions.  The
comparison is exact rational arithmetic plus two explicit slack terms:

* the ideal semantics computes ``sqrt`` at working precision rather than
  exactly, contributing at most
  ``IDEAL_SQRT_RP_SLACK * (2 * sqrt_calls + 2)`` of RP distance (the same
  accounting as ``repro.analysis.analyzer.check_error_soundness``);
* a round-*down* step of relative size ``delta <= u`` has RP distance
  ``-ln(1-delta) <= delta + delta^2``, while the grade charges ``u`` per
  rounding, so the RP comparison allows ``rounds * u^2`` of slack.

Verdicts:

* ``sound`` — every backend that produced a bound dominates the empirical
  maximum (within slack);
* ``violation`` — some backend's claimed bound was exceeded by an actual
  execution, named together with the offending input point and mode;
* ``inconclusive`` — no backend produced a bound, or the program could not
  be executed (the notes say why).

The *tightness ratio* of a backend is ``empirical max / claimed bound``:
1 means the bound is exactly attained, small means the bound is loose.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.batch import BatchItem, PoolHandle, discover_items
from ..analysis.cache import AnalysisCache, CacheStats, term_key
from ..core import ast as A
from ..core import types as T
from ..core.errors import LnumError
from ..core.inference import InferenceConfig, JudgementMemo
from ..core.signature import IDEAL_SQRT_RP_SLACK
from ..floats.exactmath import expm1_upper
from ..floats.formats import STANDARD_FORMATS, FloatFormat
from .backends import BackendBound, BoundBackend, default_backends
from .extract import ExtractionError, extract_program_expression
from .sampling import (
    EmpiricalSummary,
    PointResult,
    SampleOptions,
    point_seed,
    sample_point,
    summarize_points,
)

__all__ = [
    "BackendReport",
    "ItemValidation",
    "ProgramValidation",
    "ValidationEngine",
    "ValidationOptions",
    "ValidationResult",
    "ValidationSubject",
    "point_tasks",
    "subjects_from_item",
    "subjects_or_failures",
    "validate_item",
    "validation_key",
]

#: Default input interval for sampled inputs, matching the paper's baseline
#: comparison box.
DEFAULT_INPUT_RANGE: Tuple[Fraction, Fraction] = (Fraction(1, 10), Fraction(1000))

VERDICT_SOUND = "sound"
VERDICT_VIOLATION = "violation"
VERDICT_INCONCLUSIVE = "inconclusive"
#: A program that could not even be parsed/prepared (distinct from
#: ``inconclusive``, where execution or analysis ran but proved nothing).
VERDICT_ERROR = "error"


@dataclass(frozen=True)
class ValidationOptions:
    """Everything that parameterises one validation run (and its cache key)."""

    points: int = 4
    samples: int = 64
    precision: int = 53
    seed: int = 0
    backends: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        # The stochastic budget is split across the points, so zero points
        # would silently discard every requested sample while still
        # producing a verdict; reject it at construction for every surface
        # (CLI, service, direct engine use) rather than ad hoc per caller.
        if self.points < 1:
            raise ValueError("validation requires points >= 1")
        if self.samples < 0:
            raise ValueError("validation requires samples >= 0")
        if self.precision < 2:
            raise ValueError("validation requires precision >= 2")

    def sample_options(self) -> SampleOptions:
        return SampleOptions(
            points=self.points,
            samples=self.samples,
            precision=self.precision,
            seed=self.seed,
        )

    @staticmethod
    def from_dict(data: Optional[Dict[str, Any]]) -> "ValidationOptions":
        data = dict(data or {})
        backends = data.get("backends")
        return ValidationOptions(
            points=int(data.get("points", 4)),
            samples=int(data.get("samples", 64)),
            precision=int(data.get("precision", 53)),
            seed=int(data.get("seed", 0)),
            backends=tuple(backends) if backends else None,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "points": self.points,
            "samples": self.samples,
            "precision": self.precision,
            "seed": self.seed,
            "backends": None if self.backends is None else list(self.backends),
        }


@dataclass
class ValidationSubject:
    """One program prepared for differential validation."""

    name: str
    kind: str  # "lnum" | "fpcore" | "bench"
    term: A.Term
    #: Types of the term's free variables (bare-term programs).
    skeleton: Dict[str, T.Type] = field(default_factory=dict)
    #: Curried parameters, outermost first (function programs).
    parameters: List[Tuple[str, T.Type]] = field(default_factory=list)
    expression: Optional[Any] = None  # frontend.expr.RealExpr
    extraction_note: str = ""
    input_ranges: Dict[str, Tuple[Fraction, Fraction]] = field(default_factory=dict)
    input_errors: Dict[str, Fraction] = field(default_factory=dict)

    def input_names(self) -> List[str]:
        return [name for name, _tau in self.parameters] or list(self.skeleton)


@dataclass(frozen=True)
class BackendReport:
    """One backend's claim plus its comparison against the executions."""

    bound: BackendBound
    #: "ok" | "violation" | "failed" | "unsupported" | "unchecked"
    status: str
    #: empirical max relative error / claimed bound (None without both).
    tightness: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = self.bound.to_dict()
        payload["status"] = self.status
        payload["tightness"] = self.tightness
        return payload


@dataclass
class ProgramValidation:
    """The verdict for one program."""

    name: str
    kind: str
    verdict: str
    backends: List[BackendReport] = field(default_factory=list)
    empirical: Optional[EmpiricalSummary] = None
    seconds: float = 0.0
    notes: List[str] = field(default_factory=list)
    from_cache: bool = False

    def backend(self, name: str) -> Optional[BackendReport]:
        for report in self.backends:
            if report.bound.backend == name:
                return report
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "backends": [report.to_dict() for report in self.backends],
            "empirical": None if self.empirical is None else self.empirical.to_dict(),
            "seconds": self.seconds,
            "notes": list(self.notes),
            "from_cache": self.from_cache,
        }

    def summary(self) -> str:
        lines = [f"{self.name}: {self.verdict.upper()}"]
        if self.empirical is not None and self.empirical.ok:
            worst = ", ".join(
                f"{name}={float(value):.6g}"
                for name, value in self.empirical.worst_inputs.items()
            )
            lines.append(
                f"  empirical max  : {float(self.empirical.max_rel):.3e} rel "
                f"({self.empirical.runs} runs over {self.empirical.points} points; "
                f"worst: {self.empirical.worst_mode}"
                + (f" at {worst}" if worst else "")
                + ")"
            )
        for report in self.backends:
            bound = report.bound
            if bound.has_bound:
                ratio = (
                    f"tightness {report.tightness:.3f}"
                    if report.tightness is not None
                    else "tightness -"
                )
                lines.append(
                    f"  {bound.backend:<15}: {float(bound.relative_error):.3e} "
                    f"[{report.status}] ({ratio})"
                )
            else:
                reason = bound.message or report.status
                lines.append(f"  {bound.backend:<15}: {report.status} ({reason})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass
class ItemValidation:
    """Validation of one source item (a file may define several functions)."""

    name: str
    kind: str
    ok: bool
    reports: List[ProgramValidation] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def verdict(self) -> str:
        if not self.ok:
            return "error"
        if not self.reports:
            # Nothing validatable (a comment-only source, say): claiming
            # "sound" for a program nothing was checked on would be a lie.
            return VERDICT_INCONCLUSIVE
        if any(report.verdict == VERDICT_VIOLATION for report in self.reports):
            return VERDICT_VIOLATION
        if any(report.verdict == VERDICT_INCONCLUSIVE for report in self.reports):
            return VERDICT_INCONCLUSIVE
        return VERDICT_SOUND

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "verdict": self.verdict,
            "error": self.error,
            "seconds": self.seconds,
            "reports": [report.to_dict() for report in self.reports],
        }


# ---------------------------------------------------------------------------
# Subject construction
# ---------------------------------------------------------------------------


def _peel_parameters(term: A.Term) -> List[Tuple[str, T.Type]]:
    """Parameters of the target lambda under ``term_for``-style let-wrapping."""
    inner = term
    while isinstance(inner, A.Let):
        inner = inner.body
    parameters: List[Tuple[str, T.Type]] = []
    while isinstance(inner, A.Lambda):
        parameters.append((inner.parameter, inner.parameter_type))
        inner = inner.body
    return parameters


def _numeric_base(tau: T.Type) -> Optional[T.Type]:
    # ``!`` scaling and the error monad are transparent for input sampling:
    # a ``M[eps]num`` input models a value carrying up to eps of incoming
    # error, of which an exact value is a legitimate instance.
    while isinstance(tau, (T.Bang, T.Monadic)):
        tau = tau.inner
    return tau


def _subject_ranges(
    names: Sequence[str],
    declared: Optional[Dict[str, Tuple[Fraction, Fraction]]] = None,
) -> Dict[str, Tuple[Fraction, Fraction]]:
    declared = declared or {}
    return {name: declared.get(name, DEFAULT_INPUT_RANGE) for name in names}


def _attach_expression(subject: ValidationSubject) -> None:
    """Best-effort expression extraction; failures become a note."""
    if subject.expression is not None:
        return
    try:
        parameters, expression = extract_program_expression(
            subject.term, subject.skeleton
        )
        subject.expression = expression
        if parameters and not subject.parameters:
            subject.parameters = parameters
    except ExtractionError as error:
        subject.extraction_note = f"expression extraction failed: {error}"
    except RecursionError:
        subject.extraction_note = "expression extraction failed: program too deep"


def subjects_from_item(item: BatchItem) -> List[ValidationSubject]:
    """Parse a source item into one subject per function (or main term).

    Raises :class:`~repro.core.errors.LnumError` on parse failures; callers
    convert that into a failed :class:`ItemValidation`.
    """
    subjects: List[ValidationSubject] = []
    if item.kind == "fpcore":
        from ..frontend.compiler import compile_expression
        from ..frontend.fpcore import parse_fpcore

        core = parse_fpcore(item.source)
        compiled = compile_expression(core.expression)
        term = A.intern_term(compiled.term)
        skeleton = dict(compiled.skeleton)
        subject = ValidationSubject(
            name=core.name or item.name,
            kind="fpcore",
            term=term,
            skeleton=skeleton,
            expression=core.expression,
            input_ranges=_subject_ranges(list(skeleton)),
        )
        subjects.append(subject)
        return subjects

    from ..core.parser import parse_program

    program = parse_program(item.source)
    if not program.definitions and program.main is not None:
        term = A.intern_term(program.main)
        skeleton = {name: T.NUM for name in A.free_variables(term)}
        subject = ValidationSubject(
            name=f"{item.name}::<main>",
            kind="lnum",
            term=term,
            skeleton=skeleton,
            input_ranges=_subject_ranges(list(skeleton)),
        )
        _attach_expression(subject)
        subjects.append(subject)
        return subjects

    for definition in program.definitions:
        term = A.intern_term(program.term_for(definition.name))
        parameters = _peel_parameters(term)
        subject = ValidationSubject(
            name=f"{item.name}::{definition.name}",
            kind="lnum",
            term=term,
            parameters=parameters,
            input_ranges=_subject_ranges([name for name, _tau in parameters]),
        )
        _attach_expression(subject)
        subjects.append(subject)
    return subjects


def subjects_or_failures(
    items: Sequence[BatchItem],
) -> Tuple[List[ValidationSubject], List[ProgramValidation]]:
    """Parse items into subjects; sources that fail become ``error`` reports.

    The single folding point for parse failures — the CLI, the engine's
    ``validate_items`` and the benchmark suites all share it, so the shape
    of an error report cannot drift between surfaces.
    """
    subjects: List[ValidationSubject] = []
    failures: List[ProgramValidation] = []
    for item in items:
        try:
            subjects.extend(subjects_from_item(item))
        except LnumError as error:
            failures.append(
                ProgramValidation(
                    name=item.name,
                    kind=item.kind,
                    verdict=VERDICT_ERROR,
                    notes=[f"parse failed: {error}"],
                )
            )
    return subjects, failures


def subject_from_benchmark(benchmark: Any, suite: str = "bench") -> ValidationSubject:
    """Wrap a :class:`repro.benchsuite.base.Benchmark` as a subject."""
    term = A.intern_term(benchmark.term)
    parameters = _peel_parameters(term)
    names = [name for name, _tau in parameters] or list(benchmark.skeleton)
    subject = ValidationSubject(
        name=f"{suite}::{benchmark.name}",
        kind="bench",
        term=term,
        skeleton=dict(benchmark.skeleton),
        parameters=parameters,
        expression=benchmark.expression if benchmark.supports_baselines else None,
        input_ranges=_subject_ranges(names, dict(benchmark.input_ranges)),
        input_errors=dict(benchmark.input_errors),
    )
    if subject.expression is None:
        _attach_expression(subject)
    return subject


# ---------------------------------------------------------------------------
# Input materialization
# ---------------------------------------------------------------------------


def _lift_argument(value: object, tau: T.Type) -> A.Term:
    """A closed argument term inhabiting ``tau`` (semantics only)."""
    if isinstance(tau, T.Num):
        return A.Const(value)  # type: ignore[arg-type]
    if isinstance(tau, T.Bang):
        return A.Box(_lift_argument(value, tau.inner))
    if isinstance(tau, T.Monadic):
        # An exact value with zero incoming error inhabits ``M[u]num``.
        return A.Ret(_lift_argument(value, tau.inner))
    raise LnumError(f"cannot build a sample input of type {tau}")


def _sample_inputs(
    subject: ValidationSubject, rng: random.Random
) -> Dict[str, Fraction]:
    """Deterministic in-box inputs for every numeric input of the subject."""
    inputs: Dict[str, Fraction] = {}
    names = subject.parameters or [
        (name, tau) for name, tau in subject.skeleton.items()
    ]
    for name, tau in names:
        base = _numeric_base(tau)
        if not isinstance(base, T.Num):
            raise LnumError(f"input {name!r} has unsupported type {tau}")
        low, high = subject.input_ranges.get(name, DEFAULT_INPUT_RANGE)
        fraction = Fraction(rng.randint(1, 10**6), 10**6)
        inputs[name] = low + (high - low) * fraction
    return inputs


def _point_task(
    subject: ValidationSubject,
    inputs: Dict[str, Fraction],
    term: Optional[A.Term] = None,
) -> Tuple[A.Term, Dict[str, T.Type], Dict[str, Fraction]]:
    """The (term, skeleton, environment-inputs) triple one point executes.

    Function subjects are applied to constant argument terms; bare terms
    keep their free variables and receive the inputs via the environment.
    ``term`` replaces ``subject.term`` (the tuner passes its unshared
    rebuild, whose ``rnd`` nodes its site table keys on; constant argument
    terms add no ``rnd`` sites).
    """
    applied: A.Term = subject.term if term is None else term
    if subject.parameters:
        for name, tau in subject.parameters:
            applied = A.App(applied, _lift_argument(inputs[name], tau))
        return applied, {}, {}
    return applied, dict(subject.skeleton), dict(inputs)


def point_tasks(
    subject: ValidationSubject,
    sample: SampleOptions,
    key: str,
    term: Optional[A.Term] = None,
) -> List[Tuple[Any, ...]]:
    """The :func:`~repro.validation.sampling.sample_point` arguments of every point.

    Each point's seed derives from the master seed, the subject's content
    ``key`` and the point index, and seeds both its inputs and its
    stochastic runs.  Raises :class:`LnumError` when an input cannot be
    sampled or lifted.
    """
    tasks: List[Tuple[Any, ...]] = []
    for index in range(max(1, sample.points)):
        seed = point_seed(sample.seed, key, index)
        inputs = _sample_inputs(subject, random.Random(seed))
        applied, skeleton, env_inputs = _point_task(subject, inputs, term)
        tasks.append(
            (
                applied,
                skeleton,
                env_inputs,
                sample.stochastic_for_point(index),
                sample.precision,
                seed,
                inputs,
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _unit_roundoff(precision: int) -> Fraction:
    return Fraction(1, 2 ** (precision - 1))


def _format_for_precision(precision: int) -> FloatFormat:
    """The float format the backends must claim bounds at.

    Sampling runs at ``precision``, so the baselines' unit roundoff must
    match it — claiming binary64 bounds against binary32 executions would
    flag every program as a violation.  Only the precision matters to the
    backends (``emax`` is never exercised by the unbounded-exponent
    standard model), so unknown precisions synthesize an ad-hoc format.
    """
    for fmt in STANDARD_FORMATS.values():
        if fmt.precision == precision:
            return fmt
    return FloatFormat(name=f"binary-p{precision}", precision=precision, emax=16383)


def _sqrt_rp_slack(sqrt_calls: int) -> Fraction:
    return IDEAL_SQRT_RP_SLACK * (2 * sqrt_calls + 2)


def decide_backend_status(
    bound: BackendBound,
    empirical: Optional[EmpiricalSummary],
    precision: int,
) -> BackendReport:
    """Compare one backend claim against the sampled executions.

    Graded inference is compared in the RP metric it is stated in; the
    baselines in the relative-error metric.  Both comparisons carry the
    working-precision-sqrt slack, and the RP comparison additionally allows
    ``rounds * u^2`` for the round-down gap (see the module docstring).
    """
    if bound.unsupported:
        return BackendReport(bound=bound, status="unsupported")
    if bound.failed or bound.relative_error is None:
        return BackendReport(bound=bound, status="failed")
    if empirical is None or not empirical.ok:
        return BackendReport(bound=bound, status="unchecked")

    tightness: Optional[float] = None
    if bound.relative_error > 0:
        tightness = float(empirical.max_rel / bound.relative_error)
    elif empirical.max_rel == 0:
        tightness = 0.0

    sqrt_slack = _sqrt_rp_slack(empirical.max_sqrt_calls)
    if bound.rp_bound is not None:
        u = _unit_roundoff(precision)
        rp_slack = sqrt_slack + empirical.max_rounds * u * u
        violated = empirical.max_rp > bound.rp_bound + rp_slack
    else:
        rel_slack = (
            (1 + bound.relative_error) * expm1_upper(sqrt_slack)
            if sqrt_slack > 0
            else Fraction(0)
        )
        violated = empirical.max_rel > bound.relative_error + rel_slack
    return BackendReport(
        bound=bound, status="violation" if violated else "ok", tightness=tightness
    )


def decide_verdict(reports: Sequence[BackendReport], empirical: Optional[EmpiricalSummary]) -> str:
    if any(report.status == "violation" for report in reports):
        return VERDICT_VIOLATION
    if empirical is None or not empirical.ok:
        return VERDICT_INCONCLUSIVE
    if not any(report.status == "ok" for report in reports):
        return VERDICT_INCONCLUSIVE
    return VERDICT_SOUND


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------

#: Bumped when the validation pipeline changes in a result-visible way.
VALIDATION_SCHEMA = 1


def validation_key(
    subject: ValidationSubject,
    config: Optional[InferenceConfig],
    options: ValidationOptions,
) -> str:
    """Content key of one subject's validation under one configuration."""
    ranges = ",".join(
        f"{name}:{low}:{high}"
        for name, (low, high) in sorted(subject.input_ranges.items())
    )
    # The baselines' claims depend on the declared incoming input errors
    # and the skeleton types, not only on the term, so both participate in
    # the key — editing a benchmark's error model must miss the cache.
    errors = ",".join(
        f"{name}:{value}" for name, value in sorted(subject.input_errors.items())
    )
    skeleton = ",".join(
        f"{name}:{tau}" for name, tau in sorted(subject.skeleton.items())
    )
    backends = ",".join(options.backends or ("<all>",))
    return term_key(
        subject.term,
        config,
        "validate",
        VALIDATION_SCHEMA,
        options.points,
        options.samples,
        options.precision,
        options.seed,
        backends,
        ranges,
        errors,
        skeleton,
        subject.kind,
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ValidationEngine:
    """Validate many subjects, fanning sampling out over a worker pool.

    Results are deterministic and independent of ``jobs`` (per-point RNGs
    are derived from the master seed and the subject's content key, never
    from chunk positions), so parallel runs are byte-identical to serial
    ones.  Like :class:`~repro.analysis.batch.BatchAnalyzer`, results are
    memoized through an optional :class:`AnalysisCache` under a key that
    digests the term, the inference instantiation and every sampling
    parameter.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[AnalysisCache] = None,
        config: Optional[InferenceConfig] = None,
        options: Optional[ValidationOptions] = None,
        pool: Optional[PoolHandle] = None,
        memo: Optional[JudgementMemo] = None,
    ) -> None:
        self.jobs = pool.jobs if pool is not None else max(1, int(jobs or 1))
        self.cache = cache
        self.config = config
        self.options = options or ValidationOptions()
        self.pool = pool if pool is not None else PoolHandle(self.jobs)
        #: Shared across subjects: common subterms infer once per sweep.
        #: Callers (the service) may pass a longer-lived memo instead.
        self.judgement_memo = memo if memo is not None else JudgementMemo(65_536)
        #: Backends claim bounds at the same precision sampling runs at.
        self.backends: List[BoundBackend] = default_backends(
            config,
            memo=self.judgement_memo,
            fmt=_format_for_precision(self.options.precision),
            names=self.options.backends,
        )

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ValidationEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- one subject ---------------------------------------------------------

    def _measure(self, subject: ValidationSubject, key: str) -> EmpiricalSummary:
        start = time.perf_counter()
        try:
            tasks = point_tasks(subject, self.options.sample_options(), key)
        except LnumError as error:
            return summarize_points(
                [PointResult(inputs={}, error=str(error))], time.perf_counter() - start
            )
        if self.jobs > 1 and len(tasks) > 1:
            futures = [self.pool.submit(sample_point, *task) for task in tasks]
            results = [future.result() for future in futures]
        else:
            results = [sample_point(*task) for task in tasks]
        return summarize_points(results, time.perf_counter() - start)

    def validate_subject(self, subject: ValidationSubject) -> ProgramValidation:
        key = validation_key(subject, self.config, self.options)
        if self.cache is not None:
            cached = self.cache.get(key, None)
            if cached is not None:
                return replace(cached, from_cache=True)
        start = time.perf_counter()
        empirical = self._measure(subject, key)
        reports: List[BackendReport] = []
        for backend in self.backends:
            bound = backend.bound(subject, empirical)
            reports.append(
                decide_backend_status(bound, empirical, self.options.precision)
            )
        notes: List[str] = []
        if subject.extraction_note:
            notes.append(subject.extraction_note)
        if empirical.message:
            notes.append(empirical.message)
        result = ProgramValidation(
            name=subject.name,
            kind=subject.kind,
            verdict=decide_verdict(reports, empirical),
            backends=reports,
            empirical=empirical,
            seconds=time.perf_counter() - start,
            notes=notes,
        )
        if self.cache is not None:
            self.cache.put(key, result)
        return result

    # -- batches -------------------------------------------------------------

    def validate_subjects(
        self, subjects: Sequence[ValidationSubject]
    ) -> "ValidationResult":
        start = time.perf_counter()
        before = replace(self.cache.stats) if self.cache else CacheStats()
        reports = [self.validate_subject(subject) for subject in subjects]
        after = self.cache.stats if self.cache else CacheStats()
        return ValidationResult(
            reports=reports,
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            cache_stats=CacheStats(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                puts=after.puts - before.puts,
            ),
        )

    def validate_items(self, items: Sequence[BatchItem]) -> "ValidationResult":
        subjects, failures = subjects_or_failures(items)
        result = self.validate_subjects(subjects)
        result.reports.extend(failures)
        return result

    def validate_paths(self, paths: Sequence[str]) -> "ValidationResult":
        return self.validate_items(discover_items(paths))


@dataclass
class ValidationResult:
    """All program verdicts of one run, plus aggregates."""

    reports: List[ProgramValidation]
    wall_seconds: float
    jobs: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def programs(self) -> int:
        return len(self.reports)

    @property
    def violations(self) -> int:
        return sum(1 for report in self.reports if report.verdict == VERDICT_VIOLATION)

    @property
    def inconclusive(self) -> int:
        return sum(
            1 for report in self.reports if report.verdict == VERDICT_INCONCLUSIVE
        )

    @property
    def errors(self) -> int:
        return sum(1 for report in self.reports if report.verdict == VERDICT_ERROR)

    @property
    def sound(self) -> int:
        return sum(1 for report in self.reports if report.verdict == VERDICT_SOUND)

    def exit_code(self) -> int:
        """CLI contract: violations beat errors beat inconclusive results."""
        if self.violations:
            return 1
        if self.errors:
            return 2
        if self.inconclusive:
            return 3
        return 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "programs": [report.to_dict() for report in self.reports],
            "aggregate": {
                "programs": self.programs,
                "sound": self.sound,
                "violations": self.violations,
                "inconclusive": self.inconclusive,
                "errors": self.errors,
                "wall_seconds": self.wall_seconds,
                "jobs": self.jobs,
                "cache_hits": self.cache_stats.hits,
                "cache_lookups": self.cache_stats.lookups,
            },
        }

    def render_text(self) -> str:
        lines: List[str] = []
        for report in self.reports:
            suffix = " [cached]" if report.from_cache else ""
            lines.append(report.summary() + suffix)
            lines.append("")
        lines.append(
            f"{self.programs} program(s): {self.sound} sound, "
            f"{self.violations} violation(s), {self.inconclusive} inconclusive, "
            f"{self.errors} error(s)"
        )
        lines.append(
            f"wall time {self.wall_seconds:.3f} s with {self.jobs} job(s); "
            f"cache {self.cache_stats}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The service work unit
# ---------------------------------------------------------------------------


def validate_item(
    item: BatchItem,
    config: Optional[InferenceConfig] = None,
    options: Optional[Dict[str, Any]] = None,
    cache: Optional[AnalysisCache] = None,
    memo: Any = None,
) -> ItemValidation:
    """Validate one source item; errors become failed results.

    The service scheduler submits this to its executor (mirroring
    ``analyze_item``): inline sampling, no nested pools.  ``memo`` (a
    :class:`~repro.core.inference.JudgementMemo`, in-process only) lets the
    inference backend reuse subterm judgements across requests.
    """
    start = time.perf_counter()
    parsed_options = ValidationOptions.from_dict(options)
    try:
        subjects = subjects_from_item(item)
    except LnumError as error:
        return ItemValidation(
            name=item.name,
            kind=item.kind,
            ok=False,
            error=str(error),
            seconds=time.perf_counter() - start,
        )
    engine = ValidationEngine(
        jobs=1, cache=cache, config=config, options=parsed_options, memo=memo
    )
    reports = [engine.validate_subject(subject) for subject in subjects]
    return ItemValidation(
        name=item.name,
        kind=item.kind,
        ok=True,
        reports=reports,
        seconds=time.perf_counter() - start,
    )
