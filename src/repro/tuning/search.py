"""Grade-guided search for cheap certified precision assignments.

The search has a *guide* and a *judge*.  The guide is one symbolic
inference pass: every ``rnd`` site gets its own registered grade symbol
(``tune_u0``, ``tune_u1``, ...), so the final error grade comes back as a
polynomial over the site roundoffs and the per-site sensitivity weights
can be read off by evaluating that polynomial at different format
choices.  The guide is only approximate — ``max`` nodes in the grade
algebra switch branches as the values move — so every candidate the guide
proposes is handed to the judge: a full re-inference with one concrete
grade per site (:func:`candidate_bound`).  By the paper's soundness
theorem that inferred bound is the certificate, so a candidate is
feasible exactly when its bound meets the target.

After the search, :func:`certify_candidate` checks the winner once by a
differential mixed-precision sampling run (:mod:`repro.tuning.empirical`).
That check tests the implementation, not the candidate: a winner whose
sampled error exceeds its bound plus slack is reported as a
``violation``, never swapped for another candidate.

Candidate bounds fan out through
:class:`repro.analysis.batch.BatchAnalyzer` and are content-cached by
what inference reads — term, skeleton, config and formats — so re-tuning
a program at a different target, budget, seed or sampling setting reuses
every previously inferred candidate.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.analyzer import analyze_term
from ..analysis.batch import BatchAnalyzer, BatchItem, PoolHandle
from ..analysis.cache import AnalysisCache, CacheStats, term_key
from ..core.errors import LnumError
from ..core.grades import DEFAULT_REGISTRY, Grade
from ..core.inference import InferenceConfig, enumerate_rnd_sites
from ..core.signature import IDEAL_SQRT_RP_SLACK
from ..floats.exactmath import exact_str
from ..validation.harness import ValidationSubject, subjects_from_item
from ..validation.sampling import SampleOptions
from .assignment import (
    FORMAT_COSTS,
    LADDER,
    WIDEST_FORMAT,
    PrecisionAssignment,
    format_unit_roundoff,
)
from .empirical import measure_assignment
from .stats import record_tuning

__all__ = [
    "TUNING_SCHEMA",
    "DEFAULT_TARGET_RATIO",
    "TuningOptions",
    "CandidateCertificate",
    "SubjectTuning",
    "ItemTuning",
    "TuningResult",
    "PrecisionTuner",
    "candidate_bound",
    "candidate_key",
    "certify_candidate",
    "parse_fraction",
    "tune_item",
    "tuning_key",
]

#: Bumped when the tuning pipeline changes in a result-visible way.
TUNING_SCHEMA = 2

#: Default error budget as a multiple of the uniform-binary64 certified
#: bound.  Chosen between the uniform-binary16 level (``~2^42 *`` the
#: binary64 bound: roundoff ``2^-10`` vs ``2^-52``) and the uniform-bfloat16
#: level (``~2^45``), so meeting it forces genuine per-site mixing: every
#: site can leave binary64, but only the low-sensitivity ones can take the
#: cheapest formats.
DEFAULT_TARGET_RATIO = Fraction(2**43)

#: Probe sites are registered grade symbols; cap how many one subject may
#: claim so a pathological program cannot grow the global registry (and
#: the polynomial) without bound.  Beyond the cap the search still runs,
#: guided by certification alone.
PROBE_SITE_CAP = 512

#: Largest number of single-site refinements certified per round.
REFINEMENT_BATCH = 16


#: Largest decimal exponent :func:`parse_fraction` accepts (Python's
#: default int-string digit limit).  ``Fraction("1e10000000")`` would
#: build a ten-million-digit integer: seconds of CPU, superlinear in the
#: exponent.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE]([-+]?\d+)")


def parse_fraction(text: str) -> Fraction:
    """Exact fraction from CLI/JSON text (``"1/8"``, ``"0.25"``, ``"1e-6"``).

    Raises ``ValueError`` for anything that is not a finite fraction:
    junk, ``inf``/``nan``, a zero denominator, or a decimal exponent
    beyond :data:`MAX_DECIMAL_EXPONENT`.
    """
    match = _EXPONENT.search(text)
    if match is not None and abs(int(match.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"exponent of {text!r} is beyond +/-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class TuningOptions:
    """Everything that parameterises one tuning run (and its cache keys)."""

    #: Absolute RP-bound target; wins over ``target_ratio`` when set.
    target: Optional[Fraction] = None
    #: Target as a multiple of the subject's uniform-binary64 certified
    #: bound; defaults to :data:`DEFAULT_TARGET_RATIO` when neither is set.
    target_ratio: Optional[Fraction] = None
    #: Maximum candidates per subject, cached ones included.
    budget: int = 48
    #: Sampling of the winner check (:func:`certify_candidate`).
    points: int = 3
    samples: int = 8
    seed: int = 0
    #: Mark narrowed sites as using stochastic-rounding execution semantics.
    stochastic: bool = False

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("tuning requires budget >= 1")
        if self.points < 1:
            raise ValueError("tuning requires points >= 1")
        if self.samples < 0:
            raise ValueError("tuning requires samples >= 0")
        if self.target is not None and self.target <= 0:
            raise ValueError("tuning target must be positive")
        if self.target_ratio is not None and self.target_ratio <= 0:
            raise ValueError("tuning target ratio must be positive")

    def resolved_ratio(self) -> Fraction:
        return self.target_ratio if self.target_ratio is not None else DEFAULT_TARGET_RATIO

    @staticmethod
    def from_dict(data: Optional[Dict[str, Any]]) -> "TuningOptions":
        data = dict(data or {})
        target = data.get("target")
        ratio = data.get("target_ratio")
        return TuningOptions(
            target=parse_fraction(str(target)) if target is not None else None,
            target_ratio=parse_fraction(str(ratio)) if ratio is not None else None,
            budget=int(data.get("budget", 48)),
            points=int(data.get("points", 3)),
            samples=int(data.get("samples", 8)),
            seed=int(data.get("seed", 0)),
            stochastic=bool(data.get("stochastic", False)),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": None if self.target is None else str(self.target),
            "target_ratio": None if self.target_ratio is None else str(self.target_ratio),
            "budget": self.budget,
            "points": self.points,
            "samples": self.samples,
            "seed": self.seed,
            "stochastic": self.stochastic,
        }


# ---------------------------------------------------------------------------
# Certification (the judge) and the winner check
# ---------------------------------------------------------------------------


def candidate_key(
    subject: ValidationSubject,
    config: Optional[InferenceConfig],
    assignment: PrecisionAssignment,
) -> str:
    """Content key of one candidate bound: only what inference reads."""
    skeleton = ",".join(
        f"{name}:{tau}" for name, tau in sorted(subject.skeleton.items())
    )
    return term_key(
        subject.term,
        config,
        "tune-candidate",
        TUNING_SCHEMA,
        ",".join(assignment.formats),
        skeleton,
    )


def candidate_bound(
    subject: ValidationSubject,
    formats: Tuple[str, ...],
    config: Optional[InferenceConfig],
) -> Tuple[Optional[Fraction], str]:
    """One assignment's inferred RP bound, or ``None`` and the reason.

    Concrete per-site-grade inference — the bound the soundness theorem
    backs.  Top-level and value-in/value-out so
    :meth:`BatchAnalyzer.map_tasks` can ship it to a process pool.
    """
    try:
        sited = (config or InferenceConfig()).with_rnd_site_grades(
            PrecisionAssignment(formats=tuple(formats)).site_grades()
        )
        analysis = analyze_term(
            subject.term, subject.skeleton, sited, name=subject.name
        )
    except LnumError as error:
        return None, f"inference failed: {error}"
    if analysis.rp_bound is None:
        return None, "error grade is not finite"
    return analysis.rp_bound, ""


@dataclass(frozen=True)
class CandidateCertificate:
    """One assignment's inferred bound checked against sampled execution.

    ``sound`` says the bound is finite and the sampled worst case
    ``max_rp`` stayed inside ``rp_bound`` plus the soundness ``slack``;
    ``message`` says why not.
    """

    rp_bound: Optional[Fraction]
    sound: bool
    max_rp: Fraction = Fraction(0)
    slack: Fraction = Fraction(0)
    message: str = ""


def certify_candidate(
    subject: ValidationSubject,
    formats: Tuple[str, ...],
    stochastic: bool,
    config: Optional[InferenceConfig],
    sample_dict: Dict[str, int],
    key: str,
) -> CandidateCertificate:
    """The differential check: :func:`candidate_bound` against sampling.

    Samples the assignment at ``sample_dict``'s points, samples and seed
    (the point seeds also derive from ``key``) and compares the worst RP
    distance with the inferred bound plus the soundness slack.  The
    tuner runs it once, on its winner.
    """
    rp_bound, message = candidate_bound(subject, formats, config)
    if rp_bound is None:
        return CandidateCertificate(rp_bound=None, sound=False, message=message)
    sample = SampleOptions(
        points=int(sample_dict.get("points", 3)),
        samples=int(sample_dict.get("samples", 8)),
        precision=53,
        seed=int(sample_dict.get("seed", 0)),
    )
    assignment = PrecisionAssignment(formats=tuple(formats), stochastic=stochastic)
    summary = measure_assignment(subject, assignment, sample, key)
    slack = (
        IDEAL_SQRT_RP_SLACK * (2 * summary.max_sqrt_calls + 2)
        + summary.rounding_slack
    )
    return CandidateCertificate(
        rp_bound=rp_bound,
        sound=summary.ok and summary.max_rp <= rp_bound + slack,
        max_rp=summary.max_rp,
        slack=slack,
        message=summary.message,
    )


# ---------------------------------------------------------------------------
# The symbolic probe (the guide)
# ---------------------------------------------------------------------------


def _probe_symbol(index: int) -> str:
    return f"tune_u{index}"


def _ensure_probe_symbols(count: int) -> None:
    """Register probe symbols (idempotently) at the binary64 roundoff.

    Grade comparisons evaluate numerically at :data:`DEFAULT_REGISTRY`
    *during* inference, so the symbols must carry values before the probe
    runs; registering only unknown names avoids bumping the registry
    version (which would invalidate every grade's evaluation cache) on
    re-tuning.
    """
    value = format_unit_roundoff(WIDEST_FORMAT)
    for index in range(count):
        name = _probe_symbol(index)
        if not DEFAULT_REGISTRY.known(name):
            DEFAULT_REGISTRY.register(name, value)


@dataclass
class _Probe:
    """The error-grade polynomial over per-site roundoff symbols."""

    terms: Dict[Tuple[str, ...], Fraction]
    site_symbols: Tuple[str, ...]
    base_values: Dict[str, Fraction]

    def predict(self, assignment: PrecisionAssignment) -> Fraction:
        """Evaluate the polynomial at the assignment's roundoffs.

        An approximation of the certified bound: ``max`` nodes in the
        grade algebra were resolved at the probe values and may switch
        branches as the roundoffs move.  Used only to order and filter
        candidates — certification is always concrete.
        """
        values = dict(self.base_values)
        for symbol, name in zip(self.site_symbols, assignment.formats):
            values[symbol] = format_unit_roundoff(name)
        total = Fraction(0)
        for monomial, coefficient in self.terms.items():
            product = coefficient
            for symbol in monomial:
                product *= values[symbol]
            total += product
        return total


def probe_subject(
    subject: ValidationSubject,
    config: Optional[InferenceConfig],
    sites: int,
) -> Optional[_Probe]:
    """One symbolic inference giving per-site sensitivity weights, or None."""
    if sites == 0 or sites > PROBE_SITE_CAP:
        return None
    symbols = tuple(_probe_symbol(index) for index in range(sites))
    _ensure_probe_symbols(sites)
    base = config or InferenceConfig()
    sited = base.with_rnd_site_grades(tuple(Grade.symbol(name) for name in symbols))
    try:
        analysis = analyze_term(subject.term, subject.skeleton, sited, name=subject.name)
    except LnumError:
        return None
    grade = analysis.error_grade
    if grade is None or grade.is_infinite:
        return None
    symbol_set = set(symbols)
    base_values: Dict[str, Fraction] = {}
    for name in grade.symbols():
        if name in symbol_set:
            continue
        if not DEFAULT_REGISTRY.known(name):
            return None
        base_values[name] = DEFAULT_REGISTRY.value_of(name)
    return _Probe(terms=dict(grade.terms()), site_symbols=symbols, base_values=base_values)


def greedy_assignment(
    probe: _Probe, sites: int, target: Fraction, margin: Fraction
) -> PrecisionAssignment:
    """Grade-guided greedy construction under a predicted budget.

    Starts from uniform binary64 and visits sites in order of increasing
    predicted sensitivity (narrowing the most tolerant sites first), giving
    each the cheapest format that keeps the *predicted* bound within
    ``target * margin``.  Margins below 1 produce conservative variants
    that survive certification when the prediction is optimistic.
    """
    budget = target * margin
    current = PrecisionAssignment.uniform(WIDEST_FORMAT, sites)
    base_prediction = probe.predict(current)
    deltas: List[Tuple[Fraction, int]] = []
    for index in range(sites):
        trial = current.with_format(index, LADDER[0])
        deltas.append((probe.predict(trial) - base_prediction, index))
    deltas.sort(key=lambda pair: (pair[0], pair[1]))
    for _delta, index in deltas:
        for name in LADDER:  # cheapest first
            trial = current.with_format(index, name)
            if probe.predict(trial) <= budget:
                current = trial
                break
    return current


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class SubjectTuning:
    """The tuning outcome for one program."""

    name: str
    kind: str
    #: "tuned" | "baseline" | "trivial" | "infeasible" | "unbounded"
    #: | "violation" (the winner failed the differential check) | "error"
    status: str
    sites: int = 0
    target: Optional[Fraction] = None
    baseline_rp: Optional[Fraction] = None
    assignment: Optional[PrecisionAssignment] = None
    certified_rp: Optional[Fraction] = None
    candidates: int = 0
    certifications: int = 0
    cache_hits: int = 0
    probe_used: bool = False
    seconds: float = 0.0
    notes: List[str] = field(default_factory=list)
    from_cache: bool = False

    @property
    def feasible(self) -> bool:
        return self.status in ("tuned", "baseline", "trivial")

    @property
    def non_uniform(self) -> bool:
        return (
            self.status == "tuned"
            and self.assignment is not None
            and not self.assignment.is_uniform
        )

    @property
    def cost(self) -> Optional[int]:
        return None if self.assignment is None else self.assignment.cost

    @property
    def cost_reduction(self) -> float:
        if self.assignment is None:
            return 0.0
        return self.assignment.cost_reduction

    def summary(self) -> str:
        """One human-readable line for the CLI report."""
        head = f"{self.name}: {self.status}"
        if self.status == "error":
            note = self.notes[0] if self.notes else "failed"
            return f"{head} — {note}"
        if self.status == "violation":
            return f"{head} — {self.notes[-1]}"
        if self.status == "trivial":
            return f"{head} — no rnd sites, nothing to tune"
        parts = [f"{self.sites} site(s)"]
        if self.assignment is not None:
            mix = " + ".join(
                f"{count}x {name}"
                for name, count in sorted(
                    self.assignment.counts().items(),
                    key=lambda pair: FORMAT_COSTS[pair[0]],
                )
            )
            parts.append(
                f"{mix} (cost {self.assignment.cost}/"
                f"{self.assignment.baseline_cost}, "
                f"-{100.0 * self.cost_reduction:.1f}%)"
            )
        if self.certified_rp is not None and self.target is not None:
            parts.append(
                f"certified {float(self.certified_rp):.3e} <= "
                f"target {float(self.target):.3e}"
            )
        elif self.target is not None:
            parts.append(f"target {float(self.target):.3e} not met")
        parts.append(
            f"{self.candidates} candidate(s), {self.cache_hits} cached"
        )
        return f"{head} — " + ", ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "sites": self.sites,
            "target": None if self.target is None else float(self.target),
            "target_exact": None if self.target is None else exact_str(self.target),
            "baseline_rp": None if self.baseline_rp is None else float(self.baseline_rp),
            "certified_rp": None if self.certified_rp is None else float(self.certified_rp),
            "certified_rp_exact": None
            if self.certified_rp is None
            else exact_str(self.certified_rp),
            "assignment": None if self.assignment is None else self.assignment.to_dict(),
            "non_uniform": self.non_uniform,
            "cost": self.cost,
            "cost_reduction": self.cost_reduction,
            "candidates": self.candidates,
            "certifications": self.certifications,
            "cache_hits": self.cache_hits,
            "probe_used": self.probe_used,
            "seconds": self.seconds,
            "notes": list(self.notes),
            "from_cache": self.from_cache,
        }


@dataclass
class ItemTuning:
    """Tuning of one source item (a file may define several functions)."""

    name: str
    kind: str
    ok: bool
    reports: List[SubjectTuning] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def verdict(self) -> str:
        if not self.ok:
            return "error"
        if any(report.status == "error" for report in self.reports):
            return "error"
        if any(report.status == "violation" for report in self.reports):
            return "violation"
        if any(not report.feasible for report in self.reports):
            return "infeasible"
        return "ok"

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


@dataclass
class TuningResult:
    """All subject outcomes of one run, plus aggregates."""

    reports: List[SubjectTuning]
    wall_seconds: float
    jobs: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def programs(self) -> int:
        return len(self.reports)

    @property
    def tuned(self) -> int:
        return sum(1 for report in self.reports if report.status == "tuned")

    @property
    def non_uniform(self) -> int:
        return sum(1 for report in self.reports if report.non_uniform)

    @property
    def infeasible(self) -> int:
        return sum(
            1
            for report in self.reports
            if report.status in ("infeasible", "unbounded")
        )

    @property
    def errors(self) -> int:
        return sum(1 for report in self.reports if report.status == "error")

    @property
    def violations(self) -> int:
        return sum(1 for report in self.reports if report.status == "violation")

    @property
    def candidates(self) -> int:
        return sum(report.candidates for report in self.reports)

    @property
    def certifications(self) -> int:
        return sum(report.certifications for report in self.reports)

    @property
    def cache_hits(self) -> int:
        return sum(report.cache_hits for report in self.reports)

    @property
    def mean_cost_reduction(self) -> float:
        rows = [
            report.cost_reduction
            for report in self.reports
            if report.feasible and report.sites > 0
        ]
        return sum(rows) / len(rows) if rows else 0.0

    @property
    def exit_code(self) -> int:
        if self.errors or self.violations:
            return 2
        if self.infeasible:
            return 1
        return 0

    def render_text(self) -> str:
        lines: List[str] = []
        for report in self.reports:
            suffix = " [cached]" if report.from_cache else ""
            lines.append(report.summary() + suffix)
        lines.append("")
        lines.append(
            f"{self.programs} program(s): {self.tuned} tuned "
            f"({self.non_uniform} non-uniform), {self.infeasible} infeasible, "
            f"{self.violations} violation(s), {self.errors} error(s); "
            f"mean cost reduction {100.0 * self.mean_cost_reduction:.1f}%"
        )
        lines.append(
            f"{self.candidates} candidate(s), {self.certifications} "
            f"certification(s), {self.cache_hits} cache hit(s); "
            f"wall time {self.wall_seconds:.3f} s with {self.jobs} job(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "programs": self.programs,
            "tuned": self.tuned,
            "non_uniform": self.non_uniform,
            "infeasible": self.infeasible,
            "violations": self.violations,
            "errors": self.errors,
            "candidates": self.candidates,
            "certifications": self.certifications,
            "cache_hits": self.cache_hits,
            "mean_cost_reduction": self.mean_cost_reduction,
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
            "reports": [report.to_dict() for report in self.reports],
        }


def tuning_key(
    subject: ValidationSubject,
    config: Optional[InferenceConfig],
    options: TuningOptions,
) -> str:
    """Content key of one subject's whole tuning run."""
    ranges = ",".join(
        f"{name}:{low}:{high}"
        for name, (low, high) in sorted(subject.input_ranges.items())
    )
    errors = ",".join(
        f"{name}:{value}" for name, value in sorted(subject.input_errors.items())
    )
    skeleton = ",".join(
        f"{name}:{tau}" for name, tau in sorted(subject.skeleton.items())
    )
    return term_key(
        subject.term,
        config,
        "tune",
        TUNING_SCHEMA,
        str(options.target),
        str(options.resolved_ratio()),
        options.budget,
        options.points,
        options.samples,
        options.seed,
        options.stochastic,
        ranges,
        errors,
        skeleton,
        subject.kind,
    )


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------


class PrecisionTuner:
    """Tune many subjects, fanning certifications out over a worker pool.

    Deterministic under a fixed seed and independent of ``jobs``: the
    candidate set is a pure function of the term, the probe polynomial and
    the options, and every empirical RNG derives from the master seed and
    the candidate's content key.  Results are memoized per subject *and*
    per candidate through an optional :class:`AnalysisCache`.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[AnalysisCache] = None,
        config: Optional[InferenceConfig] = None,
        options: Optional[TuningOptions] = None,
        pool: Optional[PoolHandle] = None,
    ) -> None:
        self.options = options or TuningOptions()
        self.config = config
        self.cache = cache
        self.batch = BatchAnalyzer(jobs=jobs, cache=cache, config=config, pool=pool)
        self.jobs = self.batch.jobs

    def close(self) -> None:
        self.batch.close()

    def __enter__(self) -> "PrecisionTuner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- candidate fan-out ---------------------------------------------------

    def _infer(
        self, subject: ValidationSubject, assignments: Sequence[PrecisionAssignment]
    ) -> Tuple[List[Tuple[Optional[Fraction], str]], int]:
        """Bounds of a batch (cached + pooled); returns (bounds, cache hits)."""
        arguments = [
            (subject, assignment.formats, self.config) for assignment in assignments
        ]
        keys = [
            candidate_key(subject, self.config, assignment) for assignment in assignments
        ]
        before = replace(self.cache.stats) if self.cache else CacheStats()
        results = self.batch.map_tasks(candidate_bound, arguments, keys)
        after = self.cache.stats if self.cache else CacheStats()
        hits = after.hits - before.hits
        record_tuning(
            candidates=len(assignments),
            certifications=len(assignments) - hits,
            cache_hits=hits,
        )
        return results, hits

    # -- one subject ---------------------------------------------------------

    def tune_subject(self, subject: ValidationSubject) -> SubjectTuning:
        key = tuning_key(subject, self.config, self.options)
        if self.cache is not None:
            cached = self.cache.get(key, None)
            if cached is not None:
                record_tuning(subjects=1)
                return replace(cached, from_cache=True)
        start = time.perf_counter()
        record_tuning(subjects=1)
        result = self._tune_subject(subject)
        result.seconds = time.perf_counter() - start
        if result.status == "tuned":
            record_tuning(tuned=1)
        if result.status in ("infeasible", "unbounded"):
            record_tuning(infeasible=1)
        if self.cache is not None and result.status not in ("error", "violation"):
            self.cache.put(key, result)
        return result

    def _tune_subject(self, subject: ValidationSubject) -> SubjectTuning:
        options = self.options
        try:
            site_nodes = enumerate_rnd_sites(subject.term, subject.skeleton)
        except LnumError as error:
            return SubjectTuning(
                name=subject.name,
                kind=subject.kind,
                status="error",
                notes=[f"site enumeration failed: {error}"],
            )
        sites = len(site_nodes)
        if sites == 0:
            return SubjectTuning(
                name=subject.name,
                kind=subject.kind,
                status="trivial",
                sites=0,
                assignment=PrecisionAssignment(formats=()),
                notes=["no rnd sites: nothing to tune"],
            )

        candidates_tried = 0
        cache_hits = 0
        notes: List[str] = []
        seen: Set[Tuple[str, ...]] = set()

        def batch(
            assignments: List[PrecisionAssignment],
        ) -> List[Tuple[PrecisionAssignment, Optional[Fraction], str]]:
            nonlocal candidates_tried, cache_hits
            fresh = []
            for assignment in assignments:
                if assignment.formats in seen:
                    continue
                seen.add(assignment.formats)
                fresh.append(assignment)
            if not fresh:
                return []
            bounds, hits = self._infer(subject, fresh)
            candidates_tried += len(fresh)
            cache_hits += hits
            return [
                (assignment, bound, message)
                for assignment, (bound, message) in zip(fresh, bounds)
            ]

        def cheapest(
            rows: List[Tuple[PrecisionAssignment, Optional[Fraction], str]],
            below: Optional[int] = None,
        ) -> Optional[Tuple[PrecisionAssignment, Fraction]]:
            feasible = [
                (assignment, bound)
                for assignment, bound, _message in rows
                if bound is not None
                and bound <= target
                and (below is None or assignment.cost < below)
            ]
            return min(
                feasible, key=lambda pair: (pair[0].cost, pair[1]), default=None
            )

        # Round 1: the uniform ladder.  binary64 doubles as the baseline.
        uniforms = [
            PrecisionAssignment.uniform(name, sites, options.stochastic)
            for name in reversed(LADDER)  # widest first: baseline is rows[0]
        ]
        rows = batch(uniforms)
        _baseline, baseline_rp, baseline_message = rows[0]
        if baseline_rp is None:
            return SubjectTuning(
                name=subject.name,
                kind=subject.kind,
                status="unbounded",
                sites=sites,
                candidates=candidates_tried,
                certifications=candidates_tried - cache_hits,
                cache_hits=cache_hits,
                notes=["uniform binary64 error grade is not finite"]
                + ([baseline_message] if baseline_message else []),
            )
        target = (
            options.target
            if options.target is not None
            else options.resolved_ratio() * baseline_rp
        )

        # Round 2: grade-guided greedy variants at three margins.
        probe = probe_subject(subject, self.config, sites)
        if probe is None:
            record_tuning(probe_failures=1)
            notes.append("symbolic probe unavailable; certification-guided only")
        else:
            guided = [
                greedy_assignment(probe, sites, target, margin)
                for margin in (Fraction(1), Fraction(1, 2), Fraction(1, 4))
            ]
            rows.extend(batch(guided))
        best = cheapest(rows)

        # Round 3: single-site refinement until the budget runs dry.
        while best is not None and candidates_tried < options.budget:
            current = best[0]
            neighbours: List[PrecisionAssignment] = []
            for index in range(sites):
                narrowed = current.narrowed(index)
                if narrowed is not None and narrowed.formats not in seen:
                    neighbours.append(narrowed)
            if probe is not None:
                neighbours = [
                    neighbour
                    for neighbour in neighbours
                    if probe.predict(neighbour) <= target
                ]
                neighbours.sort(key=lambda a: probe.predict(a))
            room = min(REFINEMENT_BATCH, options.budget - candidates_tried)
            neighbours = neighbours[:room]
            if not neighbours:
                break
            improvement = cheapest(batch(neighbours), below=current.cost)
            if improvement is None:
                break
            best = improvement

        outcome = SubjectTuning(
            name=subject.name,
            kind=subject.kind,
            status="infeasible",
            sites=sites,
            target=target,
            baseline_rp=baseline_rp,
            candidates=candidates_tried,
            certifications=candidates_tried - cache_hits,
            cache_hits=cache_hits,
            probe_used=probe is not None,
            notes=notes,
        )
        if best is None:
            notes.append("no certified assignment meets the target")
            return outcome
        assignment, bound = best
        outcome.assignment = assignment
        check = certify_candidate(
            subject,
            assignment.formats,
            assignment.stochastic,
            self.config,
            options.to_dict(),
            candidate_key(subject, self.config, assignment),
        )
        if not check.sound:
            outcome.status = "violation"
            notes.append(
                "the winner failed the differential check: sampled max RP "
                f"{float(check.max_rp):.3e}, bound {float(bound):.3e}, "
                f"slack {float(check.slack):.3e}"
                + (f" ({check.message})" if check.message else "")
            )
            return outcome
        outcome.status = (
            "baseline" if assignment.cost == assignment.baseline_cost else "tuned"
        )
        outcome.certified_rp = bound
        return outcome

    # -- batches -------------------------------------------------------------

    def tune_subjects(self, subjects: Sequence[ValidationSubject]) -> TuningResult:
        start = time.perf_counter()
        before = replace(self.cache.stats) if self.cache else CacheStats()
        reports = [self.tune_subject(subject) for subject in subjects]
        after = self.cache.stats if self.cache else CacheStats()
        return TuningResult(
            reports=reports,
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            cache_stats=CacheStats(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                puts=after.puts - before.puts,
            ),
        )


def tune_item(
    item: BatchItem,
    config: Optional[InferenceConfig] = None,
    options: Optional[Dict[str, Any]] = None,
    cache: Optional[AnalysisCache] = None,
) -> ItemTuning:
    """Tune one source item; errors become failed results.

    The service scheduler submits this to its executor exactly like
    ``validate_item`` (inline fan-out, no nested pools), but without a
    judgement memo: per-site grades are positional, so sited inference
    cannot share one (see :attr:`InferenceConfig.rnd_site_grades`).
    """
    start = time.perf_counter()
    parsed_options = TuningOptions.from_dict(options)
    try:
        subjects = subjects_from_item(item)
    except LnumError as error:
        return ItemTuning(
            name=item.name,
            kind=item.kind,
            ok=False,
            error=str(error),
            seconds=time.perf_counter() - start,
        )
    tuner = PrecisionTuner(jobs=1, cache=cache, config=config, options=parsed_options)
    reports = [tuner.tune_subject(subject) for subject in subjects]
    return ItemTuning(
        name=item.name,
        kind=item.kind,
        ok=True,
        reports=reports,
        seconds=time.perf_counter() - start,
    )
