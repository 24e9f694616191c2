"""Throughput-oriented batch analysis of many Λnum / FPCore programs.

``analyze_source`` checks one program; this module is the entry point for
checking *many* — the "journal at scale" workload: a directory of programs,
a benchmark suite, or a CI sweep.  A :class:`BatchAnalyzer` fans work out
across a :mod:`concurrent.futures` process pool and collects per-program
:class:`ProgramReport` objects in **deterministic input order**, together
with aggregate timing and cache statistics.

Results are memoized through :class:`repro.analysis.cache.AnalysisCache`,
keyed by source content and inference instantiation (see
``docs/architecture.md`` for the data-flow diagram and the invalidation
semantics).  With a disk-backed cache, a warm re-run skips inference
entirely and only pays for a pickle load.

Typical use::

    from repro.analysis.batch import BatchAnalyzer

    engine = BatchAnalyzer(jobs=4)
    result = engine.analyze_paths(["examples/programs"])
    for report in result.reports:
        print(report.name, [str(a.error_grade) for a in report.analyses])

The ``repro batch`` CLI subcommand and the ``repro.benchsuite.runner``
table harness are thin layers over this engine.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import LnumError
from ..core.inference import InferenceConfig
from ..floats.exactmath import exact_str
from ..obs.instrument import Instrumentation
from .analyzer import ErrorAnalysis, analyze_program, analyze_term
from .cache import AnalysisCache, CacheStats, source_key

__all__ = [
    "BatchItem",
    "PoolHandle",
    "ProgramReport",
    "BatchResult",
    "BatchAnalyzer",
    "analyze_item",
    "discover_items",
    "SOURCE_SUFFIXES",
]

#: File suffixes the batch scanner recognises, mapped to frontend kinds.
SOURCE_SUFFIXES: Dict[str, str] = {".lnum": "lnum", ".fpcore": "fpcore"}


@dataclass(frozen=True)
class BatchItem:
    """One unit of batch work: a named program source."""

    name: str
    kind: str  # "lnum" | "fpcore"
    source: str

    @staticmethod
    def from_path(path: str) -> "BatchItem":
        suffix = os.path.splitext(path)[1].lower()
        kind = SOURCE_SUFFIXES.get(suffix, "lnum")
        with open(path, "r", encoding="utf-8") as handle:
            return BatchItem(name=path, kind=kind, source=handle.read())


def discover_items(paths: Sequence[str]) -> List[BatchItem]:
    """Expand files and directories into a sorted list of batch items.

    Directories are walked recursively for ``.lnum`` / ``.fpcore`` files;
    explicit file arguments are taken as-is (unknown suffixes are treated
    as Λnum surface programs).  The resulting order is deterministic.
    """
    items: List[BatchItem] = []
    for path in paths:
        if os.path.isdir(path):
            found: List[str] = []
            for root, _dirs, files in os.walk(path):
                for name in files:
                    if os.path.splitext(name)[1].lower() in SOURCE_SUFFIXES:
                        found.append(os.path.join(root, name))
            items.extend(BatchItem.from_path(file) for file in sorted(found))
        else:
            items.append(BatchItem.from_path(path))
    return items


@dataclass
class ProgramReport:
    """Outcome of analysing one program (every function it defines)."""

    name: str
    kind: str
    ok: bool
    analyses: List[ErrorAnalysis] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0
    from_cache: bool = False
    #: Engine phase breakdown (``parse``/``lower``/``execute``/``convert``
    #: or ``interpret``, seconds; ``memo_hits`` count) summed over the
    #: program's functions.  ``None`` on reports unpickled from caches
    #: written before instrumentation existed.
    phases: Optional[Dict[str, float]] = None

    @property
    def failed(self) -> bool:
        return not self.ok

    def bounds(self) -> Dict[str, Optional[float]]:
        """Function name → relative-error bound (the batch/check contract)."""
        return {
            analysis.name: (
                float(analysis.relative_error_bound)
                if analysis.relative_error_bound is not None
                else None
            )
            for analysis in self.analyses
        }

    def to_dict(self) -> Dict[str, Any]:
        functions = []
        for analysis in self.analyses:
            functions.append(
                {
                    "name": analysis.name,
                    "type": str(analysis.result_type),
                    "error_grade": None if analysis.error_grade is None else str(analysis.error_grade),
                    "rp_bound": None if analysis.rp_bound is None else float(analysis.rp_bound),
                    "relative_error_bound": (
                        None
                        if analysis.relative_error_bound is None
                        else float(analysis.relative_error_bound)
                    ),
                    "relative_error_bound_exact": (
                        None
                        if analysis.relative_error_bound is None
                        else exact_str(analysis.relative_error_bound)
                    ),
                    "operations": analysis.operations,
                    "inference_seconds": analysis.inference_seconds,
                    "annotation": None if analysis.annotation is None else str(analysis.annotation),
                    "annotation_satisfied": analysis.annotation_satisfied,
                }
            )
        out = {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "error": self.error,
            "from_cache": self.from_cache,
            "seconds": self.seconds,
            "functions": functions,
        }
        if self.phases:
            out["phases"] = self.phases
        return out


@dataclass
class BatchResult:
    """All reports of one batch run, in input order, plus aggregates."""

    reports: List[ProgramReport]
    wall_seconds: float
    jobs: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def programs(self) -> int:
        return len(self.reports)

    @property
    def functions(self) -> int:
        return sum(len(report.analyses) for report in self.reports)

    @property
    def failures(self) -> int:
        return sum(1 for report in self.reports if report.failed)

    @property
    def annotation_violations(self) -> int:
        return sum(
            1
            for report in self.reports
            for analysis in report.analyses
            if analysis.annotation is not None and analysis.annotation_satisfied is False
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "programs": [report.to_dict() for report in self.reports],
            "aggregate": {
                "programs": self.programs,
                "functions": self.functions,
                "failures": self.failures,
                "annotation_violations": self.annotation_violations,
                "wall_seconds": self.wall_seconds,
                "jobs": self.jobs,
                "cache_hits": self.cache_stats.hits,
                "cache_lookups": self.cache_stats.lookups,
            },
        }

    def render_text(self) -> str:
        """Human-readable report; per-function lines match ``repro check``."""
        lines: List[str] = []
        for report in self.reports:
            suffix = " [cached]" if report.from_cache else ""
            lines.append(f"== {report.name} ({report.kind}){suffix}")
            if report.failed:
                lines.append(f"  error: {report.error}")
            else:
                for analysis in report.analyses:
                    lines.append(analysis.summary())
            lines.append("")
        lines.append(
            f"{self.programs} program(s), {self.functions} function(s), "
            f"{self.failures} failure(s), {self.annotation_violations} annotation violation(s)"
        )
        lines.append(
            f"wall time {self.wall_seconds:.3f} s with {self.jobs} job(s); "
            f"cache {self.cache_stats}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Workers (top-level so they pickle into the process pool)
# ---------------------------------------------------------------------------


def _analyze_item(
    item: BatchItem,
    config: Optional[InferenceConfig],
    cache: Optional[AnalysisCache] = None,
    memo=None,
    engine: str = "auto",
) -> ProgramReport:
    """Analyse one program; analysis errors become failed reports.

    ``cache`` (passed only when running in-process) memoizes the parse
    tree, so re-analysing the same source under a different instantiation
    skips the parser.  ``memo`` (a
    :class:`~repro.core.inference.JudgementMemo`, in-process only) reuses
    subterm judgements across items — common subexpressions shared by many
    programs of a corpus are inferred once.
    """
    instrumentation = Instrumentation()
    start = time.perf_counter()
    try:
        if item.kind == "fpcore":
            from ..frontend.compiler import compile_expression
            from ..frontend.fpcore import parse_fpcore

            with instrumentation.time("parse"):
                core = parse_fpcore(item.source)
                compiled = compile_expression(core.expression)
            analyses = [
                analyze_term(
                    compiled.term,
                    compiled.skeleton,
                    config,
                    name=core.name or item.name,
                    memo=memo,
                    engine=engine,
                    instrumentation=instrumentation,
                )
            ]
        else:
            from ..core.parser import parse_program

            with instrumentation.time("parse"):
                if cache is not None:
                    program = cache.cached_parse(item.source)
                else:
                    program = parse_program(item.source)
            if not program.definitions and program.main is not None:
                analyses = [
                    analyze_term(
                        program.main, {}, config, name="<main>", memo=memo,
                        engine=engine, instrumentation=instrumentation,
                    )
                ]
            else:
                analyses = analyze_program(
                    program, config, memo=memo, engine=engine,
                    instrumentation=instrumentation,
                )
        return ProgramReport(
            name=item.name,
            kind=item.kind,
            ok=True,
            analyses=analyses,
            seconds=time.perf_counter() - start,
            phases=instrumentation.breakdown(),
        )
    except LnumError as error:
        return ProgramReport(
            name=item.name,
            kind=item.kind,
            ok=False,
            error=str(error),
            seconds=time.perf_counter() - start,
        )


def _call_task(task: Tuple[Callable[..., Any], Tuple[Any, ...]]) -> Any:
    function, arguments = task
    return function(*arguments)


#: Public alias: one program through the full pipeline, errors as failed
#: reports.  The service scheduler submits this to its executor.
analyze_item = _analyze_item


# ---------------------------------------------------------------------------
# The shared worker pool
# ---------------------------------------------------------------------------


class PoolHandle:
    """A lazily-created, *reusable* executor for analysis work.

    Historically every ``map_tasks`` call span up (and tore down) its own
    ``ProcessPoolExecutor``; long-lived callers — repeated table runs,
    validation and tuning sweeps — would re-pay worker startup on every
    batch.  A handle creates its executor on first use and keeps it until
    :meth:`close`.

    ``jobs > 1`` is backed by a ``ProcessPoolExecutor`` with ``jobs``
    workers; ``jobs <= 1`` by a single worker *thread*, which keeps
    execution in-process (sharing the intern tables and parse memos).
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(1, int(jobs or 1))
        self._executor: Optional[Executor] = None
        # Guards lazy creation: two threads racing the first submit must
        # not each construct (and one of them leak) an executor.
        self._lock = threading.Lock()

    @property
    def executor(self) -> Executor:
        with self._lock:
            if self._executor is None:
                if self.jobs > 1:
                    self._executor = ProcessPoolExecutor(max_workers=self.jobs)
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-pool"
                    )
            return self._executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    def submit(self, function: Callable[..., Any], *arguments: Any):
        try:
            return self.executor.submit(function, *arguments)
        except BrokenExecutor:
            # A crashed worker (OOM-killed process, say) poisons the whole
            # executor permanently; the per-call pools this class replaced
            # isolated such crashes, so recover by rebuilding.
            self.reset()
            return self.executor.submit(function, *arguments)

    def map(self, function: Callable[[Any], Any], iterable: Sequence[Any]) -> List[Any]:
        try:
            return list(self.executor.map(function, iterable))
        except BrokenExecutor:
            # The current call is lost either way, but drop the poisoned
            # executor so the next one starts from a healthy pool.
            self.reset()
            raise

    def reset(self) -> None:
        """Discard the executor (broken or not) without waiting on it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    def close(self) -> None:
        """Shut the executor down (idempotent); a later use re-creates it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "PoolHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class BatchAnalyzer:
    """Fan analysis tasks out over a worker pool, memoizing by content key.

    ``jobs=None`` or ``1`` runs serially in-process (no pickling, no pool
    startup); ``jobs=N`` uses a ``ProcessPoolExecutor`` with ``N`` workers.
    Results are identical either way — the pool only changes wall-clock
    time — and are always returned in input order.

    The pool is a reusable :class:`PoolHandle`: the first parallel batch
    creates the workers and later batches reuse them.  Callers that want
    deterministic teardown (tests, the service) can pass their own handle
    or use the analyzer as a context manager; otherwise the executor lives
    until interpreter exit, exactly like any other module-level pool.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[AnalysisCache] = None,
        config: Optional[InferenceConfig] = None,
        pool: Optional[PoolHandle] = None,
        engine: str = "auto",
    ) -> None:
        self.jobs = pool.jobs if pool is not None else max(1, int(jobs or 1))
        self.cache = cache
        self.config = config
        self.engine = engine
        self.pool = pool if pool is not None else PoolHandle(self.jobs)

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "BatchAnalyzer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- generic cached fan-out --------------------------------------------

    def map_tasks(
        self,
        worker: Callable[..., Any],
        arguments: Sequence[Tuple[Any, ...]],
        keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Any]:
        """Run ``worker(*arguments[i])`` for every i, with caching and a pool.

        ``keys[i]`` (when given and non-None) memoizes task i through the
        attached cache.  Exceptions raised by a worker propagate to the
        caller.  The returned list preserves input order.
        """
        keys = list(keys) if keys is not None else [None] * len(arguments)
        if len(keys) != len(arguments):
            raise ValueError("keys and arguments must have the same length")
        results: List[Any] = [None] * len(arguments)
        pending: List[int] = []
        for index, key in enumerate(keys):
            cached = self.cache.get(key, _MISS) if (self.cache and key) else _MISS
            if cached is not _MISS:
                results[index] = cached
            else:
                pending.append(index)

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                tasks = [(worker, tuple(arguments[index])) for index in pending]
                values = self.pool.map(_call_task, tasks)
            else:
                values = [worker(*arguments[index]) for index in pending]
            for index, value in zip(pending, values):
                results[index] = value
                if self.cache and keys[index]:
                    self.cache.put(keys[index], value)
        return results

    # -- program batches ----------------------------------------------------

    def analyze_items(self, items: Sequence[BatchItem]) -> BatchResult:
        """Analyse a list of in-memory sources."""
        start = time.perf_counter()
        before = replace(self.cache.stats) if self.cache else CacheStats()
        keys = [source_key(item.source, item.kind, self.config) for item in items]
        reports: List[Optional[ProgramReport]] = [None] * len(items)
        pending: List[int] = []
        for index, key in enumerate(keys):
            cached = self.cache.get(key, _MISS) if self.cache else _MISS
            if cached is not _MISS:
                # ``from_cache`` is presentation state for *this* run, so the
                # stored report is copied rather than mutated in place.
                reports[index] = replace(cached, from_cache=True)
            else:
                pending.append(index)
        # The parse-tree memo only helps (and is only safe) in-process, so
        # attach the cache exactly when map_tasks will run tasks inline.
        inline = not (self.jobs > 1 and len(pending) > 1)
        local_cache = self.cache if inline else None
        computed = self.map_tasks(
            _analyze_item,
            [
                (items[index], self.config, local_cache, None, self.engine)
                for index in pending
            ],
        )
        for index, report in zip(pending, computed):
            reports[index] = report
            if self.cache:
                self.cache.put(keys[index], report)
        after = self.cache.stats if self.cache else CacheStats()
        return BatchResult(
            reports=[report for report in reports if report is not None],
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            # Per-run counters: an engine or cache reused across several
            # batches must not report its lifetime totals in each result.
            cache_stats=CacheStats(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                puts=after.puts - before.puts,
            ),
        )

    def analyze_paths(self, paths: Sequence[str]) -> BatchResult:
        """Discover programs under ``paths`` and analyse them."""
        return self.analyze_items(discover_items(paths))


_MISS = object()
