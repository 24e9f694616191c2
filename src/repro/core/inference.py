"""The bottom-up sensitivity-inference algorithm (Fig. 10 of the paper).

Given a *skeleton* environment ``Γ•`` (variables with types but no
sensitivities) and a term ``e``, the algorithm computes a context ``Γ`` with
sensitivity annotations and a type ``σ`` such that ``Γ ⊢ e : σ`` is derivable
(Theorem 6.3, algorithmic soundness).  The computed sensitivities and error
grades are the *minimal* ones; comparisons against user annotations happen by
subtyping.

Following Azevedo de Amorim et al. (2014), the algorithm works bottom-up so
the environment never has to be split: each sub-term reports the minimal
context it needs and the rules combine contexts with ``+``, ``max`` and
scaling.  Contexts are kept *sparse* — variables not mentioned have
sensitivity zero — which keeps inference linear in the size of the term even
for programs with hundreds of thousands of operations (Table 4).

Engine
------

The evaluator is **iterative**: an explicit work stack of
``(node, stage, saved-binding)`` frames drives a post-order walk, and a
dispatch table built once per term class (no per-node ``getattr``) applies
each rule when its premises are on the result stack.  Skeleton extension
under binders mutates a single scope dictionary with an undo entry carried
in the frame, so entering a binder is ``O(1)`` instead of an ``O(n)`` dict
copy.  There is no recursion and therefore no recursion limit: million-node
terms (and the 50k-deep sequenced benchmarks of Table 4) infer under the
default interpreter settings.  The micro-benchmark harness
(``repro perf``, see ``docs/performance.md``) times this path next to the
compiled kernel of :mod:`repro.core.compiled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import logging
import threading
from collections import OrderedDict

from . import ast as A
from . import compiled
from . import types as T
from .environment import Context
from .errors import LnumError, TypeInferenceError
from .grades import EPS, Grade, GradeLike, ONE, ZERO, as_grade
from .signature import Signature, standard_signature
from .subtyping import is_subtype, join

__all__ = [
    "InferenceConfig",
    "InferenceResult",
    "JudgementMemo",
    "engine_fallback_stats",
    "enumerate_rnd_sites",
    "infer",
    "infer_type",
    "check_term",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class InferenceConfig:
    """Parameters of the instantiation used during inference.

    ``rnd_grade`` is the error grade ``q`` assigned by the (Rnd) rule — the
    unit roundoff of the chosen format/rounding mode, kept symbolic as the
    grade ``eps`` by default.  ``case_guard_sensitivity`` is the positive
    sensitivity substituted for a zero guard sensitivity in the (+E) rule (the
    paper's "ε otherwise"); any positive value is sound, and the dependence on
    the guard must be retained for soundness (Section 8).

    ``rnd_site_grades``, when set, assigns each ``rnd`` *occurrence* its own
    error grade, consumed in the engine's firing order (the order
    :func:`enumerate_rnd_sites` reports).  This models mixed-precision
    programs where different roundings use different formats; because the
    grades are positional, inference is forced onto the interpreted engine
    with memoization disabled (judgement memos key on subterm identity, not
    position, and would conflate sites).
    """

    signature: Signature = field(default_factory=standard_signature)
    rnd_grade: Grade = EPS
    case_guard_sensitivity: Grade = EPS
    allow_unused_let: bool = True
    rnd_site_grades: Optional[Tuple[Grade, ...]] = None

    def with_rnd_grade(self, grade: GradeLike) -> "InferenceConfig":
        return replace(self, rnd_grade=as_grade(grade))

    def with_rnd_site_grades(
        self, grades: Optional[Tuple[GradeLike, ...]]
    ) -> "InferenceConfig":
        if grades is None:
            return replace(self, rnd_site_grades=None)
        return replace(
            self, rnd_site_grades=tuple(as_grade(grade) for grade in grades)
        )


@dataclass(frozen=True)
class InferenceResult:
    """The context and type computed for a term."""

    context: Context
    type: T.Type

    def sensitivity_of(self, name: str) -> Grade:
        return self.context.sensitivity_of(name)

    @property
    def error_grade(self) -> Optional[Grade]:
        """The rounding-error grade when the result type is monadic."""
        if isinstance(self.type, T.Monadic):
            return self.type.grade
        return None


# ---------------------------------------------------------------------------
# The judgement memo
#
# Fig. 10 is bottom-up and never splits the environment, so the judgement
# computed for a subterm depends only on (a) the subterm itself, (b) the
# skeleton types of its *free* variables, and (c) the inference
# configuration.  For hash-consed terms that makes judgements memoizable per
# distinct subterm: the engine keys each interned node by
# ``(config fingerprint, intern id, sorted (name, type) slice of the
# skeleton over the node's free variables)`` and reuses the stored
# ``(context, type)`` pair wholesale.  Contexts are persistent (immutable,
# structurally shared), so handing the same judgement to many parents — or
# many requests, via the service's shared memo — is safe by construction.
# ---------------------------------------------------------------------------

#: Leaf rules are cheaper to re-run than to memoize.
_MEMO_SKIP = (A.Var, A.UnitVal, A.Const, A.Err)

#: Only enable the per-call memo when sharing actually pays for the key
#: bookkeeping: at least 20% more tree nodes than distinct nodes.
_AUTO_MEMO_RATIO = 1.2
_AUTO_MEMO_MIN_NODES = 64


def _config_fingerprint(config: InferenceConfig) -> Tuple:
    """Everything that can change a judgement, as a small hashable tuple.

    The signature part covers operation *types*, not just names: two
    signatures that give ``add`` different arrows must not share
    judgements.  Computed once per engine run — a handful of small type
    hashes, far below one rule application.
    """
    signature = config.signature
    operations = tuple(
        sorted(
            (name, signature.lookup(name).input_type, signature.lookup(name).result_type)
            for name in signature.names()
        )
    )
    return (
        config.rnd_grade,
        config.case_guard_sensitivity,
        config.allow_unused_let,
        config.rnd_site_grades,
        operations,
    )


class _DictMemo:
    """Unbounded per-call memo: one ``infer`` invocation, no locking."""

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: Dict[Tuple, _Judgement] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional["_Judgement"]:
        judgement = self.entries.get(key)
        if judgement is None:
            self.misses += 1
        else:
            self.hits += 1
        return judgement

    def put(self, key: Tuple, judgement: "_Judgement") -> None:
        self.entries[key] = judgement

    def __len__(self) -> int:
        return len(self.entries)


class JudgementMemo(A._BoundedMemo):
    """A bounded, thread-safe LRU of subterm judgements.

    Share one instance across :func:`infer` calls to make *re*-analysis
    DAG-sized across programs: every interned subterm whose free-variable
    skeleton slice and configuration match a stored judgement is reused
    instead of re-inferred.  The ``repro serve`` process keeps one per
    server (corpus-wide common subexpressions infer once per lifetime) and
    :class:`repro.analysis.incremental.IncrementalAnalyzer` keeps one per
    session (edit-sized reanalysis).

    Entries can never go stale: keys are content-addressed (intern ids are
    never reused, skeleton slices and config fingerprints are by value), so
    the only invalidation is LRU eviction at the capacity bound.  The
    storage/locking machinery is the kernel-wide bounded memo of
    :mod:`repro.core.ast`; this adds the judgement-specific reporting.
    """

    __slots__ = ()

    def __init__(self, capacity: int = 65_536) -> None:
        super().__init__(capacity)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (the ``judgement_memo`` block of ``/stats``)."""
        report = super().stats()
        report["hit_rate"] = self.hit_rate
        return report


#: What callers may pass as ``memo``: ``None`` (auto), ``False`` (off), or
#: an explicit memo instance shared across calls.
MemoLike = Union[None, bool, JudgementMemo, _DictMemo]


def _resolve_memo(term: A.Term, memo: MemoLike):
    if memo is None:
        # Auto mode: pay for memoization only when the interned term has
        # real sharing.  Both sizes are DAG-cost to compute and memoized by
        # intern id, so this probe is O(1) on repeated calls.
        if A.is_interned(term):
            tree = A.tree_size(term)
            if tree >= _AUTO_MEMO_MIN_NODES and tree >= _AUTO_MEMO_RATIO * A.dag_size(term):
                return _DictMemo()
        return None
    if isinstance(memo, bool):
        # False: forced off.  True: forced on (a per-call memo even when
        # the auto heuristic would decline, e.g. sharing below the ratio).
        return _DictMemo() if memo else None
    return memo


#: Valid values of ``infer``'s ``engine`` parameter.
_ENGINES = ("auto", "interpreted", "compiled")


# ---------------------------------------------------------------------------
# Graceful degradation: compiled-engine failures fall back to the
# interpreter (the two engines agree bit-for-bit on every judgement), and
# the failing term's plan is quarantined so later requests skip straight
# to the interpreted path instead of re-failing.
# ---------------------------------------------------------------------------

#: Intern ids whose compiled plans raised; bounded so an adversarial
#: stream of distinct failing terms cannot grow the set without limit.
_QUARANTINE_CAP = 1024
_quarantined_plans: "OrderedDict[int, bool]" = OrderedDict()
_fallback_lock = threading.Lock()
_fallback_count = [0]


def engine_fallback_stats() -> Dict[str, int]:
    """``{"fallbacks", "quarantined"}`` counters for /stats and metrics."""
    with _fallback_lock:
        return {
            "fallbacks": _fallback_count[0],
            "quarantined": len(_quarantined_plans),
        }


def _plan_quarantined(term_id: Optional[int]) -> bool:
    if term_id is None:
        return False
    with _fallback_lock:
        return term_id in _quarantined_plans


def _quarantine_plan(term_id: Optional[int], error: BaseException) -> None:
    logger.warning(
        "compiled engine failed (%s: %s); falling back to interpreted",
        type(error).__name__, error,
    )
    with _fallback_lock:
        _fallback_count[0] += 1
        if term_id is not None:
            _quarantined_plans[term_id] = True
            _quarantined_plans.move_to_end(term_id)
            while len(_quarantined_plans) > _QUARANTINE_CAP:
                _quarantined_plans.popitem(last=False)


def _count_fallback() -> None:
    with _fallback_lock:
        _fallback_count[0] += 1


def _active_fault_plan():
    """The active fault plan, without importing :mod:`repro.faults` eagerly.

    The kernel must stay importable on its own; the lazy import also keeps
    the no-faults hot path to one function call and a ``None`` check.
    """
    from ..faults import active_plan

    return active_plan()


def infer(
    term: A.Term,
    skeleton: Mapping[str, T.Type] | None = None,
    config: InferenceConfig | None = None,
    memo: MemoLike = None,
    engine: str = "auto",
    instrumentation=None,
) -> InferenceResult:
    """Run sensitivity inference on ``term`` under the skeleton ``Γ•``.

    ``memo`` controls subterm-judgement memoization: ``None`` (default)
    auto-enables a per-call memo when ``term`` is interned and shares
    subterms, so inference costs the *DAG* size instead of the tree size;
    ``False`` disables memoization entirely and ``True`` forces a per-call
    memo on; a :class:`JudgementMemo` instance is consulted and populated,
    carrying judgements across calls (incremental reanalysis, the
    service's shared memo).

    ``engine`` selects the rule evaluator.  ``"interpreted"`` is the
    explicit-stack walker below; ``"compiled"`` lowers the term to a flat
    execution plan and runs the bytecode loop of
    :mod:`repro.core.compiled` (identical judgements, no judgement memo);
    ``"auto"`` (default) picks the compiled engine when numpy is importable
    and no judgement memo is in play, and the interpreted engine otherwise
    — so memo-carrying callers (the service, incremental reanalysis,
    DAG-shared terms under the auto heuristic) keep their cross-call
    judgement reuse.
    """
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown inference engine {engine!r}; expected one of {_ENGINES}"
        )
    config = config or InferenceConfig()
    if config.rnd_site_grades is not None:
        # Per-site grades are positional: only the interpreted engine with
        # memoization off visits every ``rnd`` occurrence in a deterministic
        # order (memo hits would skip occurrences, conflating sites).
        engine = "interpreted"
        memo = False
    resolved_memo = _resolve_memo(term, memo)
    timed = instrumentation is not None and instrumentation.enabled
    if engine == "compiled" or (
        engine == "auto" and resolved_memo is None and compiled.have_numpy()
    ):
        term_id = getattr(term, "_intern_id", None)
        if _plan_quarantined(term_id):
            # A previous compiled run of this exact term failed: degrade
            # to the interpreter immediately instead of re-failing.  The
            # two engines agree bit-for-bit, so callers cannot tell.
            _count_fallback()
        else:
            try:
                fault_plan = _active_fault_plan()
                if fault_plan is not None and fault_plan.should("compiled_error"):
                    from ..faults import InjectedFault

                    raise InjectedFault("injected compiled-engine failure")
                context, tau = compiled.infer_compiled(
                    term, skeleton or {}, config, instrumentation
                )
                return InferenceResult(context, tau)
            except LnumError:
                # A genuine inference verdict (ill-typed program, failed
                # annotation): both engines would say the same — raise.
                raise
            except Exception as error:
                _quarantine_plan(term_id, error)
        # Fall through to the interpreted engine below.
    engine_obj = _Engine(config)
    if timed:
        import time

        hits_before = getattr(resolved_memo, "hits", 0)
        started = time.perf_counter()
        context, tau = engine_obj.run(term, dict(skeleton or {}), resolved_memo)
        instrumentation.observe("interpret", time.perf_counter() - started)
        if resolved_memo is not None:
            instrumentation.count(
                "memo_hits", getattr(resolved_memo, "hits", 0) - hits_before
            )
        return InferenceResult(context, tau)
    context, tau = engine_obj.run(term, dict(skeleton or {}), resolved_memo)
    return InferenceResult(context, tau)


def infer_type(
    term: A.Term,
    skeleton: Mapping[str, T.Type] | None = None,
    config: InferenceConfig | None = None,
) -> T.Type:
    """Convenience wrapper returning only the inferred type."""
    return infer(term, skeleton, config).type


def check_term(
    term: A.Term,
    expected: T.Type,
    skeleton: Mapping[str, T.Type] | None = None,
    config: InferenceConfig | None = None,
) -> InferenceResult:
    """Infer a type for ``term`` and check it against ``expected`` by subtyping."""
    result = infer(term, skeleton, config)
    if not is_subtype(result.type, expected):
        raise TypeInferenceError(
            f"inferred type {result.type} is not a subtype of the annotation {expected}"
        )
    return result


def enumerate_rnd_sites(
    term: A.Term,
    skeleton: Mapping[str, T.Type] | None = None,
    config: InferenceConfig | None = None,
) -> List[A.Rnd]:
    """The ``rnd`` occurrences of ``term`` in inference firing order.

    Runs the interpreted engine with a collector and no memo, so the list
    order is exactly the order in which :attr:`InferenceConfig.rnd_site_grades`
    entries are consumed — the canonical site numbering shared by the
    precision tuner's probe, certification, and evaluation legs.  Shared
    (hash-consed) subterms are visited once per *occurrence*, so the same
    node object may appear more than once.
    """
    engine_obj = _Engine(config or InferenceConfig())
    collector: List[A.Rnd] = []
    engine_obj.rnd_sites = collector
    engine_obj.run(term, dict(skeleton or {}), None)
    return collector


# ---------------------------------------------------------------------------
# The iterative engine
# ---------------------------------------------------------------------------

#: Marks a variable that was unbound before a binder shadowed it.
_ABSENT = object()

#: A judgement on the result stack: (context, type).
_Judgement = Tuple[Context, T.Type]

#: Stage sentinel for the frame that records a finished judgement into the
#: memo.  It is pushed *below* a node's stage-0 frame on a memo miss, so it
#: pops exactly when the node's judgement is on top of the result stack.
_STAGE_RECORD = -1


class _Engine:
    """Explicit-stack evaluator for the rules of Fig. 10.

    ``run`` drives a frame stack where each frame is ``(term, stage, aux)``:
    stage 0 expands a node (pushing its premises), later stages fire once the
    premises' judgements sit on the result stack.  ``aux`` carries the saved
    skeleton binding that the stage must restore when it leaves a binder's
    scope, keeping the single scope dict consistent with the DFS position.

    With a memo, every eligible interned node is keyed before expansion: a
    hit pushes the stored judgement and skips the whole subtree (the walk
    visits each *distinct* subterm once — DAG cost, not tree cost); a miss
    schedules a record frame that stores the judgement once computed.
    """

    __slots__ = (
        "config",
        "signature",
        "skeleton",
        "stack",
        "results",
        "rnd_count",
        "site_grades",
        "rnd_sites",
    )

    def __init__(self, config: InferenceConfig) -> None:
        self.config = config
        self.signature = config.signature
        self.site_grades = config.rnd_site_grades
        self.rnd_sites: Optional[List[A.Rnd]] = None

    def run(
        self,
        term: A.Term,
        skeleton: Dict[str, T.Type],
        memo=None,
    ) -> _Judgement:
        self.skeleton = skeleton
        self.rnd_count = 0
        stack: List[Tuple[A.Term, int, object]] = [(term, 0, None)]
        self.stack = stack
        results: List[_Judgement] = []
        self.results = results
        dispatch = _DISPATCH
        config_fp = _config_fingerprint(self.config) if memo is not None else None
        while stack:
            node, stage, aux = stack.pop()
            if memo is not None:
                if stage == _STAGE_RECORD:
                    memo.put(aux, results[-1])
                    continue
                if stage == 0:
                    key = self._memo_key(node, config_fp)
                    if key is not None:
                        judgement = memo.get(key)
                        if judgement is not None:
                            results.append(judgement)
                            continue
                        stack.append((node, _STAGE_RECORD, key))
            handler = dispatch.get(type(node))
            if handler is None:
                raise TypeInferenceError(
                    f"no inference rule for term node {type(node).__name__}"
                )
            handler(self, node, stage, aux)
        if self.site_grades is not None and self.rnd_count != len(self.site_grades):
            raise TypeInferenceError(
                f"rnd_site_grades supplied {len(self.site_grades)} grades but the "
                f"term has {self.rnd_count} rnd occurrences"
            )
        return results.pop()

    def _memo_key(self, node: A.Term, config_fp: Tuple) -> Optional[Tuple]:
        """``(config, intern id, skeleton slice over free vars)`` or None.

        ``None`` opts the node out: leaves (cheaper to recompute),
        un-interned nodes (no stable identity), nodes whose free-variable
        set exceeds :data:`~repro.core.ast.FREE_VARIABLE_CAP` (the slice
        would cost more than the rule), and nodes with an unbound free
        variable (let the rule raise the real error).
        """
        if isinstance(node, _MEMO_SKIP):
            return None
        intern_id = getattr(node, "_intern_id", None)
        if intern_id is None:
            return None
        free = A.term_free_variables(node)
        if free is None:
            return None
        skeleton = self.skeleton
        try:
            scope = tuple((name, skeleton[name]) for name in sorted(free))
        except KeyError:
            return None
        return (config_fp, intern_id, scope)

    # -- scope bookkeeping --------------------------------------------------

    def _enter(self, name: str, tau: T.Type) -> object:
        """Bind ``name : tau`` in the scope dict, returning the shadowed entry."""
        saved = self.skeleton.get(name, _ABSENT)
        self.skeleton[name] = tau
        return saved

    def _leave(self, name: str, saved: object) -> None:
        if saved is _ABSENT:
            del self.skeleton[name]
        else:
            self.skeleton[name] = saved


# -- values ------------------------------------------------------------------


def _infer_var(eng: _Engine, term: A.Var, stage: int, aux) -> None:
    tau = eng.skeleton.get(term.name)
    if tau is None:
        raise TypeInferenceError(f"unbound variable {term.name!r}")
    eng.results.append((Context.single(term.name, tau, ONE), tau))


def _infer_unit(eng: _Engine, term: A.UnitVal, stage: int, aux) -> None:
    eng.results.append((Context.empty(), T.UNIT))


def _infer_const(eng: _Engine, term: A.Const, stage: int, aux) -> None:
    eng.results.append((Context.empty(), T.NUM))


def _infer_err(eng: _Engine, term: A.Err, stage: int, aux) -> None:
    # err : M_u τ for any u, τ (Section 7.1); infer the least grade and a
    # numeric payload, callers may loosen by subsumption.
    eng.results.append((Context.empty(), T.Monadic(ZERO, T.NUM)))


def _infer_with_pair(eng: _Engine, term: A.WithPair, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.right, 0, None), (term.left, 0, None))
        return
    right_ctx, right_ty = eng.results.pop()
    left_ctx, left_ty = eng.results.pop()
    eng.results.append((left_ctx.max_with(right_ctx), T.WithProduct(left_ty, right_ty)))


def _infer_tensor_pair(eng: _Engine, term: A.TensorPair, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.right, 0, None), (term.left, 0, None))
        return
    right_ctx, right_ty = eng.results.pop()
    left_ctx, left_ty = eng.results.pop()
    eng.results.append((left_ctx + right_ctx, T.TensorProduct(left_ty, right_ty)))


def _infer_inl(eng: _Engine, term: A.Inl, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    ctx, tau = eng.results.pop()
    eng.results.append((ctx, T.SumType(tau, term.other_type)))


def _infer_inr(eng: _Engine, term: A.Inr, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    ctx, tau = eng.results.pop()
    eng.results.append((ctx, T.SumType(term.other_type, tau)))


def _infer_lambda(eng: _Engine, term: A.Lambda, stage: int, aux) -> None:
    if stage == 0:
        saved = eng._enter(term.parameter, term.parameter_type)
        eng.stack += ((term, 1, saved), (term.body, 0, None))
        return
    eng._leave(term.parameter, aux)
    body_ctx, body_ty = eng.results.pop()
    sensitivity = body_ctx.sensitivity_of(term.parameter)
    if not (sensitivity <= ONE):
        raise TypeInferenceError(
            f"lambda body is {sensitivity}-sensitive in {term.parameter!r}; a plain "
            f"function type permits sensitivity at most 1 — wrap the argument type "
            f"in ![{sensitivity}] and eliminate it with `let [..] = ..`"
        )
    eng.results.append(
        (body_ctx.remove(term.parameter), T.Arrow(term.parameter_type, body_ty))
    )


def _infer_box(eng: _Engine, term: A.Box, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    ctx, tau = eng.results.pop()
    eng.results.append((ctx.scale(term.scale), T.Bang(term.scale, tau)))


def _infer_rnd(eng: _Engine, term: A.Rnd, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    ctx, tau = eng.results.pop()
    if not isinstance(tau, T.Num):
        raise TypeInferenceError(f"rnd expects a numeric argument, got {tau}")
    grade = eng.config.rnd_grade
    if eng.site_grades is not None or eng.rnd_sites is not None:
        index = eng.rnd_count
        eng.rnd_count = index + 1
        if eng.rnd_sites is not None:
            eng.rnd_sites.append(term)
        if eng.site_grades is not None:
            if index >= len(eng.site_grades):
                raise TypeInferenceError(
                    f"rnd_site_grades supplied {len(eng.site_grades)} grades but "
                    f"the term has more rnd occurrences"
                )
            grade = eng.site_grades[index]
    eng.results.append((ctx, T.Monadic(grade, T.NUM)))


def _infer_ret(eng: _Engine, term: A.Ret, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    ctx, tau = eng.results.pop()
    eng.results.append((ctx, T.Monadic(ZERO, tau)))


# -- computations ------------------------------------------------------------


def _infer_app(eng: _Engine, term: A.App, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.argument, 0, None), (term.function, 0, None))
        return
    arg_ctx, arg_ty = eng.results.pop()
    fun_ctx, fun_ty = eng.results.pop()
    if not isinstance(fun_ty, T.Arrow):
        raise TypeInferenceError(f"application of a non-function value of type {fun_ty}")
    if not is_subtype(arg_ty, fun_ty.argument):
        raise TypeInferenceError(
            f"argument type {arg_ty} is not a subtype of the expected {fun_ty.argument}"
        )
    eng.results.append((fun_ctx + arg_ctx, fun_ty.result))


def _infer_proj(eng: _Engine, term: A.Proj, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    ctx, tau = eng.results.pop()
    if not isinstance(tau, T.WithProduct):
        raise TypeInferenceError(f"projection expects a with-product, got {tau}")
    eng.results.append((ctx, tau.left if term.index == 1 else tau.right))


def _infer_let_tensor(eng: _Engine, term: A.LetTensor, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    if stage == 1:
        value_ty = eng.results[-1][1]
        if not isinstance(value_ty, T.TensorProduct):
            raise TypeInferenceError(
                f"let (x, y) = ... expects a tensor product, got {value_ty}"
            )
        saved_left = eng._enter(term.left_var, value_ty.left)
        saved_right = eng._enter(term.right_var, value_ty.right)
        eng.stack += ((term, 2, (saved_left, saved_right)), (term.body, 0, None))
        return
    saved_left, saved_right = aux
    eng._leave(term.right_var, saved_right)
    eng._leave(term.left_var, saved_left)
    body_ctx, body_ty = eng.results.pop()
    value_ctx, _value_ty = eng.results.pop()
    s_left = body_ctx.sensitivity_of(term.left_var)
    s_right = body_ctx.sensitivity_of(term.right_var)
    scale = s_left.max(s_right)
    residual = body_ctx.remove(term.left_var, term.right_var)
    eng.results.append((residual + value_ctx.scale(scale), body_ty))


def _infer_case(eng: _Engine, term: A.Case, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.scrutinee, 0, None))
        return
    if stage == 1:
        scrutinee_ty = eng.results[-1][1]
        if not isinstance(scrutinee_ty, T.SumType):
            raise TypeInferenceError(f"case expects a sum type, got {scrutinee_ty}")
        saved = eng._enter(term.left_var, scrutinee_ty.left)
        eng.stack += ((term, 2, saved), (term.left_body, 0, None))
        return
    if stage == 2:
        eng._leave(term.left_var, aux)
        scrutinee_ty = eng.results[-2][1]
        saved = eng._enter(term.right_var, scrutinee_ty.right)
        eng.stack += ((term, 3, saved), (term.right_body, 0, None))
        return
    eng._leave(term.right_var, aux)
    right_ctx, right_ty = eng.results.pop()
    left_ctx, left_ty = eng.results.pop()
    scrutinee_ctx, _scrutinee_ty = eng.results.pop()

    s_left = left_ctx.sensitivity_of(term.left_var)
    s_right = right_ctx.sensitivity_of(term.right_var)
    guard_sensitivity = s_left.max(s_right)
    if guard_sensitivity.is_zero:
        # The (+E) rule requires a strictly positive guard sensitivity to
        # retain the dependence on the scrutinee (Fig. 10, "ε otherwise").
        guard_sensitivity = eng.config.case_guard_sensitivity
    residual = left_ctx.remove(term.left_var).max_with(right_ctx.remove(term.right_var))
    result_type = join(left_ty, right_ty)
    eng.results.append((residual + scrutinee_ctx.scale(guard_sensitivity), result_type))


def _infer_let_box(eng: _Engine, term: A.LetBox, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    if stage == 1:
        value_ty = eng.results[-1][1]
        if not isinstance(value_ty, T.Bang):
            raise TypeInferenceError(f"let [x] = ... expects a !-type, got {value_ty}")
        saved = eng._enter(term.variable, value_ty.inner)
        eng.stack += ((term, 2, saved), (term.body, 0, None))
        return
    eng._leave(term.variable, aux)
    body_ctx, body_ty = eng.results.pop()
    value_ctx, value_ty = eng.results.pop()
    needed = body_ctx.sensitivity_of(term.variable)
    scale = _divide_sensitivity(needed, value_ty.sensitivity, term.variable)
    residual = body_ctx.remove(term.variable)
    eng.results.append((residual + value_ctx.scale(scale), body_ty))


def _infer_let_bind(eng: _Engine, term: A.LetBind, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    if stage == 1:
        value_ty = eng.results[-1][1]
        if not isinstance(value_ty, T.Monadic):
            raise TypeInferenceError(
                f"let-bind expects a monadic value on the right of '=', got {value_ty}"
            )
        saved = eng._enter(term.variable, value_ty.inner)
        eng.stack += ((term, 2, saved), (term.body, 0, None))
        return
    eng._leave(term.variable, aux)
    body_ctx, body_ty = eng.results.pop()
    value_ctx, value_ty = eng.results.pop()
    if not isinstance(body_ty, T.Monadic):
        raise TypeInferenceError(
            f"the body of a monadic let-bind must have monadic type, got {body_ty}"
        )
    sensitivity = body_ctx.sensitivity_of(term.variable)
    grade = sensitivity * value_ty.grade + body_ty.grade
    residual = body_ctx.remove(term.variable)
    context = residual + value_ctx.scale(sensitivity)
    eng.results.append((context, T.Monadic(grade, body_ty.inner)))


def _infer_let(eng: _Engine, term: A.Let, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.bound, 0, None))
        return
    if stage == 1:
        bound_ty = eng.results[-1][1]
        saved = eng._enter(term.variable, bound_ty)
        eng.stack += ((term, 2, saved), (term.body, 0, None))
        return
    eng._leave(term.variable, aux)
    body_ctx, body_ty = eng.results.pop()
    bound_ctx, _bound_ty = eng.results.pop()
    sensitivity = body_ctx.sensitivity_of(term.variable)
    if sensitivity.is_zero and not eng.config.allow_unused_let:
        raise TypeInferenceError(
            f"let-bound variable {term.variable!r} is unused and the configuration "
            f"forbids zero-sensitivity lets (Fig. 2 requires s > 0)"
        )
    residual = body_ctx.remove(term.variable)
    eng.results.append((residual + bound_ctx.scale(sensitivity), body_ty))


def _infer_op(eng: _Engine, term: A.Op, stage: int, aux) -> None:
    if stage == 0:
        eng.stack += ((term, 1, None), (term.value, 0, None))
        return
    operation = eng.signature.lookup(term.name)
    ctx, tau = eng.results.pop()
    if not is_subtype(tau, operation.input_type):
        raise TypeInferenceError(
            f"operation {term.name!r} expects an argument of type "
            f"{operation.input_type}, got {tau}"
        )
    eng.results.append((ctx, operation.result_type))


#: Rule dispatch, built once per term class at import time.
_DISPATCH = {
    A.Var: _infer_var,
    A.UnitVal: _infer_unit,
    A.Const: _infer_const,
    A.Err: _infer_err,
    A.WithPair: _infer_with_pair,
    A.TensorPair: _infer_tensor_pair,
    A.Inl: _infer_inl,
    A.Inr: _infer_inr,
    A.Lambda: _infer_lambda,
    A.Box: _infer_box,
    A.Rnd: _infer_rnd,
    A.Ret: _infer_ret,
    A.App: _infer_app,
    A.Proj: _infer_proj,
    A.LetTensor: _infer_let_tensor,
    A.Case: _infer_case,
    A.LetBox: _infer_let_box,
    A.LetBind: _infer_let_bind,
    A.Let: _infer_let,
    A.Op: _infer_op,
}


def _divide_sensitivity(needed: Grade, declared: Grade, variable: str) -> Grade:
    """The least ``t`` with ``t * declared >= needed`` (the (!E) scaling factor)."""
    if needed.is_zero:
        return ZERO
    if declared.is_zero:
        raise TypeInferenceError(
            f"variable {variable!r} is boxed at sensitivity 0 but the body uses it "
            f"with sensitivity {needed}"
        )
    if declared.is_infinite:
        # Any positive t covers a finite demand; an infinite demand needs t >= 1.
        return ONE
    if needed.is_infinite:
        return Grade.infinite()
    if not declared.is_constant:
        # Dividing by a symbolic grade is not supported (and never needed for
        # the standard instantiation, where box scales are rational constants).
        raise TypeInferenceError(
            f"cannot divide sensitivity {needed} by the symbolic box scale {declared}"
        )
    factor = Fraction(1) / declared.evaluate()
    return needed * Grade.constant(factor)
