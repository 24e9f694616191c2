"""Compiled inference kernel: flat execution plans + packed grade algebra.

This package is the compiled counterpart of the interpreted walker in
:mod:`repro.core.inference`:

* :mod:`~repro.core.compiled.plan` lowers a term into a flat preorder
  instruction array (an interned term's plan is cached per intern id in a
  bounded LRU; an un-interned tree is lowered directly, uncached);
* :mod:`~repro.core.compiled.packed` stores grade polynomials as packed
  (monomial-index, numerator, denominator) lanes with vectorized numpy
  int64 ring ops — overflow-certified, falling back to exact ``Fraction``
  lanes, with numpy imported on the first wide grade — or pure-Python int
  lanes when numpy is unavailable;
* :mod:`~repro.core.compiled.executor` replays the plan with a
  bytecode-style loop and converts back to interned ``Grade``/``Context``
  objects only at the judgement boundary.

Select it through ``infer(term, engine="compiled")`` (or ``engine="auto"``,
which prefers the compiled engine when numpy is importable and no judgement
memo is in play).  The two engines are differentially tested to produce
bit-for-bit identical judgements and errors.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .. import types as T
from ..environment import Context
from .executor import PBang, PMonadic, execute
from .packed import have_numpy, packed_memo_stats
from .plan import Plan, clear_plan_memo, plan_for, plan_memo_stats

__all__ = [
    "infer_compiled",
    "compiled_memo_stats",
    "clear_plan_memo",
    "have_numpy",
    "plan_for",
    "Plan",
    "PBang",
    "PMonadic",
    "execute",
]


def infer_compiled(
    term, skeleton: Mapping[str, T.Type], config, instrumentation=None
) -> Tuple[Context, T.Type]:
    """Lower (or fetch the cached plan for) ``term`` and execute it.

    Returns the ``(context, type)`` judgement with real interned grades —
    the same pair the interpreted engine computes.  ``instrumentation``
    records the plan fetch/lowering as the ``lower`` phase and hands the
    ``execute``/``convert`` boundary timing down to the executor.
    """
    if getattr(config, "rnd_site_grades", None) is not None:
        # Positional per-site grades need the interpreted engine's
        # deterministic occurrence order; plans share subterm results.
        raise ValueError("rnd_site_grades requires the interpreted engine")
    if instrumentation is not None and instrumentation.enabled:
        import time

        started = time.perf_counter()
        plan = plan_for(term)
        instrumentation.observe("lower", time.perf_counter() - started)
        return execute(plan, skeleton, config, instrumentation)
    return execute(plan_for(term), skeleton, config)


def compiled_memo_stats() -> Dict[str, object]:
    """Cache/counters block for ``analysis.cache.memo_report`` and /stats."""
    return {"plans": plan_memo_stats(), "packed": packed_memo_stats()}
