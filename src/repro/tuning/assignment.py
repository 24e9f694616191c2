"""Per-site precision assignments and the format ladder they range over.

A *site* is one ``rnd`` occurrence of a program, numbered in the inference
engine's firing order (:func:`repro.core.inference.enumerate_rnd_sites`).
An assignment gives every site a floating-point format from the ladder;
the graded type system certifies the assignment by re-running inference
with one concrete error grade per site
(:attr:`~repro.core.inference.InferenceConfig.rnd_site_grades`).

Costs are relative storage/bandwidth weights (bytes per value), so the
uniform binary64 program costs ``8 * sites`` and ``cost_reduction`` is the
fraction of that saved — the figure ``BENCH_tuning.json`` tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from ..core import ast as A
from ..core.grades import Grade
from ..floats.formats import STANDARD_FORMATS

__all__ = [
    "LADDER",
    "FORMAT_COSTS",
    "WIDEST_FORMAT",
    "PrecisionAssignment",
    "format_unit_roundoff",
    "unshare_term",
]

#: Formats the tuner may assign, cheapest first.  ``binary128`` is excluded:
#: sampling runs in exact rationals against a working-precision model, and
#: nothing in the corpus needs *more* than binary64 to meet a bound binary64
#: already meets.
LADDER: Tuple[str, ...] = ("bfloat16", "binary16", "binary32", "binary64")

#: Relative cost weights — bytes per stored value.
FORMAT_COSTS: Dict[str, int] = {
    "bfloat16": 1,
    "binary16": 2,
    "binary32": 4,
    "binary64": 8,
}

WIDEST_FORMAT = "binary64"


def format_unit_roundoff(name: str) -> Fraction:
    """Directed-mode unit roundoff ``2^(1-p)`` of a ladder format."""
    return STANDARD_FORMATS[name].unit_roundoff_directed


@dataclass(frozen=True)
class PrecisionAssignment:
    """One format per ``rnd`` site, in engine firing order.

    ``stochastic`` marks that narrowed (non-binary64) sites execute under
    the per-site stochastic-rounding semantics of
    :mod:`repro.core.semantics.randomized` rather than a directed mode.
    The certified grade is identical either way — stochastic rounding
    never leaves the directed-neighbour enclosure — so the flag changes
    execution semantics and reporting, not the type-level bound.
    """

    formats: Tuple[str, ...]
    stochastic: bool = False

    def __post_init__(self) -> None:
        for name in self.formats:
            if name not in FORMAT_COSTS:
                raise ValueError(f"unknown tuning format {name!r}")

    @staticmethod
    def uniform(name: str, sites: int, stochastic: bool = False) -> "PrecisionAssignment":
        return PrecisionAssignment(formats=(name,) * sites, stochastic=stochastic)

    @property
    def sites(self) -> int:
        return len(self.formats)

    @property
    def cost(self) -> int:
        return sum(FORMAT_COSTS[name] for name in self.formats)

    @property
    def baseline_cost(self) -> int:
        return FORMAT_COSTS[WIDEST_FORMAT] * self.sites

    @property
    def cost_reduction(self) -> float:
        """Fraction of the uniform-binary64 cost saved (0 for no sites)."""
        baseline = self.baseline_cost
        if baseline == 0:
            return 0.0
        return 1.0 - self.cost / baseline

    @property
    def is_uniform(self) -> bool:
        return len(set(self.formats)) <= 1

    def site_grades(self) -> Tuple[Grade, ...]:
        """One concrete error grade per site: the format's unit roundoff."""
        return tuple(
            Grade.constant(format_unit_roundoff(name)) for name in self.formats
        )

    def with_format(self, index: int, name: str) -> "PrecisionAssignment":
        formats = list(self.formats)
        formats[index] = name
        return replace(self, formats=tuple(formats))

    def narrowed(self, index: int) -> Optional["PrecisionAssignment"]:
        """The assignment with site ``index`` one ladder step cheaper."""
        position = LADDER.index(self.formats[index])
        if position == 0:
            return None
        return self.with_format(index, LADDER[position - 1])

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name in self.formats:
            out[name] = out.get(name, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "formats": list(self.formats),
            "stochastic": self.stochastic,
            "cost": self.cost,
            "baseline_cost": self.baseline_cost,
            "cost_reduction": self.cost_reduction,
            "uniform": self.is_uniform,
            "counts": self.counts(),
        }


def unshare_term(term: A.Term) -> A.Term:
    """A structurally-equal rebuild of ``term`` with no shared subterms.

    Hash-consed terms share equal subtrees, so two ``rnd`` occurrences can
    be the *same* object; the mixed-precision evaluator names occurrences
    by object identity, which needs every occurrence to be distinct.
    Neither ``pickle`` nor ``copy.deepcopy`` helps — both memoize by id
    and faithfully preserve the sharing — so this rebuilds the full tree
    explicitly.  Iterative (no recursion limit) via the slot-state protocol
    :class:`~repro.core.ast.Term` already defines for pickling.
    """
    stack: List[Tuple[A.Term, bool]] = [(term, False)]
    results: List[A.Term] = []
    while stack:
        node, expanded = stack.pop()
        _cls, state = node.__getstate__()
        term_slots = [slot for slot in state if isinstance(state[slot], A.Term)]
        if not expanded:
            stack.append((node, True))
            for slot in term_slots:
                stack.append((state[slot], False))
            continue
        # Children were pushed in slot order and each subtree completes
        # before the next starts, so results holds them in *reverse* slot
        # order — the first slot's child is on top.
        fresh_state = dict(state)
        for slot in term_slots:
            fresh_state[slot] = results.pop()
        fresh = object.__new__(type(node))
        fresh.__setstate__((None, fresh_state))
        results.append(fresh)
    return results.pop()
