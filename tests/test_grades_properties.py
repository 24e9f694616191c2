"""Property tests for the interned Grade/Context kernel.

The interned :class:`~repro.core.grades.Grade` ring and the persistent
:class:`~repro.core.environment.Context` algebra must agree with the naive
reference implementations below — plain monomial dicts and flat binding
dicts copied per operation — on randomized inputs, and must satisfy the
algebraic laws the typing rules rely on: the semiring laws of Definition 4.2
(including the ``0 · ∞ = 0`` convention) and the context-algebra laws used
by the bottom-up rules of Fig. 10.
"""

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.environment import Context
from repro.core.errors import TypeCheckError
from repro.core.grades import (
    DEFAULT_REGISTRY,
    EPS,
    Grade,
    GradeLike,
    INFINITY,
    ONE,
    ZERO,
    as_grade,
)
from repro.core.types import NUM, UNIT, Type

# ---------------------------------------------------------------------------
# Naive references: the specification of Grade.__add__/__mul__ and of the
# Context algebra
# ---------------------------------------------------------------------------


def naive_add_terms(
    left: Mapping[Tuple[str, ...], Fraction], right: Mapping[Tuple[str, ...], Fraction]
) -> Dict[Tuple[str, ...], Fraction]:
    """Coefficient-wise sum of two monomial -> coefficient maps."""
    terms = dict(left)
    for mono, coeff in right.items():
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return {mono: coeff for mono, coeff in terms.items() if coeff != 0}


def naive_mul_terms(
    left: Mapping[Tuple[str, ...], Fraction], right: Mapping[Tuple[str, ...], Fraction]
) -> Dict[Tuple[str, ...], Fraction]:
    """Distributive product of two monomial -> coefficient maps."""
    terms: Dict[Tuple[str, ...], Fraction] = {}
    for mono_a, coeff_a in left.items():
        for mono_b, coeff_b in right.items():
            mono = tuple(sorted(mono_a + mono_b))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff_a * coeff_b
    return {mono: coeff for mono, coeff in terms.items() if coeff != 0}


class NaiveContext:
    """A context as one flat dict, rebuilt by every operation."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[str, Tuple[Type, Grade]]] = None) -> None:
        data: Dict[str, Tuple[Type, Grade]] = {}
        if bindings:
            for name, (tau, sens) in bindings.items():
                data[name] = (tau, as_grade(sens))
        self._bindings = data

    def as_dict(self) -> Dict[str, Tuple[Type, Grade]]:
        return dict(self._bindings)

    def remove(self, *names: str) -> "NaiveContext":
        return NaiveContext(
            {k: v for k, v in self._bindings.items() if k not in names}
        )

    def summable_with(self, other: "NaiveContext") -> bool:
        for name, (tau, _) in self._bindings.items():
            if name in other._bindings and other._bindings[name][0] != tau:
                return False
        return True

    def __add__(self, other: "NaiveContext") -> "NaiveContext":
        if not self.summable_with(other):
            raise TypeCheckError(
                "contexts are not summable: a shared variable has two different types"
            )
        data = dict(self._bindings)
        for name, (tau, sens) in other._bindings.items():
            if name in data:
                data[name] = (tau, data[name][1] + sens)
            else:
                data[name] = (tau, sens)
        return NaiveContext(data)

    def scale(self, factor: GradeLike) -> "NaiveContext":
        factor = as_grade(factor)
        return NaiveContext(
            {name: (tau, factor * sens) for name, (tau, sens) in self._bindings.items()}
        )

    def max_with(self, other: "NaiveContext") -> "NaiveContext":
        if not self.summable_with(other):
            raise TypeCheckError(
                "contexts cannot be joined: a shared variable has two different types"
            )
        data = dict(self._bindings)
        for name, (tau, sens) in other._bindings.items():
            if name in data:
                data[name] = (tau, data[name][1].max(sens))
            else:
                data[name] = (tau, sens)
        return NaiveContext(data)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_SYMBOLS = ("eps", "u'")

# The lattice operations (max/min, the sub-environment order) compare grades
# by exact evaluation, which needs every symbol to carry a value — give the
# second-roundoff symbol u' one (the paper's M[3*eps + 4*u'] example).
if not DEFAULT_REGISTRY.known("u'"):
    DEFAULT_REGISTRY.register("u'", Fraction(1, 2**24))

_coefficients = st.fractions(
    min_value=0, max_value=1000, max_denominator=64
)

_monomials = st.lists(st.sampled_from(_SYMBOLS), min_size=0, max_size=2).map(
    lambda symbols: tuple(sorted(symbols))
)


@st.composite
def finite_grades(draw):
    terms = draw(
        st.dictionaries(_monomials, _coefficients, min_size=0, max_size=3)
    )
    return Grade(terms)


@st.composite
def grades(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return INFINITY
    return draw(finite_grades())


_names = st.sampled_from(tuple(f"v{i}" for i in range(6)))
_types = st.sampled_from((NUM, UNIT))


@st.composite
def contexts(draw):
    bindings = draw(
        st.dictionaries(
            _names,
            st.tuples(_types, finite_grades()),
            min_size=0,
            max_size=5,
        )
    )
    return Context(bindings)


def summable_pair():
    """Two contexts whose shared variables carry identical types."""

    @st.composite
    def build(draw):
        skeleton = draw(st.dictionaries(_names, _types, min_size=0, max_size=5))

        def pick(names_subset):
            return Context(
                {name: (skeleton[name], draw(finite_grades())) for name in names_subset}
            )

        names = sorted(skeleton)
        left_names = draw(st.sets(st.sampled_from(names), max_size=5)) if names else set()
        right_names = draw(st.sets(st.sampled_from(names), max_size=5)) if names else set()
        return pick(left_names), pick(right_names)

    return build()


def naive_of(context: Context) -> NaiveContext:
    return NaiveContext(context.as_dict())


def same_bindings(context: Context, naive: NaiveContext) -> bool:
    return context.as_dict() == naive.as_dict()


# ---------------------------------------------------------------------------
# Grade: agreement with the naive reference
# ---------------------------------------------------------------------------


class TestGradeAgainstReference:
    @given(finite_grades(), finite_grades())
    def test_addition_matches_naive(self, a, b):
        assert (a + b).terms() == naive_add_terms(a.terms(), b.terms())

    @given(finite_grades(), finite_grades())
    def test_multiplication_matches_naive(self, a, b):
        assert (a * b).terms() == naive_mul_terms(a.terms(), b.terms())

    @given(finite_grades())
    def test_interning_canonicalizes(self, a):
        assert Grade(a.terms()) is a

    @given(finite_grades(), finite_grades())
    def test_equality_is_structural(self, a, b):
        assert (a == b) == (a.terms() == b.terms())


# ---------------------------------------------------------------------------
# Grade: semiring laws (Definition 4.2)
# ---------------------------------------------------------------------------


class TestGradeSemiringLaws:
    @given(grades(), grades())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(grades(), grades(), grades())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(grades())
    def test_zero_is_additive_identity(self, a):
        assert a + ZERO == a
        assert ZERO + a == a

    @given(grades(), grades())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(grades(), grades(), grades())
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(grades())
    def test_one_is_multiplicative_identity(self, a):
        assert a * ONE == a

    @given(grades(), grades(), grades())
    def test_distributivity(self, a, b, c):
        # In the presence of ∞ distributivity needs the 0·∞ = 0 convention,
        # which both sides implement.
        assert a * (b + c) == a * b + a * c

    def test_zero_annihilates_infinity(self):
        assert ZERO * INFINITY == ZERO
        assert INFINITY * ZERO == ZERO

    @given(grades())
    def test_zero_annihilates(self, a):
        assert a * ZERO == ZERO

    @given(finite_grades(), finite_grades())
    def test_max_is_the_evaluation_order(self, a, b):
        bigger = a.max(b)
        assert bigger in (a, b)
        assert bigger >= a and bigger >= b


# ---------------------------------------------------------------------------
# Context: agreement with the naive reference
# ---------------------------------------------------------------------------


class TestContextAgainstReference:
    @given(summable_pair())
    def test_sum_matches_naive(self, pair):
        left, right = pair
        assert same_bindings(left + right, naive_of(left) + naive_of(right))

    @given(summable_pair())
    def test_max_matches_naive(self, pair):
        left, right = pair
        assert same_bindings(
            left.max_with(right), naive_of(left).max_with(naive_of(right))
        )

    @given(contexts(), grades())
    def test_scale_matches_naive(self, context, factor):
        assert same_bindings(context.scale(factor), naive_of(context).scale(factor))

    @given(contexts(), st.lists(_names, max_size=3))
    def test_remove_matches_naive(self, context, names):
        assert same_bindings(context.remove(*names), naive_of(context).remove(*names))


# ---------------------------------------------------------------------------
# Context: algebra laws used by the inference rules
# ---------------------------------------------------------------------------


class TestContextAlgebraLaws:
    @given(summable_pair())
    def test_sum_commutes(self, pair):
        left, right = pair
        assert left + right == right + left

    @given(summable_pair())
    def test_max_commutes(self, pair):
        left, right = pair
        assert left.max_with(right) == right.max_with(left)

    @given(contexts())
    def test_max_idempotent(self, context):
        assert context.max_with(context) == context

    @given(contexts())
    def test_empty_is_additive_identity(self, context):
        assert context + Context.empty() == context
        assert Context.empty() + context == context

    @given(summable_pair(), finite_grades())
    def test_scale_distributes_over_sum(self, pair, factor):
        left, right = pair
        assert (left + right).scale(factor) == left.scale(factor) + right.scale(factor)

    @given(contexts(), finite_grades(), finite_grades())
    def test_scale_composes(self, context, a, b):
        assert context.scale(a).scale(b) == context.scale(a * b)

    @given(contexts())
    def test_scale_by_one_is_identity(self, context):
        assert context.scale(ONE) == context

    @given(contexts())
    def test_scale_by_zero_zeroes_sensitivities(self, context):
        scaled = context.scale(ZERO)
        assert set(scaled.variables()) == set(context.variables())
        for name in scaled.variables():
            assert scaled.sensitivity_of(name) is ZERO

    @given(contexts())
    def test_scale_by_zero_kills_infinite_sensitivities(self, context):
        # 0 · ∞ = 0 lifts pointwise to contexts (Definition 4.2).
        spiked = context.bind("spike", NUM, INFINITY)
        assert spiked.scale(ZERO).sensitivity_of("spike") is ZERO

    @given(summable_pair())
    def test_sum_dominates_max(self, pair):
        left, right = pair
        joined = left.max_with(right)
        summed = left + right
        assert joined.is_subenvironment_of(summed)


# ---------------------------------------------------------------------------
# Mixed: persistence (no aliasing between derived contexts)
# ---------------------------------------------------------------------------


class TestPersistence:
    @given(summable_pair())
    def test_operands_survive_merge(self, pair):
        left, right = pair
        before_left = left.as_dict()
        before_right = right.as_dict()
        _ = left + right
        _ = left.max_with(right)
        _ = left.scale(EPS)
        assert left.as_dict() == before_left
        assert right.as_dict() == before_right

    @given(contexts())
    def test_pickle_round_trip(self, context):
        import pickle

        clone = pickle.loads(pickle.dumps(context))
        assert clone == context
        assert clone.as_dict() == context.as_dict()


@pytest.mark.parametrize("value", [0, 1, Fraction(3, 7), "2*eps + 1"])
def test_as_grade_canonicalizes(value):
    assert as_grade(value) is as_grade(value)
