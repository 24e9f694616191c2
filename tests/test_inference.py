"""Tests for the sensitivity-inference algorithm (Fig. 10)."""

from fractions import Fraction

import pytest

from repro.core import ast as A
from repro.core import types as T
from repro.core.errors import TypeInferenceError
from repro.core.grades import EPS, Grade, INFINITY, ZERO
from repro.core.inference import InferenceConfig, check_term, infer, infer_type
from repro.core.subtyping import is_subtype


def _mul(x: A.Term, y: A.Term) -> A.Term:
    return A.Op("mul", A.TensorPair(x, y))


def _add(x: A.Term, y: A.Term) -> A.Term:
    return A.Op("add", A.WithPair(x, y))


class TestValuesAndVariables:
    def test_variable(self):
        result = infer(A.Var("x"), {"x": T.NUM})
        assert result.type == T.NUM
        assert result.sensitivity_of("x") == 1

    def test_unbound_variable(self):
        with pytest.raises(TypeInferenceError):
            infer(A.Var("x"), {})

    def test_constant_uses_no_variables(self):
        result = infer(A.Const(3), {"x": T.NUM})
        assert result.type == T.NUM
        assert result.sensitivity_of("x").is_zero

    def test_unit(self):
        assert infer_type(A.UnitVal(), {}) == T.UNIT

    def test_booleans(self):
        assert infer_type(A.true_value(), {}) == T.bool_type()
        assert infer_type(A.false_value(), {}) == T.bool_type()


class TestPairs:
    def test_tensor_pair_adds_sensitivities(self):
        term = A.TensorPair(A.Var("x"), A.Var("x"))
        result = infer(term, {"x": T.NUM})
        assert result.type == T.TensorProduct(T.NUM, T.NUM)
        assert result.sensitivity_of("x") == 2

    def test_with_pair_takes_max(self):
        term = A.WithPair(A.Var("x"), A.Var("x"))
        result = infer(term, {"x": T.NUM})
        assert result.type == T.WithProduct(T.NUM, T.NUM)
        assert result.sensitivity_of("x") == 1

    def test_projection(self):
        term = A.Proj(1, A.WithPair(A.Var("x"), A.Var("y")))
        result = infer(term, {"x": T.NUM, "y": T.NUM})
        assert result.type == T.NUM

    def test_projection_requires_with_product(self):
        with pytest.raises(TypeInferenceError):
            infer(A.Proj(1, A.TensorPair(A.Var("x"), A.Var("y"))), {"x": T.NUM, "y": T.NUM})

    def test_tensor_elimination_scales(self):
        # let (a, b) = p in mul (a, b): both components used once -> p at 1.
        term = A.LetTensor("a", "b", A.Var("p"), _mul(A.Var("a"), A.Var("b")))
        result = infer(term, {"p": T.TensorProduct(T.NUM, T.NUM)})
        assert result.sensitivity_of("p") == 1

    def test_tensor_elimination_scales_by_max_usage(self):
        # a used twice, b once: the pair is consumed at sensitivity 2.
        body = _mul(A.Var("a"), _mul(A.Var("a"), A.Var("b")))
        bound = A.Let("t", _mul(A.Var("a"), A.Var("b")), _mul(A.Var("a"), A.Var("t")))
        term = A.LetTensor("a", "b", A.Var("p"), bound)
        result = infer(term, {"p": T.TensorProduct(T.NUM, T.NUM)})
        assert result.sensitivity_of("p") == 2


class TestOperations:
    def test_mul_is_two_sensitive_when_squaring(self):
        result = infer(_mul(A.Var("x"), A.Var("x")), {"x": T.NUM})
        assert result.type == T.NUM
        assert result.sensitivity_of("x") == 2

    def test_add_is_one_sensitive(self):
        result = infer(_add(A.Var("x"), A.Var("x")), {"x": T.NUM})
        assert result.sensitivity_of("x") == 1

    def test_sqrt_is_half_sensitive(self):
        term = A.Op("sqrt", A.Box(A.Var("x"), Fraction(1, 2)))
        result = infer(term, {"x": T.NUM})
        assert result.sensitivity_of("x") == Grade.constant(Fraction(1, 2))

    def test_is_pos_is_infinitely_sensitive(self):
        term = A.Op("is_pos", A.Box(A.Var("x"), INFINITY))
        result = infer(term, {"x": T.NUM})
        assert result.type == T.bool_type()
        assert result.sensitivity_of("x").is_infinite

    def test_wrong_argument_shape_rejected(self):
        with pytest.raises(TypeInferenceError):
            infer(A.Op("mul", A.WithPair(A.Var("x"), A.Var("x"))), {"x": T.NUM})

    def test_unknown_operation_rejected(self):
        with pytest.raises(Exception):
            infer(A.Op("sin", A.Var("x")), {"x": T.NUM})


class TestFunctions:
    def test_identity_lambda(self):
        term = A.Lambda("x", T.NUM, A.Var("x"))
        assert infer_type(term, {}) == T.Arrow(T.NUM, T.NUM)

    def test_constant_lambda_allowed(self):
        term = A.Lambda("x", T.NUM, A.Const(1))
        assert infer_type(term, {}) == T.Arrow(T.NUM, T.NUM)

    def test_two_sensitive_body_rejected(self):
        # pow2 must box its argument: λx. mul (x, x) is not 1-sensitive.
        term = A.Lambda("x", T.NUM, _mul(A.Var("x"), A.Var("x")))
        with pytest.raises(TypeInferenceError):
            infer(term, {})

    def test_pow2_with_boxed_argument(self):
        body = A.LetBox("x1", A.Var("x"), _mul(A.Var("x1"), A.Var("x1")))
        term = A.Lambda("x", T.Bang(2, T.NUM), body)
        assert infer_type(term, {}) == T.Arrow(T.Bang(2, T.NUM), T.NUM)

    def test_application(self):
        function = A.Lambda("x", T.NUM, _add(A.Var("x"), A.Const(1)))
        term = A.App(function, A.Var("y"))
        result = infer(term, {"y": T.NUM})
        assert result.type == T.NUM
        assert result.sensitivity_of("y") == 1

    def test_application_uses_subtyping(self):
        # A function expecting !3 num accepts a !5 num argument.
        function = A.Lambda("x", T.Bang(3, T.NUM), A.Const(1))
        term = A.App(function, A.Box(A.Var("y"), 5))
        result = infer(term, {"y": T.NUM})
        assert result.type == T.NUM

    def test_application_argument_mismatch(self):
        function = A.Lambda("x", T.Bang(3, T.NUM), A.Const(1))
        term = A.App(function, A.Box(A.Var("y"), 2))
        with pytest.raises(TypeInferenceError):
            infer(term, {"y": T.NUM})

    def test_application_of_non_function(self):
        with pytest.raises(TypeInferenceError):
            infer(A.App(A.Var("x"), A.Var("y")), {"x": T.NUM, "y": T.NUM})


class TestBoxing:
    def test_box_scales_context(self):
        term = A.Box(A.Var("x"), 3)
        result = infer(term, {"x": T.NUM})
        assert result.type == T.Bang(3, T.NUM)
        assert result.sensitivity_of("x") == 3

    def test_letbox_divides_demand(self):
        # let [y] = x in mul (y, y): demand 2 against a !2 box -> x at 1.
        term = A.LetBox("y", A.Var("x"), _mul(A.Var("y"), A.Var("y")))
        result = infer(term, {"x": T.Bang(2, T.NUM)})
        assert result.sensitivity_of("x") == 1

    def test_letbox_rounds_demand_up(self):
        # demand 3 against a !2 box -> scaling factor 3/2.
        body = _mul(A.Var("y"), _mul(A.Var("y"), A.Var("y")))
        bound = A.Let("t", _mul(A.Var("y"), A.Var("y")), _mul(A.Var("y"), A.Var("t")))
        term = A.LetBox("y", A.Var("x"), bound)
        result = infer(term, {"x": T.Bang(2, T.NUM)})
        assert result.sensitivity_of("x") == Grade.constant(Fraction(3, 2))

    def test_letbox_requires_bang(self):
        with pytest.raises(TypeInferenceError):
            infer(A.LetBox("y", A.Var("x"), A.Var("y")), {"x": T.NUM})

    def test_zero_scaled_box_cannot_be_used(self):
        term = A.LetBox("y", A.Var("x"), _mul(A.Var("y"), A.Var("y")))
        with pytest.raises(TypeInferenceError):
            infer(term, {"x": T.Bang(0, T.NUM)})


class TestMonad:
    def test_rnd_grade(self):
        result = infer(A.Rnd(A.Var("x")), {"x": T.NUM})
        assert result.type == T.Monadic(EPS, T.NUM)

    def test_rnd_requires_num(self):
        with pytest.raises(TypeInferenceError):
            infer(A.Rnd(A.UnitVal()), {})

    def test_ret_has_zero_grade(self):
        result = infer(A.Ret(A.Var("x")), {"x": T.NUM})
        assert result.type == T.Monadic(ZERO, T.NUM)

    def test_custom_rnd_grade(self):
        config = InferenceConfig().with_rnd_grade("2*eps")
        result = infer(A.Rnd(A.Var("x")), {"x": T.NUM}, config)
        assert result.type == T.Monadic(2 * EPS, T.NUM)

    def test_let_bind_accumulates(self):
        # pow4: two rounded squarings compose to 3*eps (Section 2.3).
        pow2 = A.Rnd(_mul(A.Var("x"), A.Var("x")))
        term = A.LetBind(
            "y",
            pow2,
            A.Let("s", _mul(A.Var("y"), A.Var("y")), A.Rnd(A.Var("s"))),
        )
        result = infer(A.Let("s0", _mul(A.Var("x"), A.Var("x")), A.LetBind("y", A.Rnd(A.Var("s0")), A.Let("s1", _mul(A.Var("y"), A.Var("y")), A.Rnd(A.Var("s1"))))), {"x": T.NUM})
        assert result.error_grade == 3 * EPS
        assert result.sensitivity_of("x") == 4

    def test_let_bind_requires_monadic_value(self):
        with pytest.raises(TypeInferenceError):
            infer(A.LetBind("y", A.Var("x"), A.Ret(A.Var("y"))), {"x": T.NUM})

    def test_let_bind_requires_monadic_body(self):
        term = A.LetBind("y", A.Rnd(A.Var("x")), A.Var("y"))
        with pytest.raises(TypeInferenceError):
            infer(term, {"x": T.NUM})

    def test_error_propagation_through_sensitivity(self):
        # let-bind(v, y. rnd(mul (y, y))) where v : M[eps]num -> 2*eps + eps.
        term = A.LetBind(
            "y",
            A.Var("v"),
            A.Let("s", _mul(A.Var("y"), A.Var("y")), A.Rnd(A.Var("s"))),
        )
        result = infer(term, {"v": T.Monadic(EPS, T.NUM)})
        assert result.error_grade == 3 * EPS
        assert result.sensitivity_of("v") == 2


class TestCase:
    def test_branches_join(self):
        guard = A.Op("is_pos", A.Box(A.Var("x"), INFINITY))
        term = A.Let(
            "c",
            guard,
            A.Case(
                A.Var("c"),
                "t",
                A.Rnd(A.Var("x")),
                "f",
                A.Ret(A.Const(1)),
            ),
        )
        result = infer(term, {"x": T.NUM})
        assert result.error_grade == EPS
        assert result.sensitivity_of("x").is_infinite

    def test_case_requires_sum(self):
        with pytest.raises(TypeInferenceError):
            infer(A.Case(A.Var("x"), "a", A.Var("a"), "b", A.Var("b")), {"x": T.NUM})

    def test_incompatible_branches_rejected(self):
        term = A.Case(A.Var("c"), "a", A.Const(1), "b", A.UnitVal())
        with pytest.raises(Exception):
            infer(term, {"c": T.bool_type()})


class TestLetAndChecking:
    def test_unused_let_allowed_by_default(self):
        term = A.Let("y", A.Const(1), A.Var("x"))
        result = infer(term, {"x": T.NUM})
        assert result.type == T.NUM

    def test_unused_let_rejected_when_strict(self):
        config = InferenceConfig(allow_unused_let=False)
        term = A.Let("y", A.Const(1), A.Var("x"))
        with pytest.raises(TypeInferenceError):
            infer(term, {"x": T.NUM}, config)

    def test_check_term_success(self):
        result = check_term(A.Rnd(A.Var("x")), T.Monadic(2 * EPS, T.NUM), {"x": T.NUM})
        assert is_subtype(result.type, T.Monadic(2 * EPS, T.NUM))

    def test_check_term_failure(self):
        with pytest.raises(TypeInferenceError):
            check_term(A.Rnd(A.Var("x")), T.Monadic(ZERO, T.NUM), {"x": T.NUM})

    def test_shadowing_inner_binder(self):
        # The inner x shadows the skeleton x; the outer x is not consumed.
        term = A.Let("x", A.Const(2), _mul(A.Var("x"), A.Var("x")))
        result = infer(term, {"x": T.NUM})
        assert result.sensitivity_of("x").is_zero


class TestIterativeEngineAtScale:
    """The explicit-stack engine: no recursion limit, deep and wide terms."""

    def test_50k_deep_term_under_default_recursion_limit(self):
        # A 50_000-deep chain of monadic sequencing, built iteratively.  The
        # seed engine needed sys.setrecursionlimit(20_000); the iterative
        # engine must infer this under the interpreter default (or lower)
        # without touching the limit.
        import sys

        depth = 50_000
        term: A.Term = A.Rnd(A.Var("x0"))
        skeleton = {"x0": T.NUM}
        for index in range(1, depth):
            name = f"x{index}"
            skeleton[name] = T.NUM
            term = A.LetBind(f"t{index}", A.Rnd(A.Var(name)), term)

        previous = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1_000)
            result = infer(term, skeleton)
            assert sys.getrecursionlimit() == 1_000, "infer must not touch the limit"
        finally:
            sys.setrecursionlimit(previous)
        assert result.type == T.Monadic(EPS, T.NUM)
        assert result.sensitivity_of("x0") == 1

    def test_infer_does_not_raise_recursion_limit(self):
        import sys

        previous = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(999)
            infer(A.Rnd(A.Var("x")), {"x": T.NUM})
            assert sys.getrecursionlimit() == 999
        finally:
            sys.setrecursionlimit(previous)

    def test_deep_nested_binders_shadowing(self):
        # Nested lets re-binding the same name: the undo log must restore the
        # right shadowed entry at every level.
        term: A.Term = _mul(A.Var("x"), A.Var("x"))
        for _ in range(2_000):
            term = A.Let("x", _add(A.Var("x"), A.Var("y")), term)
        result = infer(term, {"x": T.NUM, "y": T.NUM})
        assert result.type == T.NUM
        assert result.sensitivity_of("x") == 2
        # Every let layer contributes sensitivity 2 (via the body's x-use
        # doubling through the shadowing chain is collapsed by max/add).
        assert not result.sensitivity_of("y").is_zero

