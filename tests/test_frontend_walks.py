"""Linear-time walks of the expression IR and the single-pass compiler.

``E.subexpressions`` is an explicit-stack post-order walk, and the
straight-line path of ``compile_expression`` reads the skeleton and the
rounded-operation count off its own emission pass.  These tests hold both
to a recursive reference kept here: the same nodes in the same order, and
the same skeleton (keys in order) and operation count on every benchmark
expression, including chains far deeper than the recursion limit.
"""

import random
from fractions import Fraction

import pytest

from repro.benchsuite import table3_benchmarks, table4_benchmarks, table5_benchmarks
from repro.frontend import expr as E
from repro.frontend.compiler import compile_expression
from repro.frontend.fpcore import parse_fpcore

from perfbench.corpus import batch_corpus

#: Deeper than the 20,000-frame recursion limit ``repro.frontend.expr`` sets.
DEEP = 50_000


# ---------------------------------------------------------------------------
# Recursive references (the pre-iterative definitions)
# ---------------------------------------------------------------------------


def _reference_subexpressions(expr):
    nodes = []

    def walk(node):
        for child in node.children():
            walk(child)
        nodes.append(node)

    walk(expr)
    return nodes


def _reference_free_variables(expr):
    names = []
    for node in _reference_subexpressions(expr):
        if isinstance(node, E.Var) and node.name not in names:
            names.append(node.name)
    return names


def _reference_operation_count(expr):
    rounded = (E.Add, E.Sub, E.Mul, E.Div, E.Sqrt, E.Fma)
    return sum(isinstance(node, rounded) for node in _reference_subexpressions(expr))


# ---------------------------------------------------------------------------
# Seeded random expressions
# ---------------------------------------------------------------------------


def _leaf(rng):
    if rng.random() < 0.6:
        return E.Var(rng.choice("abcdefg"))
    return E.Const(Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def _children(rng, depth, count, make):
    """``count`` operands: one carries the remaining depth, the rest stay
    shallow, so a depth-30 expression has a few hundred nodes at most."""
    deep = rng.randrange(count)
    return [
        make(rng, depth - 1 if index == deep else min(depth - 1, rng.randint(0, 2)))
        for index in range(count)
    ]


def _random_expression(rng, depth):
    if depth == 0:
        return _leaf(rng)
    kind = rng.randrange(8)
    arity = (2, 2, 2, 2, 1, 3, 4, 1)[kind]
    operands = iter(_children(rng, depth, arity, _random_expression))
    child = lambda: next(operands)  # noqa: E731
    if kind == 0:
        return E.Add(child(), child())
    if kind == 1:
        return E.Sub(child(), child())
    if kind == 2:
        return E.Mul(child(), child())
    if kind == 3:
        return E.Div(child(), child())
    if kind == 4:
        return E.Sqrt(child())
    if kind == 5:
        return E.Fma(child(), child(), child())
    if kind == 6:
        guard = E.Comparison(rng.choice(("<", ">", "<=", ">=")), child(), child())
        return E.Cond(guard, child(), child())
    # A one-sided chain: the shape that made the recursive walk quadratic.
    node = child()
    for _ in range(rng.randint(1, 8)):
        node = E.Add(node, E.Var(rng.choice("xyz")))
    return node


def _compilable_expression(rng, depth):
    """A random straight-line expression the RP compiler accepts."""
    if depth == 0:
        return _leaf(rng)
    kind = rng.randrange(5)
    arity = (2, 2, 2, 1, 3)[kind]
    operands = iter(_children(rng, depth, arity, _compilable_expression))
    child = lambda: next(operands)  # noqa: E731
    if kind == 0:
        return E.Add(child(), child())
    if kind == 1:
        return E.Mul(child(), child())
    if kind == 2:
        return E.Div(child(), child())
    if kind == 3:
        return E.Sqrt(child())
    return E.Fma(child(), child(), child())


def _deep_chain():
    node = E.Var("x0")
    for index in range(DEEP):
        node = E.Add(node, E.Var(f"x{index % 7}"))
    return node


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestIterativeWalk:
    @pytest.mark.parametrize("seed", range(40))
    def test_post_order_matches_recursive_reference(self, seed):
        rng = random.Random(seed)
        expr = _random_expression(rng, rng.randint(1, 30))
        walked = list(E.subexpressions(expr))
        reference = _reference_subexpressions(expr)
        assert len(walked) == len(reference)
        assert all(a is b for a, b in zip(walked, reference))
        assert list(E.free_variables(expr)) == _reference_free_variables(expr)
        assert E.operation_count(expr) == _reference_operation_count(expr)

    @pytest.mark.parametrize("seed", range(40))
    def test_single_pass_compiler_matches_walks(self, seed):
        rng = random.Random(1000 + seed)
        expr = _compilable_expression(rng, rng.randint(1, 30))
        program = compile_expression(expr)
        assert list(program.skeleton) == _reference_free_variables(expr)
        assert program.rounded_operations == _reference_operation_count(expr)


class TestDeepExpressions:
    def test_walks_complete_past_the_recursion_limit(self):
        chain = _deep_chain()
        nodes = list(E.subexpressions(chain))
        assert len(nodes) == 2 * DEEP + 1
        assert nodes[0] is not chain and nodes[-1] is chain
        assert E.free_variables(chain) == tuple(f"x{index}" for index in range(7))
        assert E.operation_count(chain) == DEEP

    def test_compile_expression_completes_past_the_recursion_limit(self):
        program = compile_expression(_deep_chain())
        assert program.rounded_operations == DEEP
        assert list(program.skeleton) == [f"x{index}" for index in range(7)]


def _frontend_expressions():
    for name, kind, source in batch_corpus(1):
        if kind == "fpcore":
            yield f"batch::{name}", parse_fpcore(source).expression
    for table, benchmarks in (
        ("table3", table3_benchmarks()),
        ("table4", table4_benchmarks()),
        ("table5", table5_benchmarks()),
    ):
        for benchmark in benchmarks:
            if benchmark.expression is not None:
                yield f"{table}::{benchmark.name}", benchmark.expression


class TestFrontendEquivalence:
    def test_skeleton_and_operation_count_match_the_walks(self):
        checked = 0
        for label, expression in _frontend_expressions():
            program = compile_expression(expression)
            assert list(program.skeleton) == _reference_free_variables(expression), label
            assert program.rounded_operations == _reference_operation_count(expression), label
            assert tuple(program.skeleton) == E.free_variables(expression), label
            assert program.rounded_operations == E.operation_count(expression), label
            checked += 1
        # 48 FPCore programs of the batch corpus plus the table expressions.
        assert checked > 60
