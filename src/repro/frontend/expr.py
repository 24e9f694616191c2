"""A straight-line real-expression IR (FPCore-style) shared by the benchmark
suite, the Λnum compiler and the baseline analysers.

The IR describes the *ideal* real-valued computation; the different backends
attach rounding in their own way:

* :func:`repro.frontend.compiler.compile_expression` translates an expression
  into a Λnum term with one ``rnd`` per arithmetic operation;
* :mod:`repro.baselines.gappa_like` and :mod:`repro.baselines.fptaylor_like`
  analyse the expression directly with per-operation ``(1+δ)`` factors.

Expressions support exact rational evaluation, evaluation under the standard
floating-point model, symbolic differentiation (needed for the Taylor-form
baseline) and basic structural utilities.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from ..floats.exactmath import sqrt_round
from ..floats.standard_model import StandardModel

# Benchmark expressions (serial sums, high-degree polynomials) are deep,
# strictly right- or left-leaning trees; recursive traversals need headroom.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

__all__ = [
    "RealExpr",
    "Var",
    "Const",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Sqrt",
    "Fma",
    "Comparison",
    "Cond",
    "var",
    "const",
    "add",
    "sub",
    "mul",
    "div",
    "sqrt",
    "fma",
    "evaluate_exact",
    "evaluate_fp",
    "free_variables",
    "operation_count",
    "arithmetic_operation_count",
    "differentiate",
    "subexpressions",
]

Number = Union[int, float, Fraction, str]

#: Precision used for exact sqrt evaluation of the ideal expression semantics.
_EXACT_SQRT_PRECISION = 300


class RealExpr:
    """Base class of real-valued expressions."""

    __slots__ = ()

    # Operator sugar so benchmark definitions read naturally.
    def __add__(self, other: "RealExpr") -> "RealExpr":
        return Add(self, _coerce(other))

    def __radd__(self, other: Number) -> "RealExpr":
        return Add(_coerce(other), self)

    def __sub__(self, other: "RealExpr") -> "RealExpr":
        return Sub(self, _coerce(other))

    def __rsub__(self, other: Number) -> "RealExpr":
        return Sub(_coerce(other), self)

    def __mul__(self, other: "RealExpr") -> "RealExpr":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Number) -> "RealExpr":
        return Mul(_coerce(other), self)

    def __truediv__(self, other: "RealExpr") -> "RealExpr":
        return Div(self, _coerce(other))

    def __rtruediv__(self, other: Number) -> "RealExpr":
        return Div(_coerce(other), self)

    def children(self) -> Tuple["RealExpr", ...]:
        return ()

    def __str__(self) -> str:
        return to_string(self)


def _coerce(value: Union[Number, RealExpr]) -> RealExpr:
    if isinstance(value, RealExpr):
        return value
    return Const(Fraction(value))


@dataclass(frozen=True)
class Var(RealExpr):
    name: str


@dataclass(frozen=True)
class Const(RealExpr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Add(RealExpr):
    left: RealExpr
    right: RealExpr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Sub(RealExpr):
    left: RealExpr
    right: RealExpr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Mul(RealExpr):
    left: RealExpr
    right: RealExpr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Div(RealExpr):
    left: RealExpr
    right: RealExpr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Sqrt(RealExpr):
    operand: RealExpr

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Fma(RealExpr):
    """A fused multiply-add ``a*b + c`` evaluated with a single rounding."""

    a: RealExpr
    b: RealExpr
    c: RealExpr

    def children(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class Comparison:
    """A boolean guard ``left <op> right`` with ``op`` in {'<', '>', '<=', '>='}."""

    op: str
    left: RealExpr
    right: RealExpr


@dataclass(frozen=True)
class Cond(RealExpr):
    """A conditional expression ``if guard then then_branch else else_branch``."""

    guard: Comparison
    then_branch: RealExpr
    else_branch: RealExpr

    def children(self):
        return (self.guard.left, self.guard.right, self.then_branch, self.else_branch)


# -- construction helpers ----------------------------------------------------


def var(name: str) -> Var:
    return Var(name)


def const(value: Number) -> Const:
    return Const(Fraction(value))


def add(left, right) -> Add:
    return Add(_coerce(left), _coerce(right))


def sub(left, right) -> Sub:
    return Sub(_coerce(left), _coerce(right))


def mul(left, right) -> Mul:
    return Mul(_coerce(left), _coerce(right))


def div(left, right) -> Div:
    return Div(_coerce(left), _coerce(right))


def sqrt(operand) -> Sqrt:
    return Sqrt(_coerce(operand))


def fma(a, b, c) -> Fma:
    return Fma(_coerce(a), _coerce(b), _coerce(c))


# -- structural utilities ------------------------------------------------------


def subexpressions(expr: RealExpr) -> Iterator[RealExpr]:
    """Post-order traversal of all subexpressions.

    An explicit-stack walk: linear in the expression size and free of the
    recursion limit, so serial sums and Horner chains as deep as they are
    long cost one resumption per node.
    """
    stack: List[Tuple[RealExpr, bool]] = [(expr, False)]
    pop = stack.pop
    push = stack.append
    while stack:
        node, expanded = pop()
        if expanded:
            yield node
            continue
        children = node.children()
        if not children:
            yield node
            continue
        push((node, True))
        for child in reversed(children):
            push((child, False))


def free_variables(expr: RealExpr) -> Tuple[str, ...]:
    names = []
    seen = set()
    for node in subexpressions(expr):
        if isinstance(node, Var) and node.name not in seen:
            seen.add(node.name)
            names.append(node.name)
    return tuple(names)


def operation_count(expr: RealExpr) -> int:
    """Number of rounded floating-point operations in the compiled program.

    A fused multiply-add counts as a single *rounded* operation; see
    :func:`arithmetic_operation_count` for the paper's "Ops" convention.
    """
    count = 0
    for node in subexpressions(expr):
        if isinstance(node, (Add, Sub, Mul, Div, Sqrt, Fma)):
            count += 1
        elif isinstance(node, Cond):
            # Conditionals do not round; their branches were already counted.
            pass
    return count


def arithmetic_operation_count(expr: RealExpr) -> int:
    """Number of arithmetic operations, counting an FMA as a multiply plus an
    add — the convention used by the paper's "Ops" columns (Tables 3 and 4)."""
    count = 0
    for node in subexpressions(expr):
        if isinstance(node, (Add, Sub, Mul, Div, Sqrt)):
            count += 1
        elif isinstance(node, Fma):
            count += 2
    return count


# -- evaluation ----------------------------------------------------------------


def _compare(op: str, left: Fraction, right: Fraction) -> bool:
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison operator {op!r}")


def evaluate_exact(expr: RealExpr, inputs: Mapping[str, Number]) -> Fraction:
    """Evaluate the ideal (infinitely precise) semantics of the expression."""
    env = {name: Fraction(value) for name, value in inputs.items()}

    def go(node: RealExpr) -> Fraction:
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Add):
            return go(node.left) + go(node.right)
        if isinstance(node, Sub):
            return go(node.left) - go(node.right)
        if isinstance(node, Mul):
            return go(node.left) * go(node.right)
        if isinstance(node, Div):
            return go(node.left) / go(node.right)
        if isinstance(node, Sqrt):
            return sqrt_round(go(node.operand), _EXACT_SQRT_PRECISION, "RN")
        if isinstance(node, Fma):
            return go(node.a) * go(node.b) + go(node.c)
        if isinstance(node, Cond):
            taken = _compare(node.guard.op, go(node.guard.left), go(node.guard.right))
            return go(node.then_branch if taken else node.else_branch)
        raise TypeError(f"unknown expression node {node!r}")

    return go(expr)


def evaluate_fp(
    expr: RealExpr, inputs: Mapping[str, Number], model: StandardModel | None = None
) -> Fraction:
    """Evaluate under correctly rounded floating-point arithmetic."""
    model = model or StandardModel()
    env = {name: model.round(Fraction(value)) for name, value in inputs.items()}

    def go(node: RealExpr) -> Fraction:
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Const):
            return model.round(node.value)
        if isinstance(node, Add):
            return model.add(go(node.left), go(node.right))
        if isinstance(node, Sub):
            return model.round(go(node.left) - go(node.right))
        if isinstance(node, Mul):
            return model.mul(go(node.left), go(node.right))
        if isinstance(node, Div):
            return model.div(go(node.left), go(node.right))
        if isinstance(node, Sqrt):
            return model.sqrt(go(node.operand))
        if isinstance(node, Fma):
            return model.round(go(node.a) * go(node.b) + go(node.c))
        if isinstance(node, Cond):
            taken = _compare(node.guard.op, go(node.guard.left), go(node.guard.right))
            return go(node.then_branch if taken else node.else_branch)
        raise TypeError(f"unknown expression node {node!r}")

    return go(expr)


# -- symbolic differentiation ---------------------------------------------------


def differentiate(expr: RealExpr, with_respect_to: RealExpr) -> RealExpr:
    """Symbolic derivative ``d expr / d node`` treating ``node`` as a variable.

    Differentiation with respect to an arbitrary sub-expression (not only an
    input variable) is what the FPTaylor-style baseline needs: the first-order
    error coefficient of an operation node is the derivative of the output
    with respect to that node's value.
    """

    def go(node: RealExpr) -> RealExpr:
        if node is with_respect_to or node == with_respect_to:
            return Const(Fraction(1))
        if isinstance(node, (Var, Const)):
            return Const(Fraction(0))
        if isinstance(node, Add):
            return Add(go(node.left), go(node.right))
        if isinstance(node, Sub):
            return Sub(go(node.left), go(node.right))
        if isinstance(node, Mul):
            return Add(Mul(go(node.left), node.right), Mul(node.left, go(node.right)))
        if isinstance(node, Div):
            numerator = Sub(Mul(go(node.left), node.right), Mul(node.left, go(node.right)))
            return Div(numerator, Mul(node.right, node.right))
        if isinstance(node, Sqrt):
            return Div(go(node.operand), Mul(Const(Fraction(2)), node))
        if isinstance(node, Fma):
            product = Add(Mul(go(node.a), node.b), Mul(node.a, go(node.b)))
            return Add(product, go(node.c))
        if isinstance(node, Cond):
            raise ValueError("cannot differentiate through a conditional")
        raise TypeError(f"unknown expression node {node!r}")

    return go(expr)


# -- printing --------------------------------------------------------------------


def to_string(expr: RealExpr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        value = expr.value
        return str(value.numerator) if value.denominator == 1 else f"{value}"
    if isinstance(expr, Add):
        return f"({to_string(expr.left)} + {to_string(expr.right)})"
    if isinstance(expr, Sub):
        return f"({to_string(expr.left)} - {to_string(expr.right)})"
    if isinstance(expr, Mul):
        return f"({to_string(expr.left)} * {to_string(expr.right)})"
    if isinstance(expr, Div):
        return f"({to_string(expr.left)} / {to_string(expr.right)})"
    if isinstance(expr, Sqrt):
        return f"sqrt({to_string(expr.operand)})"
    if isinstance(expr, Fma):
        return f"fma({to_string(expr.a)}, {to_string(expr.b)}, {to_string(expr.c)})"
    if isinstance(expr, Cond):
        guard = f"{to_string(expr.guard.left)} {expr.guard.op} {to_string(expr.guard.right)}"
        return f"(if {guard} then {to_string(expr.then_branch)} else {to_string(expr.else_branch)})"
    raise TypeError(f"unknown expression node {expr!r}")
