"""Compiling real-expression IR into Λnum programs.

Each arithmetic operation of the expression becomes one primitive operation
application followed by a ``rnd`` (the way the paper's benchmarks are
translated into Λnum, Section 6.2); intermediate results are sequenced with
``let``/``let-bind``.  A fused multiply-add node performs the multiplication
and the addition before a *single* rounding.

Additions take a with-pair (max metric) and multiplications/divisions a
tensor pair (sum metric), exactly as in the standard instantiation (Fig. 5).
Conditional expressions are supported at the root of the expression: the
guard must compare input variables or constants, and each branch becomes an
independent monadic computation of a single ``case``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core import ast as A
from ..core import types as T
from ..core.grades import INFINITY
from ..core.errors import LnumError
from . import expr as E

__all__ = ["CompiledProgram", "compile_expression", "CompileError"]


class CompileError(LnumError):
    """Raised when an expression cannot be translated into Λnum."""


@dataclass(frozen=True)
class CompiledProgram:
    """A Λnum term together with the skeleton typing its free input variables."""

    term: A.Term
    skeleton: Dict[str, T.Type]
    expression: E.RealExpr
    rounded_operations: int

    def input_names(self) -> Tuple[str, ...]:
        return tuple(self.skeleton)


@dataclass
class _Step:
    """One rounded operation: plain bindings followed by a single rounding."""

    bindings: List[Tuple[str, A.Term]]
    result_binding: str
    monadic_var: str


class _Compiler:
    def __init__(self, rounded: bool) -> None:
        self.rounded = rounded
        self.steps: List[_Step] = []
        self.counter = 0
        #: Input variables in first-seen (left-to-right) order.
        self.skeleton: Dict[str, T.Type] = {}

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"_{hint}{self.counter}"

    # A "ref" is a syntactic value referring to a previously computed result.
    def emit(self, root: E.RealExpr) -> A.Term:
        """Emit the steps of ``root`` and return the ref of its value.

        An explicit-stack post-order walk (deep chains stay off the recursion
        limit): a node is checked on entry, in the same left-to-right order a
        recursive walk would use, and its step is emitted once its operands'
        refs sit on top of ``refs``.  Every ``Var`` leaf it meets is recorded
        in ``skeleton`` in first-seen order.
        """
        skeleton = self.skeleton
        refs: List[A.Term] = []
        stack: List[Tuple[E.RealExpr, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                self._emit_step(node, refs)
                continue
            if isinstance(node, E.Var):
                skeleton[node.name] = T.NUM
                refs.append(A.Var(node.name))
            elif isinstance(node, E.Const):
                if node.value <= 0:
                    raise CompileError(
                        "the RP instantiation requires strictly positive constants, "
                        f"got {node.value}"
                    )
                refs.append(A.Const(node.value))
            elif isinstance(node, (E.Add, E.Mul, E.Div, E.Sqrt, E.Fma)):
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children()))
            elif isinstance(node, E.Sub):
                raise CompileError(
                    "subtraction is not supported by the RP instantiation of Λnum "
                    "(Section 6.2.1); rewrite the benchmark without '-' "
                )
            elif isinstance(node, E.Cond):
                raise CompileError("conditionals are only supported at the root of an expression")
            else:
                raise CompileError(f"cannot compile expression node {node!r}")
        return refs[-1]

    def _emit_step(self, node: E.RealExpr, refs: List[A.Term]) -> None:
        """Replace the operand refs of ``node`` on ``refs`` by its result ref."""
        if isinstance(node, E.Sqrt):
            boxed = A.Box(refs.pop(), Fraction(1, 2))
            refs.append(self._rounded_step("sqrt", boxed, hint="r"))
            return
        if isinstance(node, E.Fma):
            c = refs.pop()
            b = refs.pop()
            a = refs.pop()
            product_var = self.fresh("m")
            sum_var = self.fresh("s")
            bindings = [
                (product_var, A.Op("mul", A.TensorPair(a, b))),
                (sum_var, A.Op("add", A.WithPair(A.Var(product_var), c))),
            ]
            refs.append(self._finish_step(bindings, sum_var))
            return
        right = refs.pop()
        left = refs.pop()
        if isinstance(node, E.Add):
            step = self._rounded_step("add", A.WithPair(left, right), hint="s")
        elif isinstance(node, E.Mul):
            step = self._rounded_step("mul", A.TensorPair(left, right), hint="p")
        else:
            step = self._rounded_step("div", A.TensorPair(left, right), hint="q")
        refs.append(step)

    def _rounded_step(self, op_name: str, argument: A.Term, hint: str) -> A.Term:
        binding = self.fresh(hint)
        return self._finish_step([(binding, A.Op(op_name, argument))], binding)

    def _finish_step(self, bindings: List[Tuple[str, A.Term]], result_binding: str) -> A.Term:
        monadic_var = self.fresh("t")
        self.steps.append(_Step(bindings, result_binding, monadic_var))
        if self.rounded:
            return A.Var(monadic_var)
        return A.Var(result_binding)

    # -- assembly ----------------------------------------------------------

    def assemble(self, final_ref: A.Term) -> A.Term:
        """Wrap the recorded steps around the final reference, inside-out."""
        if not self.steps:
            return A.Ret(final_ref) if self.rounded else final_ref

        if self.rounded:
            last = self.steps[-1]
            if isinstance(final_ref, A.Var) and final_ref.name == last.monadic_var:
                # The tail of the program is the final rounding itself.
                term: A.Term = A.Rnd(A.Var(last.result_binding))
                for name, bound in reversed(last.bindings):
                    term = A.Let(name, bound, term)
                remaining = self.steps[:-1]
            else:
                term = A.Ret(final_ref)
                remaining = self.steps
            for step in reversed(remaining):
                term = A.LetBind(step.monadic_var, A.Rnd(A.Var(step.result_binding)), term)
                for name, bound in reversed(step.bindings):
                    term = A.Let(name, bound, term)
            return term

        # Unrounded (ideal) compilation: a chain of plain lets.
        last = self.steps[-1]
        if isinstance(final_ref, A.Var) and final_ref.name == last.result_binding:
            term = last.bindings[-1][1]
            for name, bound in reversed(last.bindings[:-1]):
                term = A.Let(name, bound, term)
            remaining = self.steps[:-1]
        else:
            term = final_ref
            remaining = self.steps
        for step in reversed(remaining):
            for name, bound in reversed(step.bindings):
                term = A.Let(name, bound, term)
        return term


_COMPARISON_OPS = {">": "gt", "<": "lt", ">=": "geq"}


def compile_expression(expression: E.RealExpr, rounded: bool = True) -> CompiledProgram:
    """Translate an expression into a Λnum program.

    With ``rounded=True`` (the default) every arithmetic operation is followed
    by a ``rnd`` and the program has monadic type ``M_u num``; with
    ``rounded=False`` the program is the ideal, rounding-free computation of
    type ``num`` (useful for pure sensitivity analysis).
    """
    if isinstance(expression, E.Cond):
        # Guards add variables that the branch compilers never see.
        skeleton = {name: T.NUM for name in E.free_variables(expression)}
        term = _compile_conditional(expression, rounded)
        return CompiledProgram(term, skeleton, expression, E.operation_count(expression))

    compiler = _Compiler(rounded)
    final_ref = compiler.emit(expression)
    term = compiler.assemble(final_ref)
    return CompiledProgram(term, compiler.skeleton, expression, len(compiler.steps))


def _guard_value(node: E.RealExpr) -> A.Term:
    if isinstance(node, E.Var):
        return A.Var(node.name)
    if isinstance(node, E.Const):
        return A.Const(node.value)
    raise CompileError(
        "conditional guards must compare input variables or constants so that the "
        "ideal and floating-point executions take the same branch (Section 5.1)"
    )


def _compile_conditional(expression: E.Cond, rounded: bool) -> A.Term:
    guard = expression.guard
    op = guard.op
    left, right = guard.left, guard.right
    if op == "<=":
        # x <= y  ==  y >= x
        op, left, right = ">=", right, left
    if op not in _COMPARISON_OPS:
        raise CompileError(f"unsupported comparison operator {op!r}")
    guard_term = A.Op(
        _COMPARISON_OPS[op],
        A.Box(A.TensorPair(_guard_value(left), _guard_value(right)), INFINITY),
    )

    then_program = compile_expression(expression.then_branch, rounded)
    else_program = compile_expression(expression.else_branch, rounded)
    then_term = then_program.term
    else_term = else_program.term
    if rounded:
        # Branches of plain type must be lifted into the monad so both arms agree.
        if not _is_monadic_chain(then_term):
            then_term = A.Ret(then_term)
        if not _is_monadic_chain(else_term):
            else_term = A.Ret(else_term)
    guard_var = "_guard"
    return A.Let(
        guard_var,
        guard_term,
        A.Case(A.Var(guard_var), "_then", then_term, "_else", else_term),
    )


def _is_monadic_chain(term: A.Term) -> bool:
    while isinstance(term, (A.Let, A.LetBind, A.LetBox, A.LetTensor)):
        term = term.body
    return isinstance(term, (A.Rnd, A.Ret, A.LetBind, A.Case))
