"""A small FPCore (FPBench interchange format) frontend.

FPBench benchmarks are written as s-expressions::

    (FPCore (x y)
      :name "hypot"
      :pre (and (<= 0.1 x) (<= x 1000))
      (sqrt (+ (* x x) (* y y))))

This module parses the subset of FPCore needed for the paper's benchmarks —
the arithmetic operators ``+ - * / sqrt fma``, ``if`` with comparison guards,
``let``/``let*`` bindings (inlined by substitution) and numeric/variable
atoms — into the :mod:`repro.frontend.expr` IR.  Properties (``:name``,
``:pre`` …) are collected into a dictionary; ``:pre`` conjunctions of simple
range constraints are additionally converted into input boxes usable by the
baseline analysers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Generator, List, Optional, Tuple, Union

from ..core.errors import ParseError
from . import expr as E

__all__ = ["FPCore", "parse_fpcore", "parse_sexpr"]

Atom = Union[str, Fraction]
SExpr = Union[Atom, list]


@dataclass
class FPCore:
    """A parsed FPCore benchmark."""

    arguments: List[str]
    expression: E.RealExpr
    properties: Dict[str, object] = field(default_factory=dict)
    input_ranges: Dict[str, Tuple[Fraction, Fraction]] = field(default_factory=dict)

    @property
    def name(self) -> Optional[str]:
        value = self.properties.get("name")
        return str(value) if value is not None else None


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------


def _tokenize_sexpr(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ";":
            end = text.find("\n", i)
            i = len(text) if end == -1 else end
            continue
        if ch in "()":
            tokens.append(ch)
            i += 1
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end == -1:
                raise ParseError("unterminated string literal in FPCore source")
            tokens.append(text[i : end + 1])
            i = end + 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in '();"':
            j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


def parse_sexpr(text: str) -> SExpr:
    """Parse a single s-expression."""
    tokens = _tokenize_sexpr(text)
    expr, rest = _read_sexpr(tokens, 0)
    if rest != len(tokens):
        raise ParseError("trailing tokens after the first s-expression")
    return expr


def _read_sexpr(tokens: List[str], position: int) -> Tuple[SExpr, int]:
    """Read one s-expression; open lists wait on an explicit stack."""
    if position >= len(tokens):
        raise ParseError("unexpected end of FPCore input")
    open_lists: List[List[SExpr]] = []
    while True:
        token = tokens[position]
        position += 1
        if token == "(":
            open_lists.append([])
        else:
            if token == ")":
                if not open_lists:
                    raise ParseError("unexpected ')' in FPCore input")
                item: SExpr = open_lists.pop()
            else:
                item = _atom(token)
            if not open_lists:
                return item, position
            open_lists[-1].append(item)
        if position >= len(tokens):
            raise ParseError("missing closing parenthesis in FPCore input")


def _atom(token: str) -> Atom:
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return token


# ---------------------------------------------------------------------------
# FPCore -> RealExpr
# ---------------------------------------------------------------------------

_BINARY_OPS = {"+": E.Add, "-": E.Sub, "*": E.Mul, "/": E.Div}
_COMPARISONS = {"<", ">", "<=", ">="}


def parse_fpcore(source: str) -> FPCore:
    """Parse an FPCore benchmark into the expression IR."""
    form = parse_sexpr(source)
    if not (isinstance(form, list) and form and form[0] == "FPCore"):
        raise ParseError("not an FPCore form")
    rest = form[1:]
    # Optional symbolic name before the argument list.
    if rest and isinstance(rest[0], str):
        rest = rest[1:]
    if not rest or not isinstance(rest[0], list):
        raise ParseError("FPCore form is missing its argument list")
    arguments = [str(arg) for arg in rest[0]]
    rest = rest[1:]

    properties: Dict[str, object] = {}
    while len(rest) >= 2 and isinstance(rest[0], str) and rest[0].startswith(":"):
        properties[rest[0][1:]] = rest[1]
        rest = rest[2:]
    if len(rest) != 1:
        raise ParseError("FPCore form must end with exactly one body expression")

    expression = _convert(rest[0], {})
    ranges = _ranges_from_precondition(properties.get("pre"), arguments)
    return FPCore(arguments, expression, properties, ranges)


def _convert(form: SExpr, bindings: Dict[str, E.RealExpr]) -> E.RealExpr:
    """Convert an FPCore body to the expression IR.

    :func:`_convert_form` yields each operand of a compound form as an
    ``(operand, scope)`` request and is sent the converted operand back.
    The suspended generators live on an explicit stack, so nesting depth
    is bounded by memory, not the recursion limit.
    """
    suspended: List[Generator] = []
    while True:
        if not isinstance(form, list):
            value: Optional[E.RealExpr] = _convert_atom(form, bindings)
        elif (
            len(form) == 3
            and form[0] in _BINARY_OPS
            and not isinstance(form[1], list)
            and not isinstance(form[2], list)
        ):
            # ``(op atom atom)``, most of a program's leaves: no generator.
            value = _BINARY_OPS[form[0]](
                _convert_atom(form[1], bindings), _convert_atom(form[2], bindings)
            )
        else:
            suspended.append(_convert_form(form, bindings))
            value = None
        while suspended:
            try:
                form, bindings = suspended[-1].send(value)
                break
            except StopIteration as finished:
                suspended.pop()
                value = finished.value
        else:
            return value


def _convert_atom(form: Atom, bindings: Dict[str, E.RealExpr]) -> E.RealExpr:
    if isinstance(form, Fraction):
        return E.Const(form)
    return bindings[form] if form in bindings else E.Var(form)


def _convert_form(form: list, bindings: Dict[str, E.RealExpr]) -> Generator:
    """One compound form; ``yield (operand, scope)`` converts an operand."""
    if not form:
        raise ParseError("empty s-expression in FPCore body")
    head = form[0]
    args = form[1:]
    if head in _BINARY_OPS:
        if len(args) == 1:
            if head == "-":
                raise ParseError("unary negation is not supported by the RP instantiation")
            return (yield args[0], bindings)
        make = _BINARY_OPS[head]
        expr = yield args[0], bindings
        for arg in args[1:]:
            expr = make(expr, (yield arg, bindings))
        return expr
    if head == "sqrt":
        return E.Sqrt((yield args[0], bindings))
    if head == "fma":
        operands = []
        for arg in args:
            operands.append((yield arg, bindings))
        return E.Fma(*operands)
    if head == "if":
        guard_form, then_form, else_form = args
        guard = yield from _convert_guard(guard_form, bindings)
        return E.Cond(guard, (yield then_form, bindings), (yield else_form, bindings))
    if head in ("let", "let*"):
        binding_forms, body = args
        new_bindings = dict(bindings)
        for binding in binding_forms:
            name, value = binding
            scope = new_bindings if head == "let*" else bindings
            new_bindings[str(name)] = yield value, scope
        return (yield body, new_bindings)
    raise ParseError(f"unsupported FPCore operator {head!r}")


def _convert_guard(form: SExpr, bindings: Dict[str, E.RealExpr]) -> Generator:
    if not (isinstance(form, list) and len(form) == 3 and form[0] in _COMPARISONS):
        raise ParseError("only simple comparison guards are supported")
    return E.Comparison(str(form[0]), (yield form[1], bindings), (yield form[2], bindings))


def _ranges_from_precondition(
    precondition: object, arguments: List[str]
) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Extract per-variable boxes from a conjunction of simple range constraints."""
    ranges: Dict[str, List[Optional[Fraction]]] = {name: [None, None] for name in arguments}

    def visit(form: object) -> None:
        if not isinstance(form, list) or not form:
            return
        head = form[0]
        if head == "and":
            for sub in form[1:]:
                visit(sub)
            return
        if head in ("<=", "<") and len(form) == 3:
            low, high = form[1], form[2]
            if isinstance(low, Fraction) and isinstance(high, str) and high in ranges:
                ranges[high][0] = low
            if isinstance(low, str) and low in ranges and isinstance(high, Fraction):
                ranges[low][1] = high
            return
        if head in (">=", ">") and len(form) == 3:
            visit(["<=" if head == ">=" else "<", form[2], form[1]])

    visit(precondition)
    result: Dict[str, Tuple[Fraction, Fraction]] = {}
    for name, (low, high) in ranges.items():
        if low is not None and high is not None:
            result[name] = (low, high)
    return result
