"""The FPCore reader and converter hold no Python frame per nesting level.

``_read_sexpr`` keeps open lists on an explicit stack, ``_convert``
drives one suspended generator per open compound form, and
``_ranges_from_precondition`` walks ``:pre`` with an explicit stack, so
input nested far past the recursion limit parses.  These tests hold all
three to the recursive definitions they replaced, kept here as
references: the same s-expressions, the same ``RealExpr`` (sharing of
``let``-bound values included), the same exception type and message on
malformed input, and the same precondition ranges.
"""

import random
from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.errors import ParseError
from repro.frontend import expr as E
from repro.frontend.fpcore import (
    _BINARY_OPS,
    _COMPARISONS,
    _atom,
    _convert,
    _ranges_from_precondition,
    _tokenize_sexpr,
    parse_fpcore,
    parse_sexpr,
)

# ---------------------------------------------------------------------------
# Recursive references (the pre-iterative definitions)
# ---------------------------------------------------------------------------


def _reference_read(tokens, position):
    if position >= len(tokens):
        raise ParseError("unexpected end of FPCore input")
    token = tokens[position]
    if token == "(":
        items = []
        position += 1
        while position < len(tokens) and tokens[position] != ")":
            item, position = _reference_read(tokens, position)
            items.append(item)
        if position >= len(tokens):
            raise ParseError("missing closing parenthesis in FPCore input")
        return items, position + 1
    if token == ")":
        raise ParseError("unexpected ')' in FPCore input")
    return _atom(token), position + 1


def _reference_parse_sexpr(text):
    tokens = _tokenize_sexpr(text)
    expr, rest = _reference_read(tokens, 0)
    if rest != len(tokens):
        raise ParseError("trailing tokens after the first s-expression")
    return expr


def _reference_convert(form, bindings):
    if isinstance(form, Fraction):
        return E.Const(form)
    if isinstance(form, str):
        if form in bindings:
            return bindings[form]
        return E.Var(form)
    if not form:
        raise ParseError("empty s-expression in FPCore body")
    head = form[0]
    args = form[1:]
    if head in _BINARY_OPS:
        if len(args) == 1:
            if head == "-":
                raise ParseError("unary negation is not supported by the RP instantiation")
            return _reference_convert(args[0], bindings)
        expr = _reference_convert(args[0], bindings)
        for arg in args[1:]:
            expr = _BINARY_OPS[head](expr, _reference_convert(arg, bindings))
        return expr
    if head == "sqrt":
        return E.Sqrt(_reference_convert(args[0], bindings))
    if head == "fma":
        return E.Fma(*(_reference_convert(arg, bindings) for arg in args))
    if head == "if":
        guard_form, then_form, else_form = args
        guard = _reference_convert_guard(guard_form, bindings)
        return E.Cond(
            guard,
            _reference_convert(then_form, bindings),
            _reference_convert(else_form, bindings),
        )
    if head in ("let", "let*"):
        binding_forms, body = args
        new_bindings = dict(bindings)
        for binding in binding_forms:
            name, value = binding
            scope = new_bindings if head == "let*" else bindings
            new_bindings[str(name)] = _reference_convert(value, scope)
        return _reference_convert(body, new_bindings)
    raise ParseError(f"unsupported FPCore operator {head!r}")


def _reference_convert_guard(form, bindings):
    if not (isinstance(form, list) and len(form) == 3 and form[0] in _COMPARISONS):
        raise ParseError("only simple comparison guards are supported")
    return E.Comparison(
        str(form[0]),
        _reference_convert(form[1], bindings),
        _reference_convert(form[2], bindings),
    )


def _reference_ranges(precondition, arguments):
    ranges = {name: [None, None] for name in arguments}

    def visit(form):
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
    return {
        name: (low, high)
        for name, (low, high) in ranges.items()
        if low is not None and high is not None
    }


# ---------------------------------------------------------------------------
# Seeded random FPCore bodies
# ---------------------------------------------------------------------------

NAMES = "abcxyz"


def _random_body(rng, depth, budget=None):
    """Random nesting of every supported form; ``let``/``let*`` rebind and
    shadow the same few names, so scoping mistakes change the result.
    ``budget`` caps the compound forms, keeping bodies a few hundred
    tokens long whatever the depth."""
    budget = [60] if budget is None else budget
    if depth == 0 or budget[0] <= 0 or rng.random() < 0.15:
        if rng.random() < 0.6:
            return rng.choice(NAMES)
        return f"{rng.randint(1, 99) / 4:g}"
    budget[0] -= 1
    sub = lambda: _random_body(rng, depth - 1, budget)  # noqa: E731
    kind = rng.randrange(7)
    if kind == 0:
        operator = rng.choice("+-*/")
        count = rng.choice((1, 2, 2, 3, 5)) if operator != "-" else rng.choice((2, 3))
        return f"({operator} {' '.join(sub() for _ in range(count))})"
    if kind == 1:
        return f"(sqrt {sub()})"
    if kind == 2:
        return f"(fma {sub()} {sub()} {sub()})"
    if kind == 3:
        comparison = rng.choice(sorted(_COMPARISONS))
        return f"(if ({comparison} {sub()} {sub()}) {sub()} {sub()})"
    if kind in (4, 5):
        head = "let" if kind == 4 else "let*"
        bindings = " ".join(
            f"({rng.choice(NAMES)} {sub()})" for _ in range(rng.randint(1, 3))
        )
        return f"({head} ({bindings}) {sub()})"
    # A one-sided chain, the shape deep inputs take.
    body = sub()
    for _ in range(rng.randint(1, 6)):
        body = f"(+ {body} {rng.choice(NAMES)})"
    return body


def _random_precondition(rng, depth):
    """Nested ``and``s over range constraints on ``x``, ``y`` and the
    unknown ``z``: both orientations, repeated bounds and forms the
    extractor must skip."""
    roll = rng.random()
    if depth > 0 and roll < 0.5:
        count = rng.randint(0, 4)
        return ["and"] + [_random_precondition(rng, depth - 1) for _ in range(count)]
    if roll < 0.58:
        return rng.choice(
            [
                [],
                "x",
                Fraction(1),
                ["or", ["<=", "x", Fraction(1)]],
                ["<=", Fraction(0), "x", Fraction(1)],
                ["<=", "x", "y"],
            ]
        )
    constant = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    name = rng.choice(["x", "y", "z"])
    operands = [constant, name] if rng.random() < 0.5 else [name, constant]
    return [rng.choice(["<=", "<", ">=", ">"])] + operands


def _corrupt(rng, text):
    """Drop, duplicate or replace one token: malformed input of every kind."""
    tokens = _tokenize_sexpr(text)
    index = rng.randrange(len(tokens))
    action = rng.randrange(3)
    if action == 0:
        del tokens[index]
    elif action == 1:
        tokens.insert(index, tokens[index])
    else:
        tokens[index] = rng.choice(["(", ")", "foo", "-", "if", "let", "sqrt", "fma", "1"])
    return " ".join(tokens)


def _outcome(function, *arguments):
    try:
        return "ok", function(*arguments)
    except Exception as error:  # the exact type and message must agree
        return "error", (type(error), str(error))


def _assert_same_expression(converted, reference):
    """Equal structure *and* the same sharing of ``let``-bound nodes.

    Walks both DAGs in step, visiting each shared node once (substituted
    bindings can make the trees exponentially larger than the DAGs), and
    requires the node correspondence to be one-to-one.
    """
    pairs = {}
    stack = [(converted, reference)]
    while stack:
        new, old = stack.pop()
        if id(new) in pairs:
            assert pairs[id(new)] == id(old), f"{new} is shared differently"
            continue
        pairs[id(new)] = id(old)
        assert type(new) is type(old)
        children = new.children()
        if not children:
            assert new == old
            continue
        if isinstance(new, E.Cond):
            assert new.guard.op == old.guard.op
        stack.extend(zip(children, old.children()))
    assert len(set(pairs.values())) == len(pairs)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _assert_matches_the_references(text):
    """Same s-expression (or error), then same ``RealExpr`` (or error);
    returns whether the text converted."""
    status, form = _outcome(parse_sexpr, text)
    assert (status, form) == _outcome(_reference_parse_sexpr, text)
    if status != "ok":
        return False
    status, converted = _outcome(_convert, form, {})
    reference_status, reference = _outcome(_reference_convert, form, {})
    assert status == reference_status
    if status == "ok":
        _assert_same_expression(converted, reference)
    else:
        assert converted == reference
    return status == "ok"


class TestRecursiveEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_reader_and_converter_match_the_references(self, seed):
        rng = random.Random(seed)
        assert _assert_matches_the_references(_random_body(rng, rng.randint(1, 12)))

    @pytest.mark.parametrize("seed", range(60))
    def test_malformed_input_fails_the_same_way(self, seed):
        rng = random.Random(5000 + seed)
        _assert_matches_the_references(_corrupt(rng, _random_body(rng, rng.randint(1, 8))))

    @pytest.mark.parametrize("seed", range(60))
    def test_precondition_ranges_match_the_reference(self, seed):
        rng = random.Random(9000 + seed)
        form = ["and"] + [
            _random_precondition(rng, rng.randint(0, 5)) for _ in range(rng.randint(1, 8))
        ]
        arguments = ["x", "y"]
        assert _ranges_from_precondition(form, arguments) == _reference_ranges(
            form, arguments
        )

    def test_a_later_bound_wins(self):
        form = parse_sexpr("(and (<= 1 x) (and (<= x 2) (>= x 1/2)) (< y 3) (> y -3))")
        expected = {"x": (Fraction(1, 2), Fraction(2)), "y": (Fraction(-3), Fraction(3))}
        assert _ranges_from_precondition(form, ["x", "y"]) == expected
        assert _reference_ranges(form, ["x", "y"]) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            ")",
            "(+ x",
            "(+ x 1))",
            "()",
            "(- x)",
            "(+)",
            "(sqrt)",
            "(fma x y)",
            "(foo x)",
            "((+ x 1) 2)",
            "((+ x 1) 2 3)",
            "(1 x y)",
            "(if x 1 2)",
            "(if (< x 1) 2)",
            "(let ((a)) a)",
            "(let x x)",
            "(let ((a (foo 1)) b) a)",
            "(let* ((a 1) (b (+ a 1))) (* a b))",
            "(let ((a 1) (b (+ a 1))) (* a b))",
        ],
    )
    def test_pinned_inputs(self, text):
        _assert_matches_the_references(text)


def _serial_sum(terms, seed=30_000):
    """``(+ (+ … (+ x 1) …) 7)``: ``terms`` additions nested to the left."""
    rng = random.Random(seed)
    tails = [f" {rng.randint(1, 9)})" for _ in range(terms - 2)]
    body = "(+ " * (terms - 2) + "(+ x 1)" + "".join(tails)
    return f'(FPCore (x) :name "deep" (+ {body} 7))'


class TestDeepInput:
    def test_mixed_nesting_parses_past_the_recursion_limit(self):
        depth = 30_000
        wrappers = [
            ("(let* ((t (+ ", " 1))) (sqrt t))") if index % 2
            else ("(if (< x 2) (* ", " 3) x)")
            for index in range(depth)
        ]
        body = (
            "".join(head for head, _tail in reversed(wrappers))
            + "x"
            + "".join(tail for _head, tail in wrappers)
        )
        core = parse_fpcore(f"(FPCore (x) {body})")
        assert E.operation_count(core.expression) == 3 * depth // 2

    def test_thirty_thousand_term_sum_through_batch(self, tmp_path, capsys):
        path = tmp_path / "deep.fpcore"
        path.write_text(_serial_sum(30_000))
        assert main(["batch", str(tmp_path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "deep: M[30000*eps]num" in out
        assert "1 program(s), 1 function(s), 0 failure(s)" in out


def _deep_precondition(depth):
    """``(and (and … (<= 1 x) …) (<= x 2))`` nested ``depth`` deep."""
    pre = "(and " * (depth - 1) + "(<= 1 x)" + ")" * (depth - 2) + " (<= x 2))"
    return f'(FPCore (x) :name "deep" :pre {pre} (+ x 1))'


class TestDeepPrecondition:
    def test_ranges_past_the_recursion_limit(self):
        core = parse_fpcore(_deep_precondition(30_000))
        assert core.input_ranges == {"x": (Fraction(1), Fraction(2))}

    def test_through_fpcore(self, tmp_path, capsys):
        path = tmp_path / "deep.fpcore"
        path.write_text(_deep_precondition(30_000))
        assert main(["fpcore", str(path)]) == 0
        assert "deep: M[eps]num" in capsys.readouterr().out

    def test_through_batch(self, tmp_path, capsys):
        path = tmp_path / "deep.fpcore"
        path.write_text(_deep_precondition(30_000))
        assert main(["batch", str(tmp_path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "deep: M[eps]num" in out
        assert "1 program(s), 1 function(s), 0 failure(s)" in out
