"""Seeded program generators for the ``batch`` corpus and the ``serve`` misses.

Every generator is a pure function of its seed: the same seed yields the
same sources byte for byte, and the program under test receives only those
sources.  Sizes come from fixed per-family lists that the seed only
shuffles, so the total work of a corpus barely moves from one seed to the
next while coefficients, operators, binding structure and call graphs do.

Families (see ``README.md`` for why each one is in the corpus):

* ``horner``/``sum``/``dot`` — tree-shaped FPCore chains of 10^2-10^3
  operations, the shapes the paper's Table 4 scales up;
* ``letdag`` — FPCore whose ``let*`` blocks are referenced many times; the
  frontend inlines them, so the interned term repeats the shared operations;
* ``lnum`` — multi-definition surface programs where later functions call
  earlier ones through ``!``-boxes, with ``rnd`` after every operation.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: ``(name, kind, source)`` — the shape ``repro.analysis.batch.BatchItem`` takes.
Program = Tuple[str, str, str]

#: Operation counts of one family in a ``batch`` corpus: geometric from
#: 10^2 to 10^3, so every family spans the range and a corpus's median
#: program is mid-sized whatever the seed.
OPERATIONS = tuple(round(100 * 10 ** (index / 11)) for index in range(12))
#: ``(definitions, steps)`` of the ``lnum`` programs.
LNUM_SHAPES = tuple((definitions, steps) for definitions in (3, 4, 5, 6) for steps in (12, 16, 20))


def _literal(rng: random.Random) -> str:
    """A decimal literal in [1.125, 125.875], exact in binary (the RP
    instantiation needs strictly positive constants)."""
    return f"{rng.randint(9, 1007) / 8:g}"


def horner_fpcore(rng: random.Random, degree: int, name: str) -> str:
    """``c0 + x*(c1 + x*(... + x*cd))`` with seeded literal coefficients."""
    body = _literal(rng)
    for _ in range(degree):
        body = f"(+ {_literal(rng)} (* x {body}))"
    return f'(FPCore (x) :name "{name}" {body})'


def sum_fpcore(rng: random.Random, terms: int, name: str) -> str:
    """A serial left-to-right sum; a quarter of the terms (seeded) scaled by constants."""
    names = [f"x{index}" for index in range(terms)]
    scaled = set(rng.sample(range(terms), terms // 4))
    parts = [
        f"(* {_literal(rng)} {var})" if index in scaled else var
        for index, var in enumerate(names)
    ]
    return f'(FPCore ({" ".join(names)}) :name "{name}" (+ {" ".join(parts)}))'


def dot_fpcore(rng: random.Random, length: int, name: str) -> str:
    """``sum_i a_i * b_i`` over 2*length inputs, operand order seeded."""
    arguments: List[str] = []
    products: List[str] = []
    for index in range(length):
        a, b = f"a{index}", f"b{index}"
        arguments += [a, b]
        products.append(f"(* {a} {b})" if rng.random() < 0.5 else f"(* {b} {a})")
    return f'(FPCore ({" ".join(arguments)}) :name "{name}" (+ {" ".join(products)}))'


def letdag_fpcore(rng: random.Random, target: int, name: str) -> str:
    """``let*`` blocks, each referencing earlier blocks two or more times.

    The inlined operation count of each binding is tracked so the program
    lands near ``target`` operations (the frontend substitutes bindings, so
    the count is what inference walks).
    """
    inputs = ["x", "y", "z"]
    ops = {var: 0 for var in inputs}
    order: List[str] = list(inputs)
    bindings: List[str] = []
    operators = ("+", "*", "+", "*", "/")
    last = "x"
    index = 0
    while ops[last] < target:
        binding = f"t{index}"
        index += 1
        # The latest block is always one operand, so the chain deepens; the
        # other is another reference to a recent block while that keeps the
        # program within 10% of ``target``, else an input.
        left = last
        fitting = [name for name in order[-4:] if ops[left] + ops[name] + 2 <= target * 1.1]
        right = rng.choice(fitting or inputs)
        operator = rng.choice(operators)
        if operator == "/" and ops[right] != 0:
            operator = "*"
        expression = f"({operator} {left} {right})"
        ops[binding] = ops[left] + ops[right] + 1
        if rng.random() < 0.3:
            expression = f"(sqrt {expression})"
            ops[binding] += 1
        bindings.append(f"({binding} {expression})")
        order.append(binding)
        last = binding
    body = f"(* {last} {_literal(rng)})"
    return (
        f'(FPCore (x y z) :name "{name}" '
        f'(let* ({" ".join(bindings)}) {body}))'
    )


def lnum_program(
    rng: random.Random, definitions: int, steps: int, name: str, tag: str = ""
) -> str:
    """Functions ``F0..Fk`` over ``(x: ![K]num) (y: num)``; later ones call earlier.

    Every step consumes the running accumulator exactly once (keeping the
    linear ``y`` within sensitivity 1) and combines it with ``x1``, a
    literal, or (a fifth of the steps of every function but ``F0``) a call
    ``Fi [x1]{Ki} acc``.  ``K`` is computed from the body: each use of
    ``x1`` adds 1 and a call adds ``Ki`` (a with-pair takes the maximum only
    over the *same* variable, and the accumulator is a different, let-bound
    one, so the bind rule adds them) — so every program type-checks.
    ``tag`` (a positive literal) is added to ``y`` in ``F0``, making the
    program's content key unique.
    """
    lines: List[str] = [f"# {name}: generated multi-definition program"]
    boxes: List[int] = []
    for fn in range(definitions):
        body: List[str] = ["  let [x1] = x;"]
        if tag and fn == 0:
            body += [f"  u = add (|y, {tag}|);", "  v0 = mul (x1, u);"]
        else:
            body.append("  v0 = mul (x1, y);")
        body.append("  let r0 = rnd v0;")
        sens_x = 1  # sensitivity of the accumulator in x1
        acc = "r0"
        calls = set(rng.sample(range(1, steps), steps // 5)) if fn else set()
        for step in range(1, steps):
            choice = rng.random()
            if step in calls:
                callee = rng.randrange(fn)
                body.append(f"  v{step} = F{callee} [x1]{{{boxes[callee]}}} {acc};")
                body.append(f"  let r{step} = v{step};")
                sens_x += boxes[callee]
            else:
                operand = "x1" if choice < 0.55 else _literal(rng)
                if rng.random() < 0.5:
                    body.append(f"  v{step} = add (|{acc}, {operand}|);")
                else:
                    op = "mul" if rng.random() < 0.8 else "div"
                    body.append(f"  v{step} = {op} ({acc}, {operand});")
                if operand == "x1":
                    sens_x += 1
                body.append(f"  let r{step} = rnd v{step};")
            acc = f"r{step}"
        body.append(f"  ret {acc}")
        boxes.append(sens_x)
        lines.append(f"function F{fn} (x: ![{sens_x}]num) (y: num) {{")
        lines.extend(body)
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


def batch_corpus(seed: int) -> List[Program]:
    """The ``batch`` workload's corpus for ``seed``: 12 programs per family."""
    rng = random.Random(f"perfbench-batch-{seed}")
    jobs = [(family, index) for family in FAMILIES for index in range(len(OPERATIONS))]
    rng.shuffle(jobs)
    corpus: List[Program] = []
    for position, (family, index) in enumerate(jobs):
        name = f"{family}{position:02d}"
        ops = OPERATIONS[index]
        if family == "horner":
            corpus.append((name, "fpcore", horner_fpcore(rng, ops // 2, name)))
        elif family == "sum":
            corpus.append((name, "fpcore", sum_fpcore(rng, ops + 1, name)))
        elif family == "dot":
            corpus.append((name, "fpcore", dot_fpcore(rng, (ops + 1) // 2, name)))
        elif family == "letdag":
            corpus.append((name, "fpcore", letdag_fpcore(rng, ops, name)))
        else:
            definitions, steps = LNUM_SHAPES[index]
            corpus.append((name, "lnum", lnum_program(rng, definitions, steps, name)))
    return corpus


FAMILIES = ("horner", "sum", "dot", "letdag", "lnum")


def serve_misses(seed: int, count: int) -> List[Program]:
    """``count`` small, pairwise-distinct programs never seen by the service.

    Each carries a literal derived from its index, so no two share a
    content key even when their shapes coincide.
    """
    rng = random.Random(f"perfbench-serve-{seed}")
    programs: List[Program] = []
    for index in range(count):
        tag = f"{seed % 997 + 2}.{index + 1:05d}"
        name = f"miss{index:05d}"
        family = index % 3
        if family == 0:
            body = tag
            for _ in range(rng.randint(3, 8)):
                body = f"(+ {_literal(rng)} (* x {body}))"
            programs.append((name, "fpcore", f'(FPCore (x) :name "{name}" {body})'))
        elif family == 1:
            terms = rng.randint(4, 10)
            names = " ".join(f"x{i}" for i in range(terms))
            programs.append(
                (name, "fpcore", f'(FPCore ({names}) :name "{name}" (+ {tag} {names}))')
            )
        else:
            source = lnum_program(rng, 2, rng.randint(3, 6), name, tag=tag)
            programs.append((name, "lnum", source))
    return programs
