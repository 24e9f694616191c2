"""Differential property suite: compiled kernel vs interpreted engine.

The compiled engine (:mod:`repro.core.compiled`) must be a *bit-for-bit*
drop-in for the interpreted walker of :mod:`repro.core.inference`: identical
judgements (same interned grade instances, same context treap entries, same
types) and identical failures (same error class, same message) on every
term.  This suite drives both engines over randomized terms — binder-heavy
chains, case-heavy ladders, shared-DAG programs, the benchmark families —
and over adversarial grades whose int64 products overflow, which must take
the exact ``Fraction`` fallback rather than wrap.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ast as A
from repro.core import types as T
from repro.core.compiled import (
    clear_plan_memo,
    compiled_memo_stats,
    have_numpy,
    plan_for,
    plan_memo_stats,
)
from repro.core.compiled.packed import packed_memo_stats
from repro.core.errors import LnumError
from repro.core.grades import DEFAULT_REGISTRY, EPS, INFINITY, ONE, ZERO, Grade
from repro.core.inference import InferenceConfig, infer

from test_grades_properties import finite_grades

NUM = T.NUM


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------


def _run(engine, term, skeleton, config):
    try:
        result = infer(term, skeleton, config, memo=False, engine=engine)
        return ("ok", result)
    except LnumError as error:
        return ("error", (type(error), str(error)))


def assert_engines_agree(term, skeleton=None, config=None):
    """Both engines produce the identical judgement or the identical error."""
    skeleton = skeleton or {}
    interpreted = _run("interpreted", term, skeleton, config)
    compiled = _run("compiled", term, skeleton, config)
    assert interpreted[0] == compiled[0], (interpreted, compiled)
    if interpreted[0] == "error":
        assert interpreted[1] == compiled[1]
        return None
    ri, rc = interpreted[1], compiled[1]
    assert ri.type == rc.type
    assert ri.context == rc.context
    entries_i = list(ri.context._entries())
    entries_c = list(rc.context._entries())
    assert len(entries_i) == len(entries_c)
    for (ni, ti, si), (nc, tc, sc) in zip(entries_i, entries_c):
        assert ni == nc
        assert ti == tc
        # Grades are interned: equality must be object identity.
        assert si is sc
    return ri


# ---------------------------------------------------------------------------
# Term strategies
# ---------------------------------------------------------------------------

_FREE_VARS = tuple(f"x{i}" for i in range(4))
_SKELETON = {name: NUM for name in _FREE_VARS}


def _leaf(draw):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return A.Const(draw(st.sampled_from((0.5, 1.0, 2.0))))
    return A.Var(draw(st.sampled_from(_FREE_VARS)))


@st.composite
def num_terms(draw, depth=0):
    """Terms of (mostly) type Num; occasional ill-typed shapes are fine —
    the oracle checks error agreement too."""
    if depth >= 3 or draw(st.booleans()):
        return _leaf(draw)
    op = draw(st.sampled_from(("add", "mul", "div")))
    left = draw(num_terms(depth + 1))
    right = draw(num_terms(depth + 1))
    pair = A.WithPair(left, right) if op == "add" else A.TensorPair(left, right)
    return A.Op(op, pair)


@st.composite
def binder_chains(draw):
    """Binder-heavy: serial let / let-bind chains over rounded operations."""
    steps = draw(st.integers(1, 8))
    body = A.Rnd(draw(num_terms()))
    for index in range(steps):
        value = A.Rnd(draw(num_terms()))
        accumulator = A.Op(
            "add", A.WithPair(A.Var(f"s{index}"), draw(num_terms()))
        )
        step = A.LetBind(f"s{index}", body, A.Rnd(accumulator))
        body = A.Let(f"t{index}", draw(num_terms()), step) if draw(st.booleans()) else step
        if draw(st.booleans()):
            body = A.LetBind(f"s{index}", value, body)
    return body


@st.composite
def case_ladders(draw):
    """Case-heavy: nested sums with Ret branches and shared scrutinees."""
    rungs = draw(st.integers(1, 5))
    term = A.Ret(draw(num_terms()))
    for index in range(rungs):
        injected = draw(num_terms())
        scrutinee = (
            A.Inl(injected, NUM) if draw(st.booleans()) else A.Inr(injected, NUM)
        )
        left = A.Ret(A.Var(f"c{index}"))
        term = A.Case(scrutinee, f"c{index}", left, f"d{index}", term)
    return term


@st.composite
def boxed_terms(draw):
    """Box/let-box round trips with randomized (finite) scales."""
    scale = draw(finite_grades())
    inner = draw(num_terms())
    boxed = A.Box(inner, scale)
    if draw(st.booleans()):
        return boxed
    use = A.Op("add", A.WithPair(A.Var("b"), draw(num_terms())))
    return A.LetBox("b", boxed, use)


@st.composite
def mixed_terms(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(binder_chains())
    if kind == 1:
        return draw(case_ladders())
    if kind == 2:
        return draw(boxed_terms())
    if kind == 3:
        parameter_type = draw(st.sampled_from((NUM, T.UNIT)))
        body = draw(num_terms())
        lam = A.Lambda("p", parameter_type, body)
        if draw(st.booleans()):
            return lam
        return A.App(lam, draw(num_terms()))
    left = draw(num_terms())
    right = draw(num_terms())
    value = A.TensorPair(left, right)
    return A.LetTensor("l", "r", value, A.Op("mul", A.TensorPair(A.Var("l"), A.Var("r"))))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


class TestDifferentialProperties:
    @given(term=num_terms())
    @settings(max_examples=120, deadline=None)
    def test_numeric_terms(self, term):
        assert_engines_agree(term, _SKELETON)

    @given(term=binder_chains())
    @settings(max_examples=80, deadline=None)
    def test_binder_heavy_chains(self, term):
        assert_engines_agree(term, _SKELETON)

    @given(term=case_ladders())
    @settings(max_examples=80, deadline=None)
    def test_case_heavy_ladders(self, term):
        assert_engines_agree(term, _SKELETON)

    @given(term=mixed_terms())
    @settings(max_examples=120, deadline=None)
    def test_mixed_terms(self, term):
        assert_engines_agree(term, _SKELETON)

    @given(term=mixed_terms(), rnd=finite_grades(), guard=finite_grades())
    @settings(max_examples=60, deadline=None)
    def test_mixed_terms_under_custom_config(self, term, rnd, guard):
        config = InferenceConfig(rnd_grade=rnd, case_guard_sensitivity=guard)
        assert_engines_agree(term, _SKELETON, config)


class TestSharedDagTerms:
    def test_shared_subterm_judgements_match(self):
        base = A.Op("add", A.WithPair(A.Var("x0"), A.Var("x1")))
        shared = base
        for _ in range(6):
            shared = A.Op("mul", A.TensorPair(shared, shared))
        term = A.intern_term(A.Rnd(shared))
        assert A.dag_size(term) < A.tree_size(term)
        assert_engines_agree(term, _SKELETON)

    def test_benchmark_families_match(self):
        from repro.perf.families import FAMILIES

        for family in FAMILIES.values():
            term, skeleton, _tree, _dag = family.instantiate(24)
            assert_engines_agree(term, skeleton)

    def test_benchsuite_builders_match(self):
        from repro.benchsuite import large

        term, skeleton = large.conditional_ladder_term(40)
        assert_engines_agree(A.intern_term(term), skeleton)
        term, skeleton = large.dag_fanout_term(12, block_operations=16)
        assert_engines_agree(A.intern_term(term), skeleton)
        term, skeleton = large.dag_cascade_term(6, block_operations=8)
        assert_engines_agree(A.intern_term(term), skeleton)
        term, skeleton = large.balanced_rnd_tree_term(64)
        assert_engines_agree(A.intern_term(term), skeleton)


class TestErrorAgreement:
    CASES = [
        ("unbound", A.Var("nowhere"), {}),
        ("rnd_non_num", A.Rnd(A.UnitVal()), {}),
        ("app_non_function", A.App(A.Const(1.0), A.Const(2.0)), {}),
        ("proj_non_with", A.Proj(1, A.Const(1.0)), {}),
        ("case_non_sum", A.Case(A.Const(1.0), "l", A.Ret(A.Var("l")), "r", A.Ret(A.Var("r"))), {}),
        ("letbox_non_bang", A.LetBox("v", A.Const(1.0), A.Var("v")), {}),
        ("letbind_non_monadic", A.LetBind("v", A.Const(1.0), A.Ret(A.Var("v"))), {}),
        (
            "lambda_too_sensitive",
            A.Lambda("p", NUM, A.Op("mul", A.TensorPair(A.Var("p"), A.Var("p")))),
            {},
        ),
        (
            "boxed_at_zero",
            A.LetBox("v", A.Box(A.Var("x0"), ZERO), A.Var("v")),
            _SKELETON,
        ),
        (
            "symbolic_box_scale",
            A.LetBox(
                "v",
                A.Box(A.Var("x0"), EPS),
                A.Op("mul", A.TensorPair(A.Var("v"), A.Var("v"))),
            ),
            _SKELETON,
        ),
        (
            "context_type_clash",
            A.Op(
                "mul",
                A.TensorPair(
                    A.Var("x0"),
                    A.Let("x0", A.UnitVal(), A.App(A.Lambda("u", T.UNIT, A.Var("x0")), A.Var("x0"))),
                ),
            ),
            _SKELETON,
        ),
    ]

    @pytest.mark.parametrize("name,term,skeleton", CASES, ids=[c[0] for c in CASES])
    def test_same_error_class_and_message(self, name, term, skeleton):
        interpreted = _run("interpreted", term, skeleton, None)
        compiled = _run("compiled", term, skeleton, None)
        assert interpreted == compiled or (
            interpreted[0] == compiled[0] == "ok"
        ), (interpreted, compiled)


# ---------------------------------------------------------------------------
# int64 overflow: the vectorized path must certify and fall back exactly
# ---------------------------------------------------------------------------

_WIDE_SYMBOLS = tuple(f"ovf{i}" for i in range(9))
for _name in _WIDE_SYMBOLS:
    if not DEFAULT_REGISTRY.known(_name):
        DEFAULT_REGISTRY.register(_name, Fraction(1, 3))


def _wide_grade(coefficient: int) -> Grade:
    terms = {(): Fraction(coefficient)}
    for name in _WIDE_SYMBOLS:
        terms[(name,)] = Fraction(coefficient)
    return Grade(terms)


class TestInt64Overflow:
    @pytest.mark.skipif(not have_numpy(), reason="needs the vectorized lanes")
    def test_overflowing_products_take_the_fraction_fallback(self):
        # Two 10-lane grades with ~2^40 coefficients: their pointwise
        # product bound exceeds 2^62, so the vectorized kernels must refuse
        # to certify and route through exact Fraction lanes.
        big = 1 << 40
        g1 = _wide_grade(big)
        g2 = _wide_grade(big + 1)
        term = A.Box(A.Box(A.Var("x0"), g1), g2)
        before = packed_memo_stats()["frac_fallbacks"]
        result = assert_engines_agree(term, _SKELETON)
        after = packed_memo_stats()["frac_fallbacks"]
        assert after > before
        # The surviving sensitivity is the exact symbolic product.
        sens = result.context.sensitivity_of("x0")
        assert sens is g1 * g2

    @pytest.mark.skipif(not have_numpy(), reason="needs the vectorized lanes")
    def test_overflowing_sums_stay_exact(self):
        # Lanes of ~2**40 store as certified int64 vectors, but the add
        # kernel's cross-multiplication bound (mx_a * mx_b ~ 2**80) exceeds
        # the 2**62 certification, forcing the exact path.
        big = 1 << 40
        g1 = _wide_grade(big)
        g2 = _wide_grade(big + 3)
        # Shared variable under a tensor pair: the engine adds the two
        # boxed sensitivities.
        term = A.TensorPair(A.Box(A.Var("x0"), g1), A.Box(A.Var("x0"), g2))
        before = packed_memo_stats()["frac_fallbacks"]
        result = assert_engines_agree(term, _SKELETON)
        after = packed_memo_stats()["frac_fallbacks"]
        assert after > before
        assert result.context.sensitivity_of("x0") is g1 + g2


# ---------------------------------------------------------------------------
# Plan cache and stats plumbing
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_plans_are_cached_by_intern_id(self):
        term = A.intern_term(
            A.Rnd(A.Op("add", A.WithPair(A.Var("x0"), A.Var("x1"))))
        )
        first = plan_for(term)
        second = plan_for(term)
        assert first is second

    def test_interned_terms_hit_the_plan_memo_on_the_second_call(self):
        term = A.intern_term(
            A.Rnd(A.Op("mul", A.TensorPair(A.Var("x0"), A.Const(Fraction(7, 3)))))
        )
        first = plan_for(term)
        hits = plan_memo_stats()["hits"]
        assert plan_for(term) is first
        assert plan_memo_stats()["hits"] == hits + 1

    def test_uninterned_terms_are_lowered_without_interning(self):
        # A fresh compiler tree, as ``repro batch`` and ``repro check`` hand
        # over: plan_for lowers it directly, with no intern-table inserts and
        # no plan-memo entry, and the plan equals the interned term's.
        import gc

        from repro.frontend import expr as E
        from repro.frontend.compiler import compile_expression

        x0, x1 = E.Var("x0"), E.Var("x1")
        expression = E.Add(
            E.Mul(E.Add(x0, E.Const(Fraction(7919, 13))), x1),
            E.Fma(E.Sqrt(x0), x1, E.Div(x1, E.Const(Fraction(104729, 17)))),
        )
        program = compile_expression(expression)
        term = program.term
        gc.collect()
        table_before = len(A._INTERN_TABLE)
        entries_before = plan_memo_stats()["entries"]
        plan = plan_for(term)
        result = infer(term, program.skeleton, memo=False, engine="compiled")
        assert len(A._INTERN_TABLE) == table_before
        assert plan_memo_stats()["entries"] == entries_before
        assert not A.is_interned(term)

        reference = infer(term, program.skeleton, memo=False, engine="interpreted")
        assert result.type == reference.type
        assert result.context == reference.context
        for (ni, ti, si), (nc, tc, sc) in zip(
            reference.context._entries(), result.context._entries()
        ):
            assert ni == nc and ti == tc and si is sc

        interned = plan_for(A.intern_term(term))
        assert plan.ops == interned.ops
        assert plan.n_slots == interned.n_slots

    def test_stats_shape(self):
        clear_plan_memo()
        term = A.intern_term(A.Rnd(A.Var("x0")))
        plan_for(term)
        stats = compiled_memo_stats()
        assert stats["plans"]["entries"] >= 1
        assert stats["plans"]["capacity"] > 0
        packed = stats["packed"]
        for key in ("numpy", "vocabulary", "pack", "unpack", "vectorized_ops", "frac_fallbacks"):
            assert key in packed

    def test_memo_report_includes_compiled_block(self):
        from repro.analysis.cache import memo_report

        report = memo_report()
        assert "compiled" in report
        assert "plans" in report["compiled"]
        assert "packed" in report["compiled"]


class TestPurePythonFallback:
    def test_engines_agree_without_numpy(self):
        """With ``REPRO_NO_NUMPY=1`` the packed algebra runs on plain tuples
        of Python ints; the compiled engine must still match bit-for-bit."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.core import ast as A\n"
            "from repro.core import types as T\n"
            "from repro.core.compiled import have_numpy\n"
            "from repro.core.inference import infer\n"
            "assert not have_numpy()\n"
            "skel = {'x0': T.NUM, 'x1': T.NUM}\n"
            "body = A.Rnd(A.Op('add', A.WithPair(A.Var('x0'), A.Var('x1'))))\n"
            "term = body\n"
            "for i in range(40):\n"
            "    term = A.LetBind(\n"
            "        f's{i}',\n"
            "        term,\n"
            "        A.Rnd(A.Op('mul', A.TensorPair(A.Var(f's{i}'), A.Var('x1')))),\n"
            "    )\n"
            "ri = infer(term, skel, memo=False, engine='interpreted')\n"
            "rc = infer(term, skel, memo=False, engine='compiled')\n"
            "assert ri.type == rc.type\n"
            "assert ri.context == rc.context\n"
            "for (ni, ti, si), (nc, tc, sc) in zip(\n"
            "    ri.context._entries(), rc.context._entries()\n"
            "):\n"
            "    assert ni == nc and ti == tc and si is sc\n"
            "print('NO_NUMPY_DIFFERENTIAL_OK')\n"
        )
        environment = dict(os.environ)
        environment["REPRO_NO_NUMPY"] = "1"
        environment["PYTHONPATH"] = "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=environment,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "NO_NUMPY_DIFFERENTIAL_OK" in completed.stdout


class TestLazyNumpy:
    def _run(self, script, **environment):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src", **environment)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    def test_cold_imports_leave_numpy_unloaded(self):
        out = self._run(
            "import sys\n"
            "import repro.analysis.batch, repro.validation.harness, repro.tuning.search\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.strip() == "False"

    #: Infers a narrow-grade term, then one whose box scale is 10 lanes wide,
    #: and prints whether numpy was loaded after each, and ``have_numpy()``.
    WIDE_SCRIPT = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from repro.core import ast as A\n"
        "from repro.core import types as T\n"
        "from repro.core.compiled import have_numpy\n"
        "from repro.core.compiled.packed import packed_memo_stats\n"
        "from repro.core.grades import DEFAULT_REGISTRY, Grade\n"
        "from repro.core.inference import infer\n"
        "skeleton = {'x0': T.NUM}\n"
        "infer(A.Rnd(A.Var('x0')), skeleton, memo=False, engine='compiled')\n"
        "narrow = 'numpy' in sys.modules\n"
        "terms = {(): Fraction(2)}\n"
        "for i in range(9):\n"
        "    DEFAULT_REGISTRY.register(f'lazy{i}', Fraction(1, 5))\n"
        "    terms[(f'lazy{i}',)] = Fraction(i + 1)\n"
        "term = A.Box(A.Var('x0'), Grade(terms))\n"
        "infer(term, skeleton, memo=False, engine='compiled')\n"
        "print(narrow, 'numpy' in sys.modules, have_numpy(), packed_memo_stats()['numpy'])\n"
    )

    def test_first_wide_grade_imports_numpy(self):
        # Narrow grades stay on the int lanes without numpy; the first grade
        # of vectorization width loads it when it is available.
        narrow, wide, available, reported = self._run(self.WIDE_SCRIPT).split()
        assert narrow == "False"
        assert wide == available == reported

    def test_disabled_numpy_is_never_imported(self):
        out = self._run(self.WIDE_SCRIPT, REPRO_NO_NUMPY="1")
        assert out.split() == ["False", "False", "False", "False"]


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            infer(A.Const(1.0), {}, engine="jit")

    def test_explicit_engines_agree_on_infinite_grades(self):
        term = A.LetBox(
            "v",
            A.Box(A.Var("x0"), INFINITY),
            A.Op("mul", A.TensorPair(A.Var("v"), A.Var("v"))),
        )
        assert_engines_agree(term, _SKELETON)

    def test_zero_and_one_scales_roundtrip(self):
        for scale in (ZERO, ONE, EPS):
            term = A.Box(A.Var("x0"), scale)
            assert_engines_agree(term, _SKELETON)
