"""Packed grade polynomials for the compiled inference kernel.

The interpreted engine manipulates hash-consed :class:`~repro.core.grades.Grade`
objects: every ring operation normalizes a polynomial dict and takes the
global intern lock.  That is exactly the right representation at judgement
boundaries (identity equality, memo keys, pickling), but inside a single
inference run it makes the grade algebra the dominant cost.  This module
provides the engine-internal representation:

* monomials are interned once into a process-wide **vocabulary** and
  referenced by small integer indices;
* a polynomial is a :class:`PGrade` holding three parallel **lanes** —
  ``(monomial-index, numerator, denominator)`` — sorted by monomial index,
  gcd-reduced, with strictly positive entries;
* narrow polynomials (the common case during inference: ``0``, ``1``,
  ``k*eps``) keep their lanes as plain tuples of Python ints, which are
  exact at any magnitude;
* wide polynomials use numpy ``int64`` arrays when numpy is importable, so
  ``add``/``mul``/``max`` run as vectorized ufunc expressions.  numpy is
  imported lazily, the first time a grade reaches the vectorization width,
  so runs that only ever see narrow grades (a cold ``repro check``, most
  batch programs) never load it.  Every
  vectorized operation first **certifies** that no intermediate can exceed
  the int64 range (all values are non-negative, so the products
  ``n1*d2 + n2*d1`` and ``d1*d2`` are bounded by ``2 * mx_a * mx_b``); when
  the bound cannot be certified the operation falls back to exact
  ``Fraction`` lanes and the result is re-packed.  Either way the stored
  lanes are exact rationals — the fast path is an optimization, never an
  approximation.

Set ``REPRO_NO_NUMPY=1`` in the environment to force the pure-Python packed
fallback even when numpy is installed (used by the CI no-numpy leg).

``pack``/``unpack`` convert to and from interned :class:`Grade` objects and
are bounded-LRU memoized, so the conversion at judgement boundaries costs a
dictionary hit for recurring grades.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .. import ast as A
from .. import grades as GR
from ..grades import DEFAULT_REGISTRY, Grade, GradeError, Monomial

__all__ = [
    "PGrade",
    "P_ZERO",
    "P_ONE",
    "P_EPS",
    "P_INF",
    "have_numpy",
    "pack",
    "unpack",
    "padd",
    "pmul",
    "pmax",
    "pvalue",
    "pconst",
    "p_is_zero",
    "p_is_one",
    "p_is_constant",
    "packed_memo_stats",
]

#: Whether the vectorized lanes may be used: numpy is installed and not
#: disabled.  numpy itself is imported by ``_build`` the first time a grade
#: is wide enough to vectorize, so narrow-grade runs never pay its import.
_NUMPY_OK = not os.environ.get("REPRO_NO_NUMPY") and (
    importlib.util.find_spec("numpy") is not None
)
#: The numpy module once imported, else None.
_np = None


def have_numpy() -> bool:
    """True when the vectorized int64 lanes are available (and not disabled)."""
    return _NUMPY_OK


def _import_numpy() -> bool:
    """Import numpy on first use; on failure fall back to the int lanes."""
    global _np, _NUMPY_OK
    try:
        import numpy
    except ImportError:  # pragma: no cover - a broken numpy install
        _NUMPY_OK = False
        return False
    _np = numpy
    return True


#: Lane representation tags.
_K_INT = 0  # tuples of Python ints: exact at any magnitude
_K_VEC = 1  # numpy int64 arrays: certified against overflow before every op

#: Minimum lane count before numpy arrays pay for themselves.
_VEC_MIN = 8

#: Certification bound: with non-negative values bounded by ``mx``, the add
#: kernel computes ``n1*d2 + n2*d1 <= 2*mx_a*mx_b`` and ``d1*d2 <= mx_a*mx_b``;
#: requiring ``mx_a * mx_b < 2**62`` keeps every intermediate below ``2**63``.
_SAFE_PROD = 1 << 62

#: Observability counters (races are benign: stats only).
_COUNTERS = {"vectorized_ops": 0, "frac_fallbacks": 0}


# ---------------------------------------------------------------------------
# The monomial vocabulary
# ---------------------------------------------------------------------------

_VOCAB_INDEX: Dict[Monomial, int] = {}
_VOCAB_MONOS: List[Monomial] = []
_VOCAB_LOCK = threading.Lock()
#: (i, j) -> index of the product monomial, i <= j.
_MUL_TABLE: Dict[Tuple[int, int], int] = {}
#: Exact values of vocabulary monomials under DEFAULT_REGISTRY, stamped with
#: the registry version; ``None`` entries are not yet computed.
_VALUE_CACHE: List[object] = [-1, []]


def _mono_index(mono: Monomial) -> int:
    idx = _VOCAB_INDEX.get(mono)
    if idx is None:
        with _VOCAB_LOCK:
            idx = _VOCAB_INDEX.get(mono)
            if idx is None:
                idx = len(_VOCAB_MONOS)
                _VOCAB_MONOS.append(mono)
                _VOCAB_INDEX[mono] = idx
    return idx


def _mono_mul(i: int, j: int) -> int:
    key = (i, j) if i <= j else (j, i)
    k = _MUL_TABLE.get(key)
    if k is None:
        k = _mono_index(tuple(sorted(_VOCAB_MONOS[i] + _VOCAB_MONOS[j])))
        _MUL_TABLE[key] = k
    return k


def _mono_value(idx: int) -> Fraction:
    """Exact value of vocabulary monomial ``idx`` under DEFAULT_REGISTRY."""
    version = DEFAULT_REGISTRY.version
    if _VALUE_CACHE[0] != version:
        _VALUE_CACHE[0] = version
        _VALUE_CACHE[1] = [None] * len(_VOCAB_MONOS)
    values = _VALUE_CACHE[1]
    if idx >= len(values):
        values.extend([None] * (len(_VOCAB_MONOS) - len(values)))
    value = values[idx]
    if value is None:
        value = Fraction(1)
        for name in _VOCAB_MONOS[idx]:
            value *= DEFAULT_REGISTRY.value_of(name)  # raises GradeError
        values[idx] = value
    return value


# The constant monomial must be index 0 (p_is_one/p_is_constant rely on it).
assert _mono_index(()) == 0


# ---------------------------------------------------------------------------
# PGrade
# ---------------------------------------------------------------------------


class PGrade:
    """An engine-internal grade: ``inf`` or parallel (mono, num, den) lanes.

    Instances are immutable by convention (never mutated after construction)
    but *not* interned — identity is meaningless, use :func:`unpack` to reach
    the canonical :class:`Grade`.  ``_val`` caches the exact evaluation under
    the default registry, stamped with the registry version.
    """

    __slots__ = ("kind", "monos", "nums", "dens", "inf", "mx", "_val")

    def __init__(self, kind, monos, nums, dens, inf=False, mx=0):
        self.kind = kind
        self.monos = monos
        self.nums = nums
        self.dens = dens
        self.inf = inf
        self.mx = mx
        self._val = None

    def __repr__(self) -> str:  # debugging only
        return f"PGrade({unpack(self)})"


P_ZERO = PGrade(_K_INT, (), (), ())
P_ONE = PGrade(_K_INT, (0,), (1,), (1,))
P_INF = PGrade(_K_INT, (), (), (), inf=True)
P_EPS = PGrade(_K_INT, (_mono_index((GR.EPS_SYMBOL,)),), (1,), (1,))

_F0 = Fraction(0)
_F1 = Fraction(1)


def p_is_zero(g: PGrade) -> bool:
    return not g.inf and not len(g.monos)


def p_is_one(g: PGrade) -> bool:
    if g is P_ONE:
        return True
    if g.inf or len(g.monos) != 1:
        return False
    return int(g.monos[0]) == 0 and int(g.nums[0]) == 1 and int(g.dens[0]) == 1


def p_is_constant(g: PGrade) -> bool:
    # Mirrors Grade.is_constant: infinity counts as constant.  Canonical
    # lanes collapse constants into at most one lane at vocabulary index 0.
    if g.inf or not len(g.monos):
        return True
    return len(g.monos) == 1 and int(g.monos[0]) == 0


# ---------------------------------------------------------------------------
# Construction / canonicalization
# ---------------------------------------------------------------------------


def _build(monos, nums, dens):
    """Canonical PGrade from *sorted, reduced, positive* parallel lists."""
    width = len(monos)
    if width == 0:
        return P_ZERO
    if width == 1 and monos[0] == 0 and nums[0] == 1 and dens[0] == 1:
        return P_ONE
    if _NUMPY_OK and width >= _VEC_MIN:
        mx = max(max(nums), max(dens))
        if mx < _SAFE_PROD and (_np is not None or _import_numpy()):
            return PGrade(
                _K_VEC,
                _np.array(monos, dtype=_np.int64),
                _np.array(nums, dtype=_np.int64),
                _np.array(dens, dtype=_np.int64),
                mx=mx,
            )
    return PGrade(_K_INT, tuple(monos), tuple(nums), tuple(dens))


def _from_fracs(acc: Dict[int, Fraction]) -> PGrade:
    monos: List[int] = []
    nums: List[int] = []
    dens: List[int] = []
    for k in sorted(acc):
        f = acc[k]
        if f:
            monos.append(k)
            nums.append(f.numerator)
            dens.append(f.denominator)
    return _build(monos, nums, dens)


def _fracs(g: PGrade) -> Dict[int, Fraction]:
    if g.kind == _K_VEC:
        return {
            int(m): Fraction(int(n), int(d))
            for m, n, d in zip(g.monos, g.nums, g.dens)
        }
    return {m: Fraction(n, d) for m, n, d in zip(g.monos, g.nums, g.dens)}


def pconst(value: Fraction) -> PGrade:
    if value < 0:
        raise GradeError(f"grades are non-negative, got {value}")
    if not value:
        return P_ZERO
    if value == 1:
        return P_ONE
    return PGrade(_K_INT, (0,), (value.numerator,), (value.denominator,))


# ---------------------------------------------------------------------------
# pack / unpack (judgement-boundary conversion)
# ---------------------------------------------------------------------------

_PACK_MEMO = A._BoundedMemo(8_192)
_UNPACK_MEMO = A._BoundedMemo(65_536)


def pack(grade: Grade) -> PGrade:
    if grade is GR.ZERO:
        return P_ZERO
    if grade is GR.ONE:
        return P_ONE
    if grade is GR.EPS:
        return P_EPS
    cached = _PACK_MEMO.get(grade)
    if cached is not None:
        return cached
    if grade.is_infinite:
        packed = P_INF
    else:
        acc = {
            _mono_index(mono): Fraction(coeff)
            for mono, coeff in grade.terms().items()
        }
        packed = _from_fracs(acc)
    _PACK_MEMO.put(grade, packed)
    return packed


_EPS_MONO = _mono_index((GR.EPS_SYMBOL,))


def unpack(g: PGrade) -> Grade:
    if g.inf:
        return GR.INFINITY
    monos = g.monos
    if not len(monos):
        return GR.ZERO
    # Value-based singleton fast paths (no memo lock): fresh PGrade objects
    # routinely carry the canonical constants after ring ops.
    if len(monos) == 1 and g.kind == _K_INT and g.nums[0] == 1 and g.dens[0] == 1:
        if monos[0] == 0:
            return GR.ONE
        if monos[0] == _EPS_MONO:
            return GR.EPS
    if g.kind == _K_VEC:
        key = tuple(
            (int(m), int(n), int(d)) for m, n, d in zip(g.monos, g.nums, g.dens)
        )
    else:
        key = tuple(zip(g.monos, g.nums, g.dens))
    cached = _UNPACK_MEMO.get(key)
    if cached is not None:
        return cached
    grade = Grade(
        {_VOCAB_MONOS[m]: Fraction(n, d) for m, n, d in key}
    )
    _UNPACK_MEMO.put(key, grade)
    return grade


# ---------------------------------------------------------------------------
# Evaluation and ordering
# ---------------------------------------------------------------------------


def pvalue(g: PGrade) -> Fraction:
    """Exact rational value under DEFAULT_REGISTRY (mirrors Grade.evaluate)."""
    if g.inf:
        raise GradeError("cannot evaluate an infinite grade to a rational")
    cached = g._val
    version = DEFAULT_REGISTRY.version
    if cached is not None and cached[0] == version:
        return cached[1]
    total = _F0
    if g.kind == _K_VEC:
        for m, n, d in zip(g.monos, g.nums, g.dens):
            total += Fraction(int(n), int(d)) * _mono_value(int(m))
    else:
        for m, n, d in zip(g.monos, g.nums, g.dens):
            total += Fraction(n, d) * _mono_value(m)
    g._val = (version, total)
    return total


def pmax(a: PGrade, b: PGrade) -> PGrade:
    """``a.max(b)`` with the interpreted engine's tie bias: a unless b > a."""
    if a.inf:
        return a
    if b.inf:
        return b
    if a is b:
        return a
    return a if pvalue(b) <= pvalue(a) else b


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def _add_int(am, an, ad, bm, bn, bd):
    i = j = 0
    la = len(am)
    lb = len(bm)
    monos: List[int] = []
    nums: List[int] = []
    dens: List[int] = []
    while i < la and j < lb:
        ma = am[i]
        mb = bm[j]
        if ma == mb:
            n = an[i] * bd[j] + bn[j] * ad[i]
            d = ad[i] * bd[j]
            g = gcd(n, d)
            monos.append(ma)
            nums.append(n // g)
            dens.append(d // g)
            i += 1
            j += 1
        elif ma < mb:
            monos.append(ma)
            nums.append(an[i])
            dens.append(ad[i])
            i += 1
        else:
            monos.append(mb)
            nums.append(bn[j])
            dens.append(bd[j])
            j += 1
    while i < la:
        monos.append(am[i])
        nums.append(an[i])
        dens.append(ad[i])
        i += 1
    while j < lb:
        monos.append(bm[j])
        nums.append(bn[j])
        dens.append(bd[j])
        j += 1
    return _build(monos, nums, dens)


def _add_vec(a: PGrade, b: PGrade) -> PGrade:
    _COUNTERS["vectorized_ops"] += 1
    am, bm = a.monos, b.monos
    union = _np.union1d(am, bm)
    size = len(union)
    n1 = _np.zeros(size, dtype=_np.int64)
    d1 = _np.ones(size, dtype=_np.int64)
    n2 = _np.zeros(size, dtype=_np.int64)
    d2 = _np.ones(size, dtype=_np.int64)
    ia = _np.searchsorted(union, am)
    ib = _np.searchsorted(union, bm)
    n1[ia] = a.nums
    d1[ia] = a.dens
    n2[ib] = b.nums
    d2[ib] = b.dens
    num = n1 * d2 + n2 * d1
    den = d1 * d2
    g = _np.gcd(num, den)
    num //= g
    den //= g
    mx = int(max(num.max(), den.max()))
    if mx < _SAFE_PROD:
        return PGrade(_K_VEC, union, num, den, mx=mx)
    # The result itself outgrew the certified range: keep it exact as ints.
    return _build(
        [int(m) for m in union], [int(n) for n in num], [int(d) for d in den]
    )


def _int_lanes(g: PGrade):
    if g.kind == _K_VEC:
        return (
            [int(m) for m in g.monos],
            [int(n) for n in g.nums],
            [int(d) for d in g.dens],
        )
    return g.monos, g.nums, g.dens


def padd(a: PGrade, b: PGrade) -> PGrade:
    if a.inf or b.inf:
        return P_INF
    if not len(a.monos):
        return b
    if not len(b.monos):
        return a
    if a.kind == _K_INT and b.kind == _K_INT:
        am = a.monos
        bm = b.monos
        # Width-1 fast path: grade accumulators on binder chains add
        # single-monomial terms millions of times; skip the generic merge.
        if len(am) == 1 and len(bm) == 1:
            ma = am[0]
            mb = bm[0]
            if ma == mb:
                n = a.nums[0] * b.dens[0] + b.nums[0] * a.dens[0]
                d = a.dens[0] * b.dens[0]
                g = gcd(n, d)
                n //= g
                d //= g
                if ma == 0 and n == 1 and d == 1:
                    return P_ONE
                return PGrade(_K_INT, (ma,), (n,), (d,))
            if ma < mb:
                return PGrade(
                    _K_INT, (ma, mb), (a.nums[0], b.nums[0]), (a.dens[0], b.dens[0])
                )
            return PGrade(
                _K_INT, (mb, ma), (b.nums[0], a.nums[0]), (b.dens[0], a.dens[0])
            )
        return _add_int(am, a.nums, a.dens, bm, b.nums, b.dens)
    if a.kind == _K_VEC and b.kind == _K_VEC:
        if a.mx * b.mx < _SAFE_PROD:
            return _add_vec(a, b)
        _COUNTERS["frac_fallbacks"] += 1
        acc = _fracs(a)
        for k, f in _fracs(b).items():
            prev = acc.get(k)
            acc[k] = f if prev is None else prev + f
        return _from_fracs(acc)
    am, an, ad = _int_lanes(a)
    bm, bn, bd = _int_lanes(b)
    return _add_int(am, an, ad, bm, bn, bd)


def _mul_vec_scalar(wide: PGrade, k: int, n: int, d: int) -> PGrade:
    _COUNTERS["vectorized_ops"] += 1
    nums = wide.nums * n
    dens = wide.dens * d
    g = _np.gcd(nums, dens)
    nums //= g
    dens //= g
    if k == 0:
        monos = wide.monos
    else:
        # Multiplying distinct monomials by one fixed monomial is injective,
        # so no lanes collide — only the sort order needs restoring.
        monos = _np.array(
            [_mono_mul(int(m), k) for m in wide.monos], dtype=_np.int64
        )
        order = _np.argsort(monos, kind="stable")
        monos = monos[order]
        nums = nums[order]
        dens = dens[order]
    mx = int(max(nums.max(), dens.max()))
    if mx < _SAFE_PROD:
        return PGrade(_K_VEC, monos, nums, dens, mx=mx)
    return _build(
        [int(m) for m in monos], [int(x) for x in nums], [int(x) for x in dens]
    )


def _mul_frac(a: PGrade, b: PGrade) -> PGrade:
    acc: Dict[int, Fraction] = {}
    for ka, fa in _fracs(a).items():
        for kb, fb in _fracs(b).items():
            k = _mono_mul(ka, kb)
            prod = fa * fb
            prev = acc.get(k)
            acc[k] = prod if prev is None else prev + prod
    return _from_fracs(acc)


def pmul(a: PGrade, b: PGrade) -> PGrade:
    # 0 * inf = inf * 0 = 0, per Definition 4.2.
    if not a.inf and not len(a.monos):
        return P_ZERO
    if not b.inf and not len(b.monos):
        return P_ZERO
    if a.inf or b.inf:
        return P_INF
    if a is P_ONE:
        return b
    if b is P_ONE:
        return a
    if a.kind == _K_VEC or b.kind == _K_VEC:
        wide, other = (a, b) if a.kind == _K_VEC else (b, a)
        if other.kind != _K_VEC and len(other.monos) == 1:
            n = other.nums[0]
            d = other.dens[0]
            if wide.mx * (n if n >= d else d) < _SAFE_PROD:
                return _mul_vec_scalar(wide, other.monos[0], n, d)
        # Wide products without a certified int64 bound take the exact
        # Fraction-lane path.
        _COUNTERS["frac_fallbacks"] += 1
        return _mul_frac(a, b)
    am, an, ad = a.monos, a.nums, a.dens
    bm, bn, bd = b.monos, b.nums, b.dens
    if len(am) == 1 and len(bm) == 1:
        n = an[0] * bn[0]
        d = ad[0] * bd[0]
        g = gcd(n, d)
        return _build([_mono_mul(am[0], bm[0])], [n // g], [d // g])
    acc: Dict[int, Tuple[int, int]] = {}
    for i in range(len(am)):
        ni = an[i]
        di = ad[i]
        mi = am[i]
        for j in range(len(bm)):
            k = _mono_mul(mi, bm[j])
            n = ni * bn[j]
            d = di * bd[j]
            prev = acc.get(k)
            if prev is None:
                acc[k] = (n, d)
            else:
                pn, pd = prev
                acc[k] = (n * pd + pn * d, d * pd)
    monos: List[int] = []
    nums: List[int] = []
    dens: List[int] = []
    for k in sorted(acc):
        n, d = acc[k]
        g = gcd(n, d)
        monos.append(k)
        nums.append(n // g)
        dens.append(d // g)
    return _build(monos, nums, dens)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


def packed_memo_stats() -> Dict[str, object]:
    return {
        "numpy": _NUMPY_OK,
        "vocabulary": len(_VOCAB_MONOS),
        "pack": _PACK_MEMO.stats(),
        "unpack": _UNPACK_MEMO.stats(),
        "vectorized_ops": _COUNTERS["vectorized_ops"],
        "frac_fallbacks": _COUNTERS["frac_fallbacks"],
    }
