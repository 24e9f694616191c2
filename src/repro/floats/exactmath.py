"""Exact rational helpers used throughout the error analysis.

Verifying the paper's bounds requires *exact* arithmetic: the relative
precision metric is ``RP(x, x̃) = |ln(x / x̃)|`` and the distances involved are
on the order of ``2^-52``, far below what a double-precision ``math.log`` can
resolve for ratios near 1.  This module provides:

* :func:`floor_log2` — exact ``⌊log2 x⌋`` of a positive rational;
* :func:`sqrt_round` — the square root of a positive rational correctly
  rounded to ``p`` significant bits in any IEEE rounding direction;
* :func:`log_enclosure` — a dyadic interval guaranteed to contain ``ln x``;
* :func:`log_ratio_enclosure` — a dyadic interval containing ``ln(a/b)``;
* :func:`rp_distance_enclosure` — a dyadic interval containing ``RP(x, y)``;
* :func:`exp_enclosure` — a rational interval containing ``exp x``;
* :func:`expm1_upper` / :func:`expm1_lower` — rational bounds on ``e^x - 1``
  used to convert RP bounds into relative-error bounds (Equation (8)).

Every bound returned here is *rigorous*: truncation errors of the underlying
series are accounted for with explicit rational remainder terms.  The
logarithms are summed in fixed-point integers whose every rounding is
directed outward, so their enclosures are dyadic rationals.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Tuple

__all__ = [
    "floor_log2",
    "sqrt_round",
    "sqrt_is_exact",
    "log_enclosure",
    "log_ratio_enclosure",
    "exp_enclosure",
    "expm1_upper",
    "expm1_lower",
    "rp_distance_enclosure",
    "exact_str",
    "DEFAULT_SERIES_TERMS",
]

DEFAULT_SERIES_TERMS = 40


def _pow2(exponent: int) -> Fraction:
    if exponent >= 0:
        return Fraction(1 << exponent)
    return Fraction(1, 1 << (-exponent))


def floor_log2(value: Fraction) -> int:
    """Exact ``⌊log2 value⌋`` for a positive rational ``value``."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("floor_log2 requires a positive value")
    numerator, denominator = value.numerator, value.denominator
    # Initial guess from bit lengths, then correct by at most one step.
    estimate = numerator.bit_length() - denominator.bit_length()
    if _pow2(estimate) <= value:
        while _pow2(estimate + 1) <= value:
            estimate += 1
        return estimate
    while _pow2(estimate) > value:
        estimate -= 1
    return estimate


def exact_str(value: Fraction) -> str:
    """``str(Fraction(value))`` without CPython's int→str digit limit.

    Exact ideal values and their error bounds can carry tens of thousands
    of digits, past the 4300-digit cap ``str(int)`` enforces; ``Decimal``
    converts an integer exactly and is not capped.
    """
    value = Fraction(value)
    text = str(Decimal(value.numerator))
    if value.denominator == 1:
        return text
    return f"{text}/{Decimal(value.denominator)}"


# ---------------------------------------------------------------------------
# Correctly rounded square roots of rationals
# ---------------------------------------------------------------------------


def sqrt_is_exact(value: Fraction) -> bool:
    """True when ``value`` has an exactly representable rational square root."""
    value = Fraction(value)
    if value < 0:
        return False
    if value == 0:
        return True
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    return num_root * num_root == value.numerator and den_root * den_root == value.denominator


def _sqrt_floor_scaled(value: Fraction, scale_exponent: int) -> Tuple[int, bool]:
    """``(⌊sqrt(value) * 2^scale_exponent⌋, exact?)`` using only integers."""
    if scale_exponent >= 0:
        scaled = value * Fraction(1 << (2 * scale_exponent))
    else:
        scaled = value / Fraction(1 << (-2 * scale_exponent))
    numerator, denominator = scaled.numerator, scaled.denominator
    # sqrt(N/D) = sqrt(N*D) / D, so the floor is isqrt(N*D) // D.
    product = numerator * denominator
    root = isqrt(product)
    floor_value = root // denominator
    exact = root * root == product and root % denominator == 0
    return floor_value, exact


def sqrt_round(value: Fraction, precision: int = 256, mode: str = "RN") -> Fraction:
    """The square root of ``value`` rounded to ``precision`` significant bits.

    ``mode`` is one of ``"RU"`` (towards +∞), ``"RD"`` (towards −∞), ``"RZ"``
    (towards zero; identical to RD for non-negative arguments) and ``"RN"``
    (to nearest, ties to even).  The result is exact whenever the true square
    root fits in ``precision`` bits.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("sqrt_round requires a non-negative argument")
    if value == 0:
        return Fraction(0)
    if sqrt_is_exact(value):
        return Fraction(isqrt(value.numerator), isqrt(value.denominator))

    # Exponent e with 2^e <= sqrt(value) < 2^(e+1) i.e. 4^e <= value < 4^(e+1).
    exponent = floor_log2(value) // 2 if floor_log2(value) >= 0 else -((-floor_log2(value) + 1) // 2)
    # Recompute robustly (the integer-division shortcut above is only a guess).
    while _pow2(2 * exponent) > value:
        exponent -= 1
    while _pow2(2 * (exponent + 1)) <= value:
        exponent += 1

    # We round to the grid of spacing 2^(exponent - precision + 1).
    scale = precision - 1 - exponent
    floor_mantissa, exact = _sqrt_floor_scaled(value, scale)
    quantum = _pow2(-scale)

    if exact:
        return Fraction(floor_mantissa) * quantum

    if mode in ("RD", "RZ"):
        mantissa = floor_mantissa
    elif mode == "RU":
        mantissa = floor_mantissa + 1
    elif mode == "RN":
        # Compare value against the square of the midpoint (m + 1/2) * quantum.
        midpoint_num = 2 * floor_mantissa + 1
        # value ? (midpoint_num/2 * quantum)^2  <=>  4 * value ? midpoint_num^2 * quantum^2
        lhs = 4 * value
        rhs = Fraction(midpoint_num * midpoint_num) * quantum * quantum
        if lhs > rhs:
            mantissa = floor_mantissa + 1
        elif lhs < rhs:
            mantissa = floor_mantissa
        else:
            mantissa = floor_mantissa if floor_mantissa % 2 == 0 else floor_mantissa + 1
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return Fraction(mantissa) * quantum


# ---------------------------------------------------------------------------
# Rigorous enclosures of ln and exp
# ---------------------------------------------------------------------------

#: Bits kept below the leading bit of ``z`` in ``ln t = 2 atanh(z)``: 256
#: significant bits plus 8 that absorb the outward rounding of up to ~60
#: series terms, so an enclosure's width stays below ``2^-256`` relative to
#: the logarithm however close to 1 the ratio is.
_GUARD_BITS = 264

#: Fixed scale (units of ``2^-_LN2_SCALE``) of the cached ln 2 enclosure.
_LN2_SCALE = 320


def _atanh_scaled(numerator: int, denominator: int, scale: int) -> Tuple[int, int]:
    """``(lo, hi)`` with ``lo <= 2^scale · atanh(z) <= hi`` for ``0 < z = n/d < 1``.

    ``z`` is first rounded outward to the grid ``2^-scale``.  atanh is
    increasing, so summing ``Σ_{k odd} w^k / k`` at the low end point with
    every product rounded down gives a lower bound, and at the high end point
    with every product rounded up, plus the tail ``w^k / (k (1 - w^2))``, an
    upper bound.  Only shifts and small divisions run inside the loop.
    """
    twice = 2 * scale
    z_low = (numerator << scale) // denominator
    z_high = -((-numerator << scale) // denominator)
    square_low, square_high = z_low * z_low, z_high * z_high
    low = high = 0
    power_low, power_high, k = z_low, z_high, 1
    while True:
        low += power_low // k
        high += -(-power_high // k)
        k += 2
        power_low = (power_low * square_low) >> twice
        power_high = -((-power_high * square_high) >> twice)
        if power_high <= 1:
            break
    tail_den = k * ((1 << twice) - square_high)
    high += -(-(power_high << twice) // tail_den)
    return low, high


# ln 2 = 2 atanh(1/3), computed once.
_LN2 = tuple(2 * bound for bound in _atanh_scaled(1, 3, _LN2_SCALE))


def _log_ratio(numerator: int, denominator: int) -> Tuple[Fraction, Fraction]:
    """A dyadic interval containing ``ln(numerator / denominator)``, both > 0.

    The integers are used as given (no gcd): argument reduction shifts them
    to ``2^k · t`` with ``t`` in ``[3/4, 3/2)`` by bit lengths, and
    ``ln t = 2 atanh((n' - d') / (n' + d'))`` is summed in fixed point.
    """
    if numerator <= 0 or denominator <= 0:
        raise ValueError("the logarithm requires a positive argument")
    k = numerator.bit_length() - denominator.bit_length()
    if k >= 0:
        denominator <<= k
    else:
        numerator <<= -k
    # Now t = numerator / denominator lies in [1/2, 2).
    if 2 * numerator >= 3 * denominator:
        denominator <<= 1
        k += 1
    elif 4 * numerator < 3 * denominator:
        numerator <<= 1
        k -= 1
    z_num, z_den = numerator - denominator, numerator + denominator
    low = high = scale = 0
    if z_num:
        # |z| <= 1/5; the scale tracks |z| so the width is relative to it.
        scale = _GUARD_BITS + z_den.bit_length() - abs(z_num).bit_length()
        low, high = _atanh_scaled(abs(z_num), z_den, scale)
        low, high = 2 * low, 2 * high
        if z_num < 0:
            low, high = -high, -low
    if k:
        top = max(scale, _LN2_SCALE)
        low <<= top - scale
        high <<= top - scale
        ln2_low, ln2_high = (bound << (top - _LN2_SCALE) for bound in _LN2)
        if k > 0:
            low, high = low + k * ln2_low, high + k * ln2_high
        else:
            low, high = low + k * ln2_high, high + k * ln2_low
        scale = top
    return Fraction(low, 1 << scale), Fraction(high, 1 << scale)


def log_enclosure(value: Fraction) -> Tuple[Fraction, Fraction]:
    """A dyadic interval ``[lo, hi]`` with ``lo <= ln(value) <= hi``.

    The width is below ``2^-256`` relative to ``ln(value)``.  Memoized:
    soundness sweeps evaluate the same handful of ratios (ideal vs
    floating-point values of a benchmark) thousands of times.
    """
    return _log_enclosure_cached(Fraction(value))


@lru_cache(maxsize=16384)
def _log_enclosure_cached(value: Fraction) -> Tuple[Fraction, Fraction]:
    return _log_ratio(value.numerator, value.denominator)


def log_ratio_enclosure(numerator: Fraction, denominator: Fraction) -> Tuple[Fraction, Fraction]:
    """A dyadic interval containing ``ln(numerator / denominator)``."""
    a, b = Fraction(numerator), Fraction(denominator)
    top, bottom = a.numerator * b.denominator, a.denominator * b.numerator
    if bottom < 0:
        top, bottom = -top, -bottom
    return _log_ratio(top, bottom)


def rp_distance_enclosure(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
    """A dyadic interval containing ``RP(x, y) = |ln(x / y)|`` for ``x, y > 0``.

    Memoized (the arguments are normalized to :class:`Fraction`, which
    hashes by exact value, so equal distances always share one entry).
    """
    return _rp_distance_cached(Fraction(x), Fraction(y))


@lru_cache(maxsize=16384)
def _rp_distance_cached(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
    if x <= 0 or y <= 0:
        raise ValueError("the RP metric requires strictly positive values")
    # ln(x / y) from the cross products, without forming the quotient.
    low, high = _log_ratio(x.numerator * y.denominator, x.denominator * y.numerator)
    if low >= 0:
        return low, high
    if high <= 0:
        return -high, -low
    return Fraction(0), max(-low, high)


def exp_enclosure(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Tuple[Fraction, Fraction]:
    """A rational interval ``[lo, hi]`` with ``lo <= exp(value) <= hi``.

    Memoized for the same reason as :func:`log_enclosure`: the RP →
    relative-error conversion (Equation (8)) evaluates ``expm1`` at the
    same certified bounds for every row of a table.
    """
    return _exp_enclosure_cached(Fraction(value), terms)


@lru_cache(maxsize=16384)
def _exp_enclosure_cached(value: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    # Argument reduction: exp(x) = exp(x / 2^k)^(2^k) with |x / 2^k| <= 1/2.
    k = 0
    reduced = value
    while abs(reduced) > Fraction(1, 2):
        reduced /= 2
        k += 1
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, terms + 1):
        term = term * reduced / i
        total += term
    # Remainder for |reduced| <= 1/2: |R| <= |term| * |reduced| / (1 - |reduced|) <= |term|.
    remainder = abs(term) * abs(reduced) / (1 - abs(reduced))
    low, high = total - remainder, total + remainder
    if low < 0:
        low = Fraction(0)
    for _ in range(k):
        low, high = low * low, high * high
    return low, high


def expm1_upper(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Fraction:
    """A rational upper bound on ``e^value - 1`` (for converting RP to relative error)."""
    _, high = exp_enclosure(value, terms)
    return high - 1


def expm1_lower(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Fraction:
    """A rational lower bound on ``e^value - 1``."""
    low, _ = exp_enclosure(value, terms)
    return low - 1
