"""Tests for the exact rational arithmetic helpers (sqrt, log, exp enclosures)."""

import json
import math
from fractions import Fraction
from typing import Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.floats.exactmath import (
    exact_str,
    exp_enclosure,
    expm1_lower,
    expm1_upper,
    floor_log2,
    log_enclosure,
    log_ratio_enclosure,
    rp_distance_enclosure,
    sqrt_is_exact,
    sqrt_round,
)

positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)).filter(
    lambda q: q > 0
)
small_rationals = st.fractions(min_value=Fraction(-2), max_value=Fraction(2))


class TestFloorLog2:
    def test_powers_of_two(self):
        assert floor_log2(Fraction(1)) == 0
        assert floor_log2(Fraction(2)) == 1
        assert floor_log2(Fraction(1, 2)) == -1
        assert floor_log2(Fraction(1, 4)) == -2

    def test_non_powers(self):
        assert floor_log2(Fraction(3)) == 1
        assert floor_log2(Fraction(5, 7)) == -1
        assert floor_log2(Fraction(1023)) == 9
        assert floor_log2(Fraction(1025)) == 10

    @given(value=positive_rationals)
    @settings(max_examples=80, deadline=None)
    def test_defining_property(self, value):
        exponent = floor_log2(value)
        assert Fraction(2) ** exponent <= value < Fraction(2) ** (exponent + 1)


class TestSqrtRound:
    def test_exact_squares(self):
        assert sqrt_round(Fraction(9, 4), 53, "RN") == Fraction(3, 2)
        assert sqrt_is_exact(Fraction(49))
        assert not sqrt_is_exact(Fraction(2))

    def test_directed_modes_bracket_the_root(self):
        for value in (Fraction(2), Fraction(1, 3), Fraction(12345, 67)):
            down = sqrt_round(value, 100, "RD")
            up = sqrt_round(value, 100, "RU")
            assert down * down <= value <= up * up
            assert down < up

    def test_nearest_is_between_directed(self):
        value = Fraction(2)
        down = sqrt_round(value, 60, "RD")
        up = sqrt_round(value, 60, "RU")
        nearest = sqrt_round(value, 60, "RN")
        assert nearest in (down, up)

    def test_precision_controls_error(self):
        value = Fraction(2)
        coarse = sqrt_round(value, 10, "RD")
        fine = sqrt_round(value, 200, "RD")
        assert abs(fine * fine - 2) < abs(coarse * coarse - 2)

    def test_zero(self):
        assert sqrt_round(Fraction(0), 53, "RU") == 0

    @given(value=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_relative_accuracy(self, value):
        result = sqrt_round(value, 80, "RN")
        # |result^2 - value| / value <= ~2^-78
        assert abs(result * result - value) / value <= Fraction(1, 2**77)

    @given(value=positive_rationals)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_math_sqrt(self, value):
        result = sqrt_round(value, 80, "RN")
        assert float(result) == pytest_approx(math.sqrt(float(value)))


def pytest_approx(x: float, rel: float = 1e-12) -> float:
    import pytest

    return pytest.approx(x, rel=rel)


class TestLogEnclosures:
    @given(value=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_log_enclosure_contains_math_log(self, value):
        low, high = log_enclosure(value)
        assert low <= high
        assert float(low) <= math.log(float(value)) + 1e-12
        assert math.log(float(value)) - 1e-12 <= float(high)

    def test_log_of_one_is_zero(self):
        low, high = log_enclosure(Fraction(1))
        assert low <= 0 <= high
        assert high - low < Fraction(1, 10**20)

    def test_log_ratio(self):
        low, high = log_ratio_enclosure(Fraction(3), Fraction(2))
        assert float(low) <= math.log(1.5) <= float(high)

    def test_enclosure_width_is_tiny(self):
        low, high = log_enclosure(Fraction(12345, 678))
        assert high - low < Fraction(1, 10**30)

    @given(x=positive_rationals, y=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_rp_distance_is_symmetric_and_contains_truth(self, x, y):
        low_xy, high_xy = rp_distance_enclosure(x, y)
        low_yx, high_yx = rp_distance_enclosure(y, x)
        truth = abs(math.log(float(x) / float(y)))
        assert float(low_xy) <= truth + 1e-9
        assert truth - 1e-9 <= float(high_xy)
        # Symmetry of the metric.
        assert abs(float(low_xy - low_yx)) < 1e-12
        assert low_xy >= 0

    def test_rp_distance_of_equal_points_is_zero(self):
        low, high = rp_distance_enclosure(Fraction(5, 3), Fraction(5, 3))
        assert low == 0 and high == 0

    def test_rp_distance_resolves_tiny_perturbations(self):
        # A relative perturbation of 2^-52 is far below what float log can
        # resolve; the rational enclosure pins it to ~40 decimal digits.
        x = Fraction(1, 3)
        y = x * (1 + Fraction(1, 2**52))
        low, high = rp_distance_enclosure(x, y)
        assert Fraction(1, 2**53) < low <= high < Fraction(1, 2**51)


class TestExpEnclosures:
    @given(value=small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_exp_enclosure_contains_math_exp(self, value):
        low, high = exp_enclosure(value)
        assert low <= high
        truth = math.exp(float(value))
        assert float(low) <= truth * (1 + 1e-12)
        assert truth * (1 - 1e-12) <= float(high)

    def test_exp_zero(self):
        low, high = exp_enclosure(Fraction(0))
        assert low <= 1 <= high

    def test_expm1_bounds_order(self):
        value = Fraction(1, 2**40)
        assert expm1_lower(value) <= expm1_upper(value)
        assert expm1_upper(value) >= value  # e^x - 1 >= x for x >= 0

    def test_expm1_matches_equation_8(self):
        # Equation (8): eps = e^alpha - 1 <= alpha / (1 - alpha).
        alpha = Fraction(3, 2**52)
        assert expm1_upper(alpha) <= alpha / (1 - alpha)


# ---------------------------------------------------------------------------
# Oracle: ln summed as a 40-term atanh series over exact ``Fraction``s
# ---------------------------------------------------------------------------

ORACLE_TERMS = 40

# ln 2 enclosure computed lazily from the atanh series at t = 2.
_LN2_CACHE: Optional[Tuple[Fraction, Fraction]] = None


def _atanh_series_enclosure(z: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    """Enclosure of ``atanh(z) = Σ_{k odd} z^k / k`` for ``|z| < 1``."""
    if not (-1 < z < 1):
        raise ValueError("atanh series requires |z| < 1")
    total = Fraction(0)
    power = z
    z_squared = z * z
    k = 1
    for _ in range(terms):
        total += power / k
        power *= z_squared
        k += 2
    # Remainder: |Σ_{j >= k, odd} z^j / j| <= |z|^k / (k (1 - z^2)).
    remainder = abs(power) / (k * (1 - z_squared))
    if z >= 0:
        return total, total + remainder
    return total - remainder, total


def _ln2_enclosure(terms: int = ORACLE_TERMS) -> Tuple[Fraction, Fraction]:
    global _LN2_CACHE
    if _LN2_CACHE is None:
        # ln 2 = 2 atanh(1/3)
        low, high = _atanh_series_enclosure(Fraction(1, 3), terms)
        _LN2_CACHE = (2 * low, 2 * high)
    return _LN2_CACHE


def oracle_log_enclosure(value: Fraction) -> Tuple[Fraction, Fraction]:
    """``ln(value)`` by argument reduction and the exact series above."""
    if value <= 0:
        raise ValueError("log_enclosure requires a positive argument")
    # Argument reduction: value = 2^k * t with t in [3/4, 3/2).
    k = 0
    t = value
    while t >= Fraction(3, 2):
        t /= 2
        k += 1
    while t < Fraction(3, 4):
        t *= 2
        k -= 1
    # ln t = 2 atanh((t - 1) / (t + 1))
    z = (t - 1) / (t + 1)
    low_t, high_t = _atanh_series_enclosure(z, ORACLE_TERMS)
    low_t, high_t = 2 * low_t, 2 * high_t
    ln2_low, ln2_high = _ln2_enclosure()
    if k >= 0:
        return low_t + k * ln2_low, high_t + k * ln2_high
    return low_t + k * ln2_high, high_t + k * ln2_low


def oracle_rp_distance(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
    low, high = oracle_log_enclosure(x / y)
    if low >= 0:
        return low, high
    if high <= 0:
        return -high, -low
    return Fraction(0), max(-low, high)


def _assert_agrees_with_oracle(enclosure, oracle):
    low, high = enclosure
    oracle_low, oracle_high = oracle
    assert low <= high
    # (a) both enclose the same real number, so they intersect.
    assert low <= oracle_high and oracle_low <= high
    # (b) the fixed-point width is relative to the value, however small.
    assert high - low <= Fraction(1, 2**250) * max(abs(low), abs(high))
    # (c) the reported float is the same.
    assert float(high) == float(oracle_high)


ULP = Fraction(1, 2**52)

#: ``x · (1 + j·2^-52)`` — the ratios an RP distance sees for a float result.
near_one_pairs = st.tuples(
    st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(10**9)).filter(lambda q: q > 0),
    st.integers(min_value=-64, max_value=64),
)


def _integer_with_bits(bits: int, seed: int) -> int:
    return (seed % (1 << bits)) | (1 << (bits - 1))


wide_integers = st.builds(
    _integer_with_bits,
    st.integers(min_value=200, max_value=900),
    st.integers(min_value=0, max_value=(1 << 900) - 1),
)

#: Rationals with 200–900-bit numerators and denominators (exact ideal values).
wide_rationals = st.builds(Fraction, wide_integers, wide_integers)

#: Arguments whose reduction ``2^k · t`` has ``k ≠ 0``.
scaled_arguments = st.builds(
    lambda base, j: base * (1 + j * ULP),
    st.sampled_from([Fraction(3), Fraction(1, 3), Fraction(2**60), Fraction(1, 2**60)]),
    st.integers(min_value=-64, max_value=64),
)


class TestFixedPointLogAgainstOracle:
    @given(pair=near_one_pairs)
    @settings(max_examples=40, deadline=None)
    def test_near_one_ratios(self, pair):
        x, j = pair
        y = x * (1 + j * ULP)
        _assert_agrees_with_oracle(log_enclosure(y / x), oracle_log_enclosure(y / x))
        _assert_agrees_with_oracle(rp_distance_enclosure(x, y), oracle_rp_distance(x, y))
        # (d) equal points are exactly zero apart.
        assert rp_distance_enclosure(x, x) == (0, 0)

    @given(x=wide_rationals, y=wide_rationals)
    @settings(max_examples=15, deadline=None)
    def test_wide_rationals(self, x, y):
        _assert_agrees_with_oracle(log_enclosure(x), oracle_log_enclosure(x))
        _assert_agrees_with_oracle(rp_distance_enclosure(x, y), oracle_rp_distance(x, y))
        assert rp_distance_enclosure(y, y) == (0, 0)

    @given(value=scaled_arguments)
    @settings(max_examples=40, deadline=None)
    def test_reduced_arguments(self, value):
        _assert_agrees_with_oracle(log_enclosure(value), oracle_log_enclosure(value))
        _assert_agrees_with_oracle(log_enclosure(1 / value), oracle_log_enclosure(1 / value))
        assert rp_distance_enclosure(value, value) == (0, 0)

    def test_enclosures_are_dyadic(self):
        low, high = rp_distance_enclosure(Fraction(1, 3), Fraction(1, 3) * (1 + ULP))
        for bound in (low, high):
            assert bound.denominator & (bound.denominator - 1) == 0


class TestExactStr:
    def test_matches_str_below_the_digit_cap(self):
        for value in (Fraction(0), Fraction(-3, 7), Fraction(12345), Fraction(1, 2**300)):
            assert exact_str(value) == str(value)

    def test_writes_past_the_digit_cap(self):
        value = Fraction(1, 7**6000)
        text = exact_str(value)
        assert len(text) > 5000
        assert text.startswith("1/")
        assert json.loads(json.dumps({"exact": text}))["exact"] == text
