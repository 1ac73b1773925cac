"""Truncated series arithmetic (exact mode) and radial-expansion fitting."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hml.series import (COND_MAX, IllConditionedFit, TruncatedSeries,
                        TruncationError, fit_radial_expansion)

from oracles import rational_series

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)


def series_st(order=5):
    return st.lists(fractions_st, min_size=order + 1, max_size=order + 1).map(
        TruncatedSeries)


def test_geometric_series_reciprocal():
    s = rational_series([1, 1], 3)           # 1 + r
    inv = s.reciprocal()
    assert inv.coeffs == [Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)]


def test_factored_reciprocal_matches_display():
    # (r^2 + 2 b r^8)^(-1) handled as r^(-2) * (1 + 2 b r^6)^(-1)
    b = Fraction(1, 3)
    unit = rational_series([1] + [0] * 5 + [2 * b], 8)
    inv_unit = unit.reciprocal()
    assert inv_unit.coeffs[0] == 1
    assert inv_unit.coeffs[6] == -2 * b
    assert all(c == 0 for c in inv_unit.coeffs[1:6])


@settings(max_examples=40, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms_exact(a, b, c):
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a + b).coeffs == (b + a).coeffs


@settings(max_examples=40, deadline=None)
@given(series_st())
def test_mul_reciprocal_roundtrip(s):
    if s.coeffs[0] == 0:
        s = s + 1
    one = (s * s.reciprocal()).coeffs
    assert one[0] == 1 and all(c == 0 for c in one[1:])


def test_derive_keeps_order_with_exact_zero_top():
    d = rational_series([5, 1, 2, 3], 3).derive()     # d/dr of 5 + r + 2r^2 + 3r^3
    assert d.coeffs == [1, 4, 9, 0] and type(d.coeffs[-1]) is Fraction
    assert rational_series([7], 0).derive().coeffs == [0]


def test_truncation_mismatch_rejected():
    with pytest.raises(TruncationError):
        rational_series([1], 3) * rational_series([1], 4)


def test_reciprocal_zero_constant_rejected():
    with pytest.raises(ZeroDivisionError):
        rational_series([0, 1], 3).reciprocal()


def test_division_by_a_number_and_negative_powers():
    s = rational_series([1, 2, 3], 3)
    assert (s / 2).coeffs == [Fraction(1, 2), 1, Fraction(3, 2), 0]
    with pytest.raises(ValueError, match="negative exponent -2"):
        s ** -2


def test_shift_unshift():
    s = rational_series([0, 0, 1, 2, 3], 5)
    assert s.unshift(2).coeffs[:3] == [1, 2, 3]
    with pytest.raises(ValueError):
        rational_series([1, 2, 3], 5).unshift(1)


# ---------------------------------------------------------------------------
# radial expansion fitting
# ---------------------------------------------------------------------------

def test_fit_euclidean_zeros():
    m = 4
    radii = np.geomspace(0.05, 0.5, 16)
    samples = [(r, r ** (m - 1)) for r in radii]
    fit = fit_radial_expansion(samples, m, order=6)
    assert max(abs(v) for v in fit.coefficients.values()) < 1e-10


def test_fit_sphere_h2():
    m = 3
    radii = np.geomspace(0.02, 0.35, 18)
    samples = [(r, np.sin(r) ** 2) for r in radii]
    fit = fit_radial_expansion(samples, m, order=8)
    assert fit[2] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert fit[4] == pytest.approx(2.0 / 45.0, abs=1e-4)


def test_fit_polar_family_leading_term():
    # Theta = r (1 + b r^7): the fit recovers the order-7 coefficient from
    # 14 radii and from 20
    b, n, m = 0.1, 7, 2
    for count in (14, 20):
        radii = np.geomspace(0.05, 0.5, count)
        samples = [(r, r * (1 + b * r ** n)) for r in radii]
        fit = fit_radial_expansion(samples, m, order=8)
        assert fit[7] == pytest.approx(b, abs=1e-8)
        others = [v for k, v in fit.coefficients.items() if k != 7]
        assert max(abs(v) for v in others) < 1e-8


def test_fit_exact_polynomial_machine_precision():
    m = 3
    coeffs = {2: 0.4, 3: -0.03, 4: 0.007}
    radii = np.linspace(0.05, 0.6, 14)
    samples = [(r, r ** (m - 1) * (1 + sum(c * r ** k for k, c in coeffs.items())))
               for r in radii]
    fit = fit_radial_expansion(samples, m, order=4)
    for k, c in coeffs.items():
        assert fit[k] == pytest.approx(c, abs=1e-12)


def test_fit_keeps_every_column_on_many_radii():
    # 50,000 radii: numpy's default rcond would treat this accepted
    # design's smallest singular value as zero and fit at rank 10 of 11
    m = 4
    coeffs = {k: (-1.0) ** k / math.factorial(k) for k in range(2, 13)}
    radii = np.geomspace(0.5, 1.0, 50_000)
    theta = radii ** (m - 1) * (1 + sum(c * radii ** k
                                        for k, c in coeffs.items()))
    fit = fit_radial_expansion(zip(radii, theta), m, order=12)
    assert 1e11 < fit.cond <= COND_MAX
    for k, c in coeffs.items():
        assert fit[k] == pytest.approx(c, abs=1e-5)
    assert fit.residual < 1e-10


def test_fit_requires_enough_radii():
    with pytest.raises(ValueError):
        fit_radial_expansion([(0.1, 0.1), (0.2, 0.2)], 3, order=6)


def test_fit_ill_conditioned_reports_cond():
    radii = np.linspace(0.1, 0.1001, 40)     # nearly coincident radii
    samples = [(r, r ** 2) for r in radii]
    with pytest.raises(IllConditionedFit) as exc:
        fit_radial_expansion(samples, 3, order=12)
    assert exc.value.cond > COND_MAX


def test_fit_truncation_diagnostic_present():
    m = 3
    radii = np.geomspace(0.02, 0.4, 30)
    samples = [(r, np.sin(r) ** 2) for r in radii]
    fit = fit_radial_expansion(samples, m, order=6)
    assert 2 in fit.truncation_estimate
    assert fit.truncation_estimate[2] < 1e-5
