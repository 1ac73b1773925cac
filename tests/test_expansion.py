"""Jacobi operators, density-expansion coefficients, leading-term law."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hml import catalog
from hml.curvature import curvature
from hml.expansion import (TruncationTooLow, density_coefficients, jacobi,
                           leading_coefficient, verify_leading_coefficient)
from hml.geodesics import density_profile, g_unit_directions
from hml.metric import OrderExceededError
from hml.series import fit_radial_expansion, geometric_radii


# ---------------------------------------------------------------------------
# Jacobi operators
# ---------------------------------------------------------------------------

def test_jacobi_euclidean_zero(euclid3):
    b = curvature(euclid3.metric, [0.1, 0.2, 0.3], k_max=3)
    for k in range(4):
        assert np.max(np.abs(jacobi(b, [1.0, 0, 0], k).matrix)) == 0.0


def test_jacobi_sphere_projection(sphere3):
    b = curvature(sphere3.metric, np.zeros(3), k_max=0)
    xi = np.array([1.0, 0, 0])
    J = jacobi(b, xi, 0)
    # J0 = projection onto xi-perp: eigenvalues {0, 1, 1}, J0 xi = 0
    assert np.linalg.eigvalsh(0.5 * (J.matrix + J.matrix.T)) == pytest.approx(
        [0, 1, 1], abs=1e-12)
    assert np.max(np.abs(J.matrix @ xi)) < 1e-12
    assert np.max(np.abs(J.bilinear - J.bilinear.T)) < 1e-14


def test_jacobi_space_form_eigenvalues(rng):
    a, b_par = 0.8, 0.45
    entry = catalog.space_form(a, b_par, 3)
    x = rng.uniform(-0.3, 0.3, 3)
    bundle = curvature(entry.metric, x, k_max=0)
    g = bundle.g
    xi = rng.normal(size=3)
    xi = xi / math.sqrt(xi @ g @ xi)
    J = jacobi(bundle, xi, 0)
    eigs = np.sort(J.eigenvalues(g))
    kappa = 4 * a * b_par
    assert eigs == pytest.approx([0, kappa, kappa], abs=1e-9)


def test_jacobi_homogeneity(fs2, rng):
    bundle = curvature(fs2.metric, rng.uniform(-0.2, 0.2, 4), k_max=2)
    xi = rng.normal(size=4)
    for k in range(3):
        J1 = jacobi(bundle, xi, k).matrix
        J2 = jacobi(bundle, 2.0 * xi, k).matrix
        assert np.max(np.abs(J2 - 2.0 ** (k + 2) * J1)) < 1e-9 * max(
            1.0, np.max(np.abs(J2)))


def test_jacobi_order_exceeded(sphere3):
    b = curvature(sphere3.metric, np.zeros(3), k_max=1)
    with pytest.raises(OrderExceededError):
        jacobi(b, [1.0, 0, 0], 2)


# ---------------------------------------------------------------------------
# density coefficients
# ---------------------------------------------------------------------------

def test_density_coefficients_euclidean(euclid4):
    co = density_coefficients(euclid4.metric, np.zeros(4), [1.0, 0, 0, 0])
    assert max(abs(v) for v in co.values.values()) == 0.0


def test_density_coefficients_sphere_closed_form(sphere3):
    # Ttilde = sin^2(r)/r^2 = 1 - r^2/3 + 2 r^4/45 - r^6/315 + ...
    co = density_coefficients(sphere3.metric, np.zeros(3), [1.0, 0, 0])
    assert co[2] == pytest.approx(-1 / 3, abs=1e-12)
    assert co[3] == pytest.approx(0.0, abs=1e-12)
    assert co[4] == pytest.approx(2 / 45, abs=1e-12)
    assert co[5] == pytest.approx(0.0, abs=1e-12)
    assert co[6] == pytest.approx(-1 / 315, abs=1e-12)


def test_density_coefficients_sphere_vs_series_fit(sphere3):
    radii = geometric_radii(0.02, 0.3, 18)
    samples = [(r, np.sin(r) ** 2) for r in radii]
    fit = fit_radial_expansion(samples, 3, order=8)
    co = density_coefficients(sphere3.metric, np.zeros(3), [1.0, 0, 0])
    assert fit[2] == pytest.approx(co[2], abs=1e-6)
    assert fit[4] == pytest.approx(co[4], abs=1e-4)


def test_density_coefficients_fubini_study_closed_form(fs2):
    # sin^3(r) cos(r)/r^3 = 1 - r^2 + (2/5) r^4 - (17/189) r^6 + ...
    co = density_coefficients(fs2.metric, np.zeros(4), [1.0, 0, 0, 0])
    assert co[2] == pytest.approx(-1.0, abs=1e-11)
    assert co[4] == pytest.approx(0.4, abs=1e-11)
    assert co[6] == pytest.approx(-17 / 189, abs=1e-11)
    assert abs(co[3]) < 1e-12 and abs(co[5]) < 1e-12


def test_density_coefficients_vs_shot_density(fs2):
    theta = g_unit_directions(fs2.metric, np.zeros(4), 2)[1]
    co = density_coefficients(fs2.metric, np.zeros(4), theta)
    radii = geometric_radii(0.06, 0.42, 24)
    prof = density_profile(fs2.metric, np.zeros(4), theta[None, :], radii,
                           steps=700)
    fit = fit_radial_expansion(list(zip(radii, prof.theta[:, 0])), 4, order=12)
    for k in range(2, 7):
        assert fit[k] == pytest.approx(co[k], abs=1e-5)


def test_density_coefficients_off_pole_odd_orders():
    # about an off-pole center of the deformed sphere the density is not
    # radial and H3, H5 are genuinely nonzero: this exercises the grad R
    # and grad^3 R contractions against the shot-density fit
    from hml.conformal import deform_metric
    from hml.manifest import _sphere_height_psi
    ms = deform_metric(catalog.sphere(4).metric, _sphere_height_psi([1.0, 0.25]))
    P = np.array([0.5, 0.0, 0.0, 0.0])
    theta = g_unit_directions(ms, P, 4)[2]
    co = density_coefficients(ms, P, theta)
    assert abs(co[3]) > 0.1 and abs(co[5]) > 0.1
    radii = geometric_radii(0.05, 0.35, 24)
    prof = density_profile(ms, P, theta[None, :], radii, steps=700)
    fit = fit_radial_expansion(list(zip(radii, prof.theta[:, 0])), 4, order=12)
    for k, tol in ((2, 1e-9), (3, 1e-7), (4, 1e-6), (5, 1e-5), (6, 1e-4)):
        assert fit[k] == pytest.approx(co[k], abs=tol)


def test_space_form_direction_independence(rng):
    entry = catalog.space_form(0.6, 0.35, 4)
    bundle = curvature(entry.metric, np.zeros(4), k_max=4)
    g = bundle.g
    values = []
    for _ in range(6):
        xi = rng.normal(size=4)
        xi = xi / math.sqrt(xi @ g @ xi)
        co = density_coefficients(entry.metric, np.zeros(4), xi, bundle=bundle)
        assert abs(co[3]) < 1e-10 and abs(co[5]) < 1e-10
        values.append([co[2], co[4], co[6]])
    spread = np.max(np.abs(np.ptp(values, axis=0)))
    assert spread < 1e-10


def test_density_coefficient_homogeneity(fs2, rng):
    bundle = curvature(fs2.metric, np.zeros(4), k_max=4)
    xi = rng.normal(size=4)
    xi = xi / math.sqrt(xi @ bundle.g @ xi)
    base = density_coefficients(fs2.metric, np.zeros(4), xi, bundle=bundle)
    for c in (0.5, 2.0):
        scaled = density_coefficients(fs2.metric, np.zeros(4), c * xi,
                                      bundle=bundle)
        for k in range(2, 7):
            assert scaled[k] == pytest.approx(c ** k * base[k], rel=1e-12,
                                              abs=1e-13)


# ---------------------------------------------------------------------------
# leading coefficients (exact)
# ---------------------------------------------------------------------------

def test_leading_coefficient_table():
    assert leading_coefficient(2) == Fraction(-1, 6)
    assert leading_coefficient(3) == Fraction(-1, 12)
    assert leading_coefficient(4) == Fraction(-1, 40)
    assert leading_coefficient(5) == Fraction(-1, 180)
    assert leading_coefficient(6) == Fraction(-1, 1008)
    assert leading_coefficient(9) == Fraction(-8, 3628800)


def test_verify_leading_coefficient_n7():
    rep = verify_leading_coefficient(7, 1)
    assert rep.exact_pass
    assert rep.trace_coefficient == -56          # -n(n+1) b at r^(n-2)
    assert rep.f_series_ok and rep.finv_series_ok
    assert rep.frr_series_ok and rep.fr2_series_ok


def test_verify_leading_coefficient_n2_consistency():
    rep = verify_leading_coefficient(2, 1)
    assert rep.exact_pass
    assert rep.c_n == Fraction(-1, 6)


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_leading_coefficient_random_rationals(n, rng):
    for _ in range(3):
        b = Fraction(int(rng.integers(-12, 13)) or 5, int(rng.integers(1, 10)))
        rep = verify_leading_coefficient(n, b)
        assert rep.exact_pass
        assert rep.recovered_b == b
        assert rep.c_n == Fraction(-(n - 1), math.factorial(n + 1))


def test_verify_leading_coefficient_truncation_error():
    with pytest.raises(TruncationTooLow):
        verify_leading_coefficient(9, 1, order=8)
