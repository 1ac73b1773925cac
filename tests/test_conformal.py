"""Radial conformal deformations: reparametrization, density law, Ricci law,
space-form isometries, trivializing factor, blow-up diagnostics."""

import json
import math
import re

import numpy as np
import pytest

from hml import catalog, cli, conformal, jets
from hml.conformal import (AnalyticRadialFunction, PolynomialRadialFunction,
                           TrivializerRadialFunction,
                           completeness_and_blowup,
                           deform_metric, deformed_density,
                           deformed_radial_ricci,
                           _DensityRootPsiU, radial_sq_value, reparametrize)
from hml.curvature import curvature, sectional_curvature
from hml.geodesics import (DomainExitError, centrally_harmonic_test,
                           density_profile, g_unit_directions, shoot)
from hml.manifest import _sphere_height_psi, build_metric
from hml.metric import DomainError
from hml.series import TruncatedSeries

from oracles import (christoffels, conformal_factor_field, hessian,
                     ricci_conformal, space_form_isometry_check)

FAST = 300      # RK4 steps


# ---------------------------------------------------------------------------
# reparametrization
# ---------------------------------------------------------------------------

def test_reparametrize_identity():
    rep = reparametrize(PolynomialRadialFunction([1.0]), 2.0)
    rr = np.linspace(0, 2, 23)
    assert np.max(np.abs(rep.rc(rr) - rr)) < 1e-13


def test_reparametrize_arctan():
    rep = reparametrize(PolynomialRadialFunction([1.0, 1.0]), 3.0)
    rr = np.linspace(0, 3, 40)
    assert np.max(np.abs(rep.rc(rr) - np.arctan(rr))) < 1e-10
    probe = np.linspace(0.0, 3.0, 137)
    assert np.max(np.abs(rep.r(rep.rc(probe)) - probe)) < 1e-10


def test_reparametrize_atanh():
    rep = reparametrize(PolynomialRadialFunction([1.0, -1.0]), 0.95)
    rr = np.linspace(0, 0.95, 40)
    assert np.max(np.abs(rep.rc(rr) - np.arctanh(rr))) < 1e-10


def test_reparametrize_rejects_vanishing_psi():
    # psi = 1 - t vanishes at t = 1: the message names a grid interval
    # holding it
    with pytest.raises(ValueError, match="vanishes") as info:
        reparametrize(PolynomialRadialFunction([1.0, -1.0]), 1.5)
    lo, hi = map(float, re.search(r"t in \[(\S+), (\S+)\]",
                                  str(info.value)).groups())
    assert lo <= 1.0 <= hi and hi - lo < 2e-3


def test_reparametrize_refuses_nan_psi():
    # NaN passes the sign test; the rc(r) spline refuses non-finite data
    with pytest.raises(ValueError, match="finite"):
        reparametrize(PolynomialRadialFunction([1.0, math.nan]), 0.5)


# ---------------------------------------------------------------------------
# deformation
# ---------------------------------------------------------------------------

def test_deform_constant_homothety(euclid3, rng):
    ms = deform_metric(euclid3.metric, PolynomialRadialFunction([2.0]))
    b = curvature(ms, rng.uniform(-0.5, 0.5, 3), k_max=0)
    assert np.max(np.abs(b.riemann)) < 1e-14
    assert np.max(np.abs(b.g - np.eye(3) / 4.0)) < 1e-14


def test_deform_euclidean_to_round_sphere(euclid4, rng):
    ms = deform_metric(euclid4.metric, PolynomialRadialFunction([0.5, 0.5]))
    b = curvature(ms, rng.uniform(-0.4, 0.4, 4), k_max=0)
    u, v = rng.normal(size=4), rng.normal(size=4)
    assert sectional_curvature(b, u, v) == pytest.approx(1.0, abs=1e-10)


def test_deform_requires_radial_chart():
    fam = catalog.two_d_family(3, 0.1)
    with pytest.raises(ValueError, match="radial distance"):
        deform_metric(fam.metric, PolynomialRadialFunction([1.0, 1.0]))


def test_deformed_sphere_harmonic_at_pole(sphere4):
    ms = deform_metric(sphere4.metric, _sphere_height_psi([1.0, 0.25]))
    rep = centrally_harmonic_test(
        ms, np.zeros(4), n_directions=8, radii=np.geomspace(0.2, 0.8, 3),
        steps=FAST)
    assert rep.verdict
    assert rep.theta_spread_max < 1e-9


# ---------------------------------------------------------------------------
# density law
# ---------------------------------------------------------------------------

def test_deformed_density_identity(euclid3):
    psi = PolynomialRadialFunction([1.0])
    rc = np.linspace(0.1, 1.0, 7)
    out = deformed_density(lambda r: r ** 2, reparametrize(psi, 1.2), 3, rc)
    assert np.max(np.abs(out - rc ** 2)) < 1e-12


def test_deformed_density_euclid_to_sphere_formula():
    m = 4
    psi = PolynomialRadialFunction([0.5, 0.5])
    rep = reparametrize(psi, 8.0)
    rc = np.array([0.4, 0.9, 1.6, 2.2])
    out = deformed_density(lambda r: r ** (m - 1), rep, m, rc)
    assert np.max(np.abs(out - np.sin(rc) ** (m - 1))) < 1e-7


def test_deformed_density_matches_direct_shot(euclid4):
    # formula through the reparametrization vs shooting in the deformed chart
    m = 4
    psi = PolynomialRadialFunction([0.5, 0.5])
    ms = deform_metric(euclid4.metric, psi)
    rc = np.array([0.3, 0.7, 1.1])
    pred = deformed_density(lambda r: r ** (m - 1), reparametrize(psi, 4.0),
                            m, rc)
    theta = g_unit_directions(ms, np.zeros(4), 1)[0]
    prof = density_profile(ms, np.zeros(4), theta[None, :], rc,
                           steps=500)
    assert np.max(np.abs(pred - prof.theta[:, 0])) < 1e-5


# ---------------------------------------------------------------------------
# Ricci conformal change law
# ---------------------------------------------------------------------------

def test_ricci_conformal_constant_factor(fs2, rng):
    x = rng.uniform(-0.3, 0.3, 4)
    rho = ricci_conformal(fs2.metric, PolynomialRadialFunction([3.0]), x)
    base = curvature(fs2.metric, x, k_max=0).ricci
    assert np.max(np.abs(rho - base)) < 1e-10


def test_ricci_conformal_einstein_prediction(euclid4, rng):
    psi = PolynomialRadialFunction([0.5, 0.5])
    x = rng.uniform(-0.4, 0.4, 4)
    rho = ricci_conformal(euclid4.metric, psi, x)
    ms = deform_metric(euclid4.metric, psi)
    g_psi = ms.value(x)
    assert np.max(np.abs(rho - 3.0 * g_psi)) < 1e-10


@pytest.mark.parametrize("base,psi_coeffs", [
    ("euclid4", [1.0, 0.3, -0.05]),
    ("sphere3", [1.0, -0.2]),
    ("fs2", [1.0, 0.15, 0.02]),
])
def test_ricci_conformal_matches_direct(base, psi_coeffs, rng, request):
    entry = request.getfixturevalue(base)
    psi = PolynomialRadialFunction(psi_coeffs)
    ms = deform_metric(entry.metric, psi)
    for _ in range(4):
        x = rng.uniform(-0.35, 0.35, entry.dim)
        pred = ricci_conformal(entry.metric, psi, x)
        direct = curvature(ms, x, k_max=0).ricci
        assert np.max(np.abs(pred - direct)) < 1e-6


def test_hessian_radial_block_structure(sphere3):
    # Hess(psi(r^2)) at xi = (r,0,...,0) on a normal chart:
    # radial-radial entry 2 psi' + 4 r^2 psi'', angular block
    # 2 psi' delta_ab - 2 r psi' Gamma_ab^1
    psi = PolynomialRadialFunction([1.0, 0.2, 0.05])
    field = conformal_factor_field(sphere3.metric, psi)
    r = 0.6
    x = np.array([r, 0.0, 0.0])
    H = hessian(sphere3.metric, field, x)
    t = r * r
    p1 = 0.2 + 2 * 0.05 * t
    p2 = 2 * 0.05
    assert H[0, 0] == pytest.approx(2 * p1 + 4 * t * p2, rel=1e-10)
    Gam = christoffels(sphere3.metric, x)
    expected_ang = 2 * p1 * np.eye(2) - 2 * r * p1 * Gam[1:, 1:, 0]
    assert np.max(np.abs(H[1:, 1:] - expected_ang)) < 1e-10
    assert np.max(np.abs(H[0, 1:])) < 1e-10


# ---------------------------------------------------------------------------
# space-form isometries and the linear/nonlinear dichotomy
# ---------------------------------------------------------------------------

def test_isometry_inversion_flat_cases(rng):
    pts = rng.uniform(0.3, 1.2, size=(50, 3)) * rng.choice([-1, 1], size=(50, 3))
    rep = space_form_isometry_check(1.0, 0.0, pts)
    assert rep.max_dev_inversion < 1e-9


def test_isometry_round_and_scaling(rng):
    pts = rng.uniform(0.3, 1.2, size=(50, 4)) * rng.choice([-1, 1], size=(50, 4))
    rep = space_form_isometry_check(0.5, 0.5, pts, c=3.0)
    assert rep.max_dev_inversion < 1e-9
    assert rep.max_dev_scaling < 1e-9


def test_space_form_family_curvature_law(rng):
    for _ in range(5):
        a = float(rng.uniform(0.2, 1.5))
        b = float(rng.uniform(-0.6, 0.9))
        entry = catalog.space_form(a, b, 3)
        x = rng.uniform(-0.25, 0.25, 3)
        bundle = curvature(entry.metric, x, k_max=0)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert sectional_curvature(bundle, u, v) == pytest.approx(
            4 * a * b, abs=1e-7)


def test_nonlinear_psi_not_space_form(euclid3, rng):
    # psi = 1 + t^2: curvature varies across base points
    psi = AnalyticRadialFunction(lambda t: 1.0 + t * t, name="1+t^2")
    ms = deform_metric(euclid3.metric, psi)
    u, v = rng.normal(size=3), rng.normal(size=3)
    k1 = sectional_curvature(curvature(ms, np.array([0.2, 0, 0]), k_max=0), u, v)
    k2 = sectional_curvature(curvature(ms, np.array([0.8, 0, 0]), k_max=0), u, v)
    assert abs(k1 - k2) > 1e-3


def test_nonlinear_deformation_not_harmonic_off_center(euclid3):
    psi = AnalyticRadialFunction(lambda t: 1.0 + t * t, name="1+t^2")
    ms = deform_metric(euclid3.metric, psi)
    rep = centrally_harmonic_test(
        ms, np.array([0.45, 0.0, 0.0]),
        n_directions=8, radii=np.geomspace(0.35 / 4, 0.35, 3), steps=FAST)
    assert not rep.verdict and not rep.inconclusive
    assert rep.theta_spread_max > 1e-3


def test_theorem_style_deformed_base_harmonic(euclid3, fs2):
    # deforming a centrally harmonic base preserves harmonicity at P
    cases = [
        (euclid3.metric, PolynomialRadialFunction([1.0, 0.4, 0.1])),
        (fs2.metric, PolynomialRadialFunction([1.0, 0.25])),
    ]
    for base, psi in cases:
        ms = deform_metric(base, psi)
        rep = centrally_harmonic_test(
            ms, np.zeros(base.dim),
            n_directions=8, radii=np.geomspace(0.15, 0.6, 3), steps=FAST)
        assert rep.verdict
        assert rep.theta_spread_max < 1e-6


# ---------------------------------------------------------------------------
# trivializing factor
# ---------------------------------------------------------------------------

def test_trivializer_euclidean_is_identity():
    tri = TrivializerRadialFunction(lambda ts: 1.0 + 0.0 * ts, 3, t_max=1.5)
    ts = np.linspace(0, 1.4, 9)
    assert np.max(np.abs(tri(ts) - 1.0)) < 1e-12
    s = tri.series(0.5, 3)
    assert abs(s.coeffs[1]) < 1e-12 and abs(s.coeffs[2]) < 1e-12


def test_trivializer_sphere_density_flat(sphere3):
    # the whole point: deformed density becomes exactly rc^(m-1);
    # verified against a direct shot in the deformed chart
    m = 3
    tri = TrivializerRadialFunction(
        lambda ts: jets.powf(jets.sinc_sqrt(ts), m - 1), m, t_max=2.6)
    ms = deform_metric(sphere3.metric, tri)
    rep = reparametrize(tri, 1.5)
    rc = rep.rc(np.array([0.4, 0.8, 1.2]))
    theta = g_unit_directions(ms, np.zeros(3), 1)[0]
    prof = density_profile(ms, np.zeros(3), theta[None, :], rc,
                           steps=500)
    assert np.max(np.abs(prof.theta[:, 0] / rc ** (m - 1) - 1.0)) < 1e-5


def test_trivializer_differs_from_reduced_density_closures(sphere3):
    # neither Ttilde nor Ttilde^(1/(m-1)) trivializes the density; the
    # exact factor differs from both
    m = 3
    tri = TrivializerRadialFunction(
        lambda ts: jets.powf(jets.sinc_sqrt(ts), m - 1), m, t_max=2.3)
    t = 0.49
    r = math.sqrt(t)
    ttilde = (math.sin(r) / r) ** 2
    assert abs(float(tri(t)) - ttilde) > 1e-3
    assert abs(float(tri(t)) - ttilde ** 0.5) > 1e-3


def test_trivializer_mixed_batch_series(sphere3):
    # batched series evaluation straddling the near-zero branch agrees
    # with the per-point scalar path
    m = 3
    tri = TrivializerRadialFunction(
        lambda ts: jets.powf(jets.sinc_sqrt(ts), m - 1), m, t_max=2.0)
    t0 = np.array([1e-6, 0.3, 1e-5, 0.9])
    batch = tri.series(t0, 2)
    for i, t in enumerate(t0):
        single = tri.series(float(t), 2)
        for k in range(3):
            assert np.asarray(batch.coeffs[k])[i] == pytest.approx(
                float(np.asarray(single.coeffs[k])), rel=1e-10, abs=1e-14)


def test_radial_function_derivatives_vs_fd():
    psi = AnalyticRadialFunction(
        lambda t: jets.exp(t * 0.3) * (1.0 + t), name="probe")
    t0, h = 0.7, 1e-6
    fd = (psi(t0 + h) - psi(t0 - h)) / (2 * h)
    assert psi.series(t0, 1).coeffs[1] == pytest.approx(fd, rel=1e-8)
    d2_fd = (psi(t0 + h) - 2 * psi(t0) + psi(t0 - h)) / h ** 2
    assert 2 * psi.series(t0, 2).coeffs[2] == pytest.approx(d2_fd, rel=1e-3)


# ---------------------------------------------------------------------------
# the deformed domain and psi's series at one point
# ---------------------------------------------------------------------------

def _zero_at_two(euclid3):
    """psi(t) = 1 - t/4 vanishes at |x| = 2, inside the flat chart."""
    psi = PolynomialRadialFunction([1.0, -0.25])
    return psi, deform_metric(euclid3.metric, psi)


def test_deformed_domain_where_psi_vanishes(euclid3):
    # the formula tests psi > 0 itself; contains keeps the full predicate,
    # and both refuse the same points, one by one and in a batch
    psi, metric = _zero_at_two(euclid3)
    r = np.linspace(1.9, 2.1, 41)
    pts = np.stack([r, 0.3 * r, 0.0 * r], axis=-1) / math.sqrt(1.09)
    full = (euclid3.metric.contains(pts)
            & (np.asarray(psi(radial_sq_value(euclid3.metric, pts))) > 0))
    assert 0 < full.sum() < len(full)
    assert np.array_equal(metric.contains(pts), full)
    message = "^point outside domain of euclidean_psi$"
    for p, inside in zip(pts, full):
        for evaluate in (metric.value, lambda x: metric.component_jets(x, 2)):
            if inside:
                evaluate(p)
            else:
                with pytest.raises(DomainError, match=message):
                    evaluate(p)
    metric.value(pts[full])
    with pytest.raises(DomainError, match=message):
        metric.value(pts)


@pytest.mark.parametrize("steps,r,last_r", [(4, 8.0, 2.0), (3, 9.0, 0.0)])
def test_deformed_domain_exit_radius(euclid3, steps, r, last_r):
    # the flat geodesic creeps towards |x| = 2 (psi's zero, at infinite
    # deformed distance), and coarse RK4 stages overshoot it
    _, metric = _zero_at_two(euclid3)
    with pytest.raises(DomainExitError) as exc:
        shoot(metric, np.zeros(3), [1.0, 0.0, 0.0], r, steps=steps)
    assert exc.value.last_r == last_r


def _array_seed(t0, order: int) -> TruncatedSeries:
    """The series seed with t0 kept as a 0-d array, as arrays take it."""
    t0 = np.asarray(t0, dtype=float)
    if order == 0:
        return TruncatedSeries([t0 + 0.0])
    return TruncatedSeries.variable(order, at=t0)


_FLOAT_PATH_PSIS = {
    "poly": PolynomialRadialFunction([1.0, -0.25, 0.0, 0.125]),
    "poly_zero_at_4": PolynomialRadialFunction([1.0, -0.25]),
    "poly_vanishing_at_0": PolynomialRadialFunction([0.0, 1.0, -2.0]),
    "height": _sphere_height_psi([1.0, 0.25]),
    "height_zero_at_pole": _sphere_height_psi([0.0, -1.0]),
    # t0 as the left factor of a product: at t0 = -0.0 a float would be
    # skipped as a zero and flip the sign of the constant term
    "square": AnalyticRadialFunction(lambda t: t * t, name="square"),
}


@pytest.mark.parametrize("name", [*_FLOAT_PATH_PSIS, "trivializer"])
def test_psi_series_on_floats_bit_for_bit(name, monkeypatch):
    # one point runs psi's series on Python floats: every coefficient,
    # zero signs included, has the bytes of the 0-d array path
    psi = (_FLOAT_PATH_PSIS[name] if name != "trivializer" else build_metric(
        {"family": "sphere", "dim": 3,
         "deform": {"psi": {"kind": "trivial-density"}}}).psi)
    rng = np.random.default_rng(5)
    ts = [0.0, -0.0, 5e-324, 5e-5, 0.25, 1.0, 4.0, math.pi ** 2 / 4,
          *rng.uniform(0.0, 6.0, 12)]
    got = [(t, k, psi.series(np.float64(t), k)) for t in ts for k in range(5)]
    monkeypatch.setattr(conformal, "_seed_series", _array_seed)
    for t, k, series in got:
        want = psi.series(np.float64(t), k)
        assert len(series.coeffs) == len(want.coeffs) == k + 1
        for c, w in zip(series.coeffs, want.coeffs):
            assert np.float64(c).tobytes() == np.float64(w).tobytes(), (t, k)
        if name != "trivializer" and t != 0:
            assert all(type(c) is float for c in series.coeffs)


# ---------------------------------------------------------------------------
# blow-up diagnostics
# ---------------------------------------------------------------------------

def test_radial_ricci_formula_cross_checked_against_chart(fs2):
    # the 1D reduction evaluated at a moderate u must agree with the full
    # coordinate computation of Ricci for the deformed chart metric
    m = 4
    q = 1.0 / (m - 1)
    psi_chart = AnalyticRadialFunction(
        lambda ts: jets.powf(
            jets.powf(jets.sinc_sqrt(ts), m - 1) * jets.cos_sqrt(ts), q),
        name="density_root")
    ms = deform_metric(fs2.metric, psi_chart)
    u0 = 0.35
    r0 = math.pi / 2 - u0
    s_chart = math.tan(r0)
    x = np.array([s_chart, 0.0, 0.0, 0.0])
    bundle = curvature(ms, x, k_max=0)
    # rho(psi d_u, psi d_u): d_u = -d_r; the g-unit radial vector in chart
    # coordinates is (1 + s^2) d_s for the projective base
    X_chart = -(1 + s_chart ** 2) * float(psi_chart(r0 ** 2)) * np.array(
        [1.0, 0, 0, 0])
    direct = float(X_chart @ bundle.ricci @ X_chart)
    psi_u = _DensityRootPsiU(m)
    oned = deformed_radial_ricci(psi_u, u0)
    assert direct == pytest.approx(oned, rel=1e-8)


@pytest.mark.parametrize("m,p_expect", [(4, 4 / 3), (6, 8 / 5), (8, 12 / 7)])
def test_blowup_exponents_and_finiteness(m, p_expect):
    rep = completeness_and_blowup(m, variant="density-root")
    assert rep.exponent == pytest.approx(p_expect, abs=0.01)
    assert rep.length_finite
    assert rep.psi_exponent == pytest.approx(1.0 / (m - 1), abs=1e-3)
    assert rep.psi_scale == pytest.approx(2.0 / math.pi, rel=1e-3)
    assert rep.coefficient < 0
    assert 0 < rep.length < 10


def test_blowup_density_root_coefficient_matches_true_value():
    # the honest Ricci of the density-root deformation: the leading
    # constant is -4(m-2)/((m-1) pi^2) and the exponent 2(m-2)/(m-1)
    # exactly; the fit's next-order term keeps both well inside these bounds
    for m in (4, 6, 8):
        rep = completeness_and_blowup(m, variant="density-root")
        true_c = -4.0 * (m - 2) / ((m - 1) * math.pi ** 2)
        assert rep.coefficient == pytest.approx(true_c, rel=1e-3)
        assert rep.exponent == pytest.approx(2.0 * (m - 2) / (m - 1), abs=1e-3)


@pytest.mark.parametrize("m,c_pi2,p", [(4, (-8, 3), (4, 3)),
                                       (6, (-16, 5), (8, 5)),
                                       (8, (-24, 7), (12, 7))])
def test_blowup_leading_term_symbolic(m, c_pi2, p):
    # exact leading term of the radial conformal-change law (the docstring
    # of deformed_radial_ricci) from the u-series of the density-root psi
    # and the projective Theta; independent of hml's jets and fit
    sp = pytest.importorskip("sympy")
    u = sp.symbols("u", positive=True)
    q = sp.Rational(1, m - 1)
    psi = sp.series(sp.cos(u) / (sp.pi / 2 - u) * sp.sin(u) ** q,
                    u, 0, 4).removeO()
    theta = sp.series(sp.cos(u) ** (m - 1) * sp.sin(u), u, 0, 4).removeO()
    dpsi = sp.diff(psi, u)
    rho = ((m + 2) * psi ** 2 + (m - 2) * psi * sp.diff(dpsi, u)
           + psi * sp.diff(theta * dpsi, u) / theta - (m - 1) * dpsi ** 2)
    lead = sp.series(rho, u, 0, 0).removeO().as_leading_term(u)
    c, e = lead.as_coeff_exponent(u)
    c = sp.simplify(c * sp.pi ** 2)
    assert c == sp.Rational(*c_pi2) == sp.Rational(-4 * (m - 2), m - 1)
    assert -e == sp.Rational(*p) == sp.Rational(2 * (m - 2), m - 1)
    # the constant of a Laplacian term that has lost a derivative
    a2 = 4  # a = 2/pi, over pi^2
    assert c != -a2 * q * (q + m - 2)


def test_blowup_trivializer_variant_consistent():
    rep = completeness_and_blowup(4, variant="trivializer")
    assert rep.exponent == pytest.approx(4 / 3, abs=0.05)
    assert rep.length_finite
    # exact trivializer scale: a = (2/pi) / V0 with V0 > 1
    assert 0 < rep.psi_scale < 2.0 / math.pi


def test_blowup_rejects_bad_dimension():
    with pytest.raises(ValueError):
        completeness_and_blowup(5, "trivializer")


# ---------------------------------------------------------------------------
# the deform command on trivial-density charts
# ---------------------------------------------------------------------------

def _deform(tmp_path, capsys, metric: dict) -> tuple:
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"metric": metric, "analysis": {
        "command": "deform", "steps": 200}}))
    code = cli.main(["--manifest", str(mpath), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("r_max", [0.3, 1e-9])
def test_deform_refuses_radius_past_trivializer_table(tmp_path, capsys, r_max):
    # the default radii reach r = 0.75 * 1.05 = 0.7875: past the table of
    # log V on [0, r_max^2], where the spline would extrapolate
    code, err = _deform(tmp_path, capsys, {"family": "sphere", "dim": 3,
                                           "deform": {"psi": {
                                               "kind": "trivial-density",
                                               "r_max": r_max}}})
    assert code == 3
    assert err == (f"error: trivializer is tabulated for r in [0, {r_max:.6g}]; "
                   "asked for r = 0.7875\n")


def test_deform_trivial_density_cp1_reports_no_blowup(tmp_path, capsys):
    # the blow-up diagnostics support m in {4, 6, 8}; CP^1 has m = 2
    code, err = _deform(tmp_path, capsys, {"family": "fubini_study", "cdim": 1,
                                           "deform": {"psi": {
                                               "kind": "trivial-density"}}})
    assert code == 0, err
    rep = json.loads((tmp_path / "o" / "deform.json").read_text())
    assert "blowup" not in rep
    assert rep["density_law"]["max_abs_error"] < 1e-10
