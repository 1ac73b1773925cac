"""Acceptance criteria: one test (or sub-test) per criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8's coefficient sub-check compares the fitted near-cut-locus Ricci
constant of the trivial-density deformation of projective space with the
closed form -4(m-2)/((m-1) pi^2), the leading term of the radial
conformal-change law for psi ~ (2/pi) u^(1/(m-1)), Theta ~ u.  The sympy
oracle in ``tests/test_conformal.py`` derives the same constant exactly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hml import catalog, jets
from hml.conformal import (PolynomialRadialFunction, TrivializerRadialFunction,
                           completeness_and_blowup, deform_metric,
                           deformed_density, reparametrize, ricci_conformal,
                           space_form_isometry_check)
from hml.curvature import christoffels, curvature, curvature_arrays, hessian
from hml.expansion import (density_coefficients, leading_coefficient,
                           verify_leading_coefficient)
from hml.geodesics import (centrally_harmonic_test, density_profile,
                           eigen_spread, g_unit_directions, radial_harmonic,
                           reduced_jacobi_at, second_fundamental_form, shoot)
from hml.manifest import _sphere_height_psi
from hml.series import fit_radial_expansion, geometric_radii

RESULTS = []


def record(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. exact leading-coefficient law, n = 2..12
# ---------------------------------------------------------------------------

def test_01_leading_coefficients_exact():
    t0 = time.time()
    paper_values = {2: Fraction(-1, 6), 3: Fraction(-1, 12),
                    4: Fraction(-1, 40), 5: Fraction(-1, 180),
                    6: Fraction(-1, 1008)}
    bs = [Fraction(1), Fraction(1, 10), Fraction(-3, 7)]
    ok = True
    for n in range(2, 13):
        if n in paper_values:
            ok &= leading_coefficient(n) == paper_values[n]
        for b in bs:
            rep = verify_leading_coefficient(n, b)
            ok &= rep.exact_pass and rep.recovered_b == b
    elapsed = time.time() - t0
    record(1, ok and elapsed < 5.0,
           f"c_n = -(n-1)/(n+1)! exact for n=2..12, 3 rationals each "
           f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. trace-polynomial coefficients vs ODE-fitted densities
# ---------------------------------------------------------------------------

def test_02_expansion_vs_ode_oracle():
    t0 = time.time()
    cases = [
        catalog.euclidean(4),
        catalog.space_form(0.5, 0.5, 4),
        catalog.space_form(0.5, -0.5, 4),
        catalog.fubini_study(2),
    ]
    worst = 0.0
    for entry in cases:
        P = np.zeros(4)
        theta = g_unit_directions(entry.metric, P, 2)[1]
        co = density_coefficients(entry.metric, P, theta)
        iota = entry.metric.injectivity_radius or math.inf
        r_hi = min(0.42, iota / 4)          # stay within iota/4
        radii = geometric_radii(r_hi / 7, r_hi, 24)
        prof = density_profile(entry.metric, P, theta[None, :], radii,
                               steps=700)
        fit = fit_radial_expansion(list(zip(radii, prof.theta[:, 0])), 4,
                                   order=12)
        diff = max(abs(fit[k] - co[k]) for k in range(2, 7))
        worst = max(worst, diff)
    elapsed = time.time() - t0
    record(2, worst <= 1e-5 and elapsed < 120,
           f"H2..H6 analytic vs fitted, 4 metrics, max |diff| = {worst:.2e} "
           f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. constant sectional curvature 4ab
# ---------------------------------------------------------------------------

def test_03_space_form_curvature_law():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.3, 1.5))
        b = float(rng.uniform(-0.8, 1.0))
        entry = catalog.space_form(a, b, 4)
        pts = rng.uniform(-0.35, 0.35, size=(50, 4))
        _, _, _, R = curvature_arrays(entry.metric, pts)
        g = entry.metric.value(pts)
        for i in range(50):
            u, v = rng.normal(size=4), rng.normal(size=4)
            num = np.einsum('ijkl,i,j,k,l->', R[i], u, v, v, u)
            den = ((u @ g[i] @ u) * (v @ g[i] @ v) - (u @ g[i] @ v) ** 2)
            worst = max(worst, abs(num / den - 4 * a * b))
    elapsed = time.time() - t0
    record(3, worst <= 1e-7 and elapsed < 30,
           f"kappa = 4ab at 50 (point, plane) x 10 (a,b), max err = "
           f"{worst:.2e} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. inversion and scaling isometries
# ---------------------------------------------------------------------------

def test_04_isometries():
    t0 = time.time()
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.3, 1.3, size=(50, 4)) * rng.choice([-1, 1], (50, 4))
    worst = 0.0
    for a, b in [(1.0, 0.0), (0.5, 0.5), (0.8, 0.3)]:
        rep = space_form_isometry_check(a, b, pts, c=3.0)
        worst = max(worst, rep.max_dev())
    elapsed = time.time() - t0
    record(4, worst <= 1e-9 and elapsed < 10,
           f"inversion/scaling pullbacks at 50 points, max dev = {worst:.2e} "
           f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Ricci conformal-change law vs direct computation
# ---------------------------------------------------------------------------

def test_05_ricci_conformal_oracle():
    t0 = time.time()
    rng = np.random.default_rng(5)
    pairs = [
        (catalog.euclidean(4), PolynomialRadialFunction([0.5, 0.5])),
        (catalog.sphere(3), PolynomialRadialFunction([1.0, -0.15, 0.03])),
        (catalog.fubini_study(2), PolynomialRadialFunction([1.0, 0.2])),
    ]
    worst = 0.0
    for entry, psi in pairs:
        deformed = deform_metric(entry.metric, psi)
        for _ in range(20):
            x = rng.uniform(-0.35, 0.35, entry.dim)
            pred = ricci_conformal(entry.metric, psi, x)
            direct = curvature(deformed, x, k_max=0).ricci
            worst = max(worst, float(np.max(np.abs(pred - direct))))
    # Hessian structure at xi = (r, 0, ..., 0): radial entry
    # 2 psi' + 4 r^2 psi'', angular block 2 psi'(delta - r Gamma^1)
    from hml.conformal import conformal_factor_field
    entry = catalog.sphere(3)
    psi = PolynomialRadialFunction([1.0, 0.3, -0.04])
    r = 0.7
    x = np.array([r, 0.0, 0.0])
    H = hessian(entry.metric, conformal_factor_field(entry.metric, psi), x)
    t = r * r
    p1, p2 = 0.3 - 0.08 * t, -0.08
    Gam = christoffels(entry.metric, x)
    expected = np.zeros((3, 3))
    expected[0, 0] = 2 * p1 + 4 * t * p2
    expected[1:, 1:] = 2 * p1 * np.eye(2) - 2 * r * p1 * Gam[1:, 1:, 0]
    hess_err = float(np.max(np.abs(H - expected)))
    elapsed = time.time() - t0
    record(5, worst <= 1e-6 and hess_err <= 1e-10 and elapsed < 60,
           f"conformal Ricci law vs direct at 3x20 points, max dev = "
           f"{worst:.2e}; radial Hessian structure dev = {hess_err:.1e} "
           f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. deformed sphere: harmonic at both poles, at no sampled other point
# ---------------------------------------------------------------------------

def _pole_chart(sign):
    """Round-sphere normal chart about the north (+1) or south (-1) pole.

    The two charts carry identical component formulas because the height
    factor depends only on cos^2(r); both are constructed explicitly so
    each pole is tested as the center of its own chart.
    """
    sp = catalog.sphere(4).metric
    psi = _sphere_height_psi([1.0, 0.25])    # poly in (sign * cos r)^2
    return deform_metric(sp, psi)


def test_06_deformed_sphere_harmonicity():
    t0 = time.time()
    cfg = dict(n_directions=10, radii=np.geomspace(0.2, 0.8, 4), steps=350)
    pole_spreads = []
    for sign in (+1, -1):
        metric = _pole_chart(sign)
        rep = centrally_harmonic_test(metric, np.zeros(4), **cfg)
        pole_spreads.append(max(rep.theta_spread_max, rep.xi_spread_max))
        assert rep.verdict
    metric = _pole_chart(+1)
    off_spreads = []
    offsets = [0.3, 0.6, 1.0, math.pi / 2, 2.2]
    axes = [0, 1, 2, 3, 0]
    for dist, ax in zip(offsets, axes):
        P = np.zeros(4)
        P[ax] = dist
        rep = centrally_harmonic_test(
            metric, P, n_directions=10, radii=np.geomspace(0.15, 0.6, 4),
            steps=350)
        assert not rep.verdict and not rep.inconclusive
        off_spreads.append(rep.theta_spread_max)
    elapsed = time.time() - t0
    ok = (max(pole_spreads) <= 1e-6 and min(off_spreads) >= 1e-3
          and elapsed < 180)
    record(6, ok,
           f"pole spreads <= {max(pole_spreads):.1e}, off-pole spreads >= "
           f"{min(off_spreads):.1e} at 5 points ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. deformation density law end-to-end
# ---------------------------------------------------------------------------

def test_07_density_law_end_to_end():
    t0 = time.time()
    # Euclidean -> round sphere
    m = 4
    psi = PolynomialRadialFunction([0.5, 0.5])
    euc = catalog.euclidean(m)
    deformed = deform_metric(euc.metric, psi)
    rc = np.array([0.3, 0.7, 1.1, 1.5])
    pred = deformed_density(lambda r: r ** (m - 1), psi, m, rc, 6.0)
    theta = g_unit_directions(deformed, np.zeros(m), 1)[0]
    prof = density_profile(deformed, np.zeros(m), theta[None, :], rc,
                           steps=600)
    err_sphere = float(np.max(np.abs(pred - prof.theta[:, 0])))
    err_closed = float(np.max(np.abs(pred - np.sin(rc) ** (m - 1))))

    # projective trivial-density case: deformed density == rc^(m-1)
    fs = catalog.fubini_study(2)
    tri = TrivializerRadialFunction(
        lambda ts: jets.powf(jets.sinc_sqrt(ts), 3) * jets.cos_sqrt(ts),
        4, t_max=1.9)
    deformed_fs = deform_metric(fs.metric, tri)
    rep = reparametrize(tri, 1.2)
    rc_fs = rep.rc(np.array([0.35, 0.7, 1.0, 1.2]))
    pred_fs = deformed_density(fs.closed_form_density, tri, 4, rc_fs, 1.25,
                               rep=rep)
    theta_fs = g_unit_directions(deformed_fs, np.zeros(4), 1)[0]
    prof_fs = density_profile(deformed_fs, np.zeros(4), theta_fs[None, :],
                              rc_fs, steps=600)
    err_fs = float(np.max(np.abs(pred_fs - prof_fs.theta[:, 0])))
    err_trivial = float(np.max(np.abs(prof_fs.theta[:, 0]
                                      / rc_fs ** 3 - 1.0)))
    elapsed = time.time() - t0
    ok = max(err_sphere, err_fs) <= 1e-5 and elapsed < 120
    record(7, ok,
           f"density law vs shooting: euclid->sphere {err_sphere:.1e} "
           f"(closed form {err_closed:.1e}), projective trivializer "
           f"{err_fs:.1e} (|Ttilde-1| = {err_trivial:.1e}) ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. blow-up diagnostics near the cut locus
# ---------------------------------------------------------------------------

# (exponent p, coefficient c) of rho ~ c u^-p: p = 2(m-2)/(m-1) and
# c = -4(m-2)/((m-1) pi^2)
PINNED_BLOWUP = {4: (4 / 3, -24 / (9 * math.pi ** 2)),
                 6: (8 / 5, -80 / (25 * math.pi ** 2)),
                 8: (12 / 7, -168 / (49 * math.pi ** 2))}


@pytest.mark.parametrize("m", [4, 6, 8])
def test_08a_blowup_exponent_and_finiteness(m):
    t0 = time.time()
    rep = completeness_and_blowup(m, variant="density-root")
    p_expect, _ = PINNED_BLOWUP[m]
    ok = (abs(rep.exponent - p_expect) <= 0.05 and rep.length_finite
          and time.time() - t0 < 300)
    record(f"8a(m={m})", ok,
           f"exponent {rep.exponent:.4f} (target {p_expect:.4f}), length "
           f"{rep.length:.4f} finite={rep.length_finite}")


@pytest.mark.parametrize("m", [4, 6, 8])
def test_08b_blowup_coefficient(m):
    rep = completeness_and_blowup(m, variant="density-root")
    _, c_ref = PINNED_BLOWUP[m]
    rel = abs(rep.coefficient - c_ref) / abs(c_ref)
    detail = (f"coefficient {rep.coefficient:.6f} vs closed form "
              f"-4(m-2)/((m-1)pi^2) = {c_ref:.6f} (rel dev {rel:.2%}, "
              f"bound 1%)")
    record(f"8b(m={m})", rel <= 0.01, detail)


# ---------------------------------------------------------------------------
# 9. umbilicity battery
# ---------------------------------------------------------------------------

def test_09_umbilicity():
    t0 = time.time()
    # space forms: totally umbilic geodesic spheres
    worst_sf = 0.0
    for entry in (catalog.sphere(3), catalog.space_form(0.5, -0.5, 3),
                  catalog.euclidean(4)):
        P = np.zeros(entry.dim)
        dirs = g_unit_directions(entry.metric, P, 4)
        radii = [0.25, 0.5, 0.75]
        prof = density_profile(entry.metric, P, dirs, radii,
                               steps=350)
        worst_sf = max(worst_sf, float(np.nanmax(prof.umbilicity)))
    # projective plane: defect bounded away from zero, s_P = 3
    fs = catalog.fubini_study(2)
    s_p, _ = eigen_spread(fs.metric, np.zeros(4), 48)
    min_defect = math.inf
    for theta in g_unit_directions(fs.metric, np.zeros(4), 5):
        for r in (0.05, 0.1, 0.2):
            s = second_fundamental_form(fs.metric, np.zeros(4), theta, r,
                                        steps=200)
            min_defect = min(min_defect, s.umbilicity_defect)
    # small-radius expansion of the shape operator
    theta = np.array([1.0, 0, 0, 0])
    Rt = reduced_jacobi_at(fs.metric, np.zeros(4), theta)
    radii = [0.02, 0.03, 0.045, 0.06]
    resid = []
    for r in radii:
        s = second_fundamental_form(fs.metric, np.zeros(4), theta, r,
                                    steps=200)
        resid.append((s.L - np.eye(3) / r).ravel())
    A = np.stack([np.asarray(radii), np.ones(4)], axis=1)
    lin = np.linalg.lstsq(A, np.stack(resid), rcond=None)[0][0].reshape(3, 3)
    sigma_rel = float(np.max(np.abs(lin - (-Rt / 3))) / np.max(np.abs(Rt / 3)))
    elapsed = time.time() - t0
    ok = (worst_sf <= 1e-7 and min_defect >= 1e-3
          and abs(s_p - 3.0) <= 1e-4 and sigma_rel <= 0.02 and elapsed < 120)
    record(9, ok,
           f"space-form defect <= {worst_sf:.1e}; projective defect >= "
           f"{min_defect:.1e}, s_P = {s_p:.6f}; sigma linear term rel dev "
           f"{sigma_rel:.1%} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 10. property suites
# ---------------------------------------------------------------------------

def test_10_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(10)
    # curvature symmetries + first Bianchi at random points
    worst_sym = 0.0
    for entry in (catalog.sphere(4), catalog.space_form(0.7, 0.2, 3),
                  catalog.fubini_study(2)):
        pts = rng.uniform(-0.3, 0.3, size=(30, entry.dim))
        _, _, _, R = curvature_arrays(entry.metric, pts)
        scale = max(float(np.max(np.abs(R))), 1.0)
        worst_sym = max(
            worst_sym,
            float(np.max(np.abs(R + np.einsum('...jikl->...ijkl', R)))) / scale,
            float(np.max(np.abs(R - np.einsum('...klij->...ijkl', R)))) / scale,
            float(np.max(np.abs(R + np.einsum('...iklj->...ijkl', R)
                                + np.einsum('...iljk->...ijkl', R)))) / scale)
    # energy conservation
    fs = catalog.fubini_study(2)
    theta = g_unit_directions(fs.metric, np.zeros(4), 1)[0]
    energy = shoot(fs.metric, np.zeros(4), theta, 1.2,
                   steps=500).energy_error
    # integrator order on the round sphere
    sp = catalog.sphere(3)
    exact = math.sin(0.9) ** 2
    errs = [abs(shoot(sp.metric, np.zeros(3), [1.0, 0, 0], 0.9,
                      steps=s).theta - exact)
            for s in (40, 80)]
    order_ratio = errs[0] / errs[1]
    # radial harmonic profiles up to affine equivalence
    radii = np.geomspace(0.2, 1.8, 400)
    f3, _ = radial_harmonic(radii, radii ** 2)
    err3 = float(np.max(np.abs(f3 - (-1 / radii + 1 / radii[0]))))
    f2, _ = radial_harmonic(radii, radii)
    err2 = float(np.max(np.abs(f2 - np.log(radii / radii[0]))))
    elapsed = time.time() - t0
    ok = (worst_sym <= 1e-9 and energy <= 1e-9 and order_ratio >= 14
          and max(err2, err3) <= 1e-7 and elapsed < 120)
    record(10, ok,
           f"symmetries {worst_sym:.1e}; energy {energy:.1e}; RK4 ratio "
           f"{order_ratio:.0f}; radial-harmonic errs {err3:.1e}/{err2:.1e} "
           f"({elapsed:.1f}s)")


def test_zzz_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
