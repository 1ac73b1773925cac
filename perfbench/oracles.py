"""Independent references for every analysis the benchmark runs.

Nothing here imports hml.  The density-expansion references are exact
rational Taylor coefficients of closed-form reduced densities, the chart
metrics are written out by hand, and the deformed-sphere density comes from
the conformal volume law evaluated with scipy quadrature.  Each ``check_*``
function returns ``(problems, stats)``: an empty problem list means the
output matched its reference, and ``stats`` carries the measured errors.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

# Acceptance-test bounds (tests/test_acceptance.py uses the same figures).
FIT_TOL = 1e-5          # expand: fitted vs analytic H_k; deform: density law
SPREAD_MIN = 1e-3       # an off-pole center must be visibly non-harmonic
THETA_TOL = 1e-6        # |Theta - closed form| on fubini_study(2)
H_TOL = 1e-8            # analytic H_k against exact rationals
CURV_TOL = 1e-6         # scalar curvature, sectional extremes, Einstein defect

H_ORDERS = range(2, 7)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _mul(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def reduced_density_coefficients(family: str, m: int) -> dict:
    """H_2..H_6 at any unit direction, as exact Taylor coefficients.

    Spheres and Fubini-Study spaces are two-point homogeneous, so the
    reduced density about every point is (sin r / r)^(m-1) for the sphere
    and (sin r / r)^(m-1) cos r for Fubini-Study (sectional curvature in
    [1, 4]); H_k is its r^k coefficient.
    """
    n = max(H_ORDERS)
    sinc = [Fraction((-1) ** (k // 2), math.factorial(k + 1)) if k % 2 == 0
            else Fraction(0) for k in range(n + 1)]
    cos = [Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0
           else Fraction(0) for k in range(n + 1)]
    f = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(m - 1):
        f = _mul(f, sinc, n)
    if family == "fubini_study":
        f = _mul(f, cos, n)
    elif family != "sphere":
        raise ValueError(f"no closed-form density for {family!r}")
    return {k: float(f[k]) for k in H_ORDERS}


def chart_metric(family: str, x) -> np.ndarray:
    """The catalog chart metrics at x, written out directly."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    t = float(x @ x)
    if family == "fubini_study":
        jx = np.empty_like(x)
        jx[0::2], jx[1::2] = -x[1::2], x[0::2]
        return ((1 + t) * np.eye(m) - np.outer(x, x) - np.outer(jx, jx)) \
            / (1 + t) ** 2
    if family == "sphere":
        if t == 0.0:
            return np.eye(m)
        r = math.sqrt(t)
        xh = x / r
        radial = np.outer(xh, xh)
        return radial + (math.sin(r) / r) ** 2 * (np.eye(m) - radial)
    raise ValueError(f"no closed-form chart metric for {family!r}")


def g_unit(family: str, x, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(v @ chart_metric(family, x) @ v)


def fs_theta(r, m: int):
    """Volume density of Fubini-Study about any point."""
    r = np.asarray(r, dtype=float)
    return np.sin(r) ** (m - 1) * np.cos(r)


def sphere_height_psi(coeffs, r):
    """Poly deformation factor of the sphere chart: sum c_k cos(r)^(2k)."""
    c2 = np.cos(r) ** 2
    return sum(c * c2 ** k for k, c in enumerate(coeffs))


def deformed_sphere_theta(coeffs, m: int, rc: float) -> float:
    """Density of psi^-2 g_sphere at deformed radius rc about the pole.

    rc(r) = int_0^r ds / psi(s) and Theta_c(rc) = psi(r)^(1-m) sin(r)^(m-1).
    """
    def rc_of(r):
        return quad(lambda s: 1.0 / sphere_height_psi(coeffs, s), 0.0, r,
                    epsabs=1e-14, epsrel=1e-13)[0]

    hi = 0.1
    while rc_of(hi) < rc:
        hi *= 2.0
    r = brentq(lambda s: rc_of(s) - rc, 0.0, hi, xtol=1e-15, rtol=1e-15)
    return float(sphere_height_psi(coeffs, r) ** (1 - m) * math.sin(r) ** (m - 1))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_json(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _read_density_csv(outdir: str) -> np.ndarray:
    with open(os.path.join(outdir, "density.csv")) as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return np.array(rows, dtype=float)


def _exit(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_fs_curvature(code: int, outdir: str) -> tuple:
    problems = _exit(code, 0)
    if problems:
        return problems, {}
    rep = _read_json(outdir, "curvature.json")
    want = {"scalar_curvature": 24.0, "kappa_min": 1.0, "kappa_max": 4.0,
            "einstein_defect": 0.0}
    for key, ref in want.items():
        if not abs(rep[key] - ref) <= CURV_TOL:
            problems.append(f"{key} = {rep[key]!r}, expected {ref}")
    return problems, {}


def check_fs_harmonic(code: int, outdir: str, m: int, n_directions: int) -> tuple:
    """Harmonic verdict, and every shot Theta against sin^(m-1) r cos r."""
    problems = _exit(code, 0)
    if problems:
        return problems, {}
    rep = _read_json(outdir, "harmonicity.json")
    if rep["verdict"] is not True or rep["inconclusive"] is not False:
        problems.append(f"verdict {rep['verdict']}, inconclusive "
                        f"{rep['inconclusive']}; expected harmonic")
    table = _read_density_csv(outdir)
    if table.shape != (n_directions * len(rep["radii"]), 5):
        problems.append(f"density.csv has shape {table.shape}")
        return problems, {}
    err = float(np.max(np.abs(table[:, 2] - fs_theta(table[:, 0], m))))
    if not err <= THETA_TOL:
        problems.append(f"|Theta - closed form| = {err:.3e} > {THETA_TOL:g}")
    return problems, {"theta_abs_err": err}


def check_not_harmonic(code: int, outdir: str) -> tuple:
    problems = _exit(code, 1)
    if problems:
        return problems, {}
    rep = _read_json(outdir, "harmonicity.json")
    if rep["inconclusive"] is not False:
        problems.append("inconclusive; expected a non-harmonic verdict")
    if not rep["theta_spread_max"] >= SPREAD_MIN:
        problems.append(f"theta_spread_max = {rep['theta_spread_max']!r} "
                        f"< {SPREAD_MIN:g}")
    return problems, {}


def check_h_values(values: dict, ref: dict) -> tuple:
    """values: {k: H_k} with int or 'Hk' keys."""
    got = {int(str(k).lstrip("H")): v for k, v in values.items()}
    err = max(abs(got[k] - ref[k]) for k in ref)
    problems = [] if err <= H_TOL else [
        f"|H - exact| = {err:.3e} > {H_TOL:g}: got "
        f"{[got[k] for k in ref]}, expected {list(ref.values())}"]
    return problems, {"h_abs_err": err}


def check_expand(code: int, outdir: str, ref: dict) -> tuple:
    problems = _exit(code, 0)
    if problems:
        return problems, {}
    rep = _read_json(outdir, "expansion.json")
    problems, stats = check_h_values(rep["analytic"], ref)
    fit_err = max(abs(rep["fitted"][f"H{k}"] - ref[k]) for k in ref)
    if not fit_err <= FIT_TOL:
        problems.append(f"|fitted H - exact| = {fit_err:.3e} > {FIT_TOL:g}")
    diff = rep["residuals"]["max_abs_difference"]
    if not diff <= FIT_TOL:
        problems.append(f"max_abs_difference = {diff!r} > {FIT_TOL:g}")
    return problems, stats


def check_deform(code: int, outdir: str, coeffs, m: int) -> tuple:
    """Shot densities of the deformed sphere against the volume law."""
    problems = _exit(code, 0)
    if problems:
        return problems, {}
    law = _read_json(outdir, "deform.json")["density_law"]
    if not law["max_abs_error"] <= FIT_TOL:
        problems.append(f"density_law.max_abs_error = "
                        f"{law['max_abs_error']!r} > {FIT_TOL:g}")
    ref = [deformed_sphere_theta(coeffs, m, rc) for rc in law["rc"]]
    err = float(np.max(np.abs(np.asarray(law["shot"]) - ref)))
    if not err <= FIT_TOL:
        problems.append(f"|shot - volume law| = {err:.3e} > {FIT_TOL:g}")
    return problems, {}
