"""Radial conformal deformations g_psi = psi(r_P^2)^(-2) g and diagnostics.

Deforming preserves central harmonicity about P; the deformed polar density
obeys

    Theta_{P, g_psi}(rc, theta) = psi(r(rc)^2)^(1-m) Theta_{P, g}(r(rc)),

where rc is the deformed radial coordinate with d(rc) = psi(r^2)^(-1) dr.
This module also carries the density-trivializing factor and the
near-cut-locus blow-up diagnostics for the trivial-density construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .conventions import MAX_JET_ORDER
# not called here: perfbench/tracer.py patches hml.conformal.curvature
from .curvature import curvature
from .jets import MultiJet, seed_point
from .metric import ChartMetric, outside_domain
from .series import TruncatedSeries


# ---------------------------------------------------------------------------
# radial functions psi(t), t = r^2
# ---------------------------------------------------------------------------

def _horner(coeffs, t):
    """c0 + c1 t + ... + cK t^K, from the top coefficient down."""
    acc = 0.0 * t + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def _cumulative_gauss(f, knots, n_nodes: int) -> np.ndarray:
    """int of f from knots[0] to each knot, n_nodes-point Gauss per interval."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    a, b = knots[:-1], knots[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    seg = (f(pts.ravel()).reshape(pts.shape) * weights[None, :]).sum(axis=1) * half
    return np.concatenate([[0.0], np.cumsum(seg)])


def _hermite(x, y, dydx) -> Callable:
    """The cubic Hermite interpolant through (x, y) with slopes dydx, with
    scipy CubicHermiteSpline's coefficients and its sum c3 + c2 s + c1 s^2
    + c0 s^3 term for term: the same bits, and no scipy to import."""
    dx = np.diff(x)
    if not (np.all(dx > 0) and np.isfinite(y).all() and np.isfinite(dydx).all()):
        raise ValueError("Hermite knots must increase and data be finite")
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c = (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])

    def spline(xp):
        xp = np.asarray(xp, dtype=float)
        i = np.clip(np.searchsorted(x, xp, "right") - 1, 0, len(x) - 2)
        s = xp - x[i]
        c0, c1, c2, c3 = (ck[i] for ck in c)
        return np.asarray(c3 + c2 * s + c1 * (s * s)
                          + c0 * (s * s * s)).reshape(xp.shape)
    return spline


def _growth_series(y0, rate: TruncatedSeries, order: int) -> TruncatedSeries:
    """Series of the solution of y' = rate y with constant term y0."""
    ys = [y0]
    for k in range(order):
        acc = 0.0
        for j in range(k + 1):
            acc = acc + ys[j] * rate.coeffs[k - j]
        ys.append(acc / (k + 1))
    return TruncatedSeries(ys)


class RadialFunction:
    """One-variable analytic factor psi(t) with derivatives on demand.

    Subclasses provide ``series(t0, order)`` returning a TruncatedSeries of
    psi about t0; t0 may be a numpy array, in which case the coefficients
    broadcast (used when composing into batched jets).
    """

    name = "psi"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.asarray(self.series(t, 0).coeffs[0])

    def compose_jet(self, t_jet):
        """psi(t_jet) for a MultiJet (or series) argument t_jet."""
        s = self.series(t_jet.value, t_jet.order)
        return t_jet.apply_analytic(
            [c * math.factorial(k) for k, c in enumerate(s.coeffs)])


def _seed_series(t0, order: int) -> TruncatedSeries:
    t0 = np.asarray(t0, dtype=float)
    if t0.ndim == 0 and t0 != 0:
        # one point: the same series steps on Python floats, rounded alike.
        # A zero stays a 0-d array, because series products skip factors
        # that are zero floats but never arrays, and the skip can flip the
        # sign of a zero coefficient
        t0 = float(t0)
    if order == 0:
        return TruncatedSeries([t0 + 0.0])
    return TruncatedSeries.variable(order, at=t0)


class AnalyticRadialFunction(RadialFunction):
    """psi defined by a formula taking a truncated series in t to one."""

    def __init__(self, fn: Callable, name: str = "psi"):
        self.fn = fn
        self.name = name

    def series(self, t0, order: int) -> TruncatedSeries:
        return self.fn(_seed_series(t0, order))


class PolynomialRadialFunction(AnalyticRadialFunction):
    """psi(t) = c0 + c1 t + ... (the manifest 'poly' kind)."""

    def __init__(self, coeffs):
        self.poly_coeffs = [float(c) for c in coeffs]
        super().__init__(lambda t: _horner(self.poly_coeffs, t),
                         name=f"poly{self.poly_coeffs}")


# ---------------------------------------------------------------------------
# reparametrization rc(r) with d(rc) = psi(r^2)^(-1) dr
# ---------------------------------------------------------------------------

@dataclass
class Reparametrization:
    """Forward map rc(r) and its inverse on [0, r_max], C^1-consistent."""

    psi: RadialFunction
    r_max: float
    r_grid: np.ndarray
    rc_grid: np.ndarray

    def __post_init__(self):
        psi = self.psi(self.r_grid ** 2)
        self.rc = _hermite(self.r_grid, self.rc_grid, 1.0 / psi)
        self.r = _hermite(self.rc_grid, self.r_grid, psi)


def reparametrize(psi: RadialFunction, r_max: float) -> Reparametrization:
    """Integrate d(rc) = psi(r^2)^(-1) dr by composite Gauss quadrature.

    Refuses a psi that changes sign or vanishes on [0, r_max^2], naming the
    interval of a 2048-point grid in t = r^2 that holds the zero."""
    ts = np.linspace(0.0, r_max ** 2, 2048)
    sign = np.sign(np.atleast_1d(psi(ts)))
    change = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
    if len(change):
        lo, hi = ts[change[0]], ts[change[0] + 1]
        raise ValueError(
            f"psi vanishes at some t in [{lo:.6g}, {hi:.6g}] (r in "
            f"[{math.sqrt(lo):.6g}, {math.sqrt(hi):.6g}]) inside the "
            "requested range")
    r_grid = np.linspace(0.0, r_max, 1201)
    rc_grid = _cumulative_gauss(lambda r: 1.0 / np.asarray(psi(r ** 2)),
                                r_grid, 8)
    return Reparametrization(psi=psi, r_max=r_max, r_grid=r_grid,
                             rc_grid=rc_grid)


# ---------------------------------------------------------------------------
# metric deformation and the density law
# ---------------------------------------------------------------------------

def _require_radial_chart(metric: ChartMetric):
    if metric.radial_distance_sq is None:
        raise ValueError(
            f"{metric.name} does not expose an analytic radial distance; "
            "radial deformation needs r_P (declare a normal or radially "
            "symmetric chart)")


def deform_metric(metric: ChartMetric, psi: RadialFunction) -> ChartMetric:
    """The radial conformal deformation psi(r_P^2)^(-2) g on the same chart."""
    _require_radial_chart(metric)
    base_components = metric.components
    rsq = metric.radial_distance_sq
    name = f"{metric.name}_psi"

    def components(x, t):
        base = base_components(x, t)
        Psi = psi.compose_jet(rsq(x, t))
        # the domain's psi > 0, tested on the composed jet's constant term:
        # psi(r^2), the value this formula divides by
        if not jets.all_true(Psi.value > 0):
            raise outside_domain(name)
        w = Psi.reciprocal() ** 2
        if type(base) is MultiJet:
            return jets.multiply(w.spread(), base, out=base)
        return [[w * c for c in row] for row in base]

    base_domain = metric.domain

    def domain(x):
        ok = np.asarray(base_domain(x))
        t = radial_sq_value(metric, x)
        return ok & (np.asarray(psi(t)) > 0)

    return ChartMetric(
        dim=metric.dim, components=components, domain=domain, name=name,
        params={**metric.params, "psi": psi.name},
        injectivity_radius=None, radial_distance_sq=None,
        _formula_domain=base_domain)


def radial_sq_value(metric: ChartMetric, x) -> np.ndarray:
    """r_P(x)^2 evaluated numerically through order-0 jets."""
    _require_radial_chart(metric)
    xs = seed_point(np.asarray(x, dtype=float), 0)
    out = metric.radial_distance_sq(xs, jets.norm_sq(xs))
    return np.asarray(out.value)


def deformed_density(base_theta: Callable, rep: Reparametrization, m: int,
                     rc_values):
    """Push a radial base density through the deformation law.

    ``base_theta(r)`` is the base polar density, ``rep`` that of psi;
    returns the deformed density at the requested deformed radii.
    """
    rc_values = np.asarray(rc_values, dtype=float)
    if np.any(rc_values > rep.rc_grid[-1] + 1e-12):
        raise ValueError(
            f"deformed radius beyond rc({rep.r_max}) = {rep.rc_grid[-1]:.6g}")
    r = rep.r(rc_values)
    return np.asarray(rep.psi(r ** 2)) ** (1.0 - m) \
        * np.asarray(base_theta(r), dtype=float)


# ---------------------------------------------------------------------------
# trivializing conformal factor (deformed density == rc^(m-1) exactly)
# ---------------------------------------------------------------------------

def _recenter_poly(coeffs, t0):
    """Shift a short polynomial sum c_k t^k to powers of (t - t0)."""
    K = len(coeffs) - 1
    out = []
    for j in range(K + 1):
        acc = 0.0
        for k in range(K, j - 1, -1):
            acc = acc * t0 + math.comb(k, j) * coeffs[k]
        out.append(acc)
    return out


class TrivializerRadialFunction(RadialFunction):
    """The unique psi with psi(0) = 1 making the deformed density trivial.

    Writing q = 1/(m-1) and Ttilde(t) for the base reduced density at
    t = r^2, the deformed polar density equals rc^(m-1) identically iff

        psi(t) = Ttilde(t)^q / V(t),
        log V(t) = (1/2) int_0^t (Ttilde(tau)^-q - 1) / tau  d tau,

    because then rc(r) = r V(r^2) and psi^(1-m) Theta = rc^(m-1) exactly.
    Neither psi = Ttilde nor psi = Ttilde^q does this: the former leaves
    Theta_deformed = Ttilde^(2-m) r^(m-1), the latter r^(m-1) in the *base*
    radial coordinate rather than the deformed one.
    """

    name = "trivializer"

    def __init__(self, ttilde_t: Callable, m: int, t_max: float):
        if m < 2:
            raise ValueError("the trivializing factor needs dimension >= 2")
        self.ttilde_t = ttilde_t
        self.m = m
        self.q = 1.0 / (m - 1)
        self.t_max = t_max
        # h's Maclaurin coefficients: all an order-MAX_JET_ORDER series reads
        top = jets.powf(self._ttilde_series(0.0, MAX_JET_ORDER + 4), -self.q)
        self._h_at0 = [0.5 * np.asarray(c)
                       for c in (top - 1.0).unshift(1).coeffs[:-1]]
        ts = np.linspace(0.0, t_max, 1601)
        self._logV = _hermite(
            ts, _cumulative_gauss(self._h_values, ts, 10), self._h_values(ts))

    # -- pieces -----------------------------------------------------------
    def _ttilde_series(self, t0, order: int) -> TruncatedSeries:
        return self.ttilde_t(_seed_series(t0, order))

    def _h_series(self, tt, t0, order: int) -> TruncatedSeries:
        """h = (Ttilde^-q - 1)/(2t) about t0 to ``order`` from Ttilde's series
        tt there, or from h's Maclaurin series where t0 < 1e-4."""
        small = t0 < 1e-4
        if not small.all():
            top = jets.powf(TruncatedSeries(tt.coeffs[: order + 1]), -self.q)
            far = (top - 1.0) / (2.0 * _seed_series(np.where(small, 1.0, t0),
                                                    order))
            if not small.any():
                return far
        near = _recenter_poly(self._h_at0[: order + 5], np.where(small, t0, 0.0))
        if small.all():
            return TruncatedSeries(near[: order + 1])
        return TruncatedSeries([np.where(small, np.asarray(n) + 0.0 * t0, f)
                                for n, f in zip(near, far.coeffs)])

    def _h_values(self, t):
        """h on an array of t; its Maclaurin quartic where t < 1e-5."""
        small = t < 1e-5
        tt = np.asarray(self._ttilde_series(t, 0).coeffs[0])
        far = (tt ** -self.q - 1.0) / (2.0 * np.where(small, 1.0, t))
        return np.where(small, _horner(self._h_at0[:5], t), far)

    def V(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t > self.t_max):
            raise ValueError(
                f"{self.name} is tabulated for r in [0, "
                f"{math.sqrt(self.t_max):.6g}]; asked for r = "
                f"{math.sqrt(t[t > self.t_max].max()):.6g}")
        return np.exp(self._logV(t))

    # -- the radial function ------------------------------------------------
    def series(self, t0, order: int) -> TruncatedSeries:
        if order > MAX_JET_ORDER:
            raise ValueError(
                f"order {order} exceeds MAX_JET_ORDER = {MAX_JET_ORDER}")
        t0 = np.asarray(t0, dtype=float)
        tt = self._ttilde_series(t0, order)
        num = jets.powf(tt, self.q)
        v0 = self.V(t0) * np.ones_like(t0)
        if order == 0:
            return TruncatedSeries([np.asarray(num.coeffs[0]) / v0])
        v = _growth_series(v0, self._h_series(tt, t0, order - 1), order)
        return num * v.reciprocal()


# ---------------------------------------------------------------------------
# completeness and Ricci blow-up near the cut locus
# ---------------------------------------------------------------------------

@dataclass
class BlowupReport:
    """Diagnostics of the complex-projective trivial-density deformation."""

    m: int
    variant: str                 # the name of the psi reported on
    exponent: float              # p in rho ~ c u^-p, fitted
    coefficient: float           # c (negative), fitted
    fit_residual: float          # max |log|rho| - fit| over the samples
    psi_exponent: float          # q in psi ~ a u^q near the cut locus
    psi_scale: float             # a
    length: float                # int_0^(pi/2) psi^-1 du
    length_finite: bool
    u_window: tuple
    samples: list


def _fs_theta_u_series(u0, m: int, order: int) -> TruncatedSeries:
    """Projective-space density as a function of u = pi/2 - r:
    Theta = cos(u)^(m-1) sin(u), well conditioned near u = 0."""
    u = _seed_series(u0, order)
    return jets.cos(u) ** (m - 1) * jets.sin(u)


class TrivializerPsiU:
    """The exact trivializer as a function of u, built in u-space.

    psi(u) = Theta(u)^q / W(u) where dW/du = -W Theta^(-q) and
    W ~ (pi/2 - u) at the center; log(W/(pi/2 - u)) is accumulated on a
    grid geometric in u near the cut locus, where the integrand behaves
    like u^(-q).
    """

    name = "trivializer"

    def __init__(self, m: int):
        self.m = m
        self.q = 1.0 / (m - 1)
        # omega(u) = d/du log V, V = W/(pi/2 - u):
        # dW/du = -W Theta^(-q)  and  d(pi/2 - u)/du = -1 give
        # omega = 1/(pi/2 - u) - Theta(u)^(-q)
        lin = np.linspace(math.pi / 2, 0.05, 900)
        geo = np.geomspace(0.05, 1e-10, 900)
        u_knots = np.concatenate([lin, geo[1:]])
        logv = _cumulative_gauss(self._omega, u_knots, 10)
        # knots run downward in u; store ascending for the spline
        order_idx = np.argsort(u_knots)
        self._logV = _hermite(
            u_knots[order_idx], logv[order_idx], self._omega(u_knots)[order_idx])
        # psi^-1 = -dW/du and W(pi/2) = 0, so int_0^(pi/2) psi^-1 du = W(0);
        # Theta ~ u gives W ~ L (1 - u^(1-q)/(1-q)) below the last knot
        u0 = u_knots[-1]
        self.length = float(self.W(u0)) / (1 - u0 ** (1 - self.q) / (1 - self.q))
        self.scale = 1.0 / self.length      # psi ~ u^q / L

    def _omega(self, u):
        """d/du log(W/(pi/2 - u)) = (1 - Ttilde(r)^-q)/r, r = pi/2 - u."""
        u = np.asarray(u, dtype=float)
        r = math.pi / 2 - u
        out = np.empty_like(r)
        small = r < 1e-3
        rs = r[~small]
        ttil = (np.sin(rs) / rs) ** (self.m - 1) * np.cos(rs)
        out[~small] = (1.0 - ttil ** -self.q) / rs
        # Ttilde = 1 - (m+2)/6 r^2 + O(r^4) near the center
        out[small] = -self.q * (self.m + 2) / 6.0 * r[small]
        return out

    def W(self, u):
        u = np.asarray(u, dtype=float)
        return (math.pi / 2 - u) * np.exp(self._logV(u))

    def series(self, u0, order: int) -> TruncatedSeries:
        theta = _fs_theta_u_series(u0, self.m, order)
        num = jets.powf(theta, self.q)
        rate = jets.powf(TruncatedSeries(theta.coeffs[: max(order, 1)]),
                         -self.q) * (-1.0)
        return num * _growth_series(float(self.W(u0)), rate, order).reciprocal()


def deformed_radial_ricci(psi_u, u: float) -> float:
    """rho_{g_psi}(psi d_u, psi d_u) on the projective space of dimension
    m = psi_u.m, where rho = (m+2) g, by the radial conformal-change law:

        (m+2) psi^2 + (m-2) psi psi''
        + psi (Theta psi')'/Theta - (m-1) psi'^2,

    all derivatives in u; series arithmetic, no finite differences.
    """
    m = psi_u.m
    ps = psi_u.series(u, 3)
    th = _fs_theta_u_series(u, m, 3)
    psi0 = float(ps.coeffs[0])
    psid = float(ps.coeffs[1])
    psidd = 2.0 * float(ps.coeffs[2])
    flux = th * ps.derive()             # Theta psi'
    flux_d = float(flux.derive().coeffs[0])
    return ((m + 2.0) * psi0 ** 2 + (m - 2) * psi0 * psidd
            + psi0 * flux_d / float(th.coeffs[0]) - (m - 1) * psid ** 2)


BLOWUP_DIMS = (4, 6, 8)


def completeness_and_blowup(psi_u) -> BlowupReport:
    """Geodesic length and Ricci blow-up of a radial deformation by psi_u.

    The base is the projective space of real dimension m = psi_u.m (even,
    in {4, 6, 8}) with sec in [1, 4]; psi_u is psi as a function of
    u = pi/2 - r.  It provides ``m``, ``name`` (the report's variant),
    ``series``, and three numbers its construction fixes, which the report
    copies: ``q`` and ``scale`` of psi ~ scale u^q at the cut locus, and
    ``length`` = int_0^(pi/2) psi^-1 du.  The report fits
    rho_{g_psi}(psi d_u, psi d_u) ~ c u^-p over the u-window [1e-4, 1e-2]
    as log|rho| = log|c| - p log u + b1 u + b2 u^(1-q), so that neither
    next-order factor of psi biases c.  For any psi ~ a u^q with
    Theta ~ u, p = 2(1 - q) and c = -(m-2) q a^2.
    """
    m = psi_u.m
    if m not in BLOWUP_DIMS:
        raise ValueError("blow-up diagnostics support m in {4, 6, 8}")

    u_window = (1e-4, 1e-2)
    us = np.geomspace(*u_window, 25)
    rho = np.array([deformed_radial_ricci(psi_u, float(u)) for u in us])
    if np.any(rho >= 0):
        raise ValueError("expected negative radial Ricci in the fit window")
    design = np.stack([np.ones_like(us), np.log(us), us,
                       us ** (1 - psi_u.q)], axis=1)
    sol, *_ = np.linalg.lstsq(design, np.log(-rho), rcond=None)
    resid = float(np.max(np.abs(design @ sol - np.log(-rho))))
    return BlowupReport(
        m=m, variant=psi_u.name, exponent=-float(sol[1]),
        coefficient=-math.exp(sol[0]), fit_residual=resid,
        psi_exponent=psi_u.q, psi_scale=psi_u.scale, length=psi_u.length,
        length_finite=math.isfinite(psi_u.length), u_window=u_window,
        samples=[{"u": float(u), "ricci": float(r)} for u, r in zip(us, rho)])
