"""Density-expansion coefficients from curvature, and their exact oracle.

The volume density about P expands as

    Theta_P(xi) ~ |xi|^(m-1) (1 + sum_k H_k(xi)),   H_k(c xi) = c^k H_k(xi),

with H_2..H_6 given by trace polynomials in the Jacobi operator J_0 and its
radial covariant derivatives J_k.  The leading-term law H_n = c_n Tr J_(n-2)
+ lower order, with c_n = -(n-1)/(n+1)!, is verified by an exact rational
computation on the 2D polar family ds^2 = dr^2 + (r(1+b r^n))^2 dtheta^2,
checking every intermediate expansion along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import CurvatureBundle, curvature, jacobi_form
from .metric import ChartMetric
from .series import rational_series


@dataclass
class JacobiOperator:
    """J_k(xi): g(J_k(xi) h1, h2) = (grad^k R)(h1, xi, xi, h2; xi, ..., xi)."""

    matrix: np.ndarray    # endomorphism of T_P M (index raised with g^{-1})
    bilinear: np.ndarray  # the symmetric lowered form


def jacobi(bundle: CurvatureBundle, xi, k: int) -> JacobiOperator:
    """Assemble J_k(xi) from grad^k R by contraction."""
    xi = np.asarray(xi, dtype=float)
    m = len(xi)
    T = bundle.nabla(k).reshape((m,) * 3 + (-1,))  # slots l, p_1..p_k merged
    M = jacobi_form(T, xi).reshape((m,) * (k + 2))
    for _ in range(k):     # contract the k derivative slots with xi
        M = M @ xi
    bil = 0.5 * (M + M.T)
    return JacobiOperator(matrix=bundle.ginv @ bil, bilinear=bil)


@dataclass
class DensityExpansion:
    """H_2..H_6 at a unit direction."""

    values: dict                 # k -> H_k(xi)

    def __getitem__(self, k: int) -> float:
        return self.values[k]


def density_coefficients(metric: ChartMetric, P, xi,
                         bundle: CurvatureBundle | None = None
                         ) -> DensityExpansion:
    """Evaluate H_2..H_6 exactly as trace polynomials of J_0..J_4."""
    P, xi = np.asarray(P, dtype=float), np.asarray(xi, dtype=float)
    for name, v in (("P", P), ("xi", xi)):
        if v.shape != (metric.dim,):
            raise ValueError(f"{name} must have shape ({metric.dim},), "
                             f"got {v.shape}")
    if bundle is None:
        bundle = curvature(metric, P, k_max=4)
    J = [jacobi(bundle, xi, k).matrix for k in range(5)]
    tr = lambda A: float(np.trace(A))
    t0, t1, t2, t3, t4 = (tr(J[k]) for k in range(5))
    t00 = tr(J[0] @ J[0])
    t000 = tr(J[0] @ J[0] @ J[0])
    t01 = tr(J[0] @ J[1])
    t02 = tr(J[0] @ J[2])
    t11 = tr(J[1] @ J[1])
    values = {
        2: -t0 / 6.0,
        3: -t1 / 12.0,
        4: t0 ** 2 / 72.0 - t00 / 180.0 - t2 / 40.0,
        5: t0 * t1 / 72.0 - t01 / 180.0 - t3 / 180.0,
        6: (-t0 ** 3 / 1296.0 + t0 * t00 / 1080.0 + t0 * t2 / 240.0
            - t000 / 2835.0 - t02 / 630.0 + t1 ** 2 / 288.0
            - t11 / 672.0 - t4 / 1008.0),
    }
    return DensityExpansion(values=values)


def leading_coefficient(n: int) -> Fraction:
    """c_n = -(n-1)/(n+1)! in H_n = c_n Tr J_(n-2) + lower order terms."""
    if n < 2:
        raise ValueError("leading coefficients start at n = 2")
    return Fraction(-(n - 1), math.factorial(n + 1))


@dataclass
class LeadingCoefficientReport:
    """Exact-series reproduction of the 2D leading-term construction."""

    n: int
    b: Fraction
    f_series_ok: bool             # f = r^2 + 2 b r^(n+2) + O(r^(n+3))
    finv_series_ok: bool          # r^2 f^-1 = 1 - 2 b r^n + O(r^(n+1))
    frr_series_ok: bool           # -f_rr/2 = -1 - (n+2)(n+1) b r^n + ...
    fr2_series_ok: bool           # f_r^2 f^-1/4 = 1 + (2(n+2)-2) b r^n + ...
    trace_coefficient: Fraction   # r^(n-2) coefficient of Tr J0(d_r)
    trace_coefficient_ok: bool    # equals -n(n+1) b
    c_n: Fraction
    recovered_b: Fraction         # c_n * (n-2)! * trace_coefficient
    exact_pass: bool


def verify_leading_coefficient(n: int, b) -> LeadingCoefficientReport:
    """Reproduce the 2D family computation with exact rational series.

    Builds f = (r (1 + b r^n))^2, forms Tr J_0(d_r) =
    f^{-1} (-f_rr/2 + f_r^2 f^{-1}/4), checks the r^(n-2) coefficient is
    -n(n+1) b, and recovers H_n(d_r) = b using c_n = -(n-1)/(n+1)!.
    All comparisons are exact in Q, on series truncated at order n + 4.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    b = Fraction(b)
    order = n + 4

    # unit factor F = (1 + b r^n)^2; f = r^2 F
    F = (rational_series([1], order)
         + rational_series([0] * n + [b], order)) ** 2
    f = F.shift(2)
    f_r = f.derive()
    f_rr = f_r.derive()
    Finv = F.reciprocal()                       # r^2 f^-1

    f_ok = (f[2] == 1 and f[n + 2] == 2 * b
            and all(f[k] == 0 for k in range(n + 2) if k != 2))
    finv_ok = Finv[0] == 1 and Finv[n] == -2 * b

    minus_half_frr = -Fraction(1, 2) * f_rr
    frr_ok = (minus_half_frr[0] == -1
              and minus_half_frr[n] == -Fraction((n + 2) * (n + 1)) * b)

    quarter = Fraction(1, 4) * ((f_r * f_r).unshift(2) * Finv)
    fr2_ok = quarter[0] == 1 and quarter[n] == (2 * (n + 2) - 2) * b

    bracket = minus_half_frr + quarter
    trace = (Finv * bracket).unshift(2)         # Tr J0(d_r), series in r
    trace_coeff = trace[n - 2]
    trace_ok = trace_coeff == -n * (n + 1) * b

    c_n = leading_coefficient(n)
    # Tr J_(n-2)(d_r) at the center is the (n-2)-th radial derivative of
    # the function r -> Tr J0 along the geodesic, i.e. (n-2)! times the
    # r^(n-2) series coefficient.
    tr_jn2 = math.factorial(n - 2) * trace_coeff
    recovered = c_n * tr_jn2
    ok = bool(f_ok and finv_ok and frr_ok and fr2_ok and trace_ok
              and recovered == b)
    return LeadingCoefficientReport(
        n=n, b=b, f_series_ok=f_ok, finv_series_ok=finv_ok,
        frr_series_ok=frr_ok, fr2_series_ok=fr2_ok,
        trace_coefficient=trace_coeff, trace_coefficient_ok=trace_ok,
        c_n=c_n, recovered_b=recovered, exact_pass=ok)
