"""Density-expansion coefficients from curvature.

The volume density about P expands as

    Theta_P(xi) ~ |xi|^(m-1) (1 + sum_k H_k(xi)),   H_k(c xi) = c^k H_k(xi),

with H_2..H_6 given by trace polynomials in the Jacobi operator J_0 and its
radial covariant derivatives J_k.  The leading-term law H_n = c_n Tr J_(n-2)
+ lower order, with c_n = -(n-1)/(n+1)!, is checked by the test suite's
exact-rational oracle (tests/oracles.py) on the 2D polar family
ds^2 = dr^2 + (r(1+b r^n))^2 dtheta^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, curvature, jacobi_form
from .metric import ChartMetric


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
