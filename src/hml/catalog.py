"""Built-in analytic example metrics with known ground truth.

Every entry's declared facts are machine-checkable by the other modules;
the test suite audits them (the catalog is self-auditing).  All charts are
centered at the origin, which is the distinguished point for radial
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .metric import ChartMetric, entry_layout


@dataclass(frozen=True)
class CatalogEntry:
    metric: ChartMetric
    constant_curvature: Optional[float] = None   # None: not a space form
    closed_form_density: Optional[Callable] = None   # r -> Theta_P(r)
    # t = r^2 -> Theta_P / r^(m-1), acting on truncated series
    reduced_density: Optional[Callable] = None

    @property
    def name(self) -> str:
        return self.metric.name

    @property
    def dim(self) -> int:
        return self.metric.dim


def _space_form_density(kappa: float, m: int) -> Callable:
    def theta(r):
        r = np.asarray(r, dtype=float)
        if kappa > 0:
            s = np.sin(np.sqrt(kappa) * r) / np.sqrt(kappa)
        elif kappa < 0:
            s = np.sinh(np.sqrt(-kappa) * r) / np.sqrt(-kappa)
        else:
            s = r
        return s ** (m - 1)
    return theta


def _sinc_power(kappa: float, m: int) -> Callable:
    """Reduced density (sin(sqrt(kappa t)) / sqrt(kappa t))^(m-1), kappa > 0."""
    return lambda ts: jets.powf(jets.sinc_sqrt(ts * kappa), m - 1)


def euclidean(dim: int) -> CatalogEntry:
    def components(x, t):
        return [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    metric = ChartMetric(
        dim=dim, components=components, name="euclidean", params={"dim": dim},
        injectivity_radius=math.inf, radial_distance_sq=lambda x, t: t)
    return CatalogEntry(
        metric=metric, constant_curvature=0.0,
        closed_form_density=_space_form_density(0.0, dim),
        reduced_density=lambda ts: 1.0 + 0.0 * ts)


def space_form(a: float, b: float, dim: int) -> CatalogEntry:
    """Conformally flat chart (a + b |x|^2)^(-2) g_e; kappa = 4ab."""
    if a == 0 and b == 0:
        raise ValueError("space form requires (a, b) != (0, 0)")

    def components(x, t):
        # nested: the same jet on the diagonal, so no product per entry, and
        # a deformation multiplies the constant zeros as numbers
        w = (a + b * t).reciprocal() ** 2
        return [[w if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    def domain(x):
        return a + b * np.sum(np.asarray(x) ** 2, axis=-1) > 0

    kappa = 4 * a * b
    # geodesic distance from the origin (chart covers it only if a > 0)
    rdist_sq = None
    iota = None
    if a > 0:
        if b > 0:
            iota = math.pi / math.sqrt(kappa)  # chart reaches the antipode

            def rdist_sq(x, t, _a=a, _b=b):
                # (arctan(sqrt(b/a) s) / sqrt(ab))^2 with s^2 = |x|^2 = t
                return jets.atan_sqrt_sq(t * (_b / _a)) * (1.0 / (_a * _b))
        elif b == 0:
            iota = math.inf

            def rdist_sq(x, t, _a=a):
                return t * (1.0 / _a ** 2)
        else:
            iota = math.inf  # hyperbolic: boundary is at infinite distance

    metric = ChartMetric(
        dim=dim, components=components, domain=domain, name="space_form",
        params={"a": a, "b": b, "dim": dim}, injectivity_radius=iota,
        radial_distance_sq=rdist_sq)
    return CatalogEntry(
        metric=metric, constant_curvature=kappa,
        closed_form_density=_space_form_density(kappa, dim) if a > 0 else None,
        reduced_density=_sinc_power(kappa, dim) if a > 0 and b > 0 else None)


def sphere(dim: int) -> CatalogEntry:
    """Round unit sphere in normal coordinates at a pole (covers r < pi).

    g = xhat xhat^T + (sin^2 r / r^2)(Id - xhat xhat^T), analytic in the
    chart because both radial profiles are even functions of r.
    """
    rows, cols, diag, _ = entry_layout(dim)

    def components(x, t):
        s = jets.sin_sq_sqrt_over_t(t)            # sin^2(r)/r^2
        w = jets.t_minus_sinsq_over_t2(t)          # (1 - s)/t, analytic at 0
        g = jets.pair_products([x], rows, cols)   # x_i x_j
        jets.multiply(g, w.spread(), out=g)
        g.put(diag, g.entries(diag) + s.spread())
        return g

    def domain(x):
        return np.sum(np.asarray(x) ** 2, axis=-1) < math.pi ** 2

    metric = ChartMetric(
        dim=dim, components=components, domain=domain, name="sphere",
        params={"dim": dim}, injectivity_radius=math.pi,
        radial_distance_sq=lambda x, t: t)
    return CatalogEntry(
        metric=metric, constant_curvature=1.0,
        closed_form_density=_space_form_density(1.0, dim),
        reduced_density=_sinc_power(1.0, dim))


def fubini_study(cdim: int) -> CatalogEntry:
    """Fubini-Study on the affine chart of CP^cdim, real dimension 2*cdim.

    Normalized so holomorphic sectional curvature is 4 (sec in [1, 4]) and
    the cut locus sits at distance pi/2.  Real components:

        g = [ (1+t) Id - x x^T - (Jx)(Jx)^T ] / (1+t)^2,   t = |x|^2,

    with J the standard complex structure pairing slots (2a, 2a+1).
    """
    dim = 2 * cdim
    rows, cols, diag, _ = entry_layout(dim)
    # Jx in real coordinates: (Jx)_{2a} = -x_{2a+1}, (Jx)_{2a+1} = x_{2a}
    swap = np.arange(dim) ^ 1

    def components(x, t):
        inv = (1.0 + t).reciprocal()
        inv2 = inv * inv
        jx = x.entries(swap)
        evens = jx.entries(slice(0, None, 2))
        jets.multiply(evens, -1.0, out=evens)
        g = jets.pair_products([x, jx], rows, cols)   # x_i x_j + Jx_i Jx_j
        jets.multiply(g, -1.0, out=g)                 # off the diagonal
        g.put(diag, (1.0 + t).spread() + g.entries(diag))   # 1 + t - cross
        return jets.multiply(g, inv2.spread(), out=g)

    def fs_density(r):
        r = np.asarray(r, dtype=float)
        return np.sin(r) ** (dim - 1) * np.cos(r)

    metric = ChartMetric(
        dim=dim, components=components, name="fubini_study",
        params={"cdim": cdim}, injectivity_radius=math.pi / 2,
        radial_distance_sq=lambda x, t: jets.atan_sqrt_sq(t))
    return CatalogEntry(
        metric=metric, closed_form_density=fs_density,
        reduced_density=lambda ts: (jets.powf(jets.sinc_sqrt(ts), dim - 1)
                                    * jets.cos_sqrt(ts)))

