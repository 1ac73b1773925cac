"""Geodesic and Jacobi-field integration: densities, shapes, radiality.

The workhorse integrates, jointly and batched over directions,

    x'' + Gamma(x', x') = 0                 (geodesic),
    E'_a + Gamma(x', E_a) = 0               (parallel frame),
    A'' + Rtilde(r) A = 0,  A(0) = 0, A'(0) = Id   (normal Jacobi fields),

where Rtilde_ab = R(E_a, x', x', E_b) is the reduced Jacobi operator in the
parallel frame.  The volume density is Theta = det A and the geodesic-sphere
mean curvature is Xi = Tr(A' A^{-1}).  The system is regular at r = 0 in
this linear form, so integration starts at the center exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .curvature import (curvature, curvature_arrays, einstein_defect,
                         reduced_jacobi)
from .metric import ChartMetric, DomainError, Workspace


class DomainExitError(DomainError):
    """A trajectory left the chart; ``last_r`` is the last valid radius."""

    def __init__(self, last_r: float):
        super().__init__(f"geodesic left the chart domain after r = {last_r:.6g}")
        self.last_r = last_r


class ConjugatePointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic direction sampling
# ---------------------------------------------------------------------------

def unit_directions(m: int, n: int) -> np.ndarray:
    """n deterministic low-discrepancy Euclidean-unit directions on S^(m-1).

    Kronecker sequence with the generalized golden ratio, pushed through
    the inverse normal CDF; seedless and reproducible by construction.
    """
    from scipy.special import ndtri
    phi = 2.0
    for _ in range(60):
        phi = (1 + phi) ** (1 / (m + 1))
    alpha = np.array([phi ** -(k + 1) for k in range(m)])
    u = (0.5 + np.outer(np.arange(1, n + 1), alpha)) % 1.0
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    return z / np.linalg.norm(z, axis=1)[:, None]


def g_unit_directions(metric: ChartMetric, P, n: int) -> np.ndarray:
    """Directions of g-norm 1 at P, distributed round in the g sense."""
    g0 = metric.value(np.asarray(P, dtype=float))
    L = np.linalg.cholesky(g0)
    u = unit_directions(metric.dim, n)
    return np.linalg.solve(L.T, u.T).T


def parallel_frame_start(g0: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """g0-orthonormal basis of theta-perp, deterministic; shape (m, m-1)."""
    m = len(theta)
    vecs = [np.asarray(theta, dtype=float)]
    for e in np.eye(m):
        w = e.copy()
        for b in vecs:
            w = w - (w @ g0 @ b) * b
        nw = math.sqrt(max(w @ g0 @ w, 0.0))
        if nw > 1e-10:
            vecs.append(w / nw)
        if len(vecs) == m:
            break
    if len(vecs) < m:
        raise ValueError("failed to complete parallel frame")
    return np.stack(vecs[1:], axis=1)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# Points per RHS block.  Every operation of the RHS is per point, so blocks
# give the same bits.  At m = 4 a block of 512 holds d2g, U and R at 1 MB
# each, in buffers of the shot's workspace that every block and RK4 stage
# reuses; blocks of 256 halve them but pay the per-call overhead twice as
# often.
RHS_BLOCK = 512


def _rhs(metric: ChartMetric, state, ws: Optional[Workspace] = None):
    n = len(state[0])
    if n <= RHS_BLOCK:
        return _rhs_block(metric, state, ws)
    parts = [_rhs_block(metric, tuple(y[lo:lo + RHS_BLOCK] for y in state), ws)
             for lo in range(0, n, RHS_BLOCK)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _rhs_block(metric: ChartMetric, state, ws):
    x, v, E, A, Ad = state
    _, _, Gamma, R = curvature_arrays(metric, x, ws)
    B, m = v.shape[:-1], v.shape[-1]
    # Gv[j, k] = Gamma_ij^k v^i, shared by the geodesic and the frame
    Gv = (v[..., None, :] @ Gamma.reshape(B + (m, m * m))).reshape(B + (m, m))
    dv = -(v[..., None, :] @ Gv)[..., 0, :]
    dE = -(Gv.swapaxes(-1, -2) @ E)
    return (v, dv, dE, Ad, -reduced_jacobi(R, v, E) @ A)


def _initial_state(metric: ChartMetric, P, thetas):
    P = np.asarray(P, dtype=float)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    B, m = thetas.shape
    g0 = metric.value(P)
    x = np.tile(P, (B, 1))
    E = np.stack([parallel_frame_start(g0, th) for th in thetas])
    A = np.zeros((B, m - 1, m - 1))
    Ad = np.tile(np.eye(m - 1), (B, 1, 1))
    return (x, thetas.copy(), E, A, Ad)


DIP = 1e-4      # conjugate-point latch: det A below DIP x its running max


def _integrate_recording(metric, P, thetas, radii, steps: int):
    """March through sorted radii by RK4, yielding (r, state, crossed) at each.

    ``steps`` fixed RK4 steps span the largest radius.  Every RHS stage
    checks the domain; an exit raises DomainExitError with a radius known
    inside: a failing k1 (which checks where the previous step ended) gives
    the previous step's start, a later stage its own step's start, and a
    segment end, checked before it is recorded, its last step's start.
    ``crossed`` latches per direction, after every step (so for the state
    yielded too), det A <= 0 (zeros of odd multiplicity) and det A < DIP
    times its running maximum (the even-multiplicity crossings a pointwise
    sign test cannot see)."""
    if (isinstance(steps, bool) or not isinstance(steps, numbers.Integral)
            or steps < 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("record radii must be positive and increasing")
    state = _initial_state(metric, P, thetas)
    max_det = np.zeros(state[0].shape[0])
    crossed = np.zeros(state[0].shape[0], dtype=bool)
    # The state travels as one flat vector y, so that an RK4 stage is two
    # array ops over all its parts, each element computed as before
    cuts = np.cumsum([0] + [part.size for part in state])
    shapes = [part.shape for part in state]
    ws = Workspace()        # one shot's RHS buffers

    def parts(flat):
        return tuple(flat[lo:hi].reshape(shape)
                     for lo, hi, shape in zip(cuts, cuts[1:], shapes))

    def rhs(flat):
        return np.concatenate([k.ravel()
                               for k in _rhs(metric, parts(flat), ws)])

    y = np.concatenate([part.ravel() for part in state])
    r_prev = 0.0
    for r in radii:
        n = max(1, int(round(steps * (r - r_prev) / radii[-1])))
        h = (r - r_prev) / n
        for i in range(n):
            try:
                k1 = rhs(y)
            except DomainError as exc:
                raise DomainExitError(r_prev + max(i - 1, 0) * h) from exc
            try:
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
            except DomainError as exc:
                raise DomainExitError(r_prev + i * h) from exc
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            state = parts(y)
            det = np.linalg.det(state[3])
            crossed |= (det <= 0) | (det < DIP * max_det)
            max_det = np.maximum(max_det, det)
        if not np.all(metric.contains(state[0])):
            raise DomainExitError(r_prev + (n - 1) * h)
        r_prev = r
        yield r, state, crossed.copy()


# ---------------------------------------------------------------------------
# samples and profiles
# ---------------------------------------------------------------------------

@dataclass
class PolarDensitySample:
    """One (center, direction, radius) shot: endpoint and density data."""

    center: np.ndarray
    direction: np.ndarray
    radius: float
    endpoint: np.ndarray
    A: np.ndarray                  # (m-1, m-1) normal Jacobi matrix
    A_prime: np.ndarray
    theta: float                   # det A
    xi: float                      # Tr(A' A^{-1})
    conjugate: bool
    energy_error: float


def shoot(metric: ChartMetric, P, theta, r: float,
          steps: int = 2000) -> PolarDensitySample:
    """Integrate a single geodesic with its Jacobi system out to radius r."""
    theta = np.asarray(theta, dtype=float)
    nrm = float(np.sqrt(theta @ metric.value(P) @ theta))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"direction must be g-unit at P (|theta|_g = {nrm:.3g})")
    (_, state, crossed), = _integrate_recording(metric, P, theta[None, :],
                                                [r], steps)
    x, v, _, A, Ad = (y[0] for y in state)
    detA = float(np.linalg.det(A))
    xi = float(np.trace(np.linalg.solve(A, Ad))) if detA > 0 else math.nan
    energy = abs(float(v @ metric.value(x) @ v) - 1.0)
    return PolarDensitySample(
        center=np.asarray(P, float), direction=theta, radius=float(r),
        endpoint=x, A=A, A_prime=Ad, theta=detA,
        xi=xi, conjugate=bool(crossed[0]), energy_error=energy)


def relative_spread(table) -> np.ndarray:
    """(max - min) / |mean| over the directions (axis 1) at each radius."""
    return ((table.max(axis=1) - table.min(axis=1))
            / np.abs(table.mean(axis=1)))


@dataclass
class DensityProfile:
    """Theta and Xi over a (radius, direction) grid about one center."""

    center: np.ndarray
    radii: np.ndarray                  # (R,)
    directions: np.ndarray             # (N, m), g-unit at the center
    theta: np.ndarray                  # (R, N) densities det A
    xi: np.ndarray                     # (R, N)
    umbilicity: np.ndarray             # (R, N) defect of A' A^{-1}
    conjugate: np.ndarray              # (R, N) bool
    energy_error: float
    largest_safe_radius: float


def density_profile(metric: ChartMetric, P, directions, radii,
                    steps: int = 2000) -> DensityProfile:
    """Batch of shoot results organized for radiality analysis.

    ``directions`` is an (N, dim) array of g-unit vectors, integrated
    together in one vectorized batch.
    """
    P = np.asarray(P, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != metric.dim \
            or len(directions) == 0:
        raise ValueError(f"directions must be shaped (N, {metric.dim}) with "
                         f"N >= 1, got {directions.shape}")
    radii = np.asarray(sorted(float(r) for r in radii))

    R, N, m = len(radii), len(directions), metric.dim
    theta = np.empty((R, N))
    xi = np.full((R, N), np.nan)
    umb = np.full((R, N), np.nan)
    conj = np.zeros((R, N), dtype=bool)
    energy = 0.0
    eye = np.eye(m - 1)
    for ir, (_, (x, v, E, A, Ad), crossed) in enumerate(
            _integrate_recording(metric, P, directions, radii, steps)):
        det = np.linalg.det(A)
        theta[ir] = det
        conj[ir] = crossed
        good = ~crossed
        if np.any(good):
            shape_op = np.linalg.solve(
                np.transpose(A[good], (0, 2, 1)),
                np.transpose(Ad[good], (0, 2, 1)))
            shape_op = np.transpose(shape_op, (0, 2, 1))  # Ad A^{-1}
            tr = np.trace(shape_op, axis1=1, axis2=2)
            xi[ir, good] = tr
            dev = shape_op - tr[:, None, None] / (m - 1) * eye
            umb[ir, good] = np.linalg.norm(dev, axis=(1, 2))
        g = metric.value(x)
        energy = max(energy, float(np.max(np.abs(
            np.einsum('bi,bij,bj->b', v, g, v) - 1.0))))
    safe = radii[-1]
    if conj.any():
        first_bad = np.argmax(conj.any(axis=1))
        safe = radii[first_bad - 1] if first_bad else 0.0
    return DensityProfile(center=P, radii=radii, directions=directions,
                          theta=theta, xi=xi, umbilicity=umb, conjugate=conj,
                          energy_error=energy, largest_safe_radius=float(safe))


# ---------------------------------------------------------------------------
# harmonicity
# ---------------------------------------------------------------------------

# The default radius grid: N_RADII geometric radii up to R_MAX, which is
# clamped to 0.45 of the injectivity radius about a chart's center.
R_MAX = 0.8
N_RADII = 6


@dataclass
class HarmonicityReport:
    """Numerical verdict on central harmonicity about one point."""

    center: list
    verdict: bool
    inconclusive: bool
    tolerance: float
    theta_spread_max: float
    xi_spread_max: float
    einstein_defect: float
    radii: list
    theta_spread: list
    xi_spread: list
    n_directions: int
    largest_safe_radius: float
    profile: Optional[DensityProfile] = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "profile"}


def centrally_harmonic_test(metric: ChartMetric, P,
                            radii: Optional[Sequence[float]] = None,
                            n_directions: int = 16, tolerance: float = 1e-6,
                            steps: int = 800) -> HarmonicityReport:
    """Radiality of Theta and Xi across directions, plus the Einstein check.

    The verdict is 'harmonic about P' iff both relative spreads stay below
    the tolerance at every probed radius.  Radii that leave the chart or
    cross a conjugate point make the result inconclusive rather than false.
    """
    if (isinstance(n_directions, bool)
            or not isinstance(n_directions, numbers.Integral)
            or n_directions < 2):
        # one direction has no spread to measure: it would read as radial
        raise ValueError(f"n_directions must be an integer: the harmonicity "
                         f"test needs at least 2 directions, "
                         f"got {n_directions!r}")
    if (isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real)
            or not 0 < tolerance < math.inf):
        # a tolerance <= 0 would turn a radial profile into "not harmonic"
        raise ValueError(f"tolerance must be a finite real > 0, "
                         f"got {tolerance!r}")
    P = np.asarray(P, dtype=float)
    if radii is None:
        r_max = R_MAX
        iota = metric.injectivity_radius
        if np.allclose(P, 0.0) and iota is not None and math.isfinite(iota):
            r_max = min(r_max, 0.45 * iota)
        radii = np.geomspace(r_max / 4.0, r_max, N_RADII)
    try:
        profile = density_profile(
            metric, P, g_unit_directions(metric, P, n_directions), radii,
            steps)
    except DomainExitError:
        profile = None
    inconclusive = profile is None or bool(profile.conjugate.any())
    if inconclusive:
        sp_t = sp_x = [math.nan]
        verdict = False
    else:
        sp_t, sp_x = map(relative_spread, (profile.theta, profile.xi))
        verdict = bool(max(sp_t.max(), sp_x.max()) <= tolerance)
    return HarmonicityReport(
        center=P.tolist(), verdict=verdict, inconclusive=inconclusive,
        tolerance=float(tolerance),
        theta_spread_max=float(np.max(sp_t)), xi_spread_max=float(np.max(sp_x)),
        einstein_defect=einstein_defect(curvature(metric, P, k_max=0)),
        radii=sorted(map(float, radii)),     # the order density_profile uses
        theta_spread=list(map(float, np.atleast_1d(sp_t))),
        xi_spread=list(map(float, np.atleast_1d(sp_x))),
        n_directions=n_directions,
        largest_safe_radius=(profile.largest_safe_radius
                             if profile is not None else 0.0),
        profile=profile)


# ---------------------------------------------------------------------------
# geodesic-sphere shape
# ---------------------------------------------------------------------------

@dataclass
class SphereShapeSample:
    """Second fundamental form of S_P(r) at one point, in the parallel frame.

    Oriented so Tr L = +Xi (see hml.conventions).
    """

    center: np.ndarray
    direction: np.ndarray
    radius: float
    L: np.ndarray                   # (m-1, m-1) shape operator A' A^{-1}
    umbilicity_defect: float
    xi: float


def second_fundamental_form(metric: ChartMetric, P, theta, r: float,
                            steps: int = 2000) -> SphereShapeSample:
    sample = shoot(metric, P, theta, r, steps)
    if sample.conjugate:
        raise ConjugatePointError(
            f"det A <= 0 at r = {r}: conjugate point crossed")
    L = sample.A_prime @ np.linalg.inv(sample.A)
    L = 0.5 * (L + L.T)
    mdim = metric.dim
    defect = float(np.linalg.norm(L - np.trace(L) / (mdim - 1) * np.eye(mdim - 1)))
    return SphereShapeSample(
        center=sample.center, direction=sample.direction, radius=r, L=L,
        umbilicity_defect=defect, xi=float(np.trace(L)))
