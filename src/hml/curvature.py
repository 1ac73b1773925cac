"""Pointwise curvature: Christoffels, Riemann, Ricci, grad^k R, Hessians.

Index conventions are documented in :mod:`hml.conventions`.  Two paths are
provided: batched arrays for the quantities the geodesic integrator needs
at every step (Gamma and R), and stacked jets indexed by integer tables, as
the metric entries are, for full curvature bundles with grad^k R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .jets import MultiJet
from .metric import (ChartMetric, DegenerateMetricError, OrderExceededError,
                     ScalarField, Workspace, entry_layout)


# ---------------------------------------------------------------------------
# fast batched arrays: g, ginv, Gamma, R (order-2 jets)
# ---------------------------------------------------------------------------

def curvature_arrays(metric: ChartMetric, x, ws: Optional[Workspace] = None):
    """(g, ginv, Gamma, R) at x; x may be (m,) or batched (..., m).

    Gamma[..., i, j, k] = Gamma_ij^k and R[..., i, j, k, l] is the lowered
    curvature tensor in the package sign convention.  Contractions are fixed
    two-operand matmuls; R is built from Christoffels of the first kind.
    The large arrays are written into ``ws`` (a fresh workspace by default),
    so a caller that passes its own reuses their pages from call to call.
    """
    ws = Workspace() if ws is None else ws
    g, dg, d2g = metric.derivative_arrays(x, 2, ws)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(
            f"degenerate metric {metric.name} at {x}") from exc
    batch, m = g.shape[:-2], g.shape[-1]
    # U takes derivative_arrays' scratch buffer, free once it returns
    # first kind: h[i, j, l] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    h = ws.array("h", batch + (m, m, m))
    np.add(np.moveaxis(dg, -1, -3), np.swapaxes(dg, -1, -2), out=h)
    np.subtract(h, dg, out=h)
    np.multiply(0.5, h, out=h)
    h = h.reshape(batch + (m * m, m))
    # Gamma_ij^k = g^{kl} h_ijl
    Gamma = np.matmul(h, np.swapaxes(ginv, -1, -2),
                      out=ws.array("Gamma", batch + (m * m, m)))
    # R_ijkl = S_ijkl - S_jikl with
    # S_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk) - Gamma_jk^n h_iln,
    # assembled as U[j, k, i, l] = S_ijkl
    U = np.matmul(Gamma, np.swapaxes(h, -1, -2),
                  out=ws.array("gather", batch + (m * m, m * m)))
    # The index swaps are gathers along the flat m^4 axis: elementwise ops
    # over the permuted views ran inner loops of length m.  R's buffer holds
    # the second-derivative term until R is formed, d2g's holds S.
    swap, to_s = _flat_perms(m)
    d2f, Uf = d2g.reshape(-1, m ** 4), U.reshape(-1, m ** 4)
    R = ws.array("R", batch + (m,) * 4)
    Rf = R.reshape(-1, m ** 4)
    np.take(d2f, swap, axis=1, mode="clip", out=Rf)
    np.subtract(Rf, d2f, out=Rf)
    np.multiply(0.5, Rf, out=Rf)
    np.subtract(Rf, Uf, out=Uf)
    S = np.take(Uf, to_s, axis=1, mode="clip", out=d2f).reshape(R.shape)
    np.subtract(S, np.swapaxes(S, -4, -3), out=R)
    return g, ginv, Gamma.reshape(batch + (m, m, m)), R


@lru_cache(maxsize=None)
def _flat_perms(m: int):
    """Flat m^4 positions of swapaxes(T, -3, -1) and of moveaxis(T, -2, -4)."""
    idx = np.arange(m ** 4).reshape((m,) * 4)
    return (np.swapaxes(idx, -3, -1).ravel(),
            np.moveaxis(idx, -2, -4).ravel())


def jacobi_form(R, v):
    """R(., v, v, .): contract slots j and k of R[..., i, j, k, l] with v.

    Staged as Rv, then Rvv; the last axis of R may carry extra slots
    flattened into it, which pass through (batch axes broadcast with v).
    """
    m = v.shape[-1]
    vrow = v[..., None, None, :]
    Rv = vrow @ R.reshape(R.shape[:-3] + (m, -1))
    return (vrow @ Rv.reshape(Rv.shape[:-2] + (m, -1)))[..., 0, :]


def reduced_jacobi(R, v, E):
    """R(E_a, v, v, E_b): the Jacobi operator along v in the frame E[..., m, n]."""
    return np.swapaxes(E, -1, -2) @ jacobi_form(R, v) @ E


# ---------------------------------------------------------------------------
# curvature bundles with covariant derivatives (jet-ring path)
# ---------------------------------------------------------------------------

@dataclass
class CurvatureBundle:
    """All pointwise curvature data at a single chart point."""

    point: np.ndarray
    dim: int
    k_max: int
    g: np.ndarray
    ginv: np.ndarray
    christoffels: np.ndarray            # Gamma[i, j, k] = Gamma_ij^k
    riemann: np.ndarray                 # lowered R[i, j, k, l]
    ricci: np.ndarray
    scalar: float
    nabla_r: list = field(default_factory=list)  # nabla_r[s] = grad^s R

    def nabla(self, s: int) -> np.ndarray:
        if not 0 <= s <= self.k_max:
            raise OrderExceededError(
                f"bundle holds grad^k R for k <= {self.k_max}, got {s}")
        return self.riemann if s == 0 else self.nabla_r[s - 1]


def _dot(pairs):
    """The sum of a * b over the stack pairs (a, b), added in order."""
    total = None
    for a, b in pairs:
        total = a * b if total is None else total + a * b
    return total


def _inverse(G, order):
    """Inverse of an (m, m) stack by Newton iteration from its value's inverse."""
    m = G.coef.shape[1]
    i, j = np.indices((m, m))
    X = MultiJet.constant(G.space, np.linalg.inv(G.value), (m, m))
    for _ in range(max(1, int(np.ceil(np.log2(order + 1))) + 1)):
        GX = _dot((G.entries(i, k), X.entries(k, j)) for k in range(m))
        GX.coef[0, range(m), range(m)] -= 2.0
        X = -_dot((X.entries(i, k), GX.entries(k, j)) for k in range(m))
    return X


def _partials(T):
    """dT[..., p] = d/dx_p of each entry of the stack T, one entry axis more."""
    return MultiJet(T.space, np.stack(
        [T.partial(p).coef for p in range(T.space.nvars)], axis=-1))


def _derivs(T, d):
    """Order-d partials of the stack T, derivative axes after the entry axes."""
    return np.moveaxis(T.derivative_array(d), range(d), range(-d, 0))


def _riemann_stack(S, Gam):
    """R[ij, k, l] = R_ijkl for i < j, ij indexing np.triu_indices(m, 1)."""
    m = S.space.nvars
    e = entry_layout(m)[3]
    a, b = np.triu_indices(m, 1)
    ij, i, j, k, l = np.broadcast_arrays(
        np.arange(len(a))[:, None, None], a[:, None, None], b[:, None, None],
        np.arange(m)[:, None], np.arange(m))
    dGam = _partials(Gam)                      # dGam[ij, k, p] = d_p Gamma_ij^k
    Rup = dGam.entries(e[j, k], l, i) - dGam.entries(e[i, k], l, j)
    del dGam                                   # only Rup's first term reads it
    for n in range(m):
        Rup = (Rup + Gam.entries(e[i, n], l) * Gam.entries(e[j, k], n)) \
            - Gam.entries(e[j, n], l) * Gam.entries(e[i, k], n)
    return _dot((S.entries(e[l, n]), Rup.entries(ij, k, n)) for n in range(m))


def _jet_partials(metric: ChartMetric, x, k_max: int):
    """g, Gamma and the partial arrays of R and Gamma at x, from stacked jets.

    Every jet-ring quantity is one stack, indexed by integer tables as
    ``entry_layout`` indexes the metric: G and G^-1 over (i, j), Gamma over
    (i <= j, k), R up and down over (i < j, k, l), and dG, dGamma along one
    more axis p.  Each entry keeps the term order of the per-entry formulas.
    The partials of R (to order k_max) and of Gamma (to k_max - 1) come as
    C-contiguous arrays: the einsums of _covariant_step round by layout.
    """
    m = metric.dim
    rows, cols, _, e = entry_layout(m)
    S = metric.component_jets(x, k_max + 2)
    Ginv = _inverse(S.entries(e), k_max + 2)
    # Gamma[ij, k] = Gamma_ij^k for i <= j, ij the entry of g_ij in S
    dS = _partials(S)                          # dS[e[i, j], p] = d_p g_ij
    i, j, k = np.broadcast_arrays(rows[:, None], cols[:, None], np.arange(m))
    Gam = _dot((Ginv.entries(k, l),
                (dS.entries(e[j, l], i) + dS.entries(e[i, l], j))
                - dS.entries(e[i, j], l)) for l in range(m)) * 0.5
    R = _riemann_stack(S, Gam)
    zero = Gam.entries(0, 0) * 0.0
    a, b = np.triu_indices(m, 1)
    PR = {}
    for d in range(k_max + 1):
        # R_jikl = -1.0 R_ijkl and R_iikl = Gamma_00^0 * 0.0, filled by index
        PR[d] = np.empty((m,) * (4 + d))
        P = _derivs(R, d)
        PR[d][a, b] = P
        PR[d][b, a] = -1.0 * P
        PR[d][range(m), range(m)] = zero.derivative_array(d)
    DGam = {d: np.ascontiguousarray(_derivs(Gam, d)[e])
            for d in range(max(k_max, 1))}
    return S.value[e], Gam.value[e], PR, DGam


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _covariant_step(P_prev: dict, DGam: dict, rank: int, need: int):
    """One covariant derivative of a rank-``rank`` tensor.

    P_prev[d] are partial arrays of T (shape (m,)*rank + (m,)*d); returns
    partial arrays of grad T (rank + 1, new covariant slot appended last)
    for d = 0..need.  The Leibniz expansion runs over explicit derivative
    slots, so arrays stay dense and einsum does the work.
    """
    P_new = {}
    for d in range(need + 1):
        # d^d of (grad T)[..., a] = P_prev[d+1] with 'a' as one derivative slot
        base_idx = _LETTERS[:rank]
        dslots = _LETTERS[rank:rank + d]
        a = _LETTERS[rank + d]
        src = P_prev[d + 1]
        # reorder: P_prev[d+1][..., p1..pd, a] -> want [..., a, p1..pd]
        term = np.moveaxis(src, -1, rank)
        total = term.copy()
        # corrections: - sum_slots d^S Gamma_{a i_s}^c * d^(rest) T[i_s -> c]
        for s in range(rank):
            for nsub in range(d + 1):
                for subset in combinations(range(d), nsub):
                    rest = [i for i in range(d) if i not in subset]
                    gam_idx = a + base_idx[s] + _LETTERS[rank + d + 1]  # a i_s c
                    gam_d = "".join(dslots[i] for i in subset)
                    t_idx = (base_idx[:s] + _LETTERS[rank + d + 1]
                             + base_idx[s + 1:] + "".join(dslots[i] for i in rest))
                    out_idx = base_idx + a + dslots
                    expr = f"{gam_idx}{gam_d},{t_idx}->{out_idx}"
                    total -= np.einsum(expr, DGam[nsub], P_prev[d - nsub])
        P_new[d] = total
    return P_new


def curvature(metric: ChartMetric, x, k_max: int = 0) -> CurvatureBundle:
    """Full curvature bundle at a single point, with grad^k R for k <= k_max."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("curvature bundles are per-point; batch via curvature_arrays")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    metric.check_order(k_max + 2)
    g, Gamma, PR, DGam = _jet_partials(metric, x, k_max)
    ginv = np.linalg.inv(g)
    nabla = []
    P = PR
    for s in range(1, k_max + 1):
        P = _covariant_step(P, DGam, 3 + s, k_max - s)
        nabla.append(P[0])
    ricci = np.einsum('il,ijkl->jk', ginv, PR[0])
    scalar = float(np.einsum('jk,jk->', ginv, ricci))
    return CurvatureBundle(point=x, dim=metric.dim, k_max=k_max, g=g, ginv=ginv,
                           christoffels=Gamma, riemann=PR[0], ricci=ricci,
                           scalar=scalar, nabla_r=nabla)


# ---------------------------------------------------------------------------
# spec operations built on bundles
# ---------------------------------------------------------------------------

def christoffels(metric: ChartMetric, x) -> np.ndarray:
    """Gamma[..., i, j, k] = Gamma_ij^k at x (batch allowed)."""
    _, _, Gamma, _ = curvature_arrays(metric, x)
    return Gamma


def sectional_curvature(bundle: CurvatureBundle, u, v) -> float:
    """Sectional curvature of span(u, v); raises on degenerate planes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = bundle.g
    gram = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if gram <= 1e-14 * max(1.0, float(u @ g @ u) * float(v @ g @ v)):
        raise ValueError("degenerate plane for sectional curvature")
    num = np.einsum('ijkl,i,j,k,l->', bundle.riemann, u, v, v, u)
    return float(num / gram)


def hessian(metric: ChartMetric, phi: ScalarField, x) -> np.ndarray:
    """Covariant Hessian (d_i d_j phi - Gamma_ij^k d_k phi) at x."""
    x = np.asarray(x, dtype=float)
    jet = phi.jet(x, 2)
    grad = np.moveaxis(jet.derivative_array(1), 0, -1)
    d2 = np.moveaxis(jet.derivative_array(2), (0, 1), (-2, -1))
    Gamma = christoffels(metric, x)
    H = d2 - np.einsum('...ijk,...k->...ij', Gamma, grad)
    return H


def laplacian(metric: ChartMetric, phi: ScalarField, x) -> float:
    """Geometer's positive Laplacian Delta0 phi = -trace_g Hess phi."""
    H = hessian(metric, phi, x)
    ginv = np.linalg.inv(metric.value(x))
    return -np.einsum('...ij,...ij->...', ginv, H)


def gradient_norm_sq(metric: ChartMetric, phi: ScalarField, x):
    grad = phi.jet(x, 1).derivative_array(1)
    ginv = np.linalg.inv(metric.value(x))
    return np.einsum('...i,...ij,...j->...', grad, ginv, grad)


def einstein_defect(bundle: CurvatureBundle) -> float:
    """Frobenius norm of ricci - (scal/m) g in a g-orthonormal frame."""
    m = bundle.dim
    w, V = np.linalg.eigh(bundle.g)
    g_inv_half = V @ np.diag(w ** -0.5) @ V.T
    dev = g_inv_half @ (bundle.ricci - bundle.scalar / m * bundle.g) @ g_inv_half
    return float(np.linalg.norm(dev))
