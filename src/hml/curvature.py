"""Pointwise curvature: Christoffels, Riemann, Ricci, grad^k R, Hessians.

Index conventions are documented in :mod:`hml.conventions`.  Two paths are
provided: a batched array path for the quantities the geodesic integrator
needs at every step (Gamma and R), and a jet-ring path for full curvature
bundles with iterated covariant derivatives of R.
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
        if s > self.k_max:
            raise OrderExceededError(
                f"bundle holds grad^k R for k <= {self.k_max}, got {s}")
        return self.riemann if s == 0 else self.nabla_r[s - 1]


def _jet_matrix_inverse(G, order):
    """Inverse of an object-matrix of jets by Newton iteration."""
    m = G.shape[0]
    space = G[0, 0].space
    batch = G[0, 0].batch_shape
    g0 = np.empty(batch + (m, m))
    for i in range(m):
        for j in range(m):
            g0[..., i, j] = G[i, j].value
    inv0 = np.linalg.inv(g0)
    X = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            X[i, j] = MultiJet.constant(space, inv0[..., i, j], batch)
    steps = max(1, int(np.ceil(np.log2(order + 1))) + 1)
    for _ in range(steps):
        GX = _jet_matmul(G, X)
        for i in range(m):
            GX[i, i] = GX[i, i] - 2.0
        X = _jet_matmul(X, GX)
        for i in range(m):
            for j in range(m):
                X[i, j] = -X[i, j]
    return X


def _jet_matmul(A, B):
    m = A.shape[0]
    out = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            acc = A[i, 0] * B[0, j]
            for k in range(1, m):
                acc = acc + A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def _christoffel_jets(G, Ginv):
    """Gamma_ij^k as jets; exact to one order below the metric jets."""
    m = G.shape[0]
    dG = [[[G[i][j].partial(p) for p in range(m)] for j in range(m)]
          for i in range(m)]
    Gam = np.empty((m, m, m), dtype=object)
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                acc = None
                for l in range(m):
                    term = Ginv[k, l] * (dG[j][l][i] + dG[i][l][j] - dG[i][j][l])
                    acc = term if acc is None else acc + term
                Gam[i, j, k] = acc * 0.5
                Gam[j, i, k] = Gam[i, j, k]
    return Gam


def _riemann_jets(G, Gam):
    """Lowered R_{ijkl} as jets; exact to two orders below the metric jets."""
    m = G.shape[0]
    dGam = np.empty((m, m, m, m), dtype=object)  # dGam[p][i][j][k] = d_p G_ij^k
    for p in range(m):
        for i in range(m):
            for j in range(i, m):
                for k in range(m):
                    dGam[p, i, j, k] = Gam[i, j, k].partial(p)
                    dGam[p, j, i, k] = dGam[p, i, j, k]
    Rup = np.empty((m, m, m, m), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                for l in range(m):
                    acc = dGam[i, j, k, l] - dGam[j, i, k, l]
                    for mm in range(m):
                        acc = acc + Gam[i, mm, l] * Gam[j, k, mm] \
                            - Gam[j, mm, l] * Gam[i, k, mm]
                    Rup[i, j, k, l] = acc
    zero = Gam[0, 0, 0] * 0.0
    for i in range(m):
        for k in range(m):
            for l in range(m):
                Rup[i, i, k, l] = zero
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                for l in range(m):
                    Rup[j, i, k, l] = -1.0 * Rup[i, j, k, l]
    # lower the last index
    Rlow = np.empty((m, m, m, m), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                for l in range(m):
                    acc = None
                    for mm in range(m):
                        term = G[l, mm] * Rup[i, j, k, mm]
                        acc = term if acc is None else acc + term
                    Rlow[i, j, k, l] = acc
                    Rlow[j, i, k, l] = -1.0 * acc
        for k in range(m):
            for l in range(m):
                Rlow[i, i, k, l] = zero
    return Rlow


def _tensor_partials(T_jets, orders):
    """Numeric partial-derivative arrays of an object-array of jets.

    Returns P[d] of shape T.shape + (m,)*d for each d in ``orders``
    (derivative indices appended last).
    """
    shape = T_jets.shape
    flat = T_jets.reshape(-1)
    out = {}
    for d in orders:
        arrs = [np.moveaxis(j.derivative_array(d), range(d), range(-d, 0))
                if d else j.derivative_array(0) for j in flat]
        stacked = np.stack(arrs).reshape(shape + arrs[0].shape)
        out[d] = stacked
    return out


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
    m = metric.dim
    order = k_max + 2
    metric.check_order(order)
    stack = metric.component_jets(x, order)
    G = np.empty((m, m), dtype=object)
    for ij, e in enumerate(entry_layout(m)[3].flat):
        G.flat[ij] = stack.entries(e)
    Ginv = _jet_matrix_inverse(G, order)
    Gam = _christoffel_jets(G, Ginv)
    Rlow = _riemann_jets(G, Gam)

    g = np.array([[G[i, j].value for j in range(m)] for i in range(m)], dtype=float)
    ginv = np.linalg.inv(g)
    Gamma = np.array([[[Gam[i, j, k].value for k in range(m)]
                       for j in range(m)] for i in range(m)], dtype=float)
    # partial arrays of R (exact to order k_max) and of Gamma (k_max - 1);
    # Gam[i, j, k] = Gamma_ij^k is symmetric in (i, j), matching the
    # 'a i c' pattern used for corrections in _covariant_step.
    PR = _tensor_partials(Rlow, range(k_max + 1))
    DGam = _tensor_partials(Gam, range(max(k_max, 1)))
    nabla = []
    P = PR
    rank = 4
    for s in range(1, k_max + 1):
        P = _covariant_step(P, DGam, rank, k_max - s)
        rank += 1
        nabla.append(P[0])

    R0 = PR[0]
    ricci = np.einsum('il,ijkl->jk', ginv, R0)
    scalar = float(np.einsum('jk,jk->', ginv, ricci))
    return CurvatureBundle(point=x, dim=m, k_max=k_max, g=g, ginv=ginv,
                           christoffels=Gamma, riemann=R0, ricci=ricci,
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
