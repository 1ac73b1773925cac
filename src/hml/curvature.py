"""Pointwise curvature: Christoffels, Riemann, Ricci, grad^k R.

Index conventions are documented in :mod:`hml.conventions`.  Two paths are
provided: batched arrays for the quantities the geodesic integrator needs
at every step (Gamma and R), and stacked jets indexed by integer tables, as
the metric entries are, for full curvature bundles with grad^k R.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .jets import MultiJet, entry_dot
from .metric import (ChartMetric, DegenerateMetricError, OrderExceededError,
                     Workspace, entry_layout)


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
    batch, m = g.shape[:-2], g.shape[-1]
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        # the first point whose g has a zero pivot
        at = next((p for p, gp in zip(np.reshape(x, (-1, m)),
                                      g.reshape(-1, m, m))
                   if np.linalg.det(gp) == 0), np.ravel(x))
        raise _degenerate(metric, at) from exc
    # U takes derivative_arrays' scratch buffer, free once it returns
    # first kind: h[i, j, l] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    h = ws.array("h", batch + (m, m, m))
    np.add(dg.swapaxes(-1, -3).swapaxes(-1, -2), dg.swapaxes(-1, -2), out=h)
    np.subtract(h, dg, out=h)
    np.multiply(0.5, h, out=h)
    h = h.reshape(batch + (m * m, m))
    # Gamma_ij^k = g^{kl} h_ijl
    Gamma = np.matmul(h, ginv.swapaxes(-1, -2),
                      out=ws.array("Gamma", batch + (m * m, m)))
    # R_ijkl = S_ijkl - S_jikl with
    # S_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk) - Gamma_jk^n h_iln,
    # assembled as U[j, k, i, l] = S_ijkl
    U = np.matmul(Gamma, h.swapaxes(-1, -2),
                  out=ws.array("gather", batch + (m * m, m * m)))
    # The index swaps are gathers along the flat m^4 axis: elementwise ops
    # over the permuted views ran inner loops of length m.  R's buffer holds
    # the second-derivative term until R is formed, d2g's holds S.
    swap, to_s = _flat_perms(m)
    d2f, Uf = d2g.reshape(-1, m ** 4), U.reshape(-1, m ** 4)
    R = ws.array("R", batch + (m,) * 4)
    Rf = R.reshape(-1, m ** 4)
    d2f.take(swap, 1, out=Rf, mode="clip")
    np.subtract(Rf, d2f, out=Rf)
    np.multiply(0.5, Rf, out=Rf)
    np.subtract(Rf, Uf, out=Uf)
    S = Uf.take(to_s, 1, out=d2f, mode="clip").reshape(R.shape)
    np.subtract(S, S.swapaxes(-4, -3), out=R)
    return g, ginv, Gamma.reshape(batch + (m, m, m)), R


def _degenerate(metric: ChartMetric, x) -> DegenerateMetricError:
    """The error naming the chart and the point x, on one line."""
    return DegenerateMetricError(
        f"degenerate metric {metric.name} at "
        f"{np.array2string(x, max_line_width=np.inf)}")


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
    return E.swapaxes(-1, -2) @ jacobi_form(R, v) @ E


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


def _inverse(G, order):
    """Inverse of an (m, m) stack by Newton iteration from its value's inverse."""
    m = G.coef.shape[1]
    k = np.arange(m)
    i, j = k[:, None, None], k[:, None]
    X = MultiJet.constant(G.space, np.linalg.inv(G.value), (m, m))
    for _ in range(max(1, int(np.ceil(np.log2(order + 1))) + 1)):
        GX = entry_dot(G, (i, k), X, (k, j))
        GX.coef[0, range(m), range(m)] -= 2.0
        X = -entry_dot(X, (i, k), GX, (k, j))
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
    # Rup = (Rup + Gamma_in^l Gamma_jk^n) - Gamma_jn^l Gamma_ik^n, n in order
    n, odd = np.repeat(np.arange(m), 2), np.arange(2 * m) % 2
    p, q = (np.where(odd, y[..., None], x[..., None])
            for x, y in ((i, j), (j, i)))
    Rup = entry_dot(Gam, (e[p, n], l[..., None]), Gam, (e[q, k[..., None]], n),
                    init=Rup, minus=range(1, 2 * m, 2))
    n = np.arange(m)
    return entry_dot(S, (e[l[..., None], n],), Rup,
                     (ij[..., None], k[..., None], n))


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
    i, j, l = rows[:, None], cols[:, None], np.arange(m)
    D = ((dS.entries(e[j, l], i) + dS.entries(e[i, l], j))
         - dS.entries(e[i, j], l))             # D[ij, l], summed over l
    ij = np.arange(len(rows))[:, None, None]
    Gam = entry_dot(Ginv, (l[:, None], l), D, (ij, l)) * 0.5
    R = _riemann_stack(S, Gam)
    zero = Gam.entries(0, 0) * 0.0
    a, b = np.triu_indices(m, 1)
    PR = {}
    for d in range(k_max + 1):
        # R_jikl = -1.0 R_ijkl and R_iikl = Gamma_00^0 * 0.0, filled by index;
        # P is a fresh gather, negated in place once its upper half is written
        PR[d] = np.empty((m,) * (4 + d))
        P = _derivs(R, d)
        PR[d][a, b] = P
        PR[d][b, a] = np.multiply(-1.0, P, out=P)
        del P
        PR[d][range(m), range(m)] = zero.derivative_array(d)
    DGam = {d: np.ascontiguousarray(_derivs(Gam, d)[e]) for d in range(k_max)}
    return S.value[e], Gam.value[e], PR, DGam


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _covariant_step(P_prev: dict, DGam: dict, rank: int, need: int):
    """One covariant derivative of a rank-``rank`` tensor.

    P_prev[d] are partial arrays of T (shape (m,)*rank + (m,)*d); returns
    partial arrays of grad T (rank + 1, new covariant slot appended last)
    for d = 0..need, and drops P_prev[need + 1] after its one read.  The
    Leibniz expansion runs over explicit derivative slots, so arrays stay
    dense and einsum does the work.  The einsums of the slot subsets of one
    size differ only in which output slots carry which letters, so each is
    formed once, for the first subset, and read transposed for the rest.
    """
    P_new = {}
    for d in range(need + 1):
        # d^d of (grad T)[..., a] = P_prev[d+1] with 'a' as one derivative slot
        base_idx = _LETTERS[:rank]
        dslots = _LETTERS[rank:rank + d]
        a, c = _LETTERS[rank + d], _LETTERS[rank + d + 1]
        # reorder: P_prev[d+1][..., p1..pd, a] -> want [..., a, p1..pd]
        total = np.moveaxis(P_prev.pop(d + 1) if d == need else P_prev[d + 1],
                            -1, rank).copy()
        # corrections: - sum_slots d^S Gamma_{a i_s}^c * d^(rest) T[i_s -> c]
        for s in range(rank):
            t_idx = base_idx[:s] + c + base_idx[s + 1:]
            for nsub in range(d + 1):
                E = np.einsum(f"{a}{base_idx[s]}{c}{dslots[:nsub]},"
                              f"{t_idx}{dslots[nsub:]}->{base_idx}{a}{dslots}",
                              DGam[nsub], P_prev[d - nsub])
                for subset in combinations(range(d), nsub):
                    rest = [i for i in range(d) if i not in subset]
                    slots = np.argsort(list(subset) + rest) + rank + 1
                    total -= E.transpose(*range(rank + 1), *slots)
                del E
        P_new[d] = total
    return P_new


def curvature(metric: ChartMetric, x, k_max: int = 0) -> CurvatureBundle:
    """Full curvature bundle at a single point, with grad^k R for k <= k_max."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("curvature bundles are per-point; batch via curvature_arrays")
    if (isinstance(k_max, bool) or not isinstance(k_max, numbers.Integral)
            or k_max < 0):
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    try:
        g, Gamma, P, DGam = _jet_partials(metric, x, k_max)
        if not np.isfinite(g).all():        # inv does not raise on NaN
            raise np.linalg.LinAlgError("metric is not finite")
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise _degenerate(metric, x) from exc
    riemann, nabla = P[0], []
    for s in range(1, k_max + 1):       # rebinding P frees the step's input
        P = _covariant_step(P, DGam, 3 + s, k_max - s)
        nabla.append(P[0])
    ricci = np.einsum('il,ijkl->jk', ginv, riemann)
    scalar = float(np.einsum('jk,jk->', ginv, ricci))
    return CurvatureBundle(point=x, dim=metric.dim, k_max=k_max, g=g, ginv=ginv,
                           christoffels=Gamma, riemann=riemann, ricci=ricci,
                           scalar=scalar, nabla_r=nabla)


# ---------------------------------------------------------------------------
# spec operations built on bundles
# ---------------------------------------------------------------------------

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


def einstein_defect(bundle: CurvatureBundle) -> float:
    """Frobenius norm of ricci - (scal/m) g in a g-orthonormal frame."""
    m = bundle.dim
    w, V = np.linalg.eigh(bundle.g)
    g_inv_half = V @ np.diag(w ** -0.5) @ V.T
    dev = g_inv_half @ (bundle.ricci - bundle.scalar / m * bundle.g) @ g_inv_half
    return float(np.linalg.norm(dev))
