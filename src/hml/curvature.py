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
from itertools import combinations, product
from typing import Optional

import numpy as np

from .jets import ROWS_MAX, MultiJet, entry_dot, jet_space
from .metric import (ChartMetric, DegenerateMetricError, OrderExceededError,
                     Workspace, derivative_plan, entry_layout)


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
    g = metric.derivative_arrays(x, 2, ws)[0]
    batch, m = g.shape[:-2], g.shape[-1]
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        # the first point whose g has a zero pivot
        at = next((p for p, gp in zip(np.reshape(x, (-1, m)),
                                      g.reshape(-1, m, m))
                   if np.linalg.det(gp) == 0), np.ravel(x))
        raise _degenerate(metric, at) from exc
    (dg, dg_jli, dg_ilj, h, hf, hT, Gamma, U, d2f, Uf, Rf, swap, to_s, S,
     S_swapped, R, Gamma3) = ws.plan(_arrays_plan, m, batch)
    # first kind: h[i, j, l] = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    np.add(dg_jli, dg_ilj, out=h)
    np.subtract(h, dg, out=h)
    np.multiply(0.5, h, out=h)
    # Gamma_ij^k = g^{kl} h_ijl
    np.matmul(hf, ginv.swapaxes(-1, -2), out=Gamma)
    # R_ijkl = S_ijkl - S_jikl with
    # S_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk) - Gamma_jk^n h_iln,
    # assembled as U[j, k, i, l] = S_ijkl
    np.matmul(Gamma, hT, out=U)
    # The index swaps are gathers along the flat m^4 axis: elementwise ops
    # over the permuted views ran inner loops of length m.  R's buffer holds
    # the second-derivative term until R is formed, d2g's holds S.
    d2f.take(swap, 1, out=Rf, mode="clip")
    np.subtract(Rf, d2f, out=Rf)
    np.multiply(0.5, Rf, out=Rf)
    np.subtract(Rf, Uf, out=Uf)
    Uf.take(to_s, 1, out=d2f, mode="clip")
    np.subtract(S, S_swapped, out=R)
    return g, ginv, Gamma3, R


def _arrays_plan(ws: Workspace, m: int, batch: tuple):
    """curvature_arrays' buffers, views and tables (see Workspace): the
    derivative arrays are derivative_plan's, and U takes its scratch."""
    _, dg, d2g = ws.plan(derivative_plan, m, 2, batch)[-1]
    h = ws.array("h", batch + (m, m, m))
    hf = h.reshape(batch + (m * m, m))
    Gamma = ws.array("Gamma", batch + (m * m, m))
    U = ws.array("gather", batch + (m * m, m * m))
    R = ws.array("R", batch + (m,) * 4)
    d2f = d2g.reshape(-1, m ** 4)
    S = d2f.reshape(R.shape)
    return (dg, dg.swapaxes(-1, -3).swapaxes(-1, -2), dg.swapaxes(-1, -2),
            h, hf, hf.swapaxes(-1, -2), Gamma, U, d2f, U.reshape(-1, m ** 4),
            R.reshape(-1, m ** 4), *_flat_perms(m), S, S.swapaxes(-4, -3), R,
            Gamma.reshape(batch + (m, m, m)))


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
    """(m, m) stack inverse by Newton; ``order`` sets only the step count."""
    k = np.arange(G.coef.shape[1])
    i, j = k[:, None, None], k[:, None]
    X = MultiJet.constant(G.space, np.linalg.inv(G.value), G.value.shape)
    for _ in range(int(np.ceil(np.log2(order + 1))) + 1):
        GX = entry_dot(G, (i, k), X, (k, j))
        GX.coef[0, k, k] -= 2.0
        X = -entry_dot(X, (i, k), GX, (k, j))
    return X


def _truncated(T, order: int):
    """T to total degree ``order``: a prefix, since _indices is graded."""
    space = jet_space(T.space.nvars, order)
    return MultiJet(space, T.coef[:space.size])


def _partials(T):
    """dT[..., p] = d/dx_p of each entry of the stack T, one entry axis more."""
    return MultiJet(T.space, np.stack(
        [T.partial(p).coef for p in range(T.space.nvars)], axis=-1))


def _derivs(T, d, first=None):
    """T.derivative_array(d, first), derivative axes after the entry axes."""
    n = d - (first is not None)
    return np.moveaxis(T.derivative_array(d, first), range(n), range(-n, 0))


@lru_cache(maxsize=None)
def _riemann_tables(m: int):
    """_riemann_stack's index tables: R up's gathers per p, entry_dot's."""
    e = entry_layout(m)[3]
    a, b = np.triu_indices(m, 1)
    i, j, k, l = np.broadcast_arrays(a[:, None, None], b[:, None, None],
                                     np.arange(m)[:, None], np.arange(m))
    first = [[(np.flatnonzero(x == p), (e[y, k] * m + l)[x == p])
              for x, y in ((i, j), (j, i))] for p in range(m)]
    n = np.repeat(np.arange(m), 2)      # n of the terms 2n (+), 2n + 1 (-)
    p, q = np.stack([i, j] * m, -1), np.stack([j, i] * m, -1)
    return (first, (e[p, n], l[..., None]), (e[q, k[..., None]], n), (e[l],),
            (np.arange(len(a))[:, None, None, None], k[..., None], n[::2]))


def _riemann_stack(S, Gam):
    """R[ij, k, l] = R_ijkl (i < j, triu_indices order) to Gam.order - 1."""
    S, G = _truncated(S, Gam.order - 1), _truncated(Gam, Gam.order - 1)
    m, size = S.space.nvars, S.space.size
    first, ga, gb, sa, rb = _riemann_tables(m)
    # Rup = d_i Gamma_jk^l - d_j Gamma_ik^l, from one d_p Gamma at a time
    Rup = MultiJet(S.space, np.empty((size, m * (m - 1) // 2, m, m)))
    up = Rup.coef.reshape(size, -1)
    for p, ((at, src), (to, sub)) in enumerate(first):
        dGam = Gam.partial(p).coef[:size].reshape(size, -1)
        up[:, at] = dGam[:, src]                # d_p Gamma, (ij, k) flat
        up[:, to] -= dGam[:, sub]               # d_i at p = i < j
    # Rup = (Rup + Gamma_in^l Gamma_jk^n) - Gamma_jn^l Gamma_ik^n, n in order
    Rup = entry_dot(G, ga, G, gb, init=Rup, minus=range(1, 2 * m, 2))
    return entry_dot(S, sa, Rup, rb)


def _jet_partials(metric: ChartMetric, x, k_max: int):
    """g, Gamma and the partial arrays of R and Gamma at x, from stacked jets.

    Every jet-ring quantity is one stack, indexed by integer tables as
    ``entry_layout`` indexes the metric: G and G^-1 over (i, j), Gamma over
    (i <= j, k), R up and down over (i < j, k, l), and dG, dGamma along one
    more axis p.  Each entry keeps the term order of the per-entry formulas.
    Each stage runs at the order it is read at, which keeps every bit: the
    metric jet S at k_max + 2, G^-1, dS and Gamma at k_max + 1, R at k_max.
    The partials of R (to order k_max) and of Gamma (to k_max - 1) come as
    C-contiguous arrays: the einsums of _covariant_step round by layout.
    """
    m = metric.dim
    rows, cols, _, e = entry_layout(m)
    S = metric.component_jets(x, k_max + 2)
    Ginv = _inverse(_truncated(S, k_max + 1).entries(e), k_max + 2)
    # Gamma[ij, k] = Gamma_ij^k for i <= j, ij the entry of g_ij in S
    dS = _truncated(_partials(S), k_max + 1)   # dS[e[i, j], p] = d_p g_ij
    i, j, l = rows[:, None], cols[:, None], np.arange(m)
    D = ((dS.entries(e[j, l], i) + dS.entries(e[i, l], j))
         - dS.entries(e[i, j], l))             # D[ij, l], summed over l
    ij = np.arange(len(rows))[:, None, None]
    Gam = entry_dot(Ginv, (l[:, None], l), D, (ij, l)) * 0.5
    del Ginv, dS, D
    R = _riemann_stack(S, Gam)
    zero = Gam.entries(0, 0) * 0.0
    a, b = np.triu_indices(m, 1)
    PR = {}
    for d in range(k_max + 1):
        # R_jikl = -1.0 R_ijkl and R_iikl = Gamma_00^0 * 0.0, filled by index
        # and first derivative p: P is negated in place after the upper half
        PR[d] = np.empty((m,) * (4 + d))
        for p in range(m) if d else [None]:
            to = PR[d] if p is None else PR[d][:, :, :, :, p]
            P = _derivs(R, d, p)
            to[a, b] = P
            to[b, a] = np.multiply(-1.0, P, out=P)
            del P
        PR[d][range(m), range(m)] = zero.derivative_array(d)
    DGam = {d: np.ascontiguousarray(_derivs(Gam, d)[e]) for d in range(k_max)}
    return S.value[e], Gam.value[e], PR, DGam


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _covariant_step(P_prev: dict, DGam: dict):
    """One covariant derivative of a tensor T, consuming its partial arrays.

    P_prev[d], of shape (m,)*(rank + d) for d = 0..need + 1, are partial
    arrays of T and fix rank and need; returns those of grad T (rank + 1,
    new covariant slot last) for d = 0..need.  It consumes P_prev highest
    order first: order d reads P_prev[0..d], then turns P_prev[d + 1] in
    place into its total.  The Leibniz expansion runs in dense einsums over
    explicit derivative slots.  The einsums of the slot subsets of one size
    differ only in which output slots carry which letters, so each is formed
    once and read transposed for the other subsets.  An E of over ROWS_MAX
    floats is formed in slabs of its leading axis (each output keeps its
    sum's order) of one row at least, which may pass ROWS_MAX: m^7 floats at
    rank + d = 7, 2.1 MiB at m = 6 and 16 MiB at m = 8.
    """
    rank, need = P_prev[0].ndim, len(P_prev) - 2
    P_new = {}
    for d in range(need, -1, -1):
        # d^d of (grad T)[..., a] = P_prev[d+1] with 'a' as one derivative slot
        base_idx = _LETTERS[:rank]
        dslots = _LETTERS[rank:rank + d]
        a, c = _LETTERS[rank + d], _LETTERS[rank + d + 1]
        total = _rotated(P_prev.pop(d + 1), rank)   # [..., a, p1..pd]
        n = min(len(total), max(1, ROWS_MAX // total[0].size))  # slab rows
        # corrections: - sum_slots d^S Gamma_{a i_s}^c * d^(rest) T[i_s -> c]
        for s in range(rank):
            t_idx = base_idx[:s] + c + base_idx[s + 1:]
            for nsub, lo in product(range(d + 1), range(0, len(total), n)):
                rows = slice(lo, lo + n)
                E = np.einsum(f"{a}{base_idx[s]}{c}{dslots[:nsub]},"
                              f"{t_idx}{dslots[nsub:]}->{base_idx}{a}{dslots}",
                              *((DGam[nsub][:, rows], P_prev[d - nsub])
                                if s == 0 else
                                (DGam[nsub], P_prev[d - nsub][rows])))
                for subset in combinations(range(d), nsub):
                    rest = [i for i in range(d) if i not in subset]
                    slots = np.argsort(list(subset) + rest) + rank + 1
                    total[rows] -= E.transpose(*range(rank + 1), *slots)
                del E
        P_new[d] = total
    return P_new


def _rotated(P, rank: int):
    """P, its data rewritten as np.moveaxis(P, -1, rank) (its axes have one
    length), by transposes of at most ROWS_MAX floats."""
    blocks = P.reshape(P.shape[-1] ** rank, -1, P.shape[-1])    # views
    n = max(1, ROWS_MAX // blocks[0].size)
    for lo in range(0, len(blocks), n):
        block = blocks[lo:lo + n]
        block[...] = block.swapaxes(1, 2).reshape(block.shape)
    return P


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
        P = _covariant_step(P, DGam)
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


# the Hodge star on Lambda^2 R^4 (see conventions)
_STAR4 = np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[::-1]


def sectional_extremes(bundle: CurvatureBundle, starts=()) -> tuple:
    """(min, max) sectional curvature at the point: exact at m <= 4 (see
    _least); at m >= 5 the K of the planes _climb reaches from ``starts``,
    the planes (u, v) of the least and greatest K known."""
    L = np.linalg.cholesky(bundle.g)
    R = _in_frame(bundle.riemann, np.linalg.inv(L).T)   # g-orthonormal
    # "+ 0.0" and "0.0 -" turn a -0.0 into 0.0
    if bundle.dim >= 5:
        lo, hi = (L.T @ np.transpose(plane) for plane in starts)
        return 0.0 - _climb(-R, lo), _climb(R, hi) + 0.0
    a, b = np.triu_indices(bundle.dim, 1)
    Q = R[a[:, None], b[:, None], b, a]         # the curvature operator
    if bundle.dim == 4:
        return _least(Q) + 0.0, 0.0 - _least(-Q)
    w = np.linalg.eigvalsh(Q) + 0.0             # every 2-vector is simple
    return float(w[0]), float(w[-1])


def _in_frame(R, F):
    """The components of R in the frame of F's columns."""
    for _ in range(4):          # each pass turns the first slot into the last
        R = np.tensordot(R, F, (0, 0))
    return R


def _least(Q) -> float:
    """The least K at m = 4: max_t lambda_min(Q + t *) (Thorpe, 1971).

    It is concave and 1-Lipschitz in t and below lambda_min(Q) past
    |t| = 2|Q|, so bisection on its slope <* x, x>, x a bottom eigenvector,
    finds it; the best value met is returned.
    """
    hi = 2 * np.linalg.norm(Q, 2)
    lo, best = -hi, -np.inf
    for _ in range(60):             # the bracket ends below 4e-18 |Q|
        t = (lo + hi) / 2
        w, V = np.linalg.eigh(Q + t * _STAR4)
        best = max(best, w[0])
        lo, hi = (t, hi) if V[:, 0] @ _STAR4 @ V[:, 0] > 0 else (lo, t)
    return float(best)


def _climb(R, P) -> float:
    """Greatest K an ascent reaches from the plane of P's two columns.

    In the orthonormal frame F of the plane (u, v) and its complement, a
    round moves to the better of two planes: u with the top eigenvector of
    R(., u, u, .) on u-perp, and the Newton step of K on the Grassmannian.
    It stops when neither gains, or after 1,000 rounds.
    """
    best, n = -np.inf, len(P) - 2
    for _ in range(1000):
        F = np.linalg.qr(np.column_stack([P, np.eye(n + 2)]))[0]
        S, eye = _in_frame(R, F), np.eye(n)
        K, C = S[0, 1, 1, 0], S[2:, 2:, 1, 0] + S[2:, 1, 2:, 0]
        H = np.block([[S[2:, 1, 1, 2:] - K * eye, C],
                      [C.T, S[2:, 0, 0, 2:] - K * eye]])
        g = np.concatenate([S[2:, 1, 1, 0], S[2:, 0, 0, 1]])
        z = np.linalg.lstsq(H, -g, rcond=None)[0].reshape(2, n).T
        p, q = np.vstack([np.eye(2), z]).T      # u, v moved into F[:, 2:]
        k_newton = (np.einsum("ijkl,i,j,k,l->", S, p, q, q, p)
                    / ((p @ p) * (q @ q) - (p @ q) ** 2))
        w, V = np.linalg.eigh(S[1:, 0, 0, 1:])
        if max(w[-1], k_newton) <= best:
            break
        best, P = ((w[-1], np.c_[F[:, 1:] @ V[:, -1], F[:, 0]])
                   if w[-1] >= k_newton else (k_newton, F @ np.c_[p, q]))
    return float(best)


def einstein_defect(bundle: CurvatureBundle) -> float:
    """Frobenius norm of ricci - (scal/m) g in a g-orthonormal frame."""
    m = bundle.dim
    w, V = np.linalg.eigh(bundle.g)
    g_inv_half = V @ np.diag(w ** -0.5) @ V.T
    dev = g_inv_half @ (bundle.ricci - bundle.scalar / m * bundle.g) @ g_inv_half
    return float(np.linalg.norm(dev))
