"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's Taylor-mode machinery:
derivatives come from O(h^4) central differences of plain metric values,
and the volume-density oracle integrates the coordinate form of the
variation equation rather than the parallel-frame form the engine uses.
christoffel_arrays and the literal_* references are the exception: they
use the engine's jets and keep the plain, unstaged or per-component forms
of engine routines (the per-entry metric formulas among them), so that the
optimized routines can be checked against them (bit for bit where the
arithmetic is the same).  literal_curvature is the jet-ring bundle path
built on object arrays of scalar jets, filled and contracted entry by entry,
with its own covariant step that forms one einsum per slot subset.  The
jet-based oracles at the end are exceptions too: ScalarField evaluates a
function of the seeded coordinate stack, the Hessian family (christoffels,
hessian, laplacian, gradient_norm_sq) reads Gamma from curvature_arrays,
and the Ricci conformal-change law (ricci_conformal) combines them with the
base metric's bundle, independently of the deformed chart it is checked
against.
The last sections hold the oracles that only the test suite runs: the
exact-rational check of the leading-term law H_n = c_n Tr J_(n-2) + lower
order on the 2D family (rational_series, leading_coefficient,
verify_leading_coefficient), the radial harmonic function of a radial
density profile (radial_mean, radial_harmonic) and the Jacobi eigen-spread
(reduced_jacobi_at, eigen_spread).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from hml import jets
from hml.catalog import space_form
from hml.conformal import RadialFunction, _require_radial_chart
from hml.curvature import (CurvatureBundle, curvature, curvature_arrays,
                           reduced_jacobi)
from hml.geodesics import (g_unit_directions, parallel_frame_start,
                           relative_spread)
from hml.jets import MultiJet, jet_space, seed_point
from hml.metric import ChartMetric, DegenerateMetricError
from hml.series import TruncatedSeries, TruncationError


def fd1(f, x, h=1e-5):
    """O(h^4) central first derivatives of f: R^m -> array, shape f + (m,)."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    cols = []
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        cols.append((-f(x + 2 * h * e) + 8 * f(x + h * e)
                     - 8 * f(x - h * e) + f(x - 2 * h * e)) / (12 * h))
    return np.stack(cols, axis=-1)


def fd_christoffels(metric, x, h=1e-5):
    """Koszul formula from finite differences of plain metric values."""
    g = metric.value(x)
    dg = fd1(metric.value, x, h)               # dg[i, j, k] = d_k g_ij
    ginv = np.linalg.inv(g)
    half = 0.5 * (np.einsum('jli->ijl', dg) + np.einsum('ilj->ijl', dg)
                  - np.einsum('ijl->ijl', dg))
    return np.einsum('kl,ijl->ijk', ginv, half)


def fd_riemann(metric, x, h=2e-4):
    """Lowered curvature from finite differences of FD Christoffels."""
    Gam = fd_christoffels(metric, x)
    dGam = fd1(lambda y: fd_christoffels(metric, y), x, h)  # [i,j,k,p]
    m = len(x)
    Rup = np.zeros((m, m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    Rup[i, j, k, l] = (dGam[j, k, l, i] - dGam[i, k, l, j]
                                       + sum(Gam[i, mm, l] * Gam[j, k, mm]
                                             - Gam[j, mm, l] * Gam[i, k, mm]
                                             for mm in range(m)))
    g = metric.value(x)
    return np.einsum('lm,ijkm->ijkl', g, Rup)


def fd_covariant_hessian(metric, phi_value, x, h=1e-4):
    """Hess phi from FD of plain phi values and FD Christoffels."""
    grad = fd1(phi_value, x, h)
    d2 = fd1(lambda y: fd1(phi_value, y, h), x, h)
    Gam = fd_christoffels(metric, x)
    return d2 - np.einsum('ijk,k->ij', Gam, grad)


def fd_nabla_riemann(metric, x, riemann_fn, christoffel_fn, h=2e-4):
    """grad R with the outer differentiation done by finite differences.

    riemann_fn / christoffel_fn supply pointwise R and Gamma (they may come
    from the engine; the covariant-derivative step itself is independent).
    """
    R = riemann_fn(x)
    dR = fd1(riemann_fn, x, h)                 # [i,j,k,l,p]
    Gam = christoffel_fn(x)
    out = np.einsum('ijklp->ijklp', dR).copy()
    out -= np.einsum('pic,cjkl->ijklp', Gam, R)
    out -= np.einsum('pjc,ickl->ijklp', Gam, R)
    out -= np.einsum('pkc,ijcl->ijklp', Gam, R)
    out -= np.einsum('plc,ijkc->ijklp', Gam, R)
    return out


def christoffel_arrays(metric, x):
    """Gamma_ij^k and d_p Gamma_ij^k by the literal Koszul einsums (batch ok).

    Uses the engine's exact metric derivatives but none of its curvature
    code: d ginv = -ginv dg ginv is formed explicitly.
    """
    g, dg, d2g = metric.derivative_arrays(x, 2)
    ginv = np.linalg.inv(g)
    half = 0.5 * (np.einsum('...jli->...ijl', dg)
                  + np.einsum('...ilj->...ijl', dg) - dg)
    Gam = np.einsum('...kl,...ijl->...ijk', ginv, half)
    dhalf = 0.5 * (np.einsum('...jlip->...ijlp', d2g)
                   + np.einsum('...iljp->...ijlp', d2g) - d2g)
    dginv = -np.einsum('...ka,...abp,...bl->...klp', ginv, dg, ginv)
    dGam = (np.einsum('...klp,...ijl->...ijkp', dginv, half)
            + np.einsum('...kl,...ijlp->...ijkp', ginv, dhalf))
    return Gam, dGam


def literal_riemann(metric, x):
    """Lowered R from d Gamma and Gamma Gamma, then g: the textbook route."""
    Gam, dGam = christoffel_arrays(metric, x)
    Rup = (np.einsum('...jkli->...ijkl', dGam)
           - np.einsum('...iklj->...ijkl', dGam)
           + np.einsum('...iml,...jkm->...ijkl', Gam, Gam)
           - np.einsum('...jml,...ikm->...ijkl', Gam, Gam))
    return np.einsum('...lm,...ijkm->...ijkl', metric.value(x), Rup)


def literal_reduced_jacobi(R, v, E):
    """R(E_a, v, v, E_b) as one unstaged five-operand einsum."""
    return np.einsum('...ijkl,...ia,...j,...k,...lc->...ac', R, E, v, v, E)


def literal_rhs(metric, state):
    """The geodesic / parallel-frame / Jacobi right-hand side, unstaged."""
    x, v, E, A, Ad = state
    Gam, _ = christoffel_arrays(metric, x)
    dv = -np.einsum('...ijk,...i,...j->...k', Gam, v, v)
    dE = -np.einsum('...ijk,...i,...ja->...ka', Gam, v, E)
    Rt = literal_reduced_jacobi(literal_riemann(metric, x), v, E)
    return (v, dv, dE, Ad, -Rt @ A)


def coordinate_jacobi_density(metric, P, theta, radii, steps=800):
    """Volume density by the normal-coordinate route (engine-independent).

    Integrates the geodesic together with the coordinate variation fields
    Y_k'' + 2 Gamma(x', Y_k') + (dGamma)(Y_k, x', x') = 0 for a g-orthonormal
    initial frame, then evaluates sqrt(det( J^T g(x) J )) with J the
    differential of the exponential map in chart coordinates.  Returns the
    densities Theta(r) = r^(m-1) * sqrt(det g_normal) at the given radii.
    """
    P = np.asarray(P, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m = len(P)
    g0 = metric.value(P)

    # g-orthonormal basis with theta first (plain Gram-Schmidt)
    basis = [theta / np.sqrt(theta @ g0 @ theta)]
    for e in np.eye(m):
        w = e.copy()
        for b in basis:
            w = w - (w @ g0 @ b) * b
        n = np.sqrt(max(w @ g0 @ w, 0))
        if n > 1e-10:
            basis.append(w / n)
        if len(basis) == m:
            break
    basis = np.stack(basis, axis=1)            # columns: theta, b_2, ..., b_m

    # state: x, v, Y (m x m columns), Ydot
    x = P.copy()
    v = basis[:, 0].copy()
    Y = np.zeros((m, m))
    Yd = basis.copy()

    def rhs(state):
        x, v, Y, Yd = state
        Gam, dGam = christoffel_arrays(metric, x)
        a = -np.einsum('ijk,i,j->k', Gam, v, v)
        Ydd = (-2 * np.einsum('ijk,i,ja->ka', Gam, v, Yd)
               - np.einsum('ijkp,pa,i,j->ka', dGam, Y, v, v))
        return (v, a, Yd, Ydd)

    radii = np.asarray(radii, dtype=float)
    out = []
    state = (x, v, Y, Yd)
    r_prev = 0.0
    for r in radii:
        n = max(1, int(round(steps * (r - r_prev) / radii[-1])))
        hstep = (r - r_prev) / n
        for _ in range(n):
            k1 = rhs(state)
            k2 = rhs(tuple(y + 0.5 * hstep * k for y, k in zip(state, k1)))
            k3 = rhs(tuple(y + 0.5 * hstep * k for y, k in zip(state, k2)))
            k4 = rhs(tuple(y + hstep * k for y, k in zip(state, k3)))
            state = tuple(y + hstep / 6 * (a + 2 * b + 2 * c + d)
                          for y, a, b, c, d in zip(state, k1, k2, k3, k4))
        r_prev = r
        x, v, Y, Yd = state
        J = Y / r
        J[:, 0] = v                       # radial column: d exp / d r
        gx = metric.value(x)
        gn = J.T @ gx @ J
        out.append(r ** (m - 1) * np.sqrt(np.linalg.det(gn)))
    return np.array(out)


def _coordinates(x):
    """The entry jets of a coordinate stack, one per coordinate."""
    return [x.entries(k) for k in range(x.coef.shape[1])]


def literal_norm_sq(x):
    """x_0^2 + ... + x_(m-1)^2 of a coordinate stack, one product per
    coordinate, summed in order."""
    xj = _coordinates(x)
    total = xj[0] * xj[0]
    for xi in xj[1:]:
        total = total + xi * xi
    return total


# The literal formulas take the chart contract's (x, t) but form |x|^2
# themselves, entry by entry, and ignore t.

def _literal_sphere(dim):
    def components(x, _t):
        xj = _coordinates(x)
        t = literal_norm_sq(x)
        s = jets.sin_sq_sqrt_over_t(t)
        w = jets.t_minus_sinsq_over_t2(t)
        comps = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                cross = xj[i] * xj[j] * w
                comps[i][j] = cross + s if i == j else cross
                comps[j][i] = comps[i][j]
        return comps
    return components, literal_norm_sq


def _literal_fubini_study(cdim):
    dim = 2 * cdim

    def components(x, _t):
        xj = _coordinates(x)
        t = literal_norm_sq(x)
        inv = (1.0 + t).reciprocal()
        inv2 = inv * inv
        jx = []
        for a in range(cdim):
            jx.extend([-1.0 * xj[2 * a + 1], xj[2 * a]])
        comps = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                cross = xj[i] * xj[j] + jx[i] * jx[j]
                if i == j:
                    entry = (1.0 + t - cross) * inv2
                else:
                    entry = (-1.0 * cross) * inv2
                comps[i][j] = entry
                comps[j][i] = entry
        return comps
    return components, lambda x: jets.atan_sqrt_sq(literal_norm_sq(x))


def _literal_space_form(a, b, dim):
    def components(x, _t):
        w = (a + b * literal_norm_sq(x)).reciprocal() ** 2
        return [[w if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    def rsq(x):               # a > 0 and b >= 0: the deformable space forms
        t = literal_norm_sq(x)
        if b > 0:
            return jets.atan_sqrt_sq(t * (b / a)) * (1.0 / (a * b))
        return t * (1.0 / a ** 2)
    return components, rsq


def literal_components(entry, psi=None):
    """Per-entry components of a catalog entry, deformed by psi if given.

    The sphere, Fubini-Study and space-form formulas make one jet product
    per entry and step, written out apart from the stacked catalog ones;
    euclidean and two_d_family are per-entry in the catalog already.  The
    deformation multiplies every entry by psi(r_P^2)^(-2).
    """
    make = {"sphere": _literal_sphere, "fubini_study": _literal_fubini_study,
            "space_form": _literal_space_form}.get(entry.name)
    if make is None:
        components = entry.metric.components
        rsq = literal_norm_sq
    else:
        components, rsq = make(**entry.params)
    if psi is None:
        return components

    def deformed(x, t):
        w = psi.compose_jet(rsq(x)).reciprocal() ** 2
        return [[w * c for c in row] for row in components(x, t)]
    return deformed


def literal_derivative_arrays(components, x, order):
    """[g, dg, ...] of per-entry components: one extraction and moveaxis each."""
    batch, m = np.shape(x)[:-1], np.shape(x)[-1]
    xs = seed_point(x, order)
    comps = components(xs, literal_norm_sq(xs))
    out = []
    for d in range(order + 1):
        arr = np.empty(batch + (m, m) + (m,) * d)
        for i in range(m):
            for j in range(m):
                c = comps[i][j]
                if not isinstance(c, MultiJet):
                    c = MultiJet.constant(jet_space(m, order), c, batch)
                da = c.derivative_array(d)
                if d:
                    da = np.moveaxis(da, range(d), range(-d, 0))
                arr[(Ellipsis, i, j) + (slice(None),) * d] = da
        out.append(arr)
    return out


def _literal_jet_matrix_inverse(G, order):
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
        GX = _literal_jet_matmul(G, X)
        for i in range(m):
            GX[i, i] = GX[i, i] - 2.0
        X = _literal_jet_matmul(X, GX)
        for i in range(m):
            for j in range(m):
                X[i, j] = -X[i, j]
    return X


def _literal_jet_matmul(A, B):
    m = A.shape[0]
    out = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            acc = A[i, 0] * B[0, j]
            for k in range(1, m):
                acc = acc + A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def _literal_christoffel_jets(G, Ginv):
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


def _literal_riemann_jets(G, Gam):
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


def _literal_tensor_partials(T_jets, orders):
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


def _literal_covariant_step(P_prev, DGam, rank, need):
    """One covariant derivative of a rank-``rank`` tensor, one einsum per
    slot subset (the unstaged form of hml.curvature._covariant_step).

    P_prev[d] are partial arrays of T (shape (m,)*rank + (m,)*d); returns
    the partial arrays of grad T (new covariant slot appended last) for
    d = 0..need.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    P_new = {}
    for d in range(need + 1):
        base_idx = letters[:rank]
        dslots = letters[rank:rank + d]
        a = letters[rank + d]
        # P_prev[d+1][..., p1..pd, a] -> [..., a, p1..pd]
        total = np.moveaxis(P_prev[d + 1], -1, rank).copy()
        # - sum over slots and subsets of d^S Gamma_{a i_s}^c d^(rest) T[i_s -> c]
        for s in range(rank):
            for nsub in range(d + 1):
                for subset in itertools.combinations(range(d), nsub):
                    rest = [i for i in range(d) if i not in subset]
                    gam_idx = a + base_idx[s] + letters[rank + d + 1]
                    gam_d = "".join(dslots[i] for i in subset)
                    t_idx = (base_idx[:s] + letters[rank + d + 1]
                             + base_idx[s + 1:] + "".join(dslots[i] for i in rest))
                    out_idx = base_idx + a + dslots
                    expr = f"{gam_idx}{gam_d},{t_idx}->{out_idx}"
                    total -= np.einsum(expr, DGam[nsub], P_prev[d - nsub])
        P_new[d] = total
    return P_new


def literal_curvature(metric, x, k_max=0):
    """Full curvature bundle at a single point, with grad^k R for k <= k_max."""
    from hml.metric import entry_layout
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("curvature bundles are per-point; batch via curvature_arrays")
    m = metric.dim
    order = k_max + 2
    stack = metric.component_jets(x, order)
    G = np.empty((m, m), dtype=object)
    for ij, e in enumerate(entry_layout(m)[3].flat):
        G.flat[ij] = stack.entries(e)
    Ginv = _literal_jet_matrix_inverse(G, order)
    Gam = _literal_christoffel_jets(G, Ginv)
    Rlow = _literal_riemann_jets(G, Gam)

    g = np.array([[G[i, j].value for j in range(m)] for i in range(m)], dtype=float)
    ginv = np.linalg.inv(g)
    Gamma = np.array([[[Gam[i, j, k].value for k in range(m)]
                       for j in range(m)] for i in range(m)], dtype=float)
    # partial arrays of R (exact to order k_max) and of Gamma (k_max - 1);
    # Gam[i, j, k] = Gamma_ij^k is symmetric in (i, j), matching the
    # 'a i c' pattern used for corrections in _literal_covariant_step.
    PR = _literal_tensor_partials(Rlow, range(k_max + 1))
    DGam = _literal_tensor_partials(Gam, range(max(k_max, 1)))
    nabla = []
    P = PR
    rank = 4
    for s in range(1, k_max + 1):
        P = _literal_covariant_step(P, DGam, rank, k_max - s)
        rank += 1
        nabla.append(P[0])

    R0 = PR[0]
    ricci = np.einsum('il,ijkl->jk', ginv, R0)
    scalar = float(np.einsum('jk,jk->', ginv, ricci))
    return CurvatureBundle(point=x, dim=m, k_max=k_max, g=g, ginv=ginv,
                           christoffels=Gamma, riemann=R0, ricci=ricci,
                           scalar=scalar, nabla_r=nabla)


def literal_derivative_array(jet, d):
    """MultiJet.derivative_array with its factorials applied out of place."""
    flat_pos, fact = jets._extraction_table(jet.space.nvars, jet.space.order, d)
    out = jet.coef[flat_pos]
    out = out * fact.reshape((-1,) + (1,) * len(jet.batch_shape))
    return out.reshape((jet.space.nvars,) * d + jet.batch_shape)


def literal_jet_partials(metric, x, k_max):
    """curvature._jet_partials' (PR, DGam) from out-of-place copies.

    The stacks Gamma and R come from the engine's steps; their partials
    are literal_derivative_array's, and R_jikl is written as -1.0 * P.
    """
    from hml.curvature import _inverse, _partials, _riemann_stack
    from hml.metric import entry_layout
    m = metric.dim
    rows, cols, _, e = entry_layout(m)
    S = metric.component_jets(x, k_max + 2)
    Ginv = _inverse(S.entries(e), k_max + 2)
    dS = _partials(S)
    i, j, l = rows[:, None], cols[:, None], np.arange(m)
    D = ((dS.entries(e[j, l], i) + dS.entries(e[i, l], j))
         - dS.entries(e[i, j], l))
    ij = np.arange(len(rows))[:, None, None]
    Gam = jets.entry_dot(Ginv, (l[:, None], l), D, (ij, l)) * 0.5
    R = _riemann_stack(S, Gam)
    zero = Gam.entries(0, 0) * 0.0

    def derivs(T, d):
        return np.moveaxis(literal_derivative_array(T, d), range(d),
                           range(-d, 0))

    a, b = np.triu_indices(m, 1)
    PR = {}
    for d in range(k_max + 1):
        PR[d] = np.empty((m,) * (4 + d))
        P = derivs(R, d)
        PR[d][a, b] = P
        PR[d][b, a] = -1.0 * P
        PR[d][range(m), range(m)] = literal_derivative_array(zero, d)
    DGam = {d: np.ascontiguousarray(derivs(Gam, d)[e])
            for d in range(max(k_max, 1))}
    return PR, DGam


def literal_jet_product(space, a, b):
    """Coefficients of a * b: one np.add.reduceat over the pairs of indices.

    The pairs (out, left, right) with out = left + right are summed in
    sorted order, each output's segment starting from its first pair.
    """
    ia, ib, starts = _literal_pairs(space.nvars, space.order)
    return np.add.reduceat(a[ia] * b[ib], starts, axis=0)


@functools.lru_cache(maxsize=None)
def _literal_pairs(nvars, order):
    space = jet_space(nvars, order)
    idx, pos = space.index_list, space.index_of
    pairs = sorted((pos[tuple(x + y for x, y in zip(al, be))], i, j)
                   for i, al in enumerate(idx) for j, be in enumerate(idx)
                   if sum(al) + sum(be) <= space.order)
    out, ia, ib = (np.array(col) for col in zip(*pairs))
    return ia, ib, np.searchsorted(out, np.arange(len(idx)))


def literal_apply_analytic(x, derivs):
    """Composition by a Horner loop written in jet ring operations."""
    order = x.space.order
    du = MultiJet(x.space, x.coef.copy())
    du.coef[0] = 0.0
    ck = [derivs[k] / math.factorial(k)
          for k in range(min(len(derivs), order + 1))]
    result = MultiJet.constant(x.space, 0.0, x.batch_shape) + ck[-1]
    for k in range(len(ck) - 2, -1, -1):
        result = result * du + ck[k]
    return result


def literal_entire_apply(x, coef_fn, n_extra=40):
    """Entire function of a jet: one scalar Horner loop per derivative order."""
    order = x.space.order if hasattr(x, "space") else x.order
    t0 = np.asarray(x.value, dtype=float)
    n = order + 1 + n_extra
    derivs = []
    for d in range(order + 1):
        acc = np.zeros_like(t0)
        for k in range(n - 1, d - 1, -1):
            acc = acc * t0 + coef_fn(k) * math.factorial(k) / math.factorial(k - d)
        derivs.append(acc)
    return x.apply_analytic(derivs)


def _atan_sqrt_sq_coeffs(n):
    a = [(-1.0) ** k / (2 * k + 1) for k in range(n + 1)]
    sq = [sum(a[j] * a[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return tuple([0.0] + sq[:n])


# Maclaurin coefficients of the series-route analytic helpers, written out
# independently of hml.jets (atan_sqrt_sq: its series route, t < 0.5).
LITERAL_COEFS = {
    "cos_sqrt": lambda k: (-1.0) ** k / math.factorial(2 * k),
    "sinc_sqrt": lambda k: (-1.0) ** k / math.factorial(2 * k + 1),
    "sin_sq_sqrt_over_t":
        lambda k: (-1.0) ** k * 2.0 ** (2 * k + 1) / math.factorial(2 * k + 2),
    "t_minus_sinsq_over_t2":
        lambda k: (-1.0) ** k * 2.0 ** (2 * k + 3) / math.factorial(2 * k + 4),
    "atan_sqrt_sq": lambda k: _atan_sqrt_sq_coeffs(k + 1)[k],
}


# ---------------------------------------------------------------------------
# scalar fields, Hessians and the Ricci conformal-change law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Scalar function on a chart: ``fn`` maps the coordinate stack (see
    ``jets.seed_point``) to a jet or a constant, like a metric formula."""

    fn: Callable
    name: str = "phi"

    def jet(self, x, order: int) -> MultiJet:
        out = self.fn(seed_point(x, order))
        if not isinstance(out, MultiJet):
            space = jet_space(np.shape(x)[-1], order)
            out = MultiJet.constant(space, out, np.shape(x)[:-1])
        return out

    def value(self, x):
        return self.jet(x, 0).value

    @staticmethod
    def from_radial(radial_derivs: Callable, metric: ChartMetric,
                    name: str = "phi") -> "ScalarField":
        """Field f(x) = fcheck(r_P(x)) from fcheck's derivative evaluator.

        ``radial_derivs(r0, order)`` must return [fcheck(r0), fcheck'(r0), ...].
        Requires the chart to expose r_P^2 analytically.
        """
        if metric.radial_distance_sq is None:
            raise ValueError("chart does not declare a radial distance")

        def fn(x):
            t = metric.radial_distance_sq(x, literal_norm_sq(x))
            r = jets.sqrt(t)
            r0 = np.asarray(r.value)
            order = r.space.order if isinstance(r, MultiJet) else r.order
            return r.apply_analytic(radial_derivs(r0, order))

        return ScalarField(fn, name=name)


def christoffels(metric: ChartMetric, x) -> np.ndarray:
    """Gamma[..., i, j, k] = Gamma_ij^k at x (batch allowed)."""
    _, _, Gamma, _ = curvature_arrays(metric, x)
    return Gamma


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


def conformal_factor_field(metric: ChartMetric, psi: RadialFunction
                           ) -> ScalarField:
    """Psi(x) = psi(r_P(x)^2) as a jet-evaluable scalar field."""
    _require_radial_chart(metric)
    return ScalarField(
        lambda x: psi.compose_jet(
            metric.radial_distance_sq(x, literal_norm_sq(x))),
        name=f"{psi.name}(r^2)")


def ricci_conformal(metric: ChartMetric, psi: RadialFunction, x,
                    bundle=None) -> np.ndarray:
    """Predicted Ricci of g_psi from the base metric's data at x:

        rho_psi = rho + (m-2)/Psi Hess(Psi)
                  + ( -Delta0(Psi)/Psi - (m-1) |dPsi|^2/Psi^2 ) g,

    with Delta0 the positive Laplacian.  Compare against the directly
    computed Ricci of deform_metric(metric, psi) to cross-check both paths.
    """
    x = np.asarray(x, dtype=float)
    m = metric.dim
    if bundle is None:
        bundle = curvature(metric, x, k_max=0)
    field = conformal_factor_field(metric, psi)
    Psi0 = float(field.value(x))
    H = hessian(metric, field, x)
    lap = float(laplacian(metric, field, x))
    gn = float(gradient_norm_sq(metric, field, x))
    return (bundle.ricci + (m - 2) / Psi0 * H
            + (-lap / Psi0 - (m - 1) * gn / Psi0 ** 2) * bundle.g)


# ---------------------------------------------------------------------------
# metric checks: positive definiteness, space-form isometries
# ---------------------------------------------------------------------------

def check_positive_definite(metric: ChartMetric, x):
    g = metric.value(x)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(
            f"degenerate metric: {metric.name} not positive definite at {x}"
        ) from exc
    return True


@dataclass
class IsometryReport:
    a: float
    b: float
    n_points: int
    max_dev_inversion: float
    max_dev_scaling: float
    scaling_c: float

    def max_dev(self) -> float:
        return max(self.max_dev_inversion, self.max_dev_scaling)


def space_form_isometry_check(a: float, b: float, points,
                              c: float = 3.0) -> IsometryReport:
    """Pull g_{b,a} back through inversion eta = xi/|xi|^2 and check the
    scaling identity relating g_{a,b} to g_{a/c, bc}; both componentwise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = points.shape[1]
    g_ab = space_form(a, b, m).metric
    g_ba = space_form(b, a, m).metric
    g_scaled = space_form(a / c, b * c, m).metric

    dev_inv = 0.0
    dev_scale = 0.0
    for xi in points:
        r2 = float(xi @ xi)
        if r2 < 1e-12:
            raise ValueError("points must avoid the inversion singularity at 0")
        eta = xi / r2
        if not (g_ab.contains(xi) and g_ba.contains(eta)):
            raise ValueError(f"point {xi} leaves a domain of g_ab / g_ba")
        Jac = (np.eye(m) - 2.0 * np.outer(xi, xi) / r2) / r2
        pulled = Jac.T @ g_ba.value(eta) @ Jac
        dev_inv = max(dev_inv, float(np.max(np.abs(pulled - g_ab.value(xi)))))
        # scaling xi = c eta: (phi_c^* g_{a,b})(eta) = c^2 g_{a,b}(c eta)
        eta_s = xi / c
        pulled_s = c ** 2 * g_ab.value(xi)
        dev_scale = max(dev_scale,
                        float(np.max(np.abs(pulled_s - g_scaled.value(eta_s)))))
    return IsometryReport(a=a, b=b, n_points=len(points),
                          max_dev_inversion=dev_inv,
                          max_dev_scaling=dev_scale, scaling_c=c)


# ---------------------------------------------------------------------------
# exact-rational leading-term law on the 2D family
# ---------------------------------------------------------------------------

def rational_series(coeffs, order: int) -> TruncatedSeries:
    """Exact-rational series padded with zeros to the requested order."""
    cs = [Fraction(c) for c in coeffs]
    if len(cs) > order + 1:
        raise TruncationError("more coefficients than the truncation order allows")
    return TruncatedSeries(cs + [Fraction(0)] * (order + 1 - len(cs)))


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


# ---------------------------------------------------------------------------
# radial harmonic function
# ---------------------------------------------------------------------------

class NonRadialProfileError(ValueError):
    pass


RADIAL_TOL = 1e-6   # the relative direction-spread a radial profile may have


def radial_mean(table) -> np.ndarray:
    """The mean over the directions (axis 1) of a table whose relative
    spread is within RADIAL_TOL (not NaN) at every radius."""
    spread = relative_spread(table).max()
    if not spread <= RADIAL_TOL:
        raise NonRadialProfileError(
            f"profile spread {spread:.3e} is not within {RADIAL_TOL:.1e}; "
            "not radial")
    return table.mean(axis=1)


def radial_harmonic(radii, theta_values):
    """The nonconstant radial harmonic function from a radial profile.

    f(r) = int_{r0}^{r} Theta(s)^{-1} ds, normalized f(r0) = 0 and
    Theta f' = 1, which makes the positive Laplacian of f vanish on
    0 < r < iota_P.  ``theta_values`` may be (R,) or (R, N) across
    directions; a non-radial table is refused.
    """
    from scipy.interpolate import CubicSpline

    radii = np.asarray(radii, dtype=float)
    theta_values = np.asarray(theta_values, dtype=float)
    if theta_values.ndim == 2:
        theta_values = radial_mean(theta_values)
    if np.any(theta_values <= 0):
        raise ValueError("density must be positive on the profile")
    spline = CubicSpline(radii, 1.0 / theta_values)
    F = spline.antiderivative()
    f = F(radii) - F(radii[0])
    return f, 1.0 / theta_values


# ---------------------------------------------------------------------------
# Jacobi eigen-spread
# ---------------------------------------------------------------------------

def reduced_jacobi_at(metric: ChartMetric, P, xi_dir) -> np.ndarray:
    """J0 restricted to xi-perp in a g-orthonormal frame at P."""
    P = np.asarray(P, dtype=float)
    g0 = metric.value(P)
    theta = np.asarray(xi_dir, dtype=float)
    theta = theta / math.sqrt(theta @ g0 @ theta)
    E = parallel_frame_start(g0, theta)
    _, _, _, R = curvature_arrays(metric, P)
    Rt = reduced_jacobi(R, theta, E)
    return 0.5 * (Rt + Rt.T)


def eigen_spread(metric: ChartMetric, P, n_directions: int = 64):
    """s_P: minimum over sampled unit xi of (max - min) eigenvalue of J0~."""
    dirs = g_unit_directions(metric, P, n_directions)
    spreads = []
    for th in dirs:
        eigs = np.linalg.eigvalsh(reduced_jacobi_at(metric, P, th))
        spreads.append(float(eigs[-1] - eigs[0]))
    return min(spreads), np.array(spreads)
