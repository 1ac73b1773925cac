"""Pointwise curvature against closed forms and finite-difference oracles."""

import math

import numpy as np
import pytest

from hml import catalog, jets, manifest
from hml.curvature import (_covariant_step, _jet_partials, _rotated,
                           curvature, curvature_arrays, einstein_defect,
                           entry_dot, sectional_curvature, sectional_extremes)
from hml.metric import (ChartMetric, DegenerateMetricError, DomainError,
                        OrderExceededError)

import oracles
from oracles import (ScalarField, check_positive_definite, christoffels,
                     gradient_norm_sq, hessian, laplacian)


ALL_CATALOG = ["euclid3", "sphere3", "round_sf3", "hyperbolic3", "fs2"]


def sample_points(entry, rng, n):
    """Random points safely inside the chart domain (near the center)."""
    scale = {"euclidean": 0.8, "sphere": 0.5, "space_form": 0.4,
             "fubini_study": 0.5}[entry.name]
    pts = rng.uniform(-scale, scale, size=(n, entry.dim))
    assert np.all(entry.metric.contains(pts))
    return pts


# ---------------------------------------------------------------------------
# christoffels
# ---------------------------------------------------------------------------

def test_christoffels_euclidean_zero(euclid3):
    Gam = christoffels(euclid3.metric, [0.1, 0.5, -0.2])
    assert np.max(np.abs(Gam)) == 0.0


def test_christoffels_polar_surface():
    # ds^2 = dr^2 + f dtheta^2, f = r^2:
    # Gamma_theta,theta^r = -f_r/2 = -r and Gamma_r,theta^theta = f_r/(2f) = 1/r
    Gam = christoffels(oracles.polar_surface(2, 0.0), [1.0, 0.3])
    assert Gam[1, 1, 0] == pytest.approx(-1.0, rel=1e-12)
    assert Gam[0, 1, 1] == pytest.approx(1.0, rel=1e-12)


def test_christoffels_match_fd_koszul(rng):
    entry = catalog.space_form(0.7, 0.3, 3)
    for _ in range(4):
        x = rng.uniform(-0.4, 0.4, 3)
        Gam = christoffels(entry.metric, x)
        Gam_fd = oracles.fd_christoffels(entry.metric, x)
        assert np.max(np.abs(Gam - Gam_fd)) < 1e-8


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_fd_oracles_every_catalog_metric(name, rng, request):
    """Gamma, R and Hess agree with O(h^4) finite differences everywhere."""
    entry = request.getfixturevalue(name)
    x = sample_points(entry, rng, 1)[0]
    Gam = christoffels(entry.metric, x)
    assert np.max(np.abs(Gam - oracles.fd_christoffels(entry.metric, x))) < 1e-6
    b = curvature(entry.metric, x, k_max=0)
    assert np.max(np.abs(b.riemann - oracles.fd_riemann(entry.metric, x))) < 1e-6
    phi = ScalarField(
        lambda x: jets.sin(x.entries(0)) * (1.0 + x.entries(1)), name="probe")
    H = hessian(entry.metric, phi, x)
    H_fd = oracles.fd_covariant_hessian(
        entry.metric, lambda y: math.sin(y[0]) * (1.0 + y[1]), x)
    assert np.max(np.abs(H - H_fd)) < 1e-6


# ---------------------------------------------------------------------------
# curvature bundles
# ---------------------------------------------------------------------------

def test_curvature_euclidean_all_zero(euclid3):
    b = curvature(euclid3.metric, [0.2, -0.3, 0.7], k_max=2)
    assert np.max(np.abs(b.riemann)) == 0.0
    for T in b.nabla_r:
        assert np.max(np.abs(T)) == 0.0


def test_round_sphere_sectional_and_parallel(round_sf3, rng):
    x = np.array([0.25, -0.1, 0.3])
    b = curvature(round_sf3.metric, x, k_max=1)
    for _ in range(5):
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert sectional_curvature(b, u, v) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(b.nabla_r[0])) < 1e-12


def test_fubini_study_symmetric_space(fs2, rng):
    x = rng.uniform(-0.4, 0.4, 4)
    b = curvature(fs2.metric, x, k_max=1)
    assert einstein_defect(b) < 1e-8
    assert np.max(np.abs(b.nabla_r[0])) < 1e-8
    # independent covariant-derivative oracle: FD outer differentiation
    def riem(y):
        return curvature(fs2.metric, y, k_max=0).riemann

    def gam(y):
        return christoffels(fs2.metric, y)

    nabla_fd = oracles.fd_nabla_riemann(fs2.metric, x, riem, gam)
    assert np.max(np.abs(nabla_fd)) < 1e-8


def test_curvature_matches_fd_oracle(sphere3, rng):
    x = rng.uniform(-0.4, 0.4, 3)
    b = curvature(sphere3.metric, x, k_max=0)
    R_fd = oracles.fd_riemann(sphere3.metric, x)
    assert np.max(np.abs(b.riemann - R_fd)) < 1e-6


@pytest.mark.parametrize("name", ["fs2", "deformed_sphere4"])
def test_fast_path_matches_bundle(name, request):
    entry = request.getfixturevalue(name)
    metric = getattr(entry, "metric", entry)
    pts = np.random.default_rng(5).uniform(-0.3, 0.3, size=(5, 4))
    _, _, Gam, R = curvature_arrays(metric, pts)
    _, _, Gam0, R0 = curvature_arrays(metric, pts[0])     # unbatched (m,)
    cases = [(Gam[i], R[i], x) for i, x in enumerate(pts)] + [(Gam0, R0, pts[0])]
    for G, Rx, x in cases:
        b = curvature(metric, x, k_max=0)
        assert np.max(np.abs(Rx - b.riemann)) < 1e-11
        assert np.max(np.abs(G - b.christoffels)) < 1e-12


_SPHERE4_POLY = {"family": "sphere", "dim": 4,
                 "deform": {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}}


@pytest.mark.parametrize("name", ["fs2", "sphere4", "deformed_sphere4"])
@pytest.mark.parametrize("shape", [(), (1,), (16,), (1024,), (2, 150), (1, 1)])
def test_derivative_arrays_match_literal_loop(name, shape, request):
    """The one-gather derivative_arrays is bit-identical to the per-component loop."""
    if name == "deformed_sphere4":
        built = manifest.build_metric(_SPHERE4_POLY)
        metric, literal = built.metric, oracles.literal_components(
            built.entry, built.psi)
    else:
        entry = request.getfixturevalue(name)
        metric, literal = entry.metric, oracles.literal_components(entry)
    x = np.random.default_rng(len(shape) + sum(shape)).uniform(
        -0.3, 0.3, size=shape + (metric.dim,))
    got = metric.derivative_arrays(x, 2)
    ref = oracles.literal_derivative_arrays(literal, x, 2)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.flags.c_contiguous
        assert np.array_equal(a, b)
    assert np.array_equal(metric.value(x), ref[0])


_STACKED_CHARTS = {
    "euclidean3": {"family": "euclidean", "dim": 3},
    "space_form": {"family": "space_form", "a": 1.0, "b": 0.25, "dim": 3},
    "hyperbolic4": {"family": "space_form", "a": 0.5, "b": -0.5, "dim": 4},
    "sphere3": {"family": "sphere", "dim": 3},
    "sphere4": {"family": "sphere", "dim": 4},
    "fs2": {"family": "fubini_study", "cdim": 2},
    "two_d_family": None,         # the 2D family's polar chart, below
    "deformed_sphere4": _SPHERE4_POLY,
    "trivial_sphere3": {"family": "sphere", "dim": 3,
                        "deform": {"psi": {"kind": "trivial-density"}}},
    "trivial_fs2": {"family": "fubini_study", "cdim": 2,
                    "deform": {"psi": {"kind": "trivial-density"}}},
}


def _stacked_chart(name):
    """The chart's metric and its per-entry components."""
    if name == "two_d_family":
        metric = oracles.polar_surface(3, 0.4)
        return metric, metric.components        # per-entry already
    built = manifest.build_metric(_STACKED_CHARTS[name])
    return built.metric, oracles.literal_components(built.entry, built.psi)


@pytest.mark.parametrize("name", sorted(_STACKED_CHARTS))
def test_stacked_entries_match_per_entry_formulas(name):
    """Stacked metric formulas give the per-entry formulas' bits.

    derivative_arrays to order 3, unbatched and at B = 1 to 1024, and the
    jet-ring bundle at k_max = 4, which takes per-entry views of the stack.
    """
    metric, literal = _stacked_chart(name)
    m = metric.dim
    rng = np.random.default_rng(len(name))
    for B in (None, 1, 16, 300, 512, 1024):
        x = rng.uniform(-0.3, 0.3, (m,) if B is None else (B, m))
        if name == "two_d_family":
            x[..., 0] += 0.6                # the chart is r > 0
        for order in range(4):
            got = metric.derivative_arrays(x, order)
            ref = oracles.literal_derivative_arrays(literal, x, order)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    got = curvature(metric, x[0], k_max=4)
    ref = oracles.literal_curvature(ChartMetric(dim=m, components=literal),
                                    x[0], k_max=4)
    assert _bundle_bytes(got) == _bundle_bytes(ref)


def _bundle_bytes(bundle):
    fields = ("g", "ginv", "christoffels", "riemann", "ricci", "scalar")
    return ([np.asarray(getattr(bundle, f)).tobytes() for f in fields]
            + [a.tobytes() for a in bundle.nabla_r])


@pytest.mark.parametrize("k_max", [0, 2, 4])
@pytest.mark.parametrize("name", sorted(_STACKED_CHARTS))
def test_bundle_matches_literal_curvature(name, k_max):
    """The stacked bundle gives the object-array path's bits, field by field."""
    metric, _ = _stacked_chart(name)
    m = metric.dim
    x = np.random.default_rng(m + k_max).uniform(-0.3, 0.3, m)
    if name == "two_d_family":
        x[0] += 0.6                         # the chart is r > 0
    points = [x] + ([np.zeros(m)] if metric.contains(np.zeros(m)) else [])
    for p in points:
        got = curvature(metric, p, k_max)
        assert _bundle_bytes(got) == _bundle_bytes(
            oracles.literal_curvature(metric, p, k_max))
        assert len(got.nabla_r) == k_max


@pytest.mark.parametrize("spec", [{"family": "fubini_study", "cdim": 3},
                                  {"family": "sphere", "dim": 6}],
                         ids=["fubini_study3", "sphere6"])
def test_bundle_matches_literal_curvature_dim6(spec):
    metric = manifest.build_metric(spec).metric
    x = np.random.default_rng(6).uniform(-0.3, 0.3, 6)
    assert _bundle_bytes(curvature(metric, x, 2)) == _bundle_bytes(
        oracles.literal_curvature(metric, x, 2))


def test_bundle_matches_literal_curvature_dim6_k4():
    """Order-6 jets in 6 variables, where each product is a block of its
    own, and the first covariant step reads its einsums transposed."""
    metric = manifest.build_metric({"family": "fubini_study", "cdim": 3}).metric
    x = np.random.default_rng(64).uniform(-0.3, 0.3, 6)
    assert _bundle_bytes(curvature(metric, x, 4)) == _bundle_bytes(
        oracles.literal_curvature(metric, x, 4))


def test_bundle_matches_literal_curvature_dim5_k4():
    """m = 5: the covariant steps form their larger einsums in slabs of
    3 and 2 rows of the leading axis, and the sums keep their bits."""
    metric = catalog.space_form(1.0, 0.25, 5).metric
    x = np.random.default_rng(54).uniform(-0.3, 0.3, 5)
    assert _bundle_bytes(curvature(metric, x, 4)) == _bundle_bytes(
        oracles.literal_curvature(metric, x, 4))


@pytest.mark.parametrize("m", [4, 6])
def test_rotation_in_place_matches_moveaxis(m):
    """_rotated gives np.moveaxis(P, -1, rank).copy()'s bytes in P's own
    memory, C-contiguous, at every (rank, d) of a k_max = 4 bundle: at
    d = 0 the rotation is the identity and P keeps its bytes."""
    rng = np.random.default_rng(m)
    for s in range(1, 5):
        rank = 3 + s
        for d in range(5 - s):
            P = rng.standard_normal((m,) * (rank + d + 1))
            ref = np.moveaxis(P, -1, rank).copy()
            kept = P.tobytes()
            got = _rotated(P, rank)
            assert got.flags.c_contiguous and np.shares_memory(got, P)
            assert (got.shape, got.tobytes()) == (ref.shape, ref.tobytes())
            if d == 0:
                assert got.tobytes() == kept


def test_covariant_step_consumes_its_input(fs2):
    """A step leaves its input only P_prev[0] and forms each P_new[d] in the
    memory of P_prev[d + 1]: no order copies its total."""
    x = np.random.default_rng(4).uniform(-0.3, 0.3, 4)
    _, _, PR, DGam = _jet_partials(fs2.metric, x, 4)
    inputs = dict(PR)
    P_new = _covariant_step(PR, DGam)
    assert list(PR) == [0] and sorted(P_new) == [0, 1, 2, 3]
    for d, P in P_new.items():
        assert P.shape == (4,) * (5 + d)
        assert np.shares_memory(P, inputs[d + 1])


def test_bundle_matches_literal_curvature_k6(fs2):
    """k_max = 6: the second covariant step reads an einsum transposed over
    derivative slots of a tensor that is not bitwise symmetric in them."""
    x = np.random.default_rng(66).uniform(-0.3, 0.3, 4)
    assert _bundle_bytes(curvature(fs2.metric, x, 6)) == _bundle_bytes(
        oracles.literal_curvature(fs2.metric, x, 6))


@pytest.mark.parametrize("spec", [{"family": "fubini_study", "cdim": 2},
                                  {"family": "sphere", "dim": 6}],
                         ids=["fubini_study2", "sphere6"])
def test_partial_arrays_match_out_of_place_expressions(spec):
    """derivative_array scales its gather in place and _jet_partials negates
    each P in place: the bits of the out-of-place expressions, signed zeros
    included, at the center and at a seeded point."""
    metric = manifest.build_metric(spec).metric
    m = metric.dim
    for x in (np.zeros(m), np.random.default_rng(m).uniform(-0.3, 0.3, m)):
        _, _, PR, DGam = _jet_partials(metric, x, 4)
        for got, ref in zip((PR, DGam),
                            oracles.literal_jet_partials(metric, x, 4)):
            assert got.keys() == ref.keys()
            for d in ref:
                assert got[d].flags.c_contiguous
                assert got[d].shape == ref[d].shape
                assert got[d].tobytes() == ref[d].tobytes()
        S = metric.component_jets(x, 6)
        for d in range(7):
            got = S.derivative_array(d)
            ref = oracles.literal_derivative_array(S, d)
            assert (got.shape, got.tobytes()) == (ref.shape, ref.tobytes())


@pytest.mark.parametrize("k_max", [0, 2, 4])
def test_bundle_stages_run_at_the_order_they_are_read(fs2, k_max,
                                                      monkeypatch):
    """G^-1 and Gamma are formed at order k_max + 1, R up and R at k_max:
    a stage run wider keeps every bit, so only the orders can show it."""
    calls = []

    def spy(a, ia, b, ib, init=None, minus=()):
        calls.append((a.order, b.order)
                     + (() if init is None else (init.order,)))
        return entry_dot(a, ia, b, ib, init=init, minus=minus)

    monkeypatch.setattr("hml.curvature.entry_dot", spy)
    x = np.random.default_rng(k_max).uniform(-0.3, 0.3, 4)
    curvature(fs2.metric, x, k_max)
    *newton, gamma, rup, r = calls
    assert len(newton) >= 2 and len(newton) % 2 == 0    # two per step
    assert set(newton) == {gamma} == {(k_max + 1, k_max + 1)}
    assert (rup, r) == ((k_max, k_max, k_max), (k_max, k_max))


def test_negative_k_max_refused(fs2):
    with pytest.raises(ValueError, match="k_max"):
        curvature(fs2.metric, np.zeros(4), k_max=-1)


@pytest.mark.parametrize("k_max", [2.5, True, "2", None])
def test_bad_k_max_refused(fs2, k_max):
    with pytest.raises(ValueError, match="k_max must be an integer >= 0"):
        curvature(fs2.metric, np.zeros(4), k_max=k_max)
    assert curvature(fs2.metric, np.zeros(4), k_max=np.int64(1)).k_max == 1


def test_one_point_batch_matches_unbatched(deformed_sphere4):
    """value and contains on a (1, m) batch equal the (m,) point bit for bit."""
    metric = deformed_sphere4
    for x in np.random.default_rng(11).uniform(-0.4, 0.4, (8, metric.dim)):
        g, ok = metric.value(x[None]), metric.contains(x[None])
        assert g.shape == (1, 4, 4) and g[0].tobytes() == metric.value(x).tobytes()
        assert ok.shape == (1,) and ok[0] == metric.contains(x)
    far = np.full((1, 1, metric.dim), 2.0)          # outside the chart
    assert metric.contains(far).shape == (1, 1) and not metric.contains(far).any()


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_symmetries_and_first_bianchi(name, rng, request):
    entry = request.getfixturevalue(name)
    pts = sample_points(entry, rng, 100)
    _, _, _, R = curvature_arrays(entry.metric, pts)
    scale = max(np.max(np.abs(R)), 1.0)
    assert np.max(np.abs(R + np.einsum('...jikl->...ijkl', R))) < 1e-9 * scale
    assert np.max(np.abs(R + np.einsum('...ijlk->...ijkl', R))) < 1e-9 * scale
    assert np.max(np.abs(R - np.einsum('...klij->...ijkl', R))) < 1e-9 * scale
    bianchi = (R + np.einsum('...iklj->...ijkl', R)
               + np.einsum('...iljk->...ijkl', R))
    assert np.max(np.abs(bianchi)) < 1e-9 * scale


@pytest.mark.parametrize("name", ["sphere3", "round_sf3", "fs2"])
def test_contracted_second_bianchi(name, rng, request):
    # div ricci = d(scal)/2, both sides assembled from grad R
    entry = request.getfixturevalue(name)
    x = sample_points(entry, rng, 1)[0]
    b = curvature(entry.metric, x, k_max=1)
    nabla = b.nabla_r[0]                       # [i,j,k,l,p]
    grad_ricci = np.einsum('il,ijklp->jkp', b.ginv, nabla)
    div_ricci = np.einsum('pj,jkp->k', b.ginv, grad_ricci)
    grad_scal = np.einsum('jk,jkp->p', b.ginv, grad_ricci)
    assert np.max(np.abs(div_ricci - 0.5 * grad_scal)) < 1e-7


def test_ricci_symmetric(fs2, rng):
    x = rng.uniform(-0.5, 0.5, 4)
    b = curvature(fs2.metric, x, k_max=0)
    assert np.max(np.abs(b.ricci - b.ricci.T)) < 1e-12


# ---------------------------------------------------------------------------
# hessian, laplacian
# ---------------------------------------------------------------------------

def test_hessian_euclidean_norm_sq(euclid3):
    phi = ScalarField(jets.norm_sq, name="r2")
    H = hessian(euclid3.metric, phi, np.array([0.4, -0.2, 0.9]))
    assert np.max(np.abs(H - 2 * np.eye(3))) < 1e-13
    x = np.array([0.4, -0.2, 0.9])
    assert laplacian(euclid3.metric, phi, x) == pytest.approx(-6.0, rel=1e-12)
    assert gradient_norm_sq(euclid3.metric, phi, x) == pytest.approx(
        4 * float(x @ x), rel=1e-12)


def test_hessian_radial_structure_euclidean(euclid4):
    # Psi = psi(|x|^2) at x = (r, 0, 0, 0):
    # Hess = diag(2 psi' + 4 r^2 psi'', 2 psi', 2 psi', 2 psi')
    def psi_field(x):
        t = jets.norm_sq(x)
        return jets.exp(t * 0.3)

    phi = ScalarField(psi_field)
    r = 0.8
    t = r * r
    p1 = 0.3 * math.exp(0.3 * t)
    p2 = 0.09 * math.exp(0.3 * t)
    H = hessian(euclid4.metric, phi, np.array([r, 0, 0, 0.0]))
    expected = np.diag([2 * p1 + 4 * r * r * p2, 2 * p1, 2 * p1, 2 * p1])
    assert np.max(np.abs(H - expected)) < 1e-12


def test_hessian_matches_fd_oracle(sphere3):
    phi = ScalarField(lambda x: x.entries(0), name="x1")
    x = np.array([0.5, 0.2, -0.3])
    H = hessian(sphere3.metric, phi, x)
    H_fd = oracles.fd_covariant_hessian(
        sphere3.metric, lambda y: y[0], x)
    assert np.max(np.abs(H - H_fd)) < 1e-7
    assert np.max(np.abs(H - H.T)) < 1e-12


# ---------------------------------------------------------------------------
# sectional curvature and einstein defect
# ---------------------------------------------------------------------------

def test_sectional_euclidean_zero(euclid3, rng):
    b = curvature(euclid3.metric, [0.1, 0.2, 0.3], k_max=0)
    u, v = rng.normal(size=3), rng.normal(size=3)
    assert sectional_curvature(b, u, v) == pytest.approx(0.0, abs=1e-14)


def test_sectional_paper_space_forms(rng):
    b = curvature(catalog.space_form(1.0, 0.25, 3).metric,
                  rng.uniform(-0.5, 0.5, 3), k_max=0)
    u, v = rng.normal(size=3), rng.normal(size=3)
    assert sectional_curvature(b, u, v) == pytest.approx(1.0, abs=1e-8)
    bh = curvature(catalog.space_form(0.5, -0.5, 3).metric,
                   rng.uniform(-0.3, 0.3, 3), k_max=0)
    assert sectional_curvature(bh, u, v) == pytest.approx(-1.0, abs=1e-8)


def test_sectional_plane_basis_invariance(fs2, rng):
    b = curvature(fs2.metric, rng.uniform(-0.3, 0.3, 4), k_max=0)
    u, v = rng.normal(size=4), rng.normal(size=4)
    k1 = sectional_curvature(b, u, v)
    k2 = sectional_curvature(b, 2.0 * u + 0.3 * v, -1.2 * v)
    assert k1 == pytest.approx(k2, rel=1e-10)


def test_sectional_degenerate_plane_rejected(euclid3):
    b = curvature(euclid3.metric, [0, 0, 0.0], k_max=0)
    u = np.array([1.0, 2.0, -1.0])
    with pytest.raises(ValueError):
        sectional_curvature(b, u, 3.0 * u)


POLY = {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}
TRIVIAL = {"psi": {"kind": "trivial-density"}}


def sampled_kappas(bundle, n: int, seed: int) -> np.ndarray:
    """K of n seeded random planes, each from its own g-orthonormal pair."""
    rng = np.random.default_rng(seed)
    E = np.linalg.inv(np.linalg.cholesky(bundle.g)).T
    Q = np.linalg.qr(rng.normal(size=(n, bundle.dim, 2)))[0]
    U, V = np.moveaxis(Q, -1, 0) @ E.T
    return np.einsum("ijkl,ni,nj,nk,nl->n", bundle.riemann, U, V, V, U)


# the extremes Nelder-Mead found on these charts, which the exact ones match
# to 12 digits; space_form(1, -0.25, 4) has K = -1, so a sign slip fails
@pytest.mark.parametrize("spec, x, want", [
    ({"family": "fubini_study", "cdim": 2, "deform": TRIVIAL},
     [0.1, 0.2, 0.0, 0.05], (-0.9778782602121, 1.922497517262)),
    ({"family": "sphere", "dim": 4, "deform": POLY},
     [0.2, 0.1, 0.0, 0.15], (0.3570409570357, 0.4006429793001)),
    ({"family": "space_form", "a": 1.0, "b": -0.25, "dim": 4},
     [0.2, 0.1, 0.0, 0.15], (-1.0, -1.0)),
    ({"family": "sphere", "dim": 3, "deform": POLY},
     [0.2, 0.1, 0.05], (0.3449086161415, 0.3768182410879)),
])
def test_sectional_extremes_bound_a_dense_plane_sample(spec, x, want):
    bundle = curvature(manifest.build_metric(spec).metric, x, k_max=0)
    lo, hi = sectional_extremes(bundle)
    kappas = sampled_kappas(bundle, 20_000, seed=len(x))
    assert lo - 1e-12 <= kappas.min() and kappas.max() <= hi + 1e-12
    assert (lo, hi) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_fubini_study_2_extremes_are_1_and_4(fs2):
    rng = np.random.default_rng(4)
    for x in [np.zeros(4), *rng.uniform(-0.4, 0.4, (3, 4))]:
        got = sectional_extremes(curvature(fs2.metric, x, k_max=0))
        assert got == pytest.approx((1.0, 4.0), rel=1e-12)


def test_einstein_defect_values(euclid3, fs2):
    be = curvature(euclid3.metric, [0.3, 0.1, 0.0], k_max=0)
    assert einstein_defect(be) == 0.0
    bf = curvature(fs2.metric, [0.2, -0.1, 0.3, 0.1], k_max=0)
    assert einstein_defect(bf) < 1e-8


def test_einstein_defect_deformed_sphere_equator():
    from hml.conformal import deform_metric
    from hml.manifest import _sphere_height_psi
    sp = catalog.sphere(4)
    ms = deform_metric(sp.metric, _sphere_height_psi([1.0, 0.25]))
    b = curvature(ms, np.array([math.pi / 2, 0, 0, 0]), k_max=0)
    assert einstein_defect(b) > 1e-3


def test_einstein_defect_chart_scaling_invariance(fs2):
    c = 2.5
    base = fs2.metric

    def scaled_components(x, t):
        xc = x * c
        return c * c * base.components(xc, jets.norm_sq(xc))

    scaled = ChartMetric(dim=4, components=scaled_components, name="scaled")
    x = np.array([0.1, -0.2, 0.05, 0.15])
    d1 = einstein_defect(curvature(base, c * x, k_max=0))
    d2 = einstein_defect(curvature(scaled, x, k_max=0))
    assert d1 == pytest.approx(d2, abs=1e-8)


# ---------------------------------------------------------------------------
# chart plumbing
# ---------------------------------------------------------------------------

def test_domain_enforced():
    hyp = catalog.space_form(0.5, -0.5, 3)
    with pytest.raises(DomainError):
        hyp.metric.value(np.array([1.2, 0, 0]))


def test_degenerate_metric_reported():
    bad = ChartMetric(
        dim=2,
        components=lambda x, t: [[t * 0 + 1.0, 0.0], [0.0, t * 0]],
        name="degenerate")
    with pytest.raises(DegenerateMetricError):
        check_positive_definite(bad, np.array([0.3, 0.4]))
    # both library paths name the chart and the point
    for path in (curvature_arrays, curvature):
        with pytest.raises(DegenerateMetricError,
                           match=r"degenerate metric degenerate at \[0\.3 0\.4\]"):
            path(bad, np.array([0.3, 0.4]))


def test_order_exceeded_error(euclid3):
    b = curvature(euclid3.metric, [0.0, 0.0, 0.0], k_max=1)
    for s in (2, -1):
        with pytest.raises(OrderExceededError):
            b.nabla(s)
    assert b.nabla(0) is b.riemann and b.nabla(1) is b.nabla_r[0]


def test_metric_derivatives_consistent_with_fd(fs2):
    x = np.array([0.3, 0.1, -0.2, 0.4])
    g, dg, _ = fs2.metric.derivative_arrays(x, 2)
    dg_fd = oracles.fd1(fs2.metric.value, x)
    assert np.max(np.abs(dg - dg_fd)) < 1e-9


def test_positive_definite_sampled(sphere4, rng):
    pts = rng.uniform(-0.6, 0.6, size=(10, 4))
    for p in pts:
        assert check_positive_definite(sphere4.metric, p)
