"""Geodesic + Jacobi integration: densities, radiality, shapes."""

import math
import tracemalloc

import numpy as np
import pytest

from hml import catalog, jets, manifest
from hml.curvature import curvature_arrays, reduced_jacobi
from hml.geodesics import (DomainExitError, _initial_state,
                           _integrate_recording, _rhs, centrally_harmonic_test,
                           density_profile, g_unit_directions,
                           parallel_frame_start, relative_spread,
                           unit_directions)
from hml.metric import ChartMetric, Workspace

import oracles
from oracles import (NonRadialProfileError, ScalarField, christoffels,
                     eigen_spread, laplacian, radial_harmonic,
                     reduced_jacobi_at, shape_operator, shot_end)

FAST = 300      # RK4 steps


def shot(metric, P, theta, r, steps):
    """The density profile of one direction at one radius."""
    return density_profile(metric, P, np.asarray(theta, dtype=float)[None],
                           [r], steps)


# ---------------------------------------------------------------------------
# single shots
# ---------------------------------------------------------------------------

def test_shoot_euclidean(euclid3):
    x, A, _ = shot_end(euclid3.metric, [0.0, 0, 0], [0, 1.0, 0], 2.0, 50)
    assert np.allclose(x, [0, 2, 0], atol=1e-12)
    assert np.allclose(A, 2.0 * np.eye(2), atol=1e-12)
    s = shot(euclid3.metric, [0.0, 0, 0], [0, 1.0, 0], 2.0, steps=50)
    assert s.theta[0, 0] == pytest.approx(2.0 ** 2, rel=1e-12)  # det(2 I_2)
    assert s.xi[0, 0] == pytest.approx(2.0 / 2.0, rel=1e-10)    # (m-1)/r


def test_shoot_sphere_closed_form(sphere4):
    _, A, _ = shot_end(sphere4.metric, np.zeros(4), [1.0, 0, 0, 0], 1.0, 500)
    assert np.linalg.det(A) == pytest.approx(math.sin(1.0) ** 3, abs=1e-7)
    assert np.allclose(A, math.sin(1.0) * np.eye(3), atol=1e-9)


def test_shoot_fubini_study_closed_form(fs2):
    theta = g_unit_directions(fs2.metric, np.zeros(4), 5)[3]
    s = shot(fs2.metric, np.zeros(4), theta, 1.0, steps=500)
    assert s.theta[0, 0] == pytest.approx(math.sin(1.0) ** 3 * math.cos(1.0),
                                          abs=1e-6)


def test_density_profile_refuses_non_unit_direction(sphere3):
    # one row of g-norm 2 in a g-unit batch: integrated, it read Theta
    # at twice the radius
    dirs = g_unit_directions(sphere3.metric, np.zeros(3), 4)
    dirs[2] *= 2.0
    with pytest.raises(ValueError, match=r"\|theta\|_g = 2 in row 2"):
        density_profile(sphere3.metric, np.zeros(3), dirs, [0.5], FAST)


def test_energy_conservation(fs2):
    theta = g_unit_directions(fs2.metric, np.zeros(4), 1)[0]
    s = shot(fs2.metric, np.zeros(4), theta, 1.2, steps=600)
    assert s.energy_error < 1e-9


def test_integrator_fourth_order_convergence(sphere3):
    # halving the step divides the closed-form error by >= 2^4 (up to noise)
    exact = math.sin(0.9) ** 2
    errs = []
    for steps in (40, 80, 160):
        s = shot(sphere3.metric, np.zeros(3), [1.0, 0, 0], 0.9, steps)
        errs.append(abs(s.theta[0, 0] - exact))
    assert errs[0] / errs[1] > 14
    assert errs[1] / errs[2] > 14


def test_domain_exit_reports_radius():
    hyp = catalog.space_form(0.5, -0.5, 3).metric
    # chart boundary at |x| = 1; the geodesic parameter is distance,
    # which diverges, so pick an explicitly bounded domain instead
    small = ChartMetric(
        dim=3, components=lambda x, t: [[1.0 if i == j else 0.0
                                         for j in range(3)] for i in range(3)],
        domain=lambda x: np.sum(np.asarray(x) ** 2, axis=-1) < 0.25,
        name="ball")
    with pytest.raises(DomainExitError) as exc:
        shot(small, np.zeros(3), [1.0, 0, 0], 1.0, FAST)
    # the k4 stage of the step from r = 149 h reaches |x| = 0.5
    assert exc.value.last_r == 0.4966666666666667


@pytest.mark.parametrize("radii,steps,bound,last_r", [
    ([0.3], 5, 0.036, 0.0),                           # inside a segment
    ([0.28, 0.56], 6, 0.168, 0.18666666666666668),    # at a segment's end
], ids=["mid_segment", "segment_end"])
def test_domain_exit_on_a_step_end_point(radii, steps, bound, last_r):
    # Flat R^3 along v = (0.6, 0.8, 0): at these step sizes the RK4 update
    # x + (h/6)(v + 2v + 2v + v) lands one ulp past the k4 stage x + h v, so
    # in the slab x0 < nextafter(bound) only a step's end point leaves it;
    # the radius reported is the one that step started from
    slab = ChartMetric(
        dim=3, components=lambda x, t: [[1.0 if i == j else 0.0
                                         for j in range(3)] for i in range(3)],
        domain=lambda x: np.asarray(x)[..., 0] < np.nextafter(bound, 1.0),
        name="slab")
    with pytest.raises(DomainExitError) as exc:
        density_profile(slab, np.zeros(3), np.array([[0.6, 0.8, 0.0]]), radii,
                        steps=steps)
    assert exc.value.last_r == last_r


def test_conjugate_point_flagged_odd_parity(sphere4):
    # from an off-pole start the antipodal conjugate point (distance pi)
    # sits inside the chart: the geodesic passes back through the pole;
    # det A = sin^3 goes negative past it
    s = shot(sphere4.metric, [1.0, 0, 0, 0], [-1.0, 0, 0, 0], 3.3, 800)
    assert s.conjugate[0, 0]
    assert s.theta[0, 0] < 0


def test_conjugate_point_latched_even_parity(sphere3):
    # det A = sin^2 stays positive after the crossing at pi; the dip
    # monitor must still latch the conjugate point
    s = shot(sphere3.metric, [1.0, 0, 0], [-1.0, 0, 0], 3.3, 800)
    assert s.conjugate[0, 0]
    assert s.theta[0, 0] > 0
    # and a shot stopping before the crossing stays clean
    s_ok = shot(sphere3.metric, [1.0, 0, 0], [-1.0, 0, 0], 2.0, 400)
    assert not s_ok.conjugate[0, 0]


# ---------------------------------------------------------------------------
# density profiles and radiality
# ---------------------------------------------------------------------------

def test_profile_euclidean_columns_identical(euclid4):
    dirs = g_unit_directions(euclid4.metric, np.zeros(4), 20)
    prof = density_profile(euclid4.metric, np.zeros(4), dirs, [0.5, 1.0, 1.5],
                           steps=100)
    for ir, r in enumerate(prof.radii):
        assert np.max(np.abs(prof.theta[ir] - r ** 3)) < 1e-12
    assert relative_spread(prof.theta).max() < 1e-12


def test_profile_deformed_sphere_pole_radial(deformed_sphere4):
    dirs = g_unit_directions(deformed_sphere4, np.zeros(4), 8)
    prof = density_profile(deformed_sphere4, np.zeros(4), dirs,
                           [0.3, 0.6, 0.9], FAST)
    assert relative_spread(prof.theta).max() < 1e-7


def test_profile_deformed_sphere_off_pole_not_radial(deformed_sphere4):
    P = np.array([0.45, 0, 0, 0])
    dirs = g_unit_directions(deformed_sphere4, P, 8)
    prof = density_profile(deformed_sphere4, P, dirs, [0.3, 0.6, 0.9], FAST)
    assert relative_spread(prof.theta).max() > 1e-3


@pytest.mark.parametrize("name,P", [("fs2", [0.0, 0, 0, 0]),
                                    ("deformed_sphere4", [0.0, 0.3, 0, 0])],
                         ids=["fs2", "deformed_sphere4"])
def test_batch_invariance_fixed_step(name, P, request):
    # a direction shot alone and inside a batch gives bit-identical Theta
    # and Xi on the fixed-step RK4 path; 1024 directions take the blocked
    # RHS and the slot-sum jet products
    entry = request.getfixturevalue(name)
    metric = getattr(entry, "metric", entry)
    P = np.asarray(P)
    radii = [0.4, 0.8]
    for n_dirs, steps, picks in ((40, 60, (0, 7, 39)),
                                 (1024, 4, (0, 511, 512, 1023))):
        dirs = g_unit_directions(metric, P, n_dirs)
        batch = density_profile(metric, P, dirs, radii,
                                steps=steps)
        for i in picks:
            alone = density_profile(metric, P, dirs[i:i + 1], radii,
                                    steps=steps)
            assert np.array_equal(alone.theta[:, 0], batch.theta[:, i])
            assert np.array_equal(alone.xi[:, 0], batch.xi[:, i])


_POLY = {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}
_SHOT_CHARTS = {
    "fs2": {"family": "fubini_study", "cdim": 2},
    "deformed_sphere4": {"family": "sphere", "dim": 4, "deform": _POLY},
    "trivial_fs2": {"family": "fubini_study", "cdim": 2,
                    "deform": {"psi": {"kind": "trivial-density"}}},
}


def _bytes(record):
    r, state, crossed = record
    return r, crossed.tobytes(), [(p.shape, p.tobytes()) for p in state]


@pytest.mark.parametrize("B", [1, 16, 1030])
@pytest.mark.parametrize("name", sorted(_SHOT_CHARTS))
def test_integrator_matches_out_of_place_loop(name, B):
    # every yielded radius, state and latch, read once the shot has ended,
    # is bit-identical to the out-of-place RK4 loop's; 1,030 directions are
    # two full RHS blocks and a ragged one, which gets a plan of its own
    metric = manifest.build_metric(_SHOT_CHARTS[name]).metric
    P = np.array([0.1, -0.05, 0.0, 0.08])
    args = (metric, P, g_unit_directions(metric, P, B), [0.2, 0.5], 6)
    got, want = ([_bytes(record) for record in list(integrate(*args))]
                 for integrate in (_integrate_recording,
                                   oracles.literal_integrate_recording))
    assert len(got) == 2 and got == want


def test_integrator_exit_matches_out_of_place_loop():
    # the poly-deformed sphere(3) leaves its chart before r = 3.4: both
    # loops yield the same record at r = 2 and raise with the same last_r
    metric = manifest.build_metric(
        {"family": "sphere", "dim": 3, "deform": _POLY}).metric
    P = np.zeros(3)
    args = (metric, P, g_unit_directions(metric, P, 8), [2.0, 3.4], 250)
    runs = []
    for integrate in (_integrate_recording,
                      oracles.literal_integrate_recording):
        records = []
        with pytest.raises(DomainExitError) as exc:
            records.extend(integrate(*args))
        runs.append((exc.value.last_r, list(map(_bytes, records))))
    assert len(runs[0][1]) == 1 and runs[0] == runs[1]


def _live_state(metric, B, seed):
    """B directions off the center, with a generic A: every RHS term is live."""
    P = np.zeros(metric.dim)
    x, v, E, A, Ad = _initial_state(metric, P, g_unit_directions(metric, P, B))
    rng = np.random.default_rng(seed)
    return (x + rng.uniform(-0.3, 0.3, x.shape), v, E,
            rng.standard_normal(A.shape), Ad)


@pytest.mark.parametrize("B", [1, 16, 1024])
def test_staged_rhs_matches_literal_einsum(fs2, B):
    state = _live_state(fs2.metric, B, B)
    _, v, E, _, _ = state
    for got, want in zip(_rhs(fs2.metric, state),
                         oracles.literal_rhs(fs2.metric, state)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    R = curvature_arrays(fs2.metric, state[0])[3]
    got = reduced_jacobi(R, v, E)
    want = oracles.literal_reduced_jacobi(R, v, E)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["fs2", "deformed_sphere4"])
def test_blocked_rhs_matches_each_point(name, request):
    # 1000 points: a full RHS block and a partial one; every output row is
    # bit-identical to the RHS of that point alone
    entry = request.getfixturevalue(name)
    metric = getattr(entry, "metric", entry)
    state = _live_state(metric, 1000, 1000)
    got = _rhs(metric, state)
    for i in range(1000):
        alone = _rhs(metric, tuple(y[i:i + 1] for y in state))
        for g, a in zip(got, alone):
            assert g[i:i + 1].tobytes() == a.tobytes()


@pytest.mark.parametrize("name", ["fs2", "deformed_sphere4"])
def test_rhs_workspace_reuse_matches_fresh_calls(name, request):
    # one workspace through a full block, a partial one, then one point and
    # a full batch again: every output matches a call with its own buffers
    entry = request.getfixturevalue(name)
    metric = getattr(entry, "metric", entry)
    ws = Workspace()
    for B, seed in [(1000, 1), (1, 2), (1000, 3), (16, 4)]:
        state = _live_state(metric, B, seed)
        for got, want in zip(_rhs(metric, state, ws), _rhs(metric, state)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(), (16,), (600,)])
def test_public_arrays_survive_later_calls(deformed_sphere4, shape):
    # the public entry points hand out arrays no later call writes into
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-0.3, 0.3, (2,) + shape + (4,))
    first = [*curvature_arrays(deformed_sphere4, x),
             *deformed_sphere4.derivative_arrays(x, 2)]
    kept = [a.tobytes() for a in first]
    curvature_arrays(deformed_sphere4, y)
    deformed_sphere4.derivative_arrays(y, 2)
    curvature_arrays(deformed_sphere4, y, Workspace())
    assert [a.tobytes() for a in first] == kept


@pytest.mark.parametrize("name", ["fs2", "deformed_sphere4"])
def test_rhs_allocation_budget(name, request):
    # a warm workspace leaves a B = 1024 RHS call only small temporaries:
    # jets and the kernel's small products, its outputs being the
    # workspace's too (the large arrays alone come to about 4 MiB when
    # allocated per call)
    entry = request.getfixturevalue(name)
    metric = getattr(entry, "metric", entry)
    state = _live_state(metric, 1024, 11)
    ws = Workspace()
    _rhs(metric, state, ws)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _rhs(metric, state, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - start <= 2.0 * 2 ** 20


def test_bundle_allocation_budget():
    # the jet-ring bundle stacks R only for i < j and dGamma only for
    # i <= j, each stage at the order it is read (1.4 MiB here); a stack of
    # R over every (i, j) once peaked at 13 MiB
    from hml.curvature import curvature
    metric = catalog.fubini_study(3).metric
    x = np.random.default_rng(3).uniform(-0.3, 0.3, 6)
    curvature(metric, x, k_max=2)               # builds the cached tables
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        curvature(metric, x, k_max=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - start <= 4.0 * 2 ** 20


def test_bundle_k4_peak_budget():
    # every covariant step turns each partial array of its input in place
    # after its last read, and einsum outputs of over 2 MiB come in slabs,
    # so no two m^8 arrays (12.8 MiB each here) coexist: the peak was
    # 31.3 MiB when they did, 20.6 MiB while lower orders copied (18.1 now)
    from hml.curvature import curvature
    metric = catalog.fubini_study(3).metric
    x = np.random.default_rng(3).uniform(-0.3, 0.3, 6)
    curvature(metric, x, k_max=4)               # builds the cached tables
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        curvature(metric, x, k_max=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - start <= 20.0 * 2 ** 20


def test_plan_cache_stays_small():
    # entry_dot keeps one plan per call shape for the life of the process:
    # a k_max = 4 bundle in 6 variables runs its products at orders 5 and 4
    # and plans 1,570 blocks, almost all of 2 or 9 products (10,692
    # one-product blocks, 849 KiB, when every stage ran at order 6; 4.0 MiB
    # when each block was a nested tuple of slices)
    from hml.curvature import curvature
    metric = catalog.fubini_study(3).metric
    x = np.random.default_rng(3).uniform(-0.3, 0.3, 6)
    jets._runs.cache_clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        curvature(metric, x, k_max=4)
        held = tracemalloc.get_traced_memory()[0]
        jets._runs.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert 0 < held < 2 ** 19


def test_density_oracle_normal_coordinates(rng):
    # det A (parallel-frame route) vs sqrt(det g) in numerically
    # constructed normal coordinates (coordinate-variation route)
    cases = [
        (catalog.sphere(3), [0.0, 0, 0], [1.0, 0, 0]),
        (catalog.space_form(0.5, 0.5, 3), [0.0, 0, 0], None),
        (catalog.fubini_study(2), [0.0, 0, 0, 0], None),
    ]
    for entry, P, th in cases:
        P = np.asarray(P, dtype=float)
        theta = (np.asarray(th) if th is not None
                 else g_unit_directions(entry.metric, P, 3)[2])
        radii = [0.4, 0.8]
        oracle = oracles.coordinate_jacobi_density(
            entry.metric, P, theta, radii, steps=600)
        prof = density_profile(entry.metric, P, theta[None, :], radii,
                               steps=600)
        assert np.max(np.abs(prof.theta[:, 0] - oracle)) < 1e-5


# ---------------------------------------------------------------------------
# harmonicity verdicts
# ---------------------------------------------------------------------------

def test_harmonic_euclidean(euclid3):
    rep = centrally_harmonic_test(
        euclid3.metric, [0.2, -0.1, 0.4],
        n_directions=10, radii=np.geomspace(0.2, 0.8, 4), steps=150)
    assert rep.verdict and not rep.inconclusive
    assert rep.theta_spread_max < 1e-12
    assert rep.einstein_defect < 1e-12


def test_harmonic_fubini_study(fs2):
    rep = centrally_harmonic_test(
        fs2.metric, np.zeros(4), n_directions=10,
        radii=np.geomspace(0.45 * math.pi / 2 / 4, 0.45 * math.pi / 2, 4),
        steps=FAST)
    assert rep.verdict
    assert rep.theta_spread_max < 1e-9


def test_harmonic_fubini_study_off_origin(fs2):
    # homogeneous, hence centrally harmonic about every chart point
    P = np.array([0.3, 0.1, -0.2, 0.05])
    rep = centrally_harmonic_test(
        fs2.metric, P,
        n_directions=8, radii=np.geomspace(0.125, 0.5, 3), steps=FAST)
    assert rep.verdict
    assert rep.theta_spread_max < 1e-7
    assert rep.einstein_defect < 1e-10


def test_small_radius_density_asymptotics(fs2):
    # Theta = r^(m-1) (1 + O(r^2)) and Xi = (m-1)/r + O(r) near the center
    theta = g_unit_directions(fs2.metric, np.zeros(4), 1)[0]
    for r in (0.02, 0.04, 0.08):
        s = shot(fs2.metric, np.zeros(4), theta, r, steps=100)
        assert abs(s.theta[0, 0] / r ** 3 - 1.0) <= 2.0 * r ** 2
        assert abs(s.xi[0, 0] - 3.0 / r) <= 4.0 * r


def test_not_harmonic_deformed_sphere_off_pole(deformed_sphere4):
    rep = centrally_harmonic_test(
        deformed_sphere4, np.array([0.3, 0, 0, 0]), n_directions=10,
        radii=np.geomspace(0.2, 0.8, 4), steps=FAST)
    assert not rep.verdict and not rep.inconclusive
    assert rep.theta_spread_max > 1e-3


@pytest.mark.parametrize("n", [1, 0])
def test_harmonicity_refuses_fewer_than_two_directions(deformed_sphere4, n):
    # the spread over one direction is 0 whatever the metric: a false verdict
    with pytest.raises(ValueError, match="at least 2 directions"):
        centrally_harmonic_test(
            deformed_sphere4, np.array([0.5, 0, 0, 0]),
            n_directions=n, steps=40)


@pytest.mark.parametrize("steps", [0, -5, True, 2.5])
def test_bad_steps_refused_where_integration_starts(fs2, steps):
    # one RK4 step per radius would pass for a result (Theta 0.2374 at r = 1
    # against sin^3(1) cos(1) = 0.3219)
    P = np.zeros(4)
    dirs = g_unit_directions(fs2.metric, P, 2)
    for call in (lambda: density_profile(fs2.metric, P, dirs, [1.0],
                                         steps=steps),
                 lambda: centrally_harmonic_test(fs2.metric, P, steps=steps)):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            call()


@pytest.mark.parametrize("n", [2.5, True])
def test_bad_n_directions_refused(fs2, n):
    # 2.5 drew 3 directions (np.arange(1, 3.5)) and reported 2.5
    with pytest.raises(ValueError, match="n_directions must be an integer"):
        centrally_harmonic_test(fs2.metric, np.zeros(4), n_directions=n,
                                steps=40)


@pytest.mark.parametrize("tolerance", [-1, 0, 0.0, math.nan, math.inf, True,
                                       "1e-6"])
def test_harmonicity_refuses_bad_tolerance(fs2, tolerance):
    # tolerance = -1 turned FS2's radial profile at the origin into
    # "not harmonic"
    with pytest.raises(ValueError, match="tolerance must be a finite real > 0"):
        centrally_harmonic_test(fs2.metric, np.zeros(4), tolerance=tolerance,
                                steps=40)


@pytest.mark.parametrize("directions", [np.ones((2, 3)), np.ones(4),
                                        np.ones((0, 4)), np.ones((1, 2, 4)), 8])
def test_density_profile_refuses_misshaped_directions(fs2, directions):
    with pytest.raises(ValueError, match=r"directions must be shaped \(N, 4\)"):
        density_profile(fs2.metric, np.zeros(4), directions, [0.5], steps=10)


def test_harmonicity_inconclusive_on_domain_exit():
    ball = ChartMetric(
        dim=3, components=lambda x, t: [[1.0 if i == j else 0.0
                                         for j in range(3)] for i in range(3)],
        domain=lambda x: np.sum(np.asarray(x) ** 2, axis=-1) < 0.2,
        name="ball")
    rep = centrally_harmonic_test(
        ball, np.zeros(3),
        radii=[0.3, 0.8], n_directions=6, steps=100)
    assert rep.inconclusive


# ---------------------------------------------------------------------------
# radial harmonic function
# ---------------------------------------------------------------------------

def test_radial_harmonic_euclidean_m3():
    radii = np.geomspace(0.2, 2.0, 400)
    f, fp = radial_harmonic(radii, radii ** 2)
    expected = -1.0 / radii + 1.0 / radii[0]
    assert np.max(np.abs(f - expected)) < 1e-7
    assert np.allclose(fp * radii ** 2, 1.0)     # Theta f' = 1 normalization


def test_radial_harmonic_euclidean_m2():
    radii = np.geomspace(0.2, 2.0, 400)
    f, _ = radial_harmonic(radii, radii)
    expected = np.log(radii / radii[0])
    assert np.max(np.abs(f - expected)) < 1e-7


def test_radial_harmonic_sphere_and_laplacian(sphere3):
    radii = np.geomspace(0.3, 1.2, 300)
    f, _ = radial_harmonic(radii, np.sin(radii) ** 2)
    expected = -1.0 / np.tan(radii) + 1.0 / math.tan(radii[0])
    assert np.max(np.abs(f - expected)) < 1e-7
    # apply the chart Laplacian to fcheck(r) = -cot r: radially harmonic
    def fcheck_derivs(r0, order):
        # derivatives of -cot(r) via series
        from hml.series import TruncatedSeries
        s = TruncatedSeries.variable(max(order, 1), at=r0)
        val = -1.0 * jets.cos(s) / jets.sin(s)
        return [val.coeffs[k] * math.factorial(k) for k in range(order + 1)]

    field = ScalarField.from_radial(fcheck_derivs, sphere3.metric, name="f")
    for x in ([0.5, 0.1, -0.2], [0.2, 0.6, 0.1]):
        assert abs(laplacian(sphere3.metric, field, np.asarray(x))) < 1e-7


def test_radial_harmonic_refuses_non_radial():
    radii = np.linspace(0.2, 1.0, 30)
    table = np.stack([radii ** 2, radii ** 2 * 1.01], axis=1)
    with pytest.raises(NonRadialProfileError):
        radial_harmonic(radii, table)
    # the spread divides by |mean|: a negative table cannot pass as radial
    with pytest.raises(NonRadialProfileError):
        radial_harmonic(radii, -table)
    # a NaN spread is refused too, not handed on to the spline
    table = np.stack([radii ** 2, radii ** 2], axis=1)
    table[7, 1] = np.nan
    with pytest.raises(NonRadialProfileError):
        radial_harmonic(radii, table)


# ---------------------------------------------------------------------------
# geodesic sphere shape
# ---------------------------------------------------------------------------

def test_shape_operator_euclidean(euclid3):
    L = shape_operator(euclid3.metric, np.zeros(3), [1.0, 0, 0], 0.8, 100)
    assert np.max(np.abs(L - np.eye(2) / 0.8)) < 1e-10
    s = shot(euclid3.metric, np.zeros(3), [1.0, 0, 0], 0.8, steps=100)
    assert s.umbilicity[0, 0] < 1e-10
    assert s.xi[0, 0] == pytest.approx(2 / 0.8, rel=1e-10)


def test_shape_operator_sphere_cot(sphere3):
    r = 0.9
    L = shape_operator(sphere3.metric, np.zeros(3), [1.0, 0, 0], r, 400)
    assert np.max(np.abs(L - np.eye(2) / math.tan(r))) < 1e-7
    s = shot(sphere3.metric, np.zeros(3), [1.0, 0, 0], r, steps=400)
    assert s.umbilicity[0, 0] < 1e-7


def test_shape_operator_symmetric(fs2):
    theta = g_unit_directions(fs2.metric, np.zeros(4), 2)[1]
    _, A, Ad = shot_end(fs2.metric, np.zeros(4), theta, 0.6, 400)
    raw = Ad @ np.linalg.inv(A)
    assert np.max(np.abs(raw - raw.T)) < 1e-9


def test_shape_operator_matches_normal_coordinate_formula(sphere3):
    # Normal-chart formula -r^{-1} delta_ab + Gamma_ab^1 gives the
    # inward-acceleration second fundamental form on COORDINATE vectors;
    # our operator L lives in the orthonormal parallel frame, so the two
    # are related by the induced metric and a single orientation sign:
    #     -r^{-1} delta + Gamma^1 = - g_ab(xi) * L   (angular block).
    r = 0.7
    L = shape_operator(sphere3.metric, np.zeros(3), [1.0, 0, 0], r, 400)
    x = np.array([r, 0.0, 0.0])
    Gam = christoffels(sphere3.metric, x)
    g_ang = sphere3.metric.value(x)[1:, 1:]
    L_coord_inward = -np.eye(2) / r + Gam[1:, 1:, 0]
    predicted = -g_ang @ L
    assert np.max(np.abs(L_coord_inward - predicted)) < 1e-6
    # the opposite orientation fails by a wide margin
    assert np.max(np.abs(L_coord_inward + predicted)) > 1e-1


def test_shape_operator_undefined_past_conjugate_point(sphere3):
    # past the crossing A' A^-1 is no sphere's shape: Xi and the
    # umbilicity defect read NaN, not a number
    s = shot(sphere3.metric, [1.0, 0, 0], [-1.0, 0, 0], 3.3, 400)
    assert s.conjugate[0, 0] and s.largest_safe_radius == 0.0
    assert np.isnan(s.xi[0, 0]) and np.isnan(s.umbilicity[0, 0])


def test_small_radius_shape_expansion_fubini_study(fs2):
    # sigma(r) = r^{-1} Id - (r/3) Rtilde + O(r^2) in the parallel frame
    theta = np.array([1.0, 0, 0, 0])
    Rt = reduced_jacobi_at(fs2.metric, np.zeros(4), theta)
    radii = [0.02, 0.03, 0.04, 0.06]
    mats = []
    for r in radii:
        mats.append(shape_operator(fs2.metric, np.zeros(4), theta, r, 200)
                    - np.eye(3) / r)
    # linear fit of the residual against r, entrywise
    A = np.stack([np.asarray(radii), np.ones(len(radii))], axis=1)
    coeffs = np.linalg.lstsq(A, np.stack([m.ravel() for m in mats]),
                             rcond=None)[0][0].reshape(3, 3)
    assert np.max(np.abs(coeffs - (-Rt / 3))) / np.max(np.abs(Rt / 3)) < 0.02


# ---------------------------------------------------------------------------
# reduced Jacobi spread
# ---------------------------------------------------------------------------

def test_eigen_spread_space_form(round_sf3):
    s, spreads = eigen_spread(round_sf3.metric, np.zeros(3), 16)
    assert abs(s) < 1e-8
    assert np.max(np.abs(spreads)) < 1e-8


def test_eigen_spread_fubini_study(fs2):
    s, spreads = eigen_spread(fs2.metric, np.zeros(4), 32)
    assert s == pytest.approx(3.0, abs=1e-6)
    # reduced Jacobi eigenvalues {1, 1, 4} for every direction
    Rt = reduced_jacobi_at(fs2.metric, np.zeros(4), [1.0, 0, 0, 0])
    assert np.linalg.eigvalsh(Rt) == pytest.approx([1, 1, 4], abs=1e-9)


def test_positive_spread_forces_umbilicity_defect(fs2):
    # s_P > 0 implies small geodesic spheres are nowhere totally umbilic
    dirs = g_unit_directions(fs2.metric, np.zeros(4), 6)
    for r in (0.05, 0.1):
        s = density_profile(fs2.metric, np.zeros(4), dirs, [r], steps=150)
        assert np.all(s.umbilicity > 1e-3)


# ---------------------------------------------------------------------------
# direction sampling
# ---------------------------------------------------------------------------

def test_unit_directions_deterministic_and_unit():
    d1 = unit_directions(4, 25)
    d2 = unit_directions(4, 25)
    assert np.array_equal(d1, d2)
    assert np.allclose(np.linalg.norm(d1, axis=1), 1.0)


def test_g_unit_directions(sphere4):
    P = np.array([0.3, 0.2, -0.1, 0.4])
    dirs = g_unit_directions(sphere4.metric, P, 12)
    g0 = sphere4.metric.value(P)
    norms = np.einsum('bi,ij,bj->b', dirs, g0, dirs)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_parallel_frame_orthonormal(fs2):
    P = np.array([0.2, -0.3, 0.1, 0.05])
    g0 = fs2.metric.value(P)
    theta = g_unit_directions(fs2.metric, P, 1)[0]
    E = parallel_frame_start(g0, theta)
    gram = E.T @ g0 @ E
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    assert np.max(np.abs(theta @ g0 @ E)) < 1e-12
