"""The one-point routes of the geodesic right-hand side: their bits, pinned
against the general routes they shortcut, and their Python call count.

Data are finite, with signed zeros and subnormals among them.
"""

import os
import sys

import numpy as np
import pytest

import hml
from hml import jets, manifest
from hml.geodesics import (Workspace, _integrate_recording, _rhs,
                           g_unit_directions)
from hml.metric import ChartMetric, entry_layout

_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310])


def _finite(rng, shape):
    """Coefficients over 16 decades, 20% of them signed zeros or subnormals."""
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    hit = rng.random(shape) < 0.2
    arr[hit] = rng.choice(_SPECIAL, hit.sum())
    return arr


@pytest.mark.parametrize("order", [0, 1, 2, 5])
@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_one_point_seeds_match_a_batch_of_one(m, order):
    x = _finite(np.random.default_rng(10 * m + order), m)
    one, batch = jets.seed_point(x, order), jets.seed_point(x[None], order)
    assert one.coef.shape == (jets.jet_space(m, order).size, m)
    assert one.coef.tobytes() == batch.coef[..., 0].tobytes()


@pytest.mark.parametrize("batch", [(), (1,), (16,), (3, 5)])
@pytest.mark.parametrize("m, order", [(1, 3), (3, 2), (4, 2), (6, 3)])
def test_norm_sq_plane_sums_match_entry_adds(m, order, batch):
    space = jets.jet_space(m, order)
    rng = np.random.default_rng(m * order + len(batch))
    xs = jets.MultiJet(space, _finite(rng, (space.size, m) + batch))
    with np.errstate(under="ignore"):
        sq = xs * xs
        want = sq.entries(0)
        for k in range(1, m):
            want = want + sq.entries(k)
        got = jets.norm_sq(xs)
    assert got.coef.shape == want.coef.shape
    assert got.coef.tobytes() == want.coef.tobytes()


def _per_order_arrays(coef, m, order, batch):
    """derivative_arrays by one gather per order, as the entries' partials."""
    index = entry_layout(m)[3].ravel()
    n = int(np.prod(batch))
    out = []
    for d in range(order + 1):
        flat_pos, fact = jets._extraction_table(m, order, d)
        g = coef.reshape(coef.shape[:2] + (n,))[flat_pos][:, index]
        g = g * fact[:, None, None]                     # (m**d, m * m, n)
        out.append(np.ascontiguousarray(g.transpose(2, 1, 0)).reshape(
            batch + (m, m) + (m,) * d))
    return out


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("m, order", [(2, 3), (4, 2), (4, 3), (6, 2)])
def test_fused_extraction_matches_per_order_gathers(m, order, n):
    space = jets.jet_space(m, order)
    rng = np.random.default_rng(100 * m + 10 * order + n)
    x = rng.uniform(-0.3, 0.3, (n, m))
    point = n == 1          # one point's jets are unbatched
    coef = _finite(rng, (space.size, m * (m + 1) // 2)
                   + (() if point else (n,)))
    fixed = ChartMetric(dim=m, components=lambda x, t: jets.MultiJet(
        x.space, coef.copy()))
    want = _per_order_arrays(coef, m, order, (n,))
    for ws in (None, Workspace()):
        got = fixed.derivative_arrays(x, order, ws)
        assert len(got) == order + 1
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()


_CHARTS = {
    "sphere4": {"family": "sphere", "dim": 4},
    "deformed_sphere4": {"family": "sphere", "dim": 4, "deform": {
        "psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}},
    "fs2": {"family": "fubini_study", "cdim": 2},
    "deformed_space_form4": {"family": "space_form", "a": 1.0, "b": 0.25,
                             "dim": 4, "deform": {"psi": {
                                 "kind": "poly", "coeffs": [1.0, 0.25]}}},
    "trivial_fs2": {"family": "fubini_study", "cdim": 2, "deform": {
        "psi": {"kind": "trivial-density"}}},
}

# Python calls into hml made by one warm _rhs at one point.  Before the
# one-point routes they were 125, 210 and 136; a test failing here has
# added per-call dispatch (or removed some: then lower the pin).
_CALL_BUDGET = {"sphere4": 70, "deformed_sphere4": 135, "fs2": 81,
                "deformed_space_form4": 149, "trivial_fs2": 234}


def _hml_calls(fn) -> int:
    root = os.path.dirname(hml.__file__) + os.sep
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("name", sorted(_CHARTS))
def test_one_point_rhs_call_budget(name):
    metric = manifest.build_metric(_CHARTS[name]).metric
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 4))
    x *= 0.4 / np.linalg.norm(x)
    state = (x, rng.normal(size=(1, 4)), rng.normal(size=(1, 4, 3)),
             rng.normal(size=(1, 3, 3)), rng.normal(size=(1, 3, 3)))
    ws = Workspace()
    _rhs(metric, state, ws)
    assert _hml_calls(lambda: _rhs(metric, state, ws)) == _CALL_BUDGET[name]


# Python calls into hml made by one warm RK4 step of a one-point shot from
# the center: its four RHS stages and the update.  The out-of-place loop
# made 339 and 595; a test failing here has added per-stage plumbing (or
# removed some: then lower the pin).
_STEP_BUDGET = {"sphere4": 272, "deformed_sphere4": 532}


@pytest.mark.parametrize("name", sorted(_STEP_BUDGET))
def test_one_point_rk4_step_call_budget(name):
    metric = manifest.build_metric(_CHARTS[name]).metric
    P = np.zeros(4)
    theta = g_unit_directions(metric, P, 1)

    def shot(steps):
        return lambda: list(_integrate_recording(metric, P, theta, [0.3],
                                                 steps))

    shot(2)()
    assert _hml_calls(shot(2)) - _hml_calls(shot(1)) == _STEP_BUDGET[name]
