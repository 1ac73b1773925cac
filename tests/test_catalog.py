"""The catalog audits its own declared facts."""

import math

import numpy as np
import pytest

from hml import catalog
from hml.curvature import curvature, einstein_defect, sectional_curvature
from hml.geodesics import density_profile, g_unit_directions
from hml.series import TruncatedSeries

import oracles

ENTRIES = [
    catalog.euclidean(3),
    catalog.euclidean(4),
    catalog.sphere(3),
    catalog.sphere(4),
    catalog.space_form(0.5, 0.5, 3),
    catalog.space_form(0.5, -0.5, 3),
    catalog.space_form(1.0, 0.25, 4),
    catalog.fubini_study(2),
]


def _entry_id(entry):
    return f"{entry.name}{entry.metric.params}"


def probe_point(entry, rng):
    return rng.uniform(-0.25, 0.25, entry.dim)


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_declared_curvature_facts(entry, rng):
    x = probe_point(entry, rng)
    bundle = curvature(entry.metric, x, k_max=0)
    if entry.constant_curvature is not None:
        for _ in range(4):
            u, v = rng.normal(size=entry.dim), rng.normal(size=entry.dim)
            assert sectional_curvature(bundle, u, v) == pytest.approx(
                entry.constant_curvature, abs=1e-8)
    assert einstein_defect(bundle) < 1e-8


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_declared_density_facts(entry, rng):
    P = np.zeros(entry.dim)
    if entry.closed_form_density is None or not entry.metric.contains(P):
        return
    iota = entry.metric.injectivity_radius or 1.0
    r_top = min(0.9, 0.5 * iota)
    radii = [0.5 * r_top, r_top]
    dirs = g_unit_directions(entry.metric, P, 3)
    prof = density_profile(entry.metric, P, dirs, radii, steps=400)
    expected = entry.closed_form_density(np.asarray(radii))
    assert np.max(np.abs(prof.theta - expected[:, None])) < 1e-6


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_reduced_density_matches_closed_form(entry):
    if entry.reduced_density is None:
        return
    m = entry.dim
    iota = min(entry.metric.injectivity_radius, 2.0)
    for r in (0.2 * iota, 0.5 * iota, 0.9 * iota):
        got = entry.reduced_density(TruncatedSeries([r * r])).coeffs[0]
        expected = entry.closed_form_density(r) / r ** (m - 1)
        assert got == pytest.approx(expected, rel=1e-12)


def test_fubini_study_not_space_form(rng):
    entry = catalog.fubini_study(2)
    bundle = curvature(entry.metric, np.zeros(4), k_max=0)
    e = np.eye(4)
    k_hol = sectional_curvature(bundle, e[0], e[1])
    k_tot = sectional_curvature(bundle, e[0], e[2])
    assert k_hol == pytest.approx(4.0, abs=1e-10)
    assert k_tot == pytest.approx(1.0, abs=1e-10)


def test_two_d_family_density_and_domain():
    # the polar density is sqrt(det g) = sqrt(f)
    chart = oracles.polar_surface(7, 0.1)
    r = np.array([0.3, 0.6])
    pts = np.stack([r, [0.1, -0.2]], axis=-1)
    assert np.allclose(np.sqrt(np.linalg.det(chart.value(pts))),
                       r * (1 + 0.1 * r ** 7))
    assert not chart.contains(np.zeros(2))
    assert not chart.contains([0.0, 0.1])
    assert chart.contains([0.5, 0.1])


def test_two_d_family_gauss_curvature():
    # K = -(sqrt f)'' / sqrt f with sqrt f = r + b r^(n+1)
    n, b = 5, 0.2
    r0 = 0.7
    bundle = curvature(oracles.polar_surface(n, b), np.array([r0, 0.4]),
                       k_max=0)
    expected = -b * n * (n + 1) * r0 ** (n - 1) / (r0 * (1 + b * r0 ** n))
    got = sectional_curvature(bundle, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert got == pytest.approx(expected, rel=1e-10)


def test_hyperbolic_domain():
    hyp = catalog.space_form(0.5, -0.5, 3)
    assert hyp.metric.contains([0.5, 0.5, 0.5])
    assert not hyp.metric.contains([1.0, 0.2, 0.0])


def test_sphere_chart_injectivity_bound():
    sp = catalog.sphere(3)
    assert sp.metric.injectivity_radius == pytest.approx(math.pi)


def test_build_interface():
    e = catalog.euclidean(3)
    assert e.name == "euclidean" and e.metric.params == {"dim": 3}
    with pytest.raises(ValueError):
        catalog.space_form(0.0, 0.0, 3)


def test_space_form_distance_function(rng):
    # declared radial distance matches the reparametrized flat distance
    entry = catalog.space_form(0.5, 0.5, 3)
    from hml.conformal import radial_sq_value
    x = np.array([0.7, 0.2, -0.1])
    s = np.linalg.norm(x)
    expected = (2.0 * math.atan(s)) ** 2
    assert radial_sq_value(entry.metric, x) == pytest.approx(expected, rel=1e-10)


def test_fubini_study_distance_function():
    entry = catalog.fubini_study(2)
    from hml.conformal import radial_sq_value
    x = np.array([0.3, -0.4, 0.1, 0.2])
    expected = math.atan(np.linalg.norm(x)) ** 2
    assert radial_sq_value(entry.metric, x) == pytest.approx(expected, rel=1e-10)
