"""Paths a manifest can reach that the other tests leave unrun, and strict
JSON reports.

These live apart from test_cli.py, whose written files are compared
between checkouts.
"""

import json
import logging
import math
import re
import warnings

import numpy as np
import pytest

from hml import catalog, cli, expansion, geodesics, manifest
from hml.conformal import completeness_and_blowup, radial_sq_value
from hml.curvature import curvature, sectional_curvature
from hml.geodesics import unit_directions
from hml.metric import DegenerateMetricError


def run(tmp_path, doc, capsys=None, flags=()):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["--manifest", str(path), "--out", str(tmp_path / "out"),
                     *flags])
    return code, capsys.readouterr().err if capsys else None


def strict_load(path):
    """json.load that refuses NaN and +-Infinity, as RFC 8259 does."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_center_of_wrong_length_exits_3(tmp_path, capsys):
    doc = {"metric": {"family": "sphere", "dim": 3},
           "analysis": {"command": "curvature", "center": [0.1, 0.2]}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert "center must have 3 coordinates" in err
    assert not (tmp_path / "out").exists()


def test_manifest_that_is_an_array_exits_3(tmp_path, capsys):
    code, err = run(tmp_path, [{"metric": {"family": "sphere", "dim": 3}}],
                    capsys)
    assert code == 3
    assert "manifest must be a JSON object" in err


def test_trivial_density_r_max_past_injectivity_radius_exits_3(tmp_path,
                                                               capsys):
    doc = {"metric": {"family": "sphere", "dim": 3,
                      "deform": {"psi": {"kind": "trivial-density",
                                         "r_max": 3.2}}},
           "analysis": {"command": "deform"}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert "injectivity radius 3.14159" in err


@pytest.mark.parametrize("metric,analysis,why", [
    # a hyperbolic space_form (b < 0) has no radial closed-form density
    ({"family": "space_form", "a": 1.0, "b": -0.5, "dim": 3,
      "deform": {"psi": {"kind": "trivial-density"}}}, {"command": "deform"},
     "trivial-density deformation needs a radial closed-form density; "
     "family 'space_form' does not provide one"),
    ({"family": "sphere", "dim": 3},
     {"command": "curvature", "center": [4, 0, 0]},
     "point outside domain of sphere"),
    ({"family": "sphere", "dim": 4}, {"command": "expand", "order": 40},
     "radial fit is ill-conditioned (cond = "),
    ({"family": "sphere", "dim": 3,
      "deform": {"psi": {"kind": "trivial-density", "r_max": 1.0}}},
     {"command": "deform", "radii": [0.5, 1.2]},
     "trivializer is tabulated for r in [0, 1]; asked for r = 1.26"),
])
def test_build_and_command_errors_leave_no_output(tmp_path, capsys, metric,
                                                  analysis, why):
    # refused while the metric is built, or by the command itself after the
    # manifest is read: --out is made only once a command has returned
    code, err = run(tmp_path, {"metric": metric, "analysis": analysis},
                    capsys)
    assert code == 3
    assert err.startswith(f"error: {why}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_poly_deform_of_polar_chart_exits_3(tmp_path, capsys):
    # refused by the schema, before any output
    doc = {"metric": {"family": "two_d_family", "n": 2, "b": 0.3,
                      "deform": {"psi": {"kind": "poly",
                                         "coeffs": [1.0, 0.25]}}},
           "analysis": {"command": "deform"}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert err == ("error: metric keys ['deform'] are not read by family "
                   "'two_d_family'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("far", [1e160, 1e200])
def test_curvature_where_the_metric_overflows_exits_3(tmp_path, capsys, far):
    # |x|^2 overflows, so g is NaN: np.linalg.inv does not raise on it
    doc = {"metric": {"family": "fubini_study", "cdim": 2},
           "analysis": {"command": "curvature", "center": [far, 0, 0, 0]}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert err == (f"error: degenerate metric fubini_study at "
                   f"[1.e+{math.log10(far):.0f} 0.e+000 0.e+000 0.e+000]\n")


def test_degenerate_metric_in_a_batch_names_one_point(tmp_path, capsys):
    # 20 steps about (3, 0, 0, 0) carry one of the 16 shots where g is
    # singular: the message names that point alone
    doc = {"metric": {"family": "fubini_study", "cdim": 2},
           "analysis": {"command": "check_harmonic", "center": [3, 0, 0, 0],
                        "steps": 20}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert err.startswith("error: degenerate metric fubini_study at [")
    assert err.count("\n") == 1 and len(err.split("[")[1].split()) == 4


def test_degenerate_bundle_message_is_one_line_at_m8():
    x = np.zeros(8)
    x[0] = 1e160
    with pytest.raises(DegenerateMetricError) as info, \
            np.errstate(invalid="ignore", over="ignore"):
        curvature(catalog.fubini_study(4).metric, x, k_max=0)
    assert str(info.value) == ("degenerate metric fubini_study at "
                               "[1.e+160" + " 0.e+000" * 7 + "]")


def test_conjugate_point_makes_check_harmonic_inconclusive(tmp_path):
    # det A = sin(r)^2 on the unit sphere falls below DIP times its maximum
    # before r = 3.135 < pi, inside the chart
    doc = {"metric": {"family": "sphere", "dim": 3},
           "analysis": {"command": "check_harmonic", "radii": [1.0, 3.135],
                        "directions": 4, "steps": 400}}
    code, _ = run(tmp_path, doc)
    assert code == 2
    rep = strict_load(tmp_path / "out" / "harmonicity.json")
    assert rep["inconclusive"] is True
    assert rep["largest_safe_radius"] == 1.0
    assert rep["theta_spread_max"] is None and rep["xi_spread"] == [None]


def test_reports_are_strict_json(tmp_path):
    # a shot leaving the chart: an inconclusive report has no spread
    doc = {"metric": {"family": "sphere", "dim": 3,
                      "deform": {"psi": {"kind": "poly",
                                         "coeffs": [1, 0.25]}}},
           "analysis": {"command": "check_harmonic", "directions": 8,
                        "steps": 250, "radii": [2.0, 3.4]}}
    code, _ = run(tmp_path, doc)
    assert code == 2
    rep = strict_load(tmp_path / "out" / "harmonicity.json")
    assert rep["theta_spread_max"] is None
    assert rep["xi_spread_max"] is None


def test_json_ready_writes_non_finite_as_null():
    doc = {"a": [math.nan, math.inf, -math.inf, np.float64(np.nan)],
           "b": (np.float64(0.1), 2, "s", None, True)}
    assert cli._json_ready(doc) == {"a": [None] * 4,
                                    "b": [0.1, 2, "s", None, True]}


def test_radial_sq_value_of_flat_space_form():
    # a = 2, b = 0: g = g_e / 4, so r_P^2 = |x|^2 / 4
    x = np.array([[0.3, -0.2, 0.5], [0.0, 0.0, 0.0]])
    got = radial_sq_value(catalog.space_form(2.0, 0.0, 3).metric, x)
    assert got == pytest.approx(np.sum(x ** 2, axis=-1) / 4, rel=1e-15)


def test_plane_kappas_keep_each_plane_with_its_kappa():
    # at m = 2, planes 4493 and 8965 of 20,000 are near-parallel pairs
    bundle = curvature(catalog.sphere(2).metric, np.array([0.1, 0.2]), k_max=0)
    kappas, planes = cli._plane_kappas(bundle, 20_000)
    assert len(kappas) == len(planes) == 19_998
    dirs = unit_directions(2, 40_000)
    # kept plane k is plane k, k + 1 or k + 2 of the sequence
    for k, plane in ((0, 0), (4493, 4494), (8964, 8966), (19_997, 19_999)):
        assert np.array_equal(planes[k][0], dirs[2 * plane])
        assert np.array_equal(planes[k][1], dirs[2 * plane + 1])
        assert kappas[k] == sectional_curvature(bundle, *planes[k])


@pytest.mark.parametrize("category", [RuntimeWarning, UserWarning])
def test_cli_logs_runtime_warnings_and_shows_the_rest(tmp_path, monkeypatch,
                                                      caplog, category):
    load = cli.manifest_mod.load

    def warn_and_load(path):
        warnings.warn("probe warning", category)
        return load(path)

    shown = []

    def show(message, cat, *rest, **kwargs):     # the showwarning cli finds
        shown.append(cat)

    monkeypatch.setattr(cli.manifest_mod, "load", warn_and_load)
    doc = {"metric": {"family": "euclidean", "dim": 2},
           "analysis": {"command": "curvature"}}
    with warnings.catch_warnings(), caplog.at_level(logging.INFO, "hml"):
        warnings.simplefilter("always")
        warnings.showwarning = show
        code, _ = run(tmp_path, doc)
    assert code == 0
    logged = [r for r in caplog.records if "probe warning" in r.getMessage()]
    if category is RuntimeWarning:
        assert (shown, len(logged)) == ([], 1)
    else:
        assert (shown, logged) == ([UserWarning], [])


def test_curvature_of_a_surface_survives_degenerate_planes(tmp_path):
    # on a surface the extreme search visits parallel u, v, where the
    # sectional curvature is undefined: kappa_of reads those as NaN, which
    # must not become a reported extreme
    doc = {"metric": {"family": "sphere", "dim": 2},
           "analysis": {"command": "curvature"}}
    code, _ = run(tmp_path, doc)
    assert code == 0
    report = strict_load(tmp_path / "out" / "curvature.json")
    assert report["scalar_curvature"] == pytest.approx(2.0, rel=1e-12)
    assert all(isinstance(report[k], float) and math.isfinite(report[k])
               for k in ("kappa_min", "kappa_max"))


@pytest.mark.parametrize("flag", [["--tol", "1e-6"], ["--directions", "6"],
                                  ["--radii", "0.2,0.5"]])
def test_settings_come_only_from_the_manifest(tmp_path, capsys, flag):
    doc = {"metric": {"family": "euclidean", "dim": 3},
           "analysis": {"command": "check_harmonic"}}
    code, err = run(tmp_path, doc, capsys, flag)
    assert code == 3
    assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert not (tmp_path / "out").exists()


def test_unknown_family_names_the_known_ones(tmp_path, capsys):
    doc = {"metric": {"family": "g_ab", "a": 0.5, "b": 0.5, "dim": 4},
           "analysis": {"command": "curvature"}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert err == ("error: unknown catalog family 'g_ab'; known: "
                   "['euclidean', 'fubini_study', 'space_form', 'sphere', "
                   "'two_d_family']\n")
    assert not (tmp_path / "out").exists()


def test_blowup_dims_refused_before_any_output(tmp_path, capsys):
    doc = {"metric": {"family": "euclidean", "dim": 3,
                      "deform": {"psi": {"kind": "poly",
                                         "coeffs": [1.0, 0.2]}}},
           "analysis": {"command": "deform", "blowup_dims": [5]}}
    code, err = run(tmp_path, doc, capsys)
    assert code == 3
    assert err == ("error: analysis.blowup_dims must be a non-empty list of "
                   "integers in [4, 6, 8], got [5]\n")
    assert not (tmp_path / "out").exists()


_POLY = {"kind": "poly", "coeffs": [1.0, 0.25]}


@pytest.mark.parametrize("metric,analysis,why", [
    ({"family": "euclidean", "dim": 3, "cdim": 2}, {"command": "curvature"},
     "metric keys ['cdim'] are not read by family 'euclidean'"),
    ({"family": "space_form", "a": 1.0}, {"command": "curvature"},
     "metric needs a 'dim'"),
    ({"family": "space_form", "a": 1.0, "dim": 3}, {"command": "curvature"},
     "metric needs a 'b'"),
    ({"family": "two_d_family", "n": 1, "b": 0.2}, {"command": "curvature"},
     "metric.n must be an integer >= 2, got 1"),
    ({"family": "euclidean", "dim": 3, "x": 1}, {"command": "curvature"},
     "unknown keys ['x'] in metric; allowed: ['a', 'b', 'cdim', 'deform', "
     "'dim', 'family', 'n']"),
    ({"dim": 3}, {"command": "curvature"}, "metric needs a 'family'"),
    ({"family": "euclidean", "dim": 3}, {"center": [0.0] * 3},
     "analysis needs a 'command'"),
    ({"family": "euclidean", "dim": 3}, {"command": "deform"},
     "deform command needs a metric.deform block"),
    ({"family": "euclidean", "dim": 3,
      "deform": {"psi": {**_POLY, "r_max": 1.0}}}, {"command": "deform"},
     "metric.deform.psi keys ['r_max'] are not read by kind 'poly'"),
    ({"family": "sphere", "dim": 3,
      "deform": {"psi": {"kind": "trivial-density", "coeffs": [1.0]}}},
     {"command": "deform"},
     "metric.deform.psi keys ['coeffs'] are not read by kind "
     "'trivial-density'"),
    ({"family": "euclidean", "dim": 3, "deform": {"psi": {"coeffs": [1.0]}}},
     {"command": "deform"}, "metric.deform.psi needs a 'kind'"),
    ({"family": "euclidean", "dim": 3, "deform": {"psi": {"kind": "poly"}}},
     {"command": "deform"}, "metric.deform.psi needs a 'coeffs'"),
    ({"family": "two_d_family", "n": 2, "b": 0.3},
     {"command": "expand", "center": [0.3, 0.1]},
     "analysis keys ['center'] are not read by command 'expand' on family "
     "'two_d_family'"),
    ({"family": "two_d_family", "n": 2, "b": 0.3},
     {"command": "expand", "steps": 5, "center": [0.3, 0.1]},
     "analysis keys ['center', 'steps'] are not read by command 'expand' on "
     "family 'two_d_family'"),
    ({"family": "euclidean", "dim": 3, "deform": {"psi": _POLY}},
     {"command": "deform", "psi_variant": "root"},
     "analysis.psi_variant must be one of ['density-root', 'trivializer'], "
     "got 'root'"),
    ({"family": "two_d_family", "n": 2, "b": 0.3,
      "deform": {"psi": {"kind": "trivial-density"}}}, {"command": "expand"},
     "metric keys ['deform'] are not read by family 'two_d_family'"),
])
def test_schema_refusals_come_before_any_output(tmp_path, capsys, metric,
                                                analysis, why):
    code, err = run(tmp_path, {"metric": metric, "analysis": analysis},
                    capsys)
    assert code == 3
    assert err == f"error: {why}\n"
    assert not (tmp_path / "out").exists()


def test_unknown_blowup_variant_names_the_known_ones():
    with pytest.raises(ValueError, match=re.escape(
            "variant must be one of ['density-root', 'trivializer']")):
        completeness_and_blowup(4, "root")


@pytest.mark.parametrize("metric", [
    {"family": "sphere", "dim": 4},
    {"family": "two_d_family", "n": 3, "b": 0.1},
], ids=["shot", "closed-form"])
def test_ill_conditioned_expand_is_refused_before_any_density(
        tmp_path, capsys, monkeypatch, metric):
    # the design's condition depends only on the radii and the order, so
    # the refusal needs no density, analytic, shot or closed-form
    def never(*args, **kwargs):
        pytest.fail("a density was computed for a fit that is refused")

    monkeypatch.setattr(expansion, "density_coefficients", never)
    monkeypatch.setattr(geodesics, "density_profile", never)
    monkeypatch.setattr(cli, "fit_radial_expansion", never)
    code, err = run(tmp_path, {"metric": metric, "analysis": {
        "command": "expand", "order": 40}}, capsys)
    assert code == 3
    assert err.startswith("error: radial fit is ill-conditioned (cond = ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_NO_RADIAL_DISTANCE = (
    "space_form does not expose an analytic radial distance; radial "
    "deformation needs r_P (declare a normal or radially symmetric chart)")
_NO_REDUCED_DENSITY = (
    "trivial-density deformation needs a radial closed-form density; "
    "family 'space_form' does not provide one")


@pytest.mark.parametrize("metric,poly_refused,trivial_refused", [
    ({"family": "euclidean", "dim": 3}, None, None),
    ({"family": "sphere", "dim": 3}, None, None),
    ({"family": "fubini_study", "cdim": 2}, None, None),
    ({"family": "space_form", "a": 1, "b": 0.25, "dim": 3}, None, None),
    ({"family": "space_form", "a": 1, "b": 0, "dim": 3}, None,
     _NO_REDUCED_DENSITY),
    ({"family": "space_form", "a": 1, "b": -0.5, "dim": 3},
     _NO_RADIAL_DISTANCE, _NO_REDUCED_DENSITY),
    ({"family": "space_form", "a": -1, "b": 1, "dim": 3},
     _NO_RADIAL_DISTANCE, _NO_REDUCED_DENSITY),
])
def test_every_deformable_chart_has_a_density_law_about_its_origin(
        metric, poly_refused, trivial_refused):
    # deform checks its density law with no condition: every chart that a
    # deform manifest builds has a closed-form density and holds the origin
    for psi, refused in [({"kind": "poly", "coeffs": [1.0, 0.1]}, poly_refused),
                         ({"kind": "trivial-density"}, trivial_refused)]:
        spec = manifest.validate({
            "metric": {**metric, "deform": {"psi": psi}},
            "analysis": {"command": "deform"}}).metric_spec
        if refused is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
                manifest.build_metric(spec)
            continue
        entry = manifest.build_metric(spec).entry
        assert entry.closed_form_density is not None
        assert entry.metric.contains(np.zeros(entry.dim))
