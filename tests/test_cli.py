"""Manifest validation, CLI determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hml import cli, geodesics
from hml.conformal import TrivializerRadialFunction
from hml.manifest import (ANALYSIS_KEYS, COMMANDS, METRIC_KEYS, ManifestError,
                          build_metric, validate)


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


GOOD_SF = {"metric": {"family": "space_form", "a": 1.0, "b": 0.25, "dim": 3},
           "analysis": {"command": "curvature", "center": [0.1, 0.0, -0.2]}}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_good():
    mf = validate(GOOD_SF)
    assert mf.analysis["command"] == "curvature"


@pytest.mark.parametrize("mutate,why", [
    (lambda d: d.pop("metric"), "metric"),
    (lambda d: d["metric"].update(extra=1), "unknown keys"),
    (lambda d: d["analysis"].update(command="fly"), "command"),
    (lambda d: d["analysis"].update(bogus=2), "unknown keys"),
    (lambda d: d.update(top=1), "unknown keys"),
])
def test_validate_rejects(mutate, why):
    doc = json.loads(json.dumps(GOOD_SF))
    mutate(doc)
    with pytest.raises(ManifestError, match=why):
        validate(doc)


def test_validate_deform_block():
    doc = {"metric": {"family": "sphere", "dim": 3,
                      "deform": {"psi": {"kind": "poly", "coeffs": [1, 0.25]}}},
           "analysis": {"command": "check_harmonic"}}
    validate(doc)
    doc["metric"]["deform"]["psi"]["kind"] = "spline"
    with pytest.raises(ManifestError, match="kind"):
        validate(doc)
    doc["metric"]["deform"]["psi"] = {"kind": "poly", "coeffs": []}
    with pytest.raises(ManifestError, match="coeffs"):
        validate(doc)


def test_build_metric_deformed_sphere():
    built = build_metric({"family": "sphere", "dim": 3,
                          "deform": {"psi": {"kind": "poly",
                                             "coeffs": [1, 0.25]}}})
    assert built.psi is not None
    # the sphere family interprets poly in the squared pole height:
    # at the pole (r = 0) the factor is psi(cos^2 0) = 1.25
    assert built.psi(0.0) == pytest.approx(1.25)
    assert built.psi((math.pi / 2) ** 2) == pytest.approx(1.0)


def test_build_metric_trivial_density_fs():
    built = build_metric({"family": "fubini_study", "cdim": 2,
                          "deform": {"psi": {"kind": "trivial-density"}}})
    assert isinstance(built.psi, TrivializerRadialFunction)
    assert built.psi(0.0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# commands end-to-end
# ---------------------------------------------------------------------------

def run_cli(args):
    return cli.main(args)


def test_curvature_command_and_determinism(tmp_path):
    mpath = write(tmp_path, "m.json", GOOD_SF)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["--manifest", mpath, "--out", str(out1)]) == 0
    assert run_cli(["--manifest", mpath, "--out", str(out2)]) == 0
    b1 = (out1 / "curvature.json").read_bytes()
    b2 = (out2 / "curvature.json").read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["kappa_min"] == pytest.approx(1.0, abs=1e-9)
    assert doc["kappa_max"] == pytest.approx(1.0, abs=1e-9)


def test_curvature_extremes_fubini_study(tmp_path):
    doc = {"metric": {"family": "fubini_study", "cdim": 2},
           "analysis": {"command": "curvature"}}
    mpath = write(tmp_path, "fs.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "ofs")]) == 0
    rep = json.loads((tmp_path / "ofs" / "curvature.json").read_text())
    assert rep["kappa_min"] == pytest.approx(1.0, abs=1e-12)
    assert rep["kappa_max"] == pytest.approx(4.0, abs=1e-12)
    assert rep["einstein_defect"] < 1e-8


def test_deform_identity_psi_deterministic(tmp_path):
    doc = {"metric": {"family": "euclidean", "dim": 3,
                      "deform": {"psi": {"kind": "poly", "coeffs": [1.0]}}},
           "analysis": {"command": "deform", "steps": 250,
                        "radii": [0.3, 0.6]}}
    mpath = write(tmp_path, "id.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "o1")]) == 0
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "o2")]) == 0
    b1 = (tmp_path / "o1" / "deform.json").read_bytes()
    assert b1 == (tmp_path / "o2" / "deform.json").read_bytes()
    rep = json.loads(b1)
    rc = np.asarray(rep["density_law"]["rc"])
    assert np.allclose(rep["density_law"]["predicted"], rc ** 2, atol=1e-11)
    assert rep["density_law"]["max_abs_error"] < 1e-10


def test_curvature_euclidean_zero_report(tmp_path):
    doc = {"metric": {"family": "euclidean", "dim": 4},
           "analysis": {"command": "curvature"}}
    mpath = write(tmp_path, "m.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "curvature.json").read_text())
    assert rep["kappa_min"] == 0.0 and rep["kappa_max"] == 0.0
    assert rep["scalar_curvature"] == 0.0


def test_check_harmonic_exit_codes(tmp_path):
    harmonic = {"metric": {"family": "sphere", "dim": 3,
                           "deform": {"psi": {"kind": "poly",
                                              "coeffs": [1, 0.25]}}},
                "analysis": {"command": "check_harmonic", "directions": 8,
                             "steps": 250, "radii": [0.4, 0.8]}}
    mpath = write(tmp_path, "h.json", harmonic)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "oh")]) == 0
    rep = json.loads((tmp_path / "oh" / "harmonicity.json").read_text())
    assert rep["verdict"] is True
    csv = (tmp_path / "oh" / "density.csv").read_text().splitlines()
    assert csv[0].startswith("# r, direction_index, theta, xi")
    assert len(csv) == 1 + 2 * 8

    not_harm = json.loads(json.dumps(harmonic))
    not_harm["analysis"]["center"] = [0.4, 0.0, 0.0]
    mpath2 = write(tmp_path, "n.json", not_harm)
    assert run_cli(["--manifest", mpath2, "--out", str(tmp_path / "on")]) == 1

    inconc = json.loads(json.dumps(harmonic))
    inconc["analysis"]["radii"] = [2.0, 3.4]   # runs past the chart
    mpath3 = write(tmp_path, "i.json", inconc)
    assert run_cli(["--manifest", mpath3, "--out", str(tmp_path / "oi")]) == 2


def test_manifest_errors_exit_3(tmp_path, capsys):
    bad = {"metric": {"family": "wat"}, "analysis": {"command": "curvature"}}
    mpath = write(tmp_path, "b.json", bad)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path)]) == 3
    assert "unknown catalog family" in capsys.readouterr().err
    assert run_cli(["--manifest", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path)]) == 3


def test_unwritable_out_exits_3(tmp_path, capsys):
    # makedirs on an existing file raised FileExistsError: a traceback and
    # exit 1, which reads as "not harmonic"
    mpath = write(tmp_path, "m.json", GOOD_SF)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert run_cli(["--manifest", mpath, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_expand_sphere(tmp_path):
    doc = {"metric": {"family": "sphere", "dim": 3},
           "analysis": {"command": "expand", "steps": 500}}
    mpath = write(tmp_path, "s.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "os")]) == 0
    rep = json.loads((tmp_path / "os" / "expansion.json").read_text())
    assert rep["analytic"]["H2"] == pytest.approx(-1 / 3, abs=1e-10)
    assert rep["fitted"]["H2"] == pytest.approx(-1 / 3, abs=1e-6)
    assert rep["residuals"]["max_abs_difference"] < 1e-5


@pytest.mark.parametrize("order", [3, 5])
def test_expand_below_order_6_compares_fitted_orders(tmp_path, order):
    doc = {"metric": {"family": "sphere", "dim": 3},
           "analysis": {"command": "expand", "steps": 300, "order": order}}
    mpath = write(tmp_path, "lo.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "ol")]) == 0
    rep = json.loads((tmp_path / "ol" / "expansion.json").read_text())
    assert sorted(rep["fitted"]) == [f"H{k}" for k in range(2, order + 1)]
    assert rep["residuals"]["max_abs_difference"] == pytest.approx(max(
        abs(rep["analytic"][k] - rep["fitted"][k]) for k in rep["fitted"]))


def test_expand_euclidean_zeros(tmp_path):
    doc = {"metric": {"family": "euclidean", "dim": 4},
           "analysis": {"command": "expand", "steps": 300, "order": 6}}
    mpath = write(tmp_path, "z.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "oz")]) == 0
    rep = json.loads((tmp_path / "oz" / "expansion.json").read_text())
    assert max(abs(v) for v in rep["analytic"].values()) == 0.0
    assert max(abs(rep["fitted"][f"H{k}"]) for k in range(2, 7)) < 1e-9


def test_deform_command(tmp_path):
    doc = {"metric": {"family": "euclidean", "dim": 3,
                      "deform": {"psi": {"kind": "poly", "coeffs": [0.5, 0.5]}}},
           "analysis": {"command": "deform", "steps": 400,
                        "radii": [0.3, 0.6, 0.9]}}
    mpath = write(tmp_path, "d.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "od")]) == 0
    rep = json.loads((tmp_path / "od" / "deform.json").read_text())
    assert rep["density_law"]["max_abs_error"] < 1e-5
    assert rep["kappa_probe"]["min"] == pytest.approx(1.0, abs=1e-6)
    assert rep["kappa_probe"]["max"] == pytest.approx(1.0, abs=1e-6)


def test_deform_trivial_density_fs(tmp_path):
    doc = {"metric": {"family": "fubini_study", "cdim": 2,
                      "deform": {"psi": {"kind": "trivial-density",
                                         "r_max": 1.25}}},
           "analysis": {"command": "deform", "steps": 400,
                        "radii": [0.4, 0.8, 1.1]}}
    mpath = write(tmp_path, "tf.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path / "ot")]) == 0
    rep = json.loads((tmp_path / "ot" / "deform.json").read_text())
    # trivialized density: shooting matches the rc^(m-1) prediction
    assert rep["density_law"]["max_abs_error"] < 1e-5
    shot = np.asarray(rep["density_law"]["shot"])
    rc = np.asarray(rep["density_law"]["rc"])
    assert np.max(np.abs(shot / rc ** 3 - 1.0)) < 1e-5
    blow = rep["blowup"][0]
    assert blow["length_finite"] is True
    assert blow["exponent"] == pytest.approx(4 / 3, abs=0.05)


def test_deform_requires_deform_block(tmp_path, capsys):
    doc = {"metric": {"family": "euclidean", "dim": 3},
           "analysis": {"command": "deform"}}
    mpath = write(tmp_path, "dd.json", doc)
    assert run_cli(["--manifest", mpath, "--out", str(tmp_path)]) == 3


def test_radii_order_does_not_move_labels(tmp_path):
    # spreads are computed over sorted radii, so labels must be sorted too
    doc = {"metric": {"family": "sphere", "dim": 3,
                      "deform": {"psi": {"kind": "poly", "coeffs": [1, 0.25]}}},
           "analysis": {"command": "check_harmonic", "directions": 4,
                        "steps": 40, "center": [0.4, 0.0, 0.0]}}
    outs = []
    for radii in ([0.6, 0.3], [0.3, 0.6]):
        doc["analysis"]["radii"] = radii
        out = tmp_path / f"o{radii[0]}"
        assert run_cli(["--manifest", write(tmp_path, "r.json", doc),
                        "--out", str(out)]) == 1
        outs.append(out)
    rep = json.loads((outs[0] / "harmonicity.json").read_text())
    assert rep["radii"] == [0.3, 0.6]
    assert rep["theta_spread"][0] != rep["theta_spread"][1]
    for name in ("harmonicity.json", "density.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_integer_tolerance_reports_as_float(tmp_path):
    doc = {"metric": {"family": "euclidean", "dim": 3},
           "analysis": {"command": "check_harmonic", "tolerance": 1,
                        "directions": 2, "steps": 2, "radii": [0.1]}}
    out = tmp_path / "o"
    assert run_cli(["--manifest", write(tmp_path, "t.json", doc),
                    "--out", str(out)]) == 0
    assert '"tolerance": 1.0,' in (out / "harmonicity.json").read_text()


@pytest.mark.parametrize("directions", [0, -1, 1, 2.5, "8"])
def test_bad_directions_exit_3(tmp_path, capsys, directions):
    doc = {"metric": {"family": "euclidean", "dim": 3},
           "analysis": {"command": "check_harmonic", "directions": directions,
                        "steps": 20, "radii": [0.2]}}
    assert run_cli(["--manifest", write(tmp_path, "d.json", doc),
                    "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "analysis.directions must be an integer >= 2" in err


@pytest.mark.parametrize("steps", [0, -5, 2.5, "800", True])
def test_bad_steps_exit_3(tmp_path, capsys, steps):
    doc = {"metric": {"family": "euclidean", "dim": 3},
           "analysis": {"command": "check_harmonic", "steps": steps,
                        "directions": 4, "radii": [0.2]}}
    assert run_cli(["--manifest", write(tmp_path, "s.json", doc),
                    "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "analysis.steps must be an integer >= 1" in err


class _Stop(Exception):
    """Raised by a recording stand-in once the CLI has made its call."""


_EUCLID3 = {"family": "euclidean", "dim": 3}
_DEFORMED_SPHERE3 = {"family": "sphere", "dim": 3, "deform": {
    "psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}}


@pytest.mark.parametrize("metric,analysis,target,n_args,keywords", [
    (_EUCLID3, {"command": "expand", "steps": 7}, "density_profile", 4,
     {"steps": 7}),
    (_EUCLID3, {"command": "expand"}, "density_profile", 4, {}),
    (_DEFORMED_SPHERE3, {"command": "deform", "steps": 7}, "density_profile",
     4, {"steps": 7}),
    (_DEFORMED_SPHERE3, {"command": "deform"}, "density_profile", 4, {}),
    (_EUCLID3, {"command": "check_harmonic", "radii": [0.1, 0.2],
                "directions": 3, "tolerance": 1e-5, "steps": 9},
     "centrally_harmonic_test", 2,
     {"radii": [0.1, 0.2], "n_directions": 3, "tolerance": 1e-5, "steps": 9}),
    (_EUCLID3, {"command": "check_harmonic"}, "centrally_harmonic_test", 2,
     {}),
])
def test_cli_forwards_each_key_to_its_keyword(tmp_path, monkeypatch, metric,
                                              analysis, target, n_args,
                                              keywords):
    # an unset key passes no keyword, so the library's default applies
    calls = []

    def record(*args, **kwargs):
        calls.append((len(args), kwargs))
        raise _Stop

    monkeypatch.setattr(geodesics, target, record)
    doc = {"metric": metric, "analysis": analysis}
    with pytest.raises(_Stop):
        run_cli(["--manifest", write(tmp_path, "k.json", doc),
                 "--out", str(tmp_path / "o")])
    assert calls == [(n_args, keywords)]


_BAD_ANALYSIS = [
    ({"command": "check_harmonic", "radii": []}, "analysis.radii must be"),
    ({"command": "check_harmonic", "radii": 5}, "analysis.radii must be"),
    ({"command": "check_harmonic", "radii": [0.2, -0.1]},
     "analysis.radii must be"),
    ({"command": "check_harmonic", "radii": [0.2, True]},
     "analysis.radii must be"),
    ({"command": "check_harmonic", "radii": [0.2, math.inf]},
     "analysis.radii must be"),
    ({"command": "check_harmonic", "tolerance": 0},
     "analysis.tolerance must be a finite real > 0"),
    ({"command": "check_harmonic", "tolerance": math.inf},
     "analysis.tolerance must be a finite real > 0"),
    ({"command": "check_harmonic", "tolerance": "1e-6"},
     "analysis.tolerance must be a finite real > 0"),
    ({"command": "check_harmonic", "tolerance": -1e-6},
     "analysis.tolerance must be a finite real > 0"),
    ({"command": "curvature", "k_max": -1},
     "analysis.k_max must be an integer >= 0"),
    ({"command": "curvature", "k_max": True},
     "analysis.k_max must be an integer >= 0"),
    ({"command": "curvature", "planes": 0},
     "analysis.planes must be an integer >= 1"),
    ({"command": "curvature", "planes": 4.0},
     "analysis.planes must be an integer >= 1"),
    ({"command": "expand", "order": 1}, "analysis.order must be an integer >= 2"),
    ({"command": "expand", "order": "12"},
     "analysis.order must be an integer >= 2"),
    ({"command": []}, "analysis.command must be one of"),
    ({"command": "curvature", "center": {"a": 1}},
     "analysis.center must be a non-empty list of finite reals"),
    ({"command": "deform", "radii": [0.3, 0.0]},
     "analysis.radii must be a non-empty list of finite reals > 0"),
    ({"command": "curvature"},
     "analysis keys ['steps'] are not read by command 'curvature'"),
    ({"command": "curvature", "radii": [9.0], "directions": 2},
     "analysis keys ['directions', 'radii', 'steps'] are not read by command"),
    ({"command": "check_harmonic", "planes": 3, "k_max": 1},
     "analysis keys ['k_max', 'planes'] are not read by command"),
    ({"command": "expand", "tolerance": 1e-6, "radii": [0.2]},
     "analysis keys ['radii', 'tolerance'] are not read by command 'expand'"),
    ({"command": "deform", "center": [0.0, 0.0, 0.0], "order": 4},
     "analysis keys ['center', 'order'] are not read by command 'deform'"),
    ({"command": "deform", "tolerance": 1e-6},
     "analysis keys ['tolerance'] are not read by command 'deform'"),
    ({"command": "expand", "radii": [0.2]},
     "analysis keys ['radii'] are not read by command 'expand'"),
    ({"command": "deform", "directions": 2},
     "analysis keys ['directions'] are not read by command 'deform'"),
]


# the ids keep the names they had when the table also held CLI flags, so a
# test keeps its name across versions
@pytest.mark.parametrize("analysis,why", _BAD_ANALYSIS, ids=[
    f"analysis{i}-flags{i}-{why}" for i, (_, why) in enumerate(_BAD_ANALYSIS)])
def test_bad_analysis_values_exit_3(tmp_path, capsys, analysis, why):
    doc = {"metric": {"family": "euclidean", "dim": 3},
           "analysis": {"steps": 20, **analysis}}
    assert run_cli(["--manifest", write(tmp_path, "a.json", doc),
                    "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert why in err


@pytest.mark.parametrize("metric,analysis", [
    ({"family": "euclidean", "dim": 3},
     {"command": "check_harmonic", "points": 8}),
    ({"family": "sphere", "dim": 3,
      "deform": {"psi": {"kind": "trivial-density", "samples": 64}}},
     {"command": "deform"}),
])
def test_ignored_keys_are_unknown_exit_3(tmp_path, capsys, metric, analysis):
    doc = {"metric": metric, "analysis": analysis}
    assert run_cli(["--manifest", write(tmp_path, "k.json", doc),
                    "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown keys" in err


@pytest.mark.parametrize("metric,why", [
    ({"family": "sphere", "dim": "4"}, "metric.dim must be an integer >= 2"),
    ({"family": "sphere", "dim": True}, "metric.dim must be an integer >= 2"),
    ({"family": "sphere", "dim": 0}, "metric.dim must be an integer >= 2"),
    ({"family": "fubini_study", "cdim": 2.0}, "metric.cdim must be an integer"),
    ({"family": "fubini_study", "cdim": 0}, "metric.cdim must be an integer"),
    ({"family": "space_form", "a": "1", "b": 0.25, "dim": 3},
     "metric.a must be a finite real"),
    ({"family": "space_form", "a": 1.0, "b": None, "dim": 3},
     "metric.b must be a finite real"),
    ({"family": "space_form", "a": 1.0, "b": math.nan, "dim": 3},
     "metric.b must be a finite real"),
    ({"family": "space_form", "a": math.inf, "b": 0.25, "dim": 3},
     "metric.a must be a finite real"),
    ({"family": ["x"]}, "metric.family must be a string"),
    ({"family": "euclidean", "dim": 3, "deform": 5},
     "metric.deform must be a JSON object"),
    ({"family": "euclidean", "dim": 3, "deform": {"psi": {"kind": ["poly"]}}},
     "metric.deform.psi.kind must be one of"),
    ({"family": "fubini_study", "cdim": 2,
      "deform": {"psi": {"kind": "trivial-density", "r_max": [1]}}},
     "metric.deform.psi.r_max must be a finite real > 0"),
    ({"family": "fubini_study", "cdim": 2,
      "deform": {"psi": {"kind": "trivial-density", "r_max": -1.0}}},
     "metric.deform.psi.r_max must be a finite real > 0"),
    ({"family": "euclidean", "dim": 3,
      "deform": {"psi": {"kind": "poly", "coeffs": [True]}}},
     "metric.deform.psi.coeffs must be a non-empty list of finite reals"),
    ({"family": "euclidean", "dim": 1},
     "metric.dim must be an integer >= 2, got 1"),
    ({"family": "sphere", "dim": 1},
     "metric.dim must be an integer >= 2, got 1"),
    ({"family": "space_form", "a": 1.0, "b": 0.25, "dim": 1},
     "metric.dim must be an integer >= 2, got 1"),
])
def test_bad_metric_parameters_exit_3(tmp_path, capsys, metric, why):
    doc = {"metric": metric, "analysis": {"command": "curvature"}}
    assert run_cli(["--manifest", write(tmp_path, "m.json", doc),
                    "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert why in err


@pytest.mark.parametrize("command", ["curvature", "check_harmonic"])
@pytest.mark.parametrize("metric", [{"family": "fubini_study", "cdim": 2},
                                    {"family": "euclidean", "dim": 3}],
                         ids=["fubini_study", "euclidean"])
def test_numeric_warnings_stay_off_stderr(tmp_path, metric, command):
    # psi(0) = 1e-300 overflows the jets: numpy's RuntimeWarnings go to the
    # hml log, so stderr holds the one error line.  The CLI runs in a fresh
    # interpreter because pytest captures warnings in process.
    doc = {"metric": {**metric, "deform": {"psi": {"kind": "poly",
                                                   "coeffs": [1e-300, 1.0]}}},
           "analysis": {"command": command}}
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "hml", "--manifest",
         write(tmp_path, "m.json", doc), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("argv", [[], ["--manifest"], ["--bogus", "x"],
                                  ["--manifest", "m.json", "--directions", "x"]])
def test_bad_command_line_exit_3(capsys, argv):
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# fuzz: one malformed key always exits 3 with one line
# ---------------------------------------------------------------------------

_NOT_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.just([]), st.just({}))
_NOT_LIST = st.one_of(st.none(), st.booleans(), st.integers(),
                      st.floats(), st.text(max_size=3), st.just({}))
_NOT_STRING = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.lists(st.text(max_size=2), max_size=2), st.just({}))
_NOT_OBJECT = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.text(max_size=3), st.lists(st.integers(), max_size=2))
_NOT_REAL = st.one_of(_NOT_NUMBER,
                      st.sampled_from([math.inf, -math.inf, math.nan]))
_REAL = st.floats(allow_nan=False, allow_infinity=False)
_NOT_POSITIVE = st.one_of(_NOT_REAL, st.integers(max_value=0),
                          st.floats(max_value=0.0))


def _not_count(low):
    return st.one_of(_NOT_NUMBER, st.integers(max_value=low - 1), st.floats())


def _not_list_of(good_item, bad_item):
    """Not a list, an empty list, or good items followed by one bad item."""
    with_bad = st.tuples(st.lists(good_item, max_size=2), bad_item)
    return st.booleans().flatmap(
        lambda as_list: with_bad.map(lambda t: [*t[0], t[1]]) if as_list
        else st.one_of(_NOT_LIST, st.just([])))


def _not_one_of(*choices):
    return st.one_of(_NOT_NUMBER, st.text()).filter(lambda v: v not in choices)


_FUZZ_BASE = {"metric": {"family": "euclidean", "dim": 3},
              "analysis": {"command": "check_harmonic", "directions": 2,
                           "steps": 2, "radii": [0.1]}}
_POLY = {"kind": "poly", "coeffs": [1.0, 0.25]}
_TRIVIAL = {"kind": "trivial-density", "r_max": 1.0}
_FUZZ_CASES = [
    ((), "metric", _NOT_OBJECT),
    ((), "analysis", _NOT_OBJECT),
    (("metric",), "family", _NOT_STRING),
    (("metric",), "dim", _not_count(2)),
    (("metric",), "cdim", _not_count(1)),
    (("metric",), "a", _NOT_REAL),
    (("metric",), "b", _NOT_REAL),
    (("metric",), "deform", _NOT_OBJECT),
    (("metric", "deform"), "psi", _NOT_OBJECT),
    (("metric", "deform", "psi"), "kind", _not_one_of("poly", "trivial-density")),
    (("metric", "deform", "psi"), "coeffs", _not_list_of(_REAL, _NOT_REAL)),
    (("metric", "deform", "psi"), "r_max", _NOT_POSITIVE),
    (("analysis",), "command", _not_one_of(*COMMANDS)),
    (("analysis",), "center", _not_list_of(_REAL, _NOT_REAL)),
    (("analysis",), "radii",
     _not_list_of(st.floats(min_value=0.1, max_value=0.2), _NOT_POSITIVE)),
    (("analysis",), "directions", _not_count(2)),
    (("analysis",), "tolerance", _NOT_POSITIVE),
    (("analysis",), "steps", _not_count(1)),
    (("analysis",), "k_max", _not_count(0)),
    (("analysis",), "order", _not_count(2)),
    (("analysis",), "planes", _not_count(1)),
]


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_fuzz_malformed_input_exits_3(tmp_path_factory, data):
    doc = json.loads(json.dumps(_FUZZ_BASE))
    path, key, values = data.draw(st.sampled_from(_FUZZ_CASES), label="which")
    if path[1:2] == ("deform",):
        doc["metric"] = {"family": "sphere", "dim": 3, "deform": {
            "psi": dict(_TRIVIAL if key == "r_max" else _POLY)}}
    validate(doc)   # the base is valid, so the one bad value is the cause
    block = doc
    for step in path:
        block = block[step]
    block[key] = data.draw(values, label="value")
    out = tmp_path_factory.getbasetemp() / "fuzz"
    mpath = write(tmp_path_factory.getbasetemp(), "fuzz.json", doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(["--manifest", mpath, "--out", str(out)])
    err = err.getvalue()
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzz: a valid manifest with a small budget exits 0-3, never a traceback
# ---------------------------------------------------------------------------

_SMALL_REAL = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def _valid_metric(draw, deformed: bool):
    """A metric block of a family that reads ``deform`` (every family);
    ``deformed`` ones always carry a deform block."""
    family = draw(st.sampled_from(METRIC_KEYS["deform"].read_by))
    if family == "fubini_study":
        spec = {"cdim": draw(st.integers(1, 2))}
    else:
        spec = {"dim": draw(st.integers(2, 3))}
        if family == "space_form":
            spec.update(a=draw(_SMALL_REAL), b=draw(_SMALL_REAL))
    psis = st.one_of(
        st.lists(_SMALL_REAL, min_size=1, max_size=3).map(
            lambda c: {"kind": "poly", "coeffs": c}),
        st.one_of(st.just({}), st.floats(0.1, 2.0).map(lambda r: {"r_max": r}))
        .map(lambda r: {"kind": "trivial-density", **r}))
    psi = draw(psis if deformed else st.one_of(st.none(), psis))
    if psi is not None:
        spec["deform"] = {"psi": psi}
    return {"family": family, **spec}


def _small_budget(dim: int) -> dict:
    """A strategy for every analysis key but ``command``, small budgets."""
    return {
        "center": st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim),
        "radii": st.lists(st.floats(0.05, 1.5), min_size=1, max_size=2),
        "directions": st.integers(2, 3),
        "tolerance": st.floats(1e-9, 1e-2),
        "steps": st.integers(1, 30),
        "k_max": st.integers(0, 1),
        "order": st.integers(2, 9),
        "planes": st.integers(1, 4),
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_valid_manifest_exits_0_to_3(tmp_path_factory, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    metric = data.draw(_valid_metric(command == "deform"), label="metric")
    dim = 2 * metric["cdim"] if "cdim" in metric else metric["dim"]
    analysis = {"command": command}
    for key, values in _small_budget(dim).items():
        if command in ANALYSIS_KEYS[key].read_by and (
                key in ("steps", "directions", "planes")
                or data.draw(st.booleans())):
            analysis[key] = data.draw(values, label=key)
    doc = {"metric": metric, "analysis": analysis}
    validate(doc)
    base = tmp_path_factory.getbasetemp()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(["--manifest", write(base, "valid.json", doc),
                        "--out", str(base / "valid")])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.count("\n") == 1 and err.startswith("error: "), err
