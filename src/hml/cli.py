"""Command-line front end: run analyses from JSON manifests.

Usage:  hml --manifest analysis.json [--out DIR]

The manifest is the whole configuration: the command and every setting
live in its analysis block.  Output is deterministic: fixed
12-significant-digit float formatting, fixed row order (radius, then
direction index), sorted JSON keys.

Exit codes: 0 success (and harmonic verdict for check_harmonic);
1 not harmonic; 2 inconclusive; 3 manifest/domain/runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import warnings

import numpy as np

from . import conformal, expansion, geodesics, manifest as manifest_mod
from .curvature import curvature, einstein_defect, sectional_curvature
from .manifest import (CHECK_HARMONIC, CURVATURE, DEFORM, EXPAND,
                       BuiltMetric, ManifestError, setting)
from .series import fit_radial_expansion, radial_designs

FLOAT_FMT = "%.12e"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

log = logging.getLogger("hml")


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _json_ready(obj):
    """Floats to 12 significant digits; NaN and +-Infinity (not JSON) to null."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    return obj


def _json_text(doc: dict) -> str:
    return json.dumps(_json_ready(doc), indent=2, sort_keys=True) + "\n"


def _density_csv(profile: geodesics.DensityProfile) -> str:
    rows = ["# r, direction_index, theta, xi, umbilicity_defect\n"]
    for ir, r in enumerate(profile.radii):
        for jd in range(profile.theta.shape[1]):
            rows.append(f"{_fmt(r)},{jd},{_fmt(profile.theta[ir, jd])},"
                        f"{_fmt(profile.xi[ir, jd])},"
                        f"{_fmt(profile.umbilicity[ir, jd])}\n")
    return "".join(rows)


def _center(built: BuiltMetric, ana: dict) -> np.ndarray:
    center = np.asarray(ana.get("center", [0.0] * built.metric.dim), float)
    if center.shape != (built.metric.dim,):
        raise ManifestError(
            f"center must have {built.metric.dim} coordinates")
    return center


def _plane_kappas(bundle, n: int):
    """Sectional curvatures of the planes spanned by unit directions 2k and
    2k + 1 (k < n), skipping near-parallel pairs; returns them and the planes."""
    dirs = geodesics.unit_directions(bundle.dim, 2 * n)
    kappas, planes = [], []
    for u, v in zip(dirs[0::2], dirs[1::2]):
        if abs(u @ v) > 1 - 1e-8:
            continue
        kappas.append(sectional_curvature(bundle, u, v))
        planes.append((u, v))
    return np.array(kappas), planes


def _given(ana: dict, **keys) -> dict:
    """Keyword arguments for the analysis keys a manifest sets.

    Unset keys are left out, so the library's own defaults apply.
    """
    return {arg: ana[key] for arg, key in keys.items() if key in ana}


def _shot(metric, center, direction, radii, ana: dict) -> np.ndarray:
    """det A at each radius along one g-unit direction from the center."""
    return geodesics.density_profile(
        metric, center, direction[None, :], radii,
        **_given(ana, steps="steps")).theta[:, 0]


# ---------------------------------------------------------------------------
# commands: each returns its exit code and its reports, {file name: text}
# ---------------------------------------------------------------------------

def cmd_curvature(built: BuiltMetric, ana: dict, center: np.ndarray):
    metric = built.metric
    bundle = curvature(metric, center, **_given(ana, k_max="k_max"))
    kappas, planes = _plane_kappas(bundle, setting(ana, "planes"))
    # deterministic local refinement of the extremes over the plane chart
    from scipy.optimize import minimize

    def kappa_of(z):
        u, v = z[:metric.dim], z[metric.dim:]
        try:
            return sectional_curvature(bundle, u, v)
        except ValueError:
            return math.nan

    def refined(sign, k):
        """sign times the local minimum of sign * kappa from plane k."""
        res = minimize(lambda z: sign * kappa_of(z), np.concatenate(planes[k]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000})
        return sign * res.fun

    kappa_min = min(float(kappas.min()), refined(1.0, int(np.argmin(kappas))))
    kappa_max = max(float(kappas.max()), refined(-1.0, int(np.argmax(kappas))))
    report = {
        "metric": {"name": metric.name, **metric.params},
        "center": center.tolist(),
        "scalar_curvature": bundle.scalar,
        "einstein_defect": einstein_defect(bundle),
        "kappa_min": kappa_min,
        "kappa_max": kappa_max,
        "n_planes_sampled": int(len(kappas)),
    }
    return EXIT_OK, {"curvature.json": _json_text(report)}


def cmd_check_harmonic(built: BuiltMetric, ana: dict, center: np.ndarray):
    metric = built.metric
    report = geodesics.centrally_harmonic_test(
        metric, center, **_given(ana, radii="radii", n_directions="directions",
                                 tolerance="tolerance", steps="steps"))
    doc = report.to_json_dict()
    doc["metric"] = metric.name
    files = {"harmonicity.json": _json_text(doc)}
    if report.profile is not None:
        files["density.csv"] = _density_csv(report.profile)
    if report.inconclusive:
        return EXIT_INCONCLUSIVE, files
    return (EXIT_OK if report.verdict else EXIT_NEGATIVE), files


def cmd_expand(built: BuiltMetric, ana: dict, center: np.ndarray):
    metric = built.metric
    entry = built.entry
    if entry.name == "two_d_family":
        # polar chart, never deformed: the density about its center (not a
        # chart point) is closed-form; only fitted values are reported
        order = ana.get("order", max(8, entry.params["n"] + 1))
        radii = np.geomspace(0.05, 0.5, max(2 * (order - 1), 14))
        radial_designs(radii, order)
        theta, analytic = entry.closed_form_density(radii), None
    else:
        order = setting(ana, "order")
        direction = geodesics.g_unit_directions(metric, center, 1)[0]
        iota = metric.injectivity_radius or math.inf    # None: deformed
        r_hi = min(0.42, 0.25 * iota)
        radii = np.geomspace(r_hi / 7, r_hi, max(2 * (order - 1), 24))
        radial_designs(radii, order)    # refuses a bad fit before the work
        analytic = expansion.density_coefficients(
            metric, center, direction).values
        theta = _shot(metric, center, direction, radii, ana)
    fit = fit_radial_expansion(list(zip(radii, theta)), metric.dim, order)
    residuals = {"fit_residual": fit.residual, "cond": fit.cond,
                 "truncation_estimate": {f"H{k}": v for k, v in
                                         fit.truncation_estimate.items()}}
    if analytic is not None:
        residuals["max_abs_difference"] = max(
            abs(analytic[k] - fit.coefficients[k])
            for k in range(2, min(order, 6) + 1))
        analytic = {f"H{k}": v for k, v in analytic.items()}
    return EXIT_OK, {"expansion.json": _json_text({
        "metric": metric.name, "order": order, "analytic": analytic,
        "fitted": {f"H{k}": v for k, v in fit.coefficients.items()},
        "residuals": residuals})}


def cmd_deform(built: BuiltMetric, ana: dict, center: np.ndarray):
    entry = built.entry
    metric = built.metric
    psi = built.psi
    m = entry.dim
    report = {"metric": metric.name, "base": entry.name, "psi": psi.name}
    radii = sorted(map(float, ana.get("radii", np.linspace(0.15, 0.75, 5))))
    # density law check: formula vs direct shooting in the deformed metric,
    # from the origin, which every deformable chart contains
    rep = conformal.reparametrize(psi, max(radii) * 1.05)
    rc_vals = rep.rc(np.asarray(radii))
    predicted = conformal.deformed_density(
        entry.closed_form_density, rep, m, rc_vals)
    direction = geodesics.g_unit_directions(metric, center, 1)[0]
    shot = _shot(metric, center, direction, rc_vals, ana)
    report["density_law"] = {
        "rc": list(map(float, rc_vals)),
        "predicted": list(map(float, predicted)),
        "shot": list(map(float, shot)),
        "max_abs_error": float(np.max(np.abs(predicted - shot))),
    }
    # curvature summary of the deformed metric at a probe point
    probe = np.full(m, 0.1 / math.sqrt(m))
    kappas, _ = _plane_kappas(curvature(metric, probe, k_max=0), 30)
    report["kappa_probe"] = {"min": float(np.min(kappas)),
                             "max": float(np.max(kappas))}
    # a trivial-density projective space of a supported m: its own blow-up
    own = (entry.name == "fubini_study" and m in conformal.BLOWUP_DIMS
           and isinstance(psi, conformal.TrivializerRadialFunction))
    dims = ana.get("blowup_dims", [m] if own else [])
    if dims:
        variant = setting(ana, "psi_variant")
        report["blowup"] = [
            dataclasses.asdict(conformal.completeness_and_blowup(d, variant))
            for d in dims]
    return EXIT_OK, {"deform.json": _json_text(report)}


_COMMANDS = {
    CURVATURE: cmd_curvature,
    CHECK_HARMONIC: cmd_check_harmonic,
    EXPAND: cmd_expand,
    DEFORM: cmd_deform,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line exits 3, not 2 (a verdict)
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="hml",
        description="Centrally harmonic metric analyses from JSON manifests")
    parser.add_argument("--manifest", required=True, help="path to manifest JSON")
    parser.add_argument("--out", default=".", help="output directory")
    # numpy's RuntimeWarnings (overflow, invalid value) go to the hml log
    # below WARNING, so stderr carries only the one error line
    with warnings.catch_warnings():
        show = warnings.showwarning

        def route(message, category, filename, lineno, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                log.info("%s:%d: %s: %s", filename, lineno,
                         category.__name__, message)
            else:
                show(message, category, filename, lineno, *args, **kwargs)
        warnings.showwarning = route
        try:
            args = parser.parse_args(argv)
            mf = manifest_mod.load(args.manifest)
            built = manifest_mod.build_metric(mf.metric_spec)
            center = _center(built, mf.analysis)
            code, files = _COMMANDS[mf.analysis["command"]](
                built, mf.analysis, center)
            # made only now, so that a failed command leaves no --out
            os.makedirs(args.out, exist_ok=True)
            for name, text in files.items():
                with open(os.path.join(args.out, name), "w") as fh:
                    fh.write(text)
            return code
        except (ValueError, ArithmeticError, OSError) as exc:
            # ManifestError and DomainError are ValueErrors; OSError: --out
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
