"""Command-line front end: run analyses from JSON manifests.

Usage:  hml --manifest analysis.json [--out DIR] [--tol X] [--directions N]
            [--radii r1,r2,...]

The command itself lives in the manifest's analysis block.  Output is
deterministic: fixed 12-significant-digit float formatting, fixed row order
(radius, then direction index), sorted JSON keys.

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
from .metric import DomainError
from .series import fit_radial_expansion

FLOAT_FMT = "%.12e"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

log = logging.getLogger("hml")


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(_fmt(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    return obj


def _write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        json.dump(_json_ready(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_density_csv(path: str, profile: geodesics.DensityProfile):
    with open(path, "w") as fh:
        fh.write("# r, direction_index, theta, xi, umbilicity_defect\n")
        for ir, r in enumerate(profile.radii):
            for jd in range(profile.theta.shape[1]):
                fh.write(f"{_fmt(r)},{jd},{_fmt(profile.theta[ir, jd])},"
                         f"{_fmt(profile.xi[ir, jd])},"
                         f"{_fmt(profile.umbilicity[ir, jd])}\n")


def _center(built: BuiltMetric, ana: dict) -> np.ndarray:
    center = ana.get("center")
    if center is None:
        center = [0.0] * built.metric.dim
    center = np.asarray(center, dtype=float)
    if center.shape != (built.metric.dim,):
        raise ManifestError(
            f"center must have {built.metric.dim} coordinates")
    return center


def _given(ana: dict, **keys) -> dict:
    """Keyword arguments for the analysis keys a manifest sets.

    Unset keys are left out, so the library's own defaults apply.
    """
    return {arg: ana[key] for arg, key in keys.items() if key in ana}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_curvature(built: BuiltMetric, ana: dict, outdir: str) -> int:
    metric = built.metric
    center = _center(built, ana)
    bundle = curvature(metric, center, k_max=setting(ana, "k_max"))
    n_planes = setting(ana, "planes")
    dirs = geodesics.unit_directions(metric.dim, 2 * n_planes)
    kappas = []
    for k in range(n_planes):
        u, v = dirs[2 * k], dirs[2 * k + 1]
        if abs(u @ v) > 1 - 1e-8:
            continue
        kappas.append(sectional_curvature(bundle, u, v))
    kappas = np.array(kappas)
    # deterministic local refinement of the extremes over the plane chart
    from scipy.optimize import minimize

    def kappa_of(z):
        u, v = z[:metric.dim], z[metric.dim:]
        try:
            return sectional_curvature(bundle, u, v)
        except ValueError:
            return math.nan

    refined = [float(kappas.min()), float(kappas.max())]
    for sign, seed_idx in ((1.0, int(np.argmin(kappas))),
                           (-1.0, int(np.argmax(kappas)))):
        z0 = np.concatenate([dirs[2 * seed_idx], dirs[2 * seed_idx + 1]])
        res = minimize(lambda z: sign * kappa_of(z), z0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000})
        val = sign * res.fun
        if sign > 0:
            refined[0] = min(refined[0], val)
        else:
            refined[1] = max(refined[1], val)
    report = {
        "metric": {"name": metric.name, **{k: v for k, v in metric.params.items()
                                           if isinstance(v, (int, float, str))}},
        "center": center.tolist(),
        "scalar_curvature": bundle.scalar,
        "einstein_defect": einstein_defect(bundle),
        "kappa_min": refined[0],
        "kappa_max": refined[1],
        "n_planes_sampled": int(len(kappas)),
    }
    _write_json(os.path.join(outdir, "curvature.json"), report)
    return EXIT_OK


def cmd_check_harmonic(built: BuiltMetric, ana: dict, outdir: str) -> int:
    metric = built.metric
    center = _center(built, ana)
    report = geodesics.centrally_harmonic_test(
        metric, center, **_given(ana, radii="radii", n_directions="directions",
                                 tolerance="tolerance", steps="steps"))
    doc = report.to_json_dict()
    doc["metric"] = metric.name
    _write_json(os.path.join(outdir, "harmonicity.json"), doc)
    if report.profile is not None:
        _write_density_csv(os.path.join(outdir, "density.csv"), report.profile)
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def cmd_expand(built: BuiltMetric, ana: dict, outdir: str) -> int:
    metric = built.metric
    entry = built.entry
    center = _center(built, ana)
    order = setting(ana, "order")
    report = {"metric": metric.name, "order": order}
    if entry.name == "two_d_family" and not built.deformed:
        # polar chart: the center is not a chart point, but the density
        # about it is known in closed form; only fitted values are reported
        order = ana.get("order", max(8, entry.params["n"] + 1))
        report["order"] = order
        radii = np.geomspace(0.05, 0.5, max(2 * (order - 1), 14))
        samples = list(zip(radii, entry.closed_form_density(radii)))
        fit = fit_radial_expansion(samples, entry.dim, order)
        report["analytic"] = None
        report["fitted"] = {f"H{k}": v for k, v in fit.coefficients.items()}
        report["residuals"] = {"fit_residual": fit.residual,
                               "cond": fit.cond,
                               "truncation_estimate":
                                   {f"H{k}": v for k, v in
                                    fit.truncation_estimate.items()}}
        _write_json(os.path.join(outdir, "expansion.json"), report)
        return EXIT_OK
    theta = geodesics.g_unit_directions(metric, center, 1)[0]
    coeffs = expansion.density_coefficients(metric, center, theta)
    r_hi = 0.42
    iota = metric.injectivity_radius
    if iota is not None and math.isfinite(iota):
        r_hi = min(r_hi, 0.25 * float(iota))
    radii = np.geomspace(r_hi / 7, r_hi, max(2 * (order - 1), 24))
    profile = geodesics.density_profile(metric, center, theta[None, :],
                                        radii, **_given(ana, steps="steps"))
    fit = fit_radial_expansion(
        list(zip(radii, profile.theta[:, 0])), metric.dim, order)
    report["analytic"] = {f"H{k}": v for k, v in coeffs.values.items()}
    report["fitted"] = {f"H{k}": v for k, v in fit.coefficients.items()}
    report["residuals"] = {
        "fit_residual": fit.residual, "cond": fit.cond,
        "max_abs_difference": max(
            abs(coeffs.values[k] - fit.coefficients[k])
            for k in range(2, min(order, 6) + 1)),
        "truncation_estimate": {f"H{k}": v for k, v in
                                fit.truncation_estimate.items()},
    }
    _write_json(os.path.join(outdir, "expansion.json"), report)
    return EXIT_OK


def cmd_deform(built: BuiltMetric, ana: dict, outdir: str) -> int:
    if not built.deformed:
        raise ManifestError("deform command needs a metric.deform block")
    entry = built.entry
    metric = built.metric
    psi = built.psi
    m = entry.dim
    report = {"metric": metric.name, "base": entry.name, "psi": psi.name}
    radii = sorted(map(float, ana.get("radii", np.linspace(0.15, 0.75, 5))))
    # density law check: formula vs direct shooting in the deformed metric
    if entry.closed_form_density is not None and entry.center_in_chart:
        rep = conformal.reparametrize(psi, max(radii) * 1.05)
        rc_vals = rep.rc(np.asarray(radii))
        predicted = conformal.deformed_density(
            entry.closed_form_density, psi, m, rc_vals, max(radii) * 1.05,
            rep=rep)
        center = np.zeros(m)
        theta = geodesics.g_unit_directions(metric, center, 1)[0]
        profile = geodesics.density_profile(
            metric, center, theta[None, :], rc_vals,
            **_given(ana, steps="steps"))
        shot = profile.theta[:, 0]
        report["density_law"] = {
            "rc": list(map(float, rc_vals)),
            "predicted": list(map(float, predicted)),
            "shot": list(map(float, shot)),
            "max_abs_error": float(np.max(np.abs(predicted - shot))),
        }
    # curvature summary of the deformed metric at a probe point
    probe = np.full(m, 0.1 / math.sqrt(m))
    bundle = curvature(metric, probe, k_max=0)
    dirs = geodesics.unit_directions(m, 60)
    kappas = [sectional_curvature(bundle, dirs[2 * k], dirs[2 * k + 1])
              for k in range(30)]
    report["kappa_probe"] = {"min": float(np.min(kappas)),
                             "max": float(np.max(kappas))}
    if built.trivializer_base == "fubini_study" or ana.get("blowup_dims"):
        dims = ana.get("blowup_dims", [m])
        variant = setting(ana, "psi_variant")
        report["blowup"] = [
            dataclasses.asdict(conformal.completeness_and_blowup(d, variant))
            for d in dims]
    _write_json(os.path.join(outdir, "deform.json"), report)
    return EXIT_OK


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
    parser.add_argument("--tol", type=float, default=None,
                        help="override analysis.tolerance")
    parser.add_argument("--directions", type=int, default=None,
                        help="override analysis.directions")
    parser.add_argument("--radii", default=None,
                        help="comma-separated radii overriding analysis.radii")
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
            ana = dict(mf.analysis)
            if args.tol is not None:
                ana["tolerance"] = args.tol
            if args.directions is not None:
                ana["directions"] = args.directions
            if args.radii is not None:
                ana["radii"] = [float(r) for r in args.radii.split(",") if r]
            manifest_mod.validate({"metric": mf.metric_spec, "analysis": ana})
            built = manifest_mod.build_metric(mf.metric_spec)
            os.makedirs(args.out, exist_ok=True)
            return _COMMANDS[ana["command"]](built, ana, args.out)
        except (ManifestError, DomainError, ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
