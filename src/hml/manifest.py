"""Declarative JSON manifests: schema validation and object construction.

A manifest names a catalog metric (with optional radial deformation) and an
analysis to run on it.  Unknown keys are rejected so that typos fail loudly
instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from . import catalog as _catalog
from . import conformal, jets
from .catalog import CatalogEntry
from .metric import ChartMetric


class ManifestError(ValueError):
    pass


_METRIC_KEYS = {"family", "dim", "cdim", "a", "b", "n", "deform"}
_PSI_KINDS = {"poly", "trivial-density"}
_ANALYSIS_KEYS = {"command", "center", "radii", "directions", "tolerance",
                  "steps", "k_max", "order", "planes",
                  "blowup_dims", "psi_variant"}
_COMMANDS = {"curvature", "check_harmonic", "expand", "deform"}


@dataclass
class Manifest:
    metric_spec: dict
    analysis: dict
    path: Optional[str] = None

    @property
    def command(self) -> str:
        return self.analysis["command"]


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ManifestError(f"unknown keys {unknown} in {where}; "
                            f"allowed: {sorted(allowed)}")


def _require_count(d: dict, key: str, where: str, low: int = 1):
    """d[key], when present, must be an int >= low (bools are refused)."""
    v = d.get(key, low)
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise ManifestError(f"{where}.{key} must be an integer >= {low}, got {v!r}")


def _is_real(v) -> bool:
    """A finite int or float; bools are refused."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and abs(v) < math.inf)      # exact for ints of any size


def validate(doc: dict, path: Optional[str] = None) -> Manifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    _reject_unknown(doc, {"metric", "analysis"}, "manifest")
    for key in ("metric", "analysis"):
        if key not in doc or not isinstance(doc[key], dict):
            raise ManifestError(f"manifest needs a {key!r} object")
    mspec = doc["metric"]
    _reject_unknown(mspec, _METRIC_KEYS, "metric")
    if "family" not in mspec:
        raise ManifestError("metric needs a 'family'")
    for key in ("dim", "cdim", "n"):
        _require_count(mspec, key, "metric")
    for key in ("a", "b"):
        v = mspec.get(key, 0.0)
        if not _is_real(v):
            raise ManifestError(f"metric.{key} must be a finite real, got {v!r}")
    if "deform" in mspec:
        dspec = mspec["deform"]
        _reject_unknown(dspec, {"psi"}, "metric.deform")
        psi = dspec.get("psi")
        if not isinstance(psi, dict) or "kind" not in psi:
            raise ManifestError("deform.psi needs a 'kind'")
        if psi["kind"] not in _PSI_KINDS:
            raise ManifestError(
                f"deform.psi.kind must be one of {sorted(_PSI_KINDS)}")
        if psi["kind"] == "poly":
            _reject_unknown(psi, {"kind", "coeffs"}, "deform.psi")
            coeffs = psi.get("coeffs")
            if (not isinstance(coeffs, list) or not coeffs
                    or not all(isinstance(c, (int, float)) for c in coeffs)):
                raise ManifestError("poly psi needs a non-empty numeric 'coeffs'")
        else:
            _reject_unknown(psi, {"kind", "r_max"}, "deform.psi")
    ana = doc["analysis"]
    _reject_unknown(ana, _ANALYSIS_KEYS, "analysis")
    cmd = ana.get("command")
    if cmd not in _COMMANDS:
        raise ManifestError(f"analysis.command must be one of {sorted(_COMMANDS)}")
    for key, low in (("directions", 1), ("steps", 1), ("planes", 1),
                     ("k_max", 0), ("order", 2)):
        _require_count(ana, key, "analysis", low)
    tol, radii = ana.get("tolerance", 1.0), ana.get("radii", [1.0])
    if not (_is_real(tol) and tol > 0):
        raise ManifestError(f"analysis.tolerance must be a finite real > 0, got {tol!r}")
    if not (isinstance(radii, list) and radii
            and all(_is_real(r) and r > 0 for r in radii)):
        raise ManifestError("analysis.radii must be a non-empty list of "
                            f"finite reals > 0, got {radii!r}")
    return Manifest(metric_spec=mspec, analysis=ana, path=path)


def load(path: str) -> Manifest:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    return validate(doc, path=path)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass
class BuiltMetric:
    entry: CatalogEntry
    metric: ChartMetric          # possibly deformed
    deformed: bool
    psi: Optional[conformal.RadialFunction] = None
    trivializer_base: Optional[str] = None


def _sphere_height_psi(coeffs) -> conformal.RadialFunction:
    """Poly in the squared ambient height, as a radial factor about a pole.

    On the round sphere chart the deformation law works through
    psi_eff(t) = poly(cos^2(sqrt t)): the factor is symmetric about both
    poles and analytic in t.
    """
    poly = [float(c) for c in coeffs]

    def fn(tser):
        c2 = jets.cos_sqrt(tser) ** 2
        acc = 0.0 * c2 + poly[-1]
        for c in reversed(poly[:-1]):
            acc = acc * c2 + c
        return acc

    return conformal.AnalyticRadialFunction(fn, name=f"height_poly{poly}")


def build_metric(mspec: dict) -> BuiltMetric:
    params = {k: v for k, v in mspec.items() if k not in ("family", "deform")}
    try:
        entry = _catalog.build(mspec["family"], params)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    if "deform" not in mspec:
        return BuiltMetric(entry=entry, metric=entry.metric, deformed=False)
    psi_spec = mspec["deform"]["psi"]
    if psi_spec["kind"] == "poly":
        if entry.name == "sphere":
            # pole-symmetric factor: poly in the squared ambient height
            psi = _sphere_height_psi(psi_spec["coeffs"])
        else:
            psi = conformal.PolynomialRadialFunction(psi_spec["coeffs"])
    else:  # trivial-density
        if entry.closed_form_density is None or not entry.center_in_chart:
            raise ManifestError(
                f"trivial-density deformation needs a radial closed-form "
                f"density; family {entry.name!r} does not provide one")
        psi = _trivializer_for(entry, r_max=psi_spec.get("r_max"))
    try:
        deformed = conformal.deform_metric(entry.metric, psi)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return BuiltMetric(entry=entry, metric=deformed, deformed=True, psi=psi,
                       trivializer_base=(entry.name
                                         if psi_spec["kind"] != "poly" else None))


def _reduced_density_series_fn(entry: CatalogEntry):
    """Ttilde as a function of t = r^2 acting on series, for known families."""
    m = entry.dim
    if entry.name == "euclidean":
        return lambda ts: 1.0 + 0.0 * ts
    if entry.name in ("sphere",) or (
            entry.name == "space_form"
            and entry.constant_curvature is not None
            and entry.constant_curvature > 0):
        kappa = 1.0 if entry.name == "sphere" else entry.constant_curvature

        def fn(ts):
            return jets.powf(jets.sinc_sqrt(ts * kappa), m - 1)
        return fn
    if entry.name == "fubini_study":
        def fn(ts):
            return jets.powf(jets.sinc_sqrt(ts), m - 1) * jets.cos_sqrt(ts)
        return fn
    raise ManifestError(f"no closed-form reduced density for {entry.name}")


def _trivializer_for(entry: CatalogEntry, r_max: Optional[float]
                     ) -> conformal.RadialFunction:
    if r_max is None:
        iota = entry.metric.injectivity_radius or 1.0
        r_max = 0.9 * iota if math.isfinite(iota) else 1.0
    fn = _reduced_density_series_fn(entry)
    return conformal.TrivializerRadialFunction(fn, entry.dim,
                                               t_max=float(r_max) ** 2)
