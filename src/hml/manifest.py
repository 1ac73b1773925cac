"""Declarative JSON manifests: schema validation and object construction.

A manifest names a catalog metric (with optional radial deformation) and an
analysis to run on it.  Unknown keys are rejected so that typos fail loudly
instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import catalog as _catalog
from . import conformal, jets
from .catalog import CatalogEntry
from .metric import ChartMetric


class ManifestError(ValueError):
    pass


class Key(NamedTuple):
    """One manifest key: the check its value must pass, and its CLI default.

    ``default`` is None where the library or the metric supplies the
    default instead (``steps``, ``directions``, ``tolerance``, ``radii``,
    ``center``, ``blowup_dims``), so only keys a manifest sets reach it.
    ``read_by`` names the analysis commands that read the key.
    """

    check: Callable[[object], bool]
    must_be: str
    default: object = None
    required: bool = False
    read_by: tuple = ()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite int or float; bools are refused."""
    return (not isinstance(v, bool) and isinstance(v, (int, float))
            and abs(v) < math.inf)      # exact for ints of any size


def _count(low: int, default=None) -> Key:
    return Key(lambda v: _is_int(v) and v >= low, f"an integer >= {low}",
               default)


def _one_of(choices: set, default=None, required=False) -> Key:
    return Key(lambda v: isinstance(v, str) and v in choices,
               f"one of {sorted(choices)}", default, required)


def _list_of(item: Callable[[object], bool], items: str) -> Key:
    return Key(lambda v: isinstance(v, list) and v != [] and all(map(item, v)),
               f"a non-empty list of {items}")


_OBJECT = Key(lambda v: isinstance(v, dict), "a JSON object")
_BLOCK = _OBJECT._replace(required=True)
_POSITIVE = Key(lambda v: _is_real(v) and v > 0, "a finite real > 0")

METRIC_KEYS = {
    "family": Key(lambda v: isinstance(v, str), "a string", required=True),
    "dim": _count(2), "cdim": _count(1), "n": _count(1),
    "a": Key(_is_real, "a finite real"), "b": Key(_is_real, "a finite real"),
    "deform": _OBJECT,
}
_PSI_KIND = _one_of({"poly", "trivial-density"}, required=True)
_PSI_KEYS = {
    "poly": {"kind": _PSI_KIND,
             "coeffs": _list_of(_is_real, "finite reals")._replace(required=True)},
    "trivial-density": {"kind": _PSI_KIND, "r_max": _POSITIVE},
}
COMMANDS = CURVATURE, CHECK_HARMONIC, EXPAND, DEFORM = (
    "curvature", "check_harmonic", "expand", "deform")


def _read_by(key: Key, *commands: str) -> Key:
    return key._replace(read_by=commands)


ANALYSIS_KEYS = {
    "command": _read_by(_one_of(set(COMMANDS), required=True), *COMMANDS),
    "center": _read_by(_list_of(_is_real, "finite reals"),
                       CURVATURE, CHECK_HARMONIC, EXPAND),
    "radii": _read_by(_list_of(lambda r: _is_real(r) and r > 0,
                               "finite reals > 0"), CHECK_HARMONIC, DEFORM),
    "directions": _read_by(_count(2), CHECK_HARMONIC),
    "tolerance": _read_by(_POSITIVE, CHECK_HARMONIC),
    "steps": _read_by(_count(1), CHECK_HARMONIC, EXPAND, DEFORM),
    "k_max": _read_by(_count(0, default=0), CURVATURE),
    "order": _read_by(_count(2, default=12), EXPAND),
    "planes": _read_by(_count(1, default=400), CURVATURE),
    "blowup_dims": _read_by(_list_of(
        lambda v: _is_int(v) and v in conformal.BLOWUP_DIMS,
        f"integers in {list(conformal.BLOWUP_DIMS)}"), DEFORM),
    "psi_variant": _read_by(_one_of({"trivializer", "density-root"},
                                    default="trivializer"), DEFORM),
}


@dataclass
class Manifest:
    """A validated manifest, its blocks as written.

    perfbench's set-up reads ``.metric_spec`` and ``.analysis``.
    """

    metric_spec: dict
    analysis: dict


def setting(analysis: dict, key: str):
    """The value of an analysis key, or its CLI default when unset."""
    return analysis.get(key, ANALYSIS_KEYS[key].default)


def _refuse(where: str, key: str, spec: Key, value) -> ManifestError:
    return ManifestError(f"{where}.{key} must be {spec.must_be}, got {value!r}")


def _check(d, keys: dict, where: str):
    """Refuse a non-object, unknown or missing keys, and values that fail."""
    if not isinstance(d, dict):
        raise ManifestError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ManifestError(f"unknown keys {unknown} in {where}; "
                            f"allowed: {sorted(keys)}")
    for key, spec in keys.items():
        if key not in d:
            if spec.required:
                raise ManifestError(f"{where} needs a {key!r}")
        elif not spec.check(d[key]):
            raise _refuse(where, key, spec, d[key])


def validate(doc: dict) -> Manifest:
    """Check a manifest against the key tables; the blocks are kept as written."""
    _check(doc, {"metric": _BLOCK, "analysis": _BLOCK}, "manifest")
    mspec, ana = doc["metric"], doc["analysis"]
    _check(mspec, METRIC_KEYS, "metric")
    if "deform" in mspec:
        _check(mspec["deform"], {"psi": _BLOCK}, "metric.deform")
        psi = mspec["deform"]["psi"]
        if not _PSI_KIND.check(psi.get("kind")):
            raise _refuse("metric.deform.psi", "kind", _PSI_KIND, psi.get("kind"))
        _check(psi, _PSI_KEYS[psi["kind"]], "metric.deform.psi")
    _check(ana, ANALYSIS_KEYS, "analysis")
    unread = sorted(k for k in ana if ana["command"] not in ANALYSIS_KEYS[k].read_by)
    if unread:
        raise ManifestError(f"analysis keys {unread} are not read by command "
                            f"{ana['command']!r}")
    return Manifest(metric_spec=mspec, analysis=ana)


def load(path: str) -> Manifest:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    return validate(doc)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass
class BuiltMetric:
    entry: CatalogEntry
    metric: ChartMetric          # deformed by psi unless psi is None
    psi: Optional[conformal.RadialFunction] = None


def _sphere_height_psi(coeffs) -> conformal.RadialFunction:
    """Poly in the squared ambient height, as a radial factor about a pole.

    On the round sphere chart the deformation law works through
    psi_eff(t) = poly(cos^2(sqrt t)): the factor is symmetric about both
    poles and analytic in t.
    """
    poly = [float(c) for c in coeffs]
    return conformal.AnalyticRadialFunction(
        lambda tser: conformal._horner(poly, jets.cos_sqrt(tser) ** 2),
        name=f"height_poly{poly}")


def build_metric(mspec: dict) -> BuiltMetric:
    params = {k: v for k, v in mspec.items() if k not in ("family", "deform")}
    try:
        entry = _catalog.build(mspec["family"], params)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    if "deform" not in mspec:
        return BuiltMetric(entry=entry, metric=entry.metric)
    psi_spec = mspec["deform"]["psi"]
    if psi_spec["kind"] == "poly":
        if entry.name == "sphere":
            # pole-symmetric factor: poly in the squared ambient height
            psi = _sphere_height_psi(psi_spec["coeffs"])
        else:
            psi = conformal.PolynomialRadialFunction(psi_spec["coeffs"])
    else:  # trivial-density
        if entry.reduced_density is None:
            raise ManifestError(
                f"trivial-density deformation needs a radial closed-form "
                f"density; family {entry.name!r} does not provide one")
        iota = entry.metric.injectivity_radius or 1.0
        r_max = psi_spec.get("r_max")
        if r_max is None:
            r_max = 0.9 * iota if math.isfinite(iota) else 1.0
        elif r_max >= iota:
            raise ManifestError(f"metric.deform.psi.r_max must be below the "
                                f"injectivity radius {iota:.6g}, got {r_max!r}")
        psi = conformal.TrivializerRadialFunction(
            entry.reduced_density, entry.dim, t_max=float(r_max) ** 2)
    try:
        deformed = conformal.deform_metric(entry.metric, psi)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return BuiltMetric(entry=entry, metric=deformed, psi=psi)
