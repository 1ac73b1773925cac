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

from . import catalog, conformal, jets
from .catalog import CatalogEntry
from .metric import ChartMetric


class ManifestError(ValueError):
    pass


class Key(NamedTuple):
    """One manifest key: its check, its CLI default, and who reads it.

    ``read_by`` names the families, ψ kinds or commands (the values of the
    block's selector) that read the key; ``required`` keys must be set where
    they are read.  ``default`` is None where the library or the metric
    supplies the default instead, so only keys a manifest sets reach it.
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


def _one_of(choices) -> Key:
    return Key(lambda v: isinstance(v, str) and v in choices,
               f"one of {sorted(choices)}")


def _list_of(item: Callable[[object], bool], items: str) -> Key:
    return Key(lambda v: isinstance(v, list) and v != [] and all(map(item, v)),
               f"a non-empty list of {items}")


def _read_by(key: Key, *readers: str) -> Key:
    return key._replace(read_by=readers)


def _needed_by(key: Key, *readers: str) -> Key:
    return key._replace(read_by=readers, required=True)


_OBJECT = Key(lambda v: isinstance(v, dict), "a JSON object")
_BLOCK = _OBJECT._replace(required=True)
_REAL = Key(_is_real, "a finite real")
_POSITIVE = Key(lambda v: _is_real(v) and v > 0, "a finite real > 0")

FAMILIES = {"euclidean": catalog.euclidean, "space_form": catalog.space_form,
            "sphere": catalog.sphere, "fubini_study": catalog.fubini_study}
# each family's constructor takes the keys it reads but family and deform
METRIC_KEYS = {
    "family": _needed_by(Key(lambda v: isinstance(v, str), "a string"),
                         *FAMILIES),
    "dim": _needed_by(_count(2), "euclidean", "space_form", "sphere"),
    "cdim": _needed_by(_count(1), "fubini_study"),
    "a": _needed_by(_REAL, "space_form"),
    "b": _needed_by(_REAL, "space_form"),
    "deform": _read_by(_OBJECT, *FAMILIES),
}
PSI_KINDS = ("poly", "trivial-density")
PSI_KEYS = {
    "kind": _needed_by(_one_of(PSI_KINDS), *PSI_KINDS),
    "coeffs": _needed_by(_list_of(_is_real, "finite reals"), "poly"),
    "r_max": _read_by(_POSITIVE, "trivial-density"),
}
COMMANDS = CURVATURE, CHECK_HARMONIC, EXPAND, DEFORM = (
    "curvature", "check_harmonic", "expand", "deform")
ANALYSIS_KEYS = {
    "command": _needed_by(_one_of(COMMANDS), *COMMANDS),
    "center": _read_by(_list_of(_is_real, "finite reals"),
                       CURVATURE, CHECK_HARMONIC, EXPAND),
    "radii": _read_by(_list_of(lambda r: _is_real(r) and r > 0,
                               "finite reals > 0"), CHECK_HARMONIC, DEFORM),
    "directions": _read_by(_count(2), CHECK_HARMONIC),
    "tolerance": _read_by(_POSITIVE, CHECK_HARMONIC),
    "steps": _read_by(_count(1), CHECK_HARMONIC, EXPAND, DEFORM),
    "k_max": _read_by(_count(0), CURVATURE),
    "order": _read_by(_count(2, default=12), EXPAND),
    "planes": _read_by(_count(1, default=400), CURVATURE),
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


def _check(d, keys: dict, where: str, selector: Optional[str] = None):
    """Refuse a non-object, unknown keys, bad values, keys the selector's
    value does not read (all are read without one), then missing keys."""
    if not isinstance(d, dict):
        raise ManifestError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ManifestError(f"unknown keys {unknown} in {where}; "
                            f"allowed: {sorted(keys)}")
    for key, spec in keys.items():
        if key in d and not spec.check(d[key]):
            raise _refuse(where, key, spec, d[key])
    chosen = d.get(selector)
    read = [k for k, spec in keys.items()
            if chosen is None or chosen in spec.read_by]
    unread = sorted(set(d) - set(read))
    if unread:
        raise ManifestError(f"{where} keys {unread} are not read by "
                            f"{selector} {chosen!r}")
    for key in read:
        if keys[key].required and key not in d:
            raise ManifestError(f"{where} needs a {key!r}")


def validate(doc: dict) -> Manifest:
    """Check a manifest against the key tables; the blocks are kept as written.

    Every schema refusal is made here: besides each block's keys, an unknown
    family and a deform command without a deform block."""
    _check(doc, {"metric": _BLOCK, "analysis": _BLOCK}, "manifest")
    mspec, ana = doc["metric"], doc["analysis"]
    family = mspec.get("family")
    if isinstance(family, str) and family not in FAMILIES:
        raise ManifestError(f"unknown catalog family {family!r}; "
                            f"known: {sorted(FAMILIES)}")
    _check(mspec, METRIC_KEYS, "metric", "family")
    if "deform" in mspec:
        _check(mspec["deform"], {"psi": _BLOCK}, "metric.deform")
        _check(mspec["deform"]["psi"], PSI_KEYS, "metric.deform.psi", "kind")
    _check(ana, ANALYSIS_KEYS, "analysis", "command")
    if ana["command"] == DEFORM and "deform" not in mspec:
        raise ManifestError("deform command needs a metric.deform block")
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
    """The catalog entry of a valid metric block, deformed by its ψ."""
    entry = FAMILIES[mspec["family"]](**{
        k: v for k, v in mspec.items() if k not in ("family", "deform")})
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
        iota = entry.metric.injectivity_radius
        r_max = psi_spec.get("r_max")
        if r_max is None:
            r_max = 0.9 * iota if math.isfinite(iota) else 1.0
        elif r_max >= iota:
            raise ManifestError(f"metric.deform.psi.r_max must be below the "
                                f"injectivity radius {iota:.6g}, got {r_max!r}")
        psi = conformal.TrivializerRadialFunction(
            entry.reduced_density, entry.dim, t_max=float(r_max) ** 2)
    return BuiltMetric(entry=entry, metric=conformal.deform_metric(
        entry.metric, psi), psi=psi)
