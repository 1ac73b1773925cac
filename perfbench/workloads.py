"""Workload plans, hml set-up and the analyses each workload runs.

A plan is plain JSON data made from the workload name and seed: the
manifests and (point, direction) arrays hml receives, and what each
analysis is checked against.  ``setup`` is the part timed as ``setup_s``:
import hml, load and build every metric, and make one cold
``curvature_arrays`` call per metric.  The set-up probe repeats it in a
fresh interpreter, so the oracles are imported only by ``make_ops``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("cli_defaults", "wide_sweep", "coefficients")

SPHERE4_DEFORMED = {"family": "sphere", "dim": 4,
                    "deform": {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}}
FS2 = {"family": "fubini_study", "cdim": 2}
SPHERE4 = {"family": "sphere", "dim": 4}

WIDE_DIRECTIONS = 1024
WIDE_STEPS = 16


def import_hml():
    """Import hml from this checkout's src/, never from anywhere else."""
    if not (SRC / "hml" / "__init__.py").is_file():
        raise RuntimeError(f"no hml sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hml
    import hml.cli
    if Path(hml.__file__).resolve().parent != (SRC / "hml").resolve():
        raise RuntimeError(f"imported hml from {hml.__file__}, not {SRC}")
    return hml


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _cli_op(name, metric, analysis, check, **expect):
    return {"name": name, "kind": "cli",
            "manifest": {"metric": metric, "analysis": analysis},
            "check": check, **expect}


def _dim(spec: dict) -> int:
    return 2 * spec["cdim"] if spec["family"] == "fubini_study" else spec["dim"]


def build_plan(workload: str, seed: int, tiny: bool = False) -> dict:
    """The fixed list of analyses for one workload and seed.

    ``tiny`` shrinks step counts, direction counts and the coefficient list
    so the smoke test can run every workload in seconds; the checks are the
    same.
    """
    rng = np.random.default_rng(seed)
    if workload == "cli_defaults":
        # No manifest sets "steps": the library's defaults are measured.
        small = {"steps": 600} if tiny else {}
        ops = [
            _cli_op("curvature", FS2,
                    {"command": "curvature", "k_max": 2 if tiny else 4,
                     **({"planes": 40} if tiny else {})},
                    "fs_curvature"),
            _cli_op("check_harmonic", FS2,
                    {"command": "check_harmonic",
                     **({"steps": 60, "directions": 4} if tiny else {})},
                    "fs_harmonic", m=4, n_directions=4 if tiny else 16),
            _cli_op("expand", SPHERE4, {"command": "expand", **small},
                    "expand", family="sphere", m=4),
            _cli_op("deform", SPHERE4_DEFORMED, {"command": "deform", **small},
                    "deform", m=4,
                    coeffs=SPHERE4_DEFORMED["deform"]["psi"]["coeffs"]),
        ]
    elif workload == "wide_sweep":
        n_dirs, steps = (16, 20) if tiny else (WIDE_DIRECTIONS, WIDE_STEPS)
        center = [0.0] * 4
        center[int(rng.integers(4))] = float(rng.choice([-1.0, 1.0])
                                             * rng.uniform(0.3, 1.0))
        common = {"command": "check_harmonic", "directions": n_dirs,
                  "steps": steps}
        ops = [
            _cli_op("fs2_origin", FS2, common, "fs_harmonic",
                    m=4, n_directions=n_dirs),
            _cli_op("deformed_sphere_off_pole", SPHERE4_DEFORMED,
                    {**common, "center": center}, "not_harmonic"),
        ]
    elif workload == "coefficients":
        groups = [(FS2, 6), (SPHERE4, 6),
                  ({"family": "fubini_study", "cdim": 3}, 1),
                  ({"family": "sphere", "dim": 6}, 1)]
        # m = 4 calls come before, between and after the two m = 6 calls,
        # so their median samples the whole pass, not one moment of it.
        order = [0, 1, 0, 1, 2, 0, 1, 0, 1, 3, 0, 1, 0, 1]
        if tiny:
            groups, order = [(FS2, 1), (SPHERE4, 1)], [0, 1]
        by_group = []
        for spec, count in groups:
            m = _dim(spec)
            by_group.append([])
            for i in range(count):
                x = rng.normal(size=m)
                x *= rng.uniform(0.0, 0.5) / np.linalg.norm(x)
                by_group[-1].append({
                    "name": f"{spec['family']}{m}_{i}", "kind": "coefficients",
                    "metric": spec, "point": x.tolist(),
                    "raw_direction": rng.normal(size=m).tolist(),
                    "check": "h_values", "family": spec["family"], "m": m})
        ops = [by_group[g].pop(0) for g in order]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "ops": ops}


def write_plan(plan: dict, workdir: str) -> str:
    """Write each manifest to disk and the plan next to them."""
    for op in plan["ops"]:
        if op["kind"] == "cli":
            op["manifest_path"] = os.path.join(workdir, f"{op['name']}.json")
            op["out"] = os.path.join(workdir, f"out_{op['name']}")
            with open(op["manifest_path"], "w") as fh:
                json.dump(op["manifest"], fh)
    path = os.path.join(workdir, "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    return path


def load_plan(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up (timed as setup_s)
# ---------------------------------------------------------------------------

def setup(plan: dict) -> dict:
    """Import hml, build each metric and make its first cold call.

    Returns the built metrics of the coefficients ops, keyed by op name.
    """
    import_hml()
    from hml import manifest
    from hml.curvature import curvature_arrays

    built = {}
    for op in plan["ops"]:
        if op["kind"] == "cli":
            mf = manifest.load(op["manifest_path"])
            metric = manifest.build_metric(mf.metric_spec).metric
            center = mf.analysis.get("center", [0.0] * metric.dim)
        else:
            metric = manifest.build_metric(op["metric"]).metric
            center = op["point"]
            built[op["name"]] = metric
        curvature_arrays(metric, np.asarray(center, dtype=float))
    return built


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One analysis: ``run`` calls hml, ``check`` verifies what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def make_ops(plan: dict, built: dict) -> list:
    import hml.cli
    import hml.expansion
    import oracles

    def cli_run(op):
        argv = ["--manifest", op["manifest_path"], "--out", op["out"]]

        def run():
            # looked up at call time, so a traced pass sees the wrapper
            return hml.cli.main(argv)
        return run

    def coeff_run(metric, x, xi):
        def run():
            return hml.expansion.density_coefficients(metric, x, xi).values
        return run

    ops = []
    for op in plan["ops"]:
        kind = op["check"]
        if op["kind"] == "cli":
            run = cli_run(op)
            if kind == "fs_curvature":
                check = lambda code, o=op: oracles.check_fs_curvature(code, o["out"])
            elif kind == "fs_harmonic":
                check = lambda code, o=op: oracles.check_fs_harmonic(
                    code, o["out"], o["m"], o["n_directions"])
            elif kind == "not_harmonic":
                check = lambda code, o=op: oracles.check_not_harmonic(code, o["out"])
            elif kind == "expand":
                ref = oracles.reduced_density_coefficients(op["family"], op["m"])
                check = lambda code, o=op, ref=ref: oracles.check_expand(
                    code, o["out"], ref)
            elif kind == "deform":
                check = lambda code, o=op: oracles.check_deform(
                    code, o["out"], o["coeffs"], o["m"])
            else:
                raise ValueError(f"unknown check {kind!r}")
        else:
            x = np.asarray(op["point"])
            xi = oracles.g_unit(op["family"], x, op["raw_direction"])
            run = coeff_run(built[op["name"]], x, xi)
            ref = oracles.reduced_density_coefficients(op["family"], op["m"])
            check = lambda values, ref=ref: oracles.check_h_values(values, ref)
        ops.append(Op(op["name"], run, check))
    return ops


def clear_outputs(plan: dict):
    """Remove the previous pass's reports so a check never reads stale ones."""
    for op in plan["ops"]:
        out = op.get("out")
        if out and os.path.isdir(out):
            for name in os.listdir(out):
                os.remove(os.path.join(out, name))

