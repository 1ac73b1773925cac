"""Smoke test of the benchmark itself, at tiny sizes.

Run with:  python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once at tiny sizes and must pass its checks; every
oracle must then reject a perturbed copy of each output; a traced pass must
give self times within totals, repeat its counts exactly, and leave hml
unpatched afterwards.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import speed
import tracer
import workloads


@pytest.mark.parametrize("family", ["fubini_study", "sphere"])
@pytest.mark.parametrize("m", [4, 6])
def test_exact_coefficients_match_sympy(family, m):
    sp = pytest.importorskip("sympy")
    r = sp.symbols("r")
    f = (sp.sin(r) / r) ** (m - 1) * (sp.cos(r) if family == "fubini_study" else 1)
    series = sp.series(f, r, 0, 7).removeO()
    ref = oracles.reduced_density_coefficients(family, m)
    assert ref == {k: float(series.coeff(r, k)) for k in range(2, 7)}


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _bump_theta(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = repr(float(rows[1][2]) + 1e-5)
    with open(path, "w") as fh:
        csv.writer(fh).writerows(rows)


def _perturbations(op: dict):
    """(description, function making a wrong copy of the output) pairs.

    Each returns the (possibly new) value handed to the check; report files
    are edited in place, so the op is re-run before each perturbation.
    """
    d = op.get("out")
    kind = op["check"]
    if kind == "fs_curvature":
        def scalar(out):
            _edit_json(os.path.join(d, "curvature.json"),
                       lambda r: r.update(scalar_curvature=r["scalar_curvature"] + 1e-4))
            return out
        return [("scalar curvature", scalar)]
    if kind == "fs_harmonic":
        def theta(out):
            _bump_theta(os.path.join(d, "density.csv"))
            return out
        return [("one Theta value", theta)]
    if kind == "not_harmonic":
        def spread(out):
            _edit_json(os.path.join(d, "harmonicity.json"),
                       lambda r: r.update(theta_spread_max=1e-4))
            return out
        return [("theta spread", spread)]
    if kind == "expand":
        def analytic(out):
            _edit_json(os.path.join(d, "expansion.json"),
                       lambda r: r["analytic"].update(H4=r["analytic"]["H4"] + 1e-6))
            return out

        def fitted(out):
            _edit_json(os.path.join(d, "expansion.json"),
                       lambda r: r["fitted"].update(H6=r["fitted"]["H6"] + 1e-4))
            return out
        return [("analytic H4", analytic), ("fitted H6", fitted)]
    if kind == "deform":
        def shot(out):
            def edit(r):
                law = r["density_law"]
                law["shot"][-1] += 1e-4
            _edit_json(os.path.join(d, "deform.json"), edit)
            return out
        return [("shot density", shot)]
    if kind == "h_values":
        return [("H4", lambda out: {**out, 4: out[4] + 1e-6})]
    raise AssertionError(f"no perturbation for {kind}")


@pytest.fixture(params=workloads.WORKLOADS)
def tiny(request, tmp_path):
    plan = workloads.build_plan(request.param, seed=3, tiny=True)
    workloads.write_plan(plan, str(tmp_path))
    for op in plan["ops"]:
        if op["kind"] == "cli":
            os.makedirs(op["out"], exist_ok=True)
    return plan, workloads.make_ops(plan, workloads.setup(plan))


def test_workload_passes_and_oracles_reject_perturbations(tiny):
    plan, ops = tiny
    results = run.run_pass(plan, ops, speed.SpeedMeter(), {})
    assert [ok for _, _, ok in results] == [True] * len(ops)
    for spec, op in zip(plan["ops"], ops):
        out = op.run()
        if spec["kind"] == "cli":
            problems, _ = op.check(out + 1)
            assert problems, f"{op.name}: wrong exit code accepted"
        for what, perturb in _perturbations(spec):
            out = op.run()
            problems, _ = op.check(perturb(out))
            assert problems, f"{op.name}: perturbed {what} accepted"


def test_traced_pass(tiny):
    plan, ops = tiny
    import hml.cli
    from hml.jets import MultiJet

    originals = (hml.cli.main, MultiJet.__mul__)
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr:
            tracer.install(tr)
            results = run.run_pass(plan, ops, speed.SpeedMeter(), {})
        assert all(ok for _, _, ok in results)
        assert (hml.cli.main, MultiJet.__mul__) == originals
        for name, agg in tr.summary().items():
            assert 0.0 <= agg["self_s"] <= agg["total_s"] + 1e-9, name
        layer = tracer.layer_metrics(tr.summary(), tr.counts)
        counts.append((layer["geodesics.rhs_evals"], layer["jets.mul_calls"]))
        assert 0.0 <= tracer.overhead_frac(tr, 1.0) < 1.0
    assert counts[0] == counts[1]
    assert counts[0][1] > 0
    if plan["workload"] != "coefficients":
        assert counts[0][0] > 0


def test_fails_without_sources(tmp_path):
    """A directory holding only the benchmark must exit non-zero, no result."""
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coefficients",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
