"""Cold start: ``import hml`` loads no scipy; each command only what it calls.

Each load check runs in a fresh interpreter, since the test process has long
imported scipy; the last test reads the source, where the README's list of
lazy scipy imports must match it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hml

ENV = {**os.environ, "PYTHONPATH": str(Path(hml.__file__).parents[1])}
README = Path(__file__).resolve().parents[1] / "README.md"


def scipy_loaded(script: str, *argv) -> list:
    """The scipy modules in sys.modules after running ``script``."""
    script += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
               "sys.modules if m.startswith('scipy'))))")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_build_and_first_call_load_no_scipy():
    # every catalog family, poly deformations and trivial-density charts
    loaded = scipy_loaded("""
import numpy as np
import hml, hml.cli
from hml.curvature import curvature_arrays
from hml.manifest import build_metric

poly = {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}
trivial = {"psi": {"kind": "trivial-density"}}
for spec in [{"family": "euclidean", "dim": 3},
             {"family": "space_form", "a": 1.0, "b": 0.25, "dim": 3},
             {"family": "space_form", "a": 0.5, "b": -0.5, "dim": 4},
             {"family": "sphere", "dim": 4},
             {"family": "fubini_study", "cdim": 2},
             {"family": "two_d_family", "n": 2, "b": 0.3},
             {"family": "sphere", "dim": 4, "deform": poly},
             {"family": "euclidean", "dim": 3, "deform": poly},
             {"family": "fubini_study", "cdim": 2, "deform": trivial},
             {"family": "sphere", "dim": 4, "deform": trivial},
             {"family": "space_form", "a": 1.0, "b": 0.25, "dim": 3,
              "deform": trivial}]:
    metric = build_metric(spec).metric
    x = np.full(metric.dim, 0.1)
    x[0] = 0.3
    curvature_arrays(metric, x)
""")
    assert loaded == []


def cli_scipy_loaded(tmp_path, doc: dict) -> list:
    """The scipy modules in sys.modules after one CLI run of ``doc``."""
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    return scipy_loaded("""
import sys
import hml.cli
assert hml.cli.main(["--manifest", sys.argv[1], "--out", sys.argv[2]]) == 0
""", str(manifest), str(tmp_path / "out"))


def test_check_harmonic_loads_neither_integrate_interpolate_nor_optimize(
        tmp_path):
    loaded = cli_scipy_loaded(tmp_path, {
        "metric": {"family": "fubini_study", "cdim": 2},
        "analysis": {"command": "check_harmonic", "directions": 4,
                     "steps": 40}})
    assert "scipy.special" in loaded
    assert not {"scipy.integrate", "scipy.interpolate",
                "scipy.optimize"} & set(loaded)


def test_deform_loads_neither_interpolate_nor_optimize(tmp_path):
    # psi's zero test is a grid sign test with no root finder behind it,
    # and the reparametrization's Hermite splines are numpy's arithmetic
    loaded = cli_scipy_loaded(tmp_path, {
        "metric": {"family": "sphere", "dim": 4, "deform": {
            "psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}},
        "analysis": {"command": "deform", "steps": 200}})
    assert "scipy.special" in loaded
    assert not {"scipy.integrate", "scipy.interpolate",
                "scipy.optimize"} & set(loaded)


def _is_scipy(node) -> bool:
    return isinstance(node, ast.ImportFrom) and (
        node.module or "").split(".")[0] == "scipy"


def test_readme_lists_every_lazy_scipy_import():
    # each `from scipy... import` in src/hml sits inside a function, and the
    # README sentence on lazy imports names what they import and nothing
    # else but the functions that hold them
    text = README.read_text()
    sentence = text[text.index("Each scipy name is"):
                    text.index("so a command pays")]
    listed = set(re.findall(r"`(\w+)`", sentence))
    imported, holders = set(), set()
    for path in sorted(Path(hml.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in filter(_is_scipy, ast.walk(fn)):
                    inside.add(id(node))
                    imported.update(a.name for a in node.names)
                    holders.add(fn.name)
        for node in filter(_is_scipy, ast.walk(tree)):
            assert id(node) in inside, f"{path.name}:{node.lineno} at top level"
    assert imported <= listed, imported - listed
    assert listed <= imported | holders, listed - imported - holders
