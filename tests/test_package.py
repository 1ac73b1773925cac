"""The package root: ``import hml`` binds its submodules and nothing else."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hml

SUBMODULES = ["catalog", "conformal", "conventions", "curvature", "expansion",
              "geodesics", "jets", "metric", "series"]


def test_submodule_import_binds_the_module():
    import hml.curvature as c
    assert type(c) is type(hml) and c.__name__ == "hml.curvature"
    assert callable(c.curvature)


def test_import_loads_exactly_the_nine_submodules():
    # a fresh interpreter: this one has imported hml.cli and more
    script = ("import json, sys, hml; print(json.dumps([sorted(m for m in "
              "sys.modules if m.startswith('hml.')), sorted(n for n in "
              "vars(hml) if not n.startswith('_'))]))")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, env={**os.environ,
                          "PYTHONPATH": str(Path(hml.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    loaded, public = json.loads(proc.stdout)
    assert loaded == [f"hml.{name}" for name in SUBMODULES]
    assert public == SUBMODULES
