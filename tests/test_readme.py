"""The README's code runs as written, and its manifest schema matches the
key tables."""

import inspect
import json
import re
from pathlib import Path

from hml.curvature import curvature
from hml.geodesics import centrally_harmonic_test, density_profile
from hml.manifest import ANALYSIS_KEYS, FAMILIES, METRIC_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md: Library tour", "exec"), {})


def test_readme_metric_keys_name_the_families_that_read_them():
    # a key every family reads (family, deform) names none
    text = README.read_text()
    schema = text[text.index("### Manifest schema"):]
    block = schema[schema.index('"metric": {'):schema.index('"analysis": {')]
    comments = dict(re.findall(r'^\s*"(\w+)":[^/\n]*(?://(.*))?$', block,
                               re.M))
    for key, spec in METRIC_KEYS.items():
        named = {f for f in FAMILIES
                 if re.search(rf"\b{f}\b", comments[key])}
        expected = set() if set(spec.read_by) == set(FAMILIES) else set(
            spec.read_by)
        assert named == expected, key


def test_readme_schema_names_every_key_with_its_default():
    block = re.search(r"### Manifest schema\s+```jsonc\n(.*?)```",
                      README.read_text(), re.S).group(1)
    shown = dict(re.findall(r'^\s*"(\w+)":\s*(.*?),?\s*(?://.*)?$', block, re.M))
    harmonic = inspect.signature(centrally_harmonic_test).parameters
    library = {"directions": harmonic["n_directions"].default,
               "tolerance": harmonic["tolerance"].default,
               "steps": harmonic["steps"].default,
               "k_max": inspect.signature(curvature).parameters[
                   "k_max"].default}
    for key, spec in ANALYSIS_KEYS.items():
        assert key in shown, key
        default = library.get(key, spec.default)
        if default is not None:
            assert json.loads(shown[key]) == default, key
    shoot_steps = inspect.signature(density_profile).parameters["steps"].default
    assert f"{shoot_steps} for expand" in block
    for key in METRIC_KEYS:
        assert f'"{key}":' in block, key
