"""The README's code runs as written."""

import re
from pathlib import Path

from hml.manifest import FAMILIES, METRIC_KEYS

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
