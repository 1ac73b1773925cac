"""Before/after ledger for hml: alternating perfbench pairs and an RHS A/B.

Usage:
    python3 tools/bench_pairs.py pairs PARENT CHANGE --out BENCH_N.json
        [--label N] [--what TEXT] [--seeds 1001-1010]
    python3 tools/bench_pairs.py ab PARENT CHANGE [--out FILE]
    python3 tools/bench_pairs.py bytes PARENT CHANGE [--out FILE]
    python3 tools/bench_pairs.py cold PARENT CHANGE [--out FILE]
    python3 tools/bench_pairs.py mem PARENT CHANGE [--out FILE]

PARENT and CHANGE are two checkouts, each with its own src/ and perfbench/.
PARENT may instead be a git revision (a SHA, a branch, HEAD~1) of the
repository in the current directory: it is exported with ``git archive``
into a temporary directory, which is removed on exit.

``pairs`` runs each checkout's own ``perfbench/run.py``, unchanged, on every
workload of the change's BENCHMARK.json for its ``run_seconds``, with
``--trace 0``: one seed per pair on both sides, the parent first on odd
pairs and the change first on even ones.  It writes every run, and per
metric the median, the inclusive quartiles, the pairs the change wins
(by the direction BENCHMARK.json gives) and the median's relative change.

``ab`` imports both checkouts' hml in one process under different names
and times one ``_rhs`` call on the poly-deformed sphere(4) and on its base
sphere(4) at B = 1, 512 and 1024 points (|x| = 0.4), and on FS2 and the
trivial-density FS2 at B = 1 and 16, in ROUNDS interleaved rounds, each
side with its own Workspace.  It reports microseconds per call, the paired
change/parent ratio and, per side, the deformed/base ratio.  It times whole
shots the same way (ROUNDS rounds of one shot), one of every shape
cli_defaults runs: ``density_profile`` from the center of sphere(4) and of
the deformed sphere(4) along one g-unit direction, SHOT_STEPS RK4 steps to
the radii of ``deform``'s default grid, and ``check_harmonic``'s shot on
FS2 about its center, with the default directions (16), steps (800) and
radii of ``centrally_harmonic_test``; and the one-direction shot on the
trivial-density FS2, which no perfbench workload runs.  It then times the
curvature bundle layer the same way on BUNDLE_CASES: ``curvature`` on FS2
at k_max 0, 2 and 4 and ``density_coefficients`` at m = 4 and m = 6, each
at one seeded point with |x| = 0.3.

``bytes`` checks that a change keeps every value.  It imports both
checkouts' hml in one process and hashes, on each chart of BYTES_CHARTS,
the ``tobytes`` of ``value``, ``derivative_arrays`` (orders 0-3, 0-2 at
m = 6), ``curvature_arrays`` and ``_rhs`` (fresh and through a Workspace)
at every batch size of BYTES_BATCHES (the first three at m = 6), and the
curvature bundle (k_max 4, and 2 at m = 6) and ``density_coefficients`` at
one point and at the chart's center where the chart contains it.  It
hashes the named fields (SHOT_FIELDS) of ``density_profile`` on FS2 and
the poly-deformed sphere(4), about the center and one other point.  It runs
both sides' CLI on the change's perfbench plans for the cli_defaults and
wide_sweep workloads at seeds 1-3 and on BYTES_MANIFESTS (a trivial-density
fubini_study(2) ``deform``, whose report holds a blow-up fit) and hashes
every report file and exit code.  It runs the change's ``tests/test_cli.py`` once against each side's
src, with the hypothesis draw pinned, and hashes every file it writes,
under its relative path, except the fuzz tests' files (CLI_TREE_SKIP); it
exits if either run fails or writes nothing else.  A call that raises is
recorded by its message.
It reports the number of equal hashes, the total, and each mismatch; a
mismatched JSON report also lists the dotted keys whose values differ,
with ``[i]`` for an item of a list whose length did not change.

``cold`` is the A/B of start-up cost, which only fresh processes can
measure: an import runs once per interpreter, so a same-process A/B would
time the second side's imports as free.  In COLD_ROUNDS alternating
rounds (the parent first in the first round) it starts, for each
checkout, one ``perfbench/probe.py`` per workload on the change's plan
for seed COLD_PLAN_SEED (wall time to its ``ready`` line, as run.py
times ``setup_s``) and one ``python -m hml`` per cli_defaults manifest
and per BYTES_MANIFESTS entry (wall time to exit).  It reports per side
the median and the runs, the median over rounds of the change/parent
ratio, and for each command the exit codes, whether the two sides wrote
the same report bytes, and the scipy subpackages the command loaded, read
in one extra untimed run per side.

``mem`` is the A/B of memory, which also needs fresh processes: a peak
RSS only grows, and a warm cache hides what a first call allocates.  For
each chart of MEM_CHARTS, in MEM_ROUNDS alternating rounds (the parent
first in the first round), each side runs one ``density_coefficients``
call at bundle_case's point and direction in a fresh interpreter and
reports its peak RSS (``ru_maxrss``, as perfbench reads ``peak_rss_mb``)
and wall time.  One more fresh interpreter per side runs the call under
tracemalloc and reports its peak and the bytes the entry_dot plan cache
(``jets._runs``) retains, read as what clearing it frees.  That run also
reports the peak of each phase of the curvature bundle (``riemann_stack``,
``pr_fill``: the rest of ``_jet_partials``, and each ``covariant_step``)
and names the phase that sets the call's peak (``other`` if none does).
M8_CHART, fubini_study(4), gets one untraced run per side (m = 8: 30-60 s
and 0.3-0.4 GB each).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import operator
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path

ROUNDS = 15
SHOT_STEPS = 2000
COLD_ROUNDS = 10
COLD_PLAN_SEED = 1
DEFORMED_SPHERE4 = {"family": "sphere", "dim": 4,
                    "deform": {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}}
RHS_CHARTS = {"sphere4": {"family": "sphere", "dim": 4},
              "deformed_sphere4": DEFORMED_SPHERE4,
              "fs2": {"family": "fubini_study", "cdim": 2},
              "trivial_fs2": {"family": "fubini_study", "cdim": 2, "deform": {
                  "psi": {"kind": "trivial-density"}}}}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "hml").glob("*.py")))


def git_sha(root: Path, rev: str = "HEAD"):
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "--verify",
                          "--quiet", f"{rev}^{{commit}}"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def parent_checkout(parent: str, tmp: str):
    """(root, commit) of PARENT: a checkout directory, or a git revision of
    the repository in the current directory exported into ``tmp``."""
    if Path(parent).is_dir():
        return Path(parent).resolve(), git_sha(Path(parent))
    sha = git_sha(Path.cwd(), parent)
    if sha is None:
        sys.exit(f"PARENT {parent!r} is neither a directory nor a git "
                 f"revision of {Path.cwd()}")
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
    root = Path(tmp, "parent")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    return root, sha


# ---------------------------------------------------------------------------
# alternating perfbench pairs
# ---------------------------------------------------------------------------

def run_perfbench(root: Path, workload: str, seed: int, seconds: float):
    """(record, result) of one perfbench run in the checkout ``root``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    record, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(runs)}


def compare(parent: list, change: list, lower_is_better: bool) -> dict:
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = summary(parent), summary(change)
    frac = ((after["median"] - before["median"]) / before["median"]
            if before["median"] else 0.0)
    return {"parent": before, "change": after, "change_wins": wins,
            "ties": ties, "median_change_frac": frac,
            "parent_runs": parent, "change_runs": change}


def pairs(args) -> dict:
    roots = {"parent": args.parent, "change": Path(args.change).resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        raise SystemExit("pairs: quartiles need at least two seeds")
    factors = {"parent": [], "change": []}
    env = None
    table = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        correct = True
        for i, seed in enumerate(seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in sides:
                record, result = run_perfbench(roots[side], workload, seed,
                                               seconds)
                env = env or {k: v for k, v in record["env"].items()
                              if k not in ("git_sha", "src_hml_lines")}
                factors[side].append(record["speed_factor"])
                runs[side].append({k: v["value"]
                                   for k, v in result["metrics"].items()})
                correct &= result["correct"]
                print(f"{workload} seed {seed} {side}: solve_s "
                      f"{runs[side][-1]['solve_s']:.3f}", file=sys.stderr)
        table[workload] = {
            "pairs": len(seeds), "seeds": seeds,
            "metrics": {name: compare([r[name] for r in runs["parent"]],
                                      [r[name] for r in runs["change"]],
                                      lower[name])
                        for name in lower},
            "all_correct": correct}
    return {
        "label": args.label, "what": args.what,
        "method": (f"tools/bench_pairs.py pairs: perfbench/run.py unchanged, "
                   f"--seconds {seconds:g} --trace 0; {len(seeds)} pairs "
                   f"per workload, seeds {args.seeds}, parent first on odd "
                   f"pairs and change first on even pairs; the same seed on "
                   f"both sides of a pair"),
        "parent_sha": args.parent_sha,
        "environment": env,
        "src_hml_lines": {side: src_lines(root) for side, root in roots.items()},
        "speed_factors": factors,
        "workloads": table,
    }


# ---------------------------------------------------------------------------
# same-process RHS A/B
# ---------------------------------------------------------------------------

def load_hml(root: Path, alias: str):
    """The checkout's hml package, imported under the name ``alias``."""
    pkg = root / "src" / "hml"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def rhs_case(alias: str, chart: str, B: int):
    """A zero-argument call of one warmed RHS evaluation."""
    import numpy as np

    geo = importlib.import_module(f"{alias}.geodesics")
    build = importlib.import_module(f"{alias}.manifest").build_metric
    metric = build(RHS_CHARTS[chart]).metric
    rng = np.random.default_rng(B)
    x = rng.normal(size=(B, 4))
    x *= 0.4 / np.linalg.norm(x, axis=1, keepdims=True)
    v = rng.normal(size=(B, 4))
    state = (x, v, rng.normal(size=(B, 4, 3)), rng.normal(size=(B, 3, 3)),
             rng.normal(size=(B, 3, 3)))
    ws = geo.Workspace()
    geo._rhs(metric, state, ws)
    return lambda: geo._rhs(metric, state, ws)


def shot_case(alias: str, chart: str):
    """A zero-argument call of one whole one-point shot from the center."""
    import numpy as np

    geo = importlib.import_module(f"{alias}.geodesics")
    metric = importlib.import_module(f"{alias}.manifest").build_metric(
        RHS_CHARTS[chart]).metric
    center = np.zeros(metric.dim)
    theta = geo.g_unit_directions(metric, center, 1)
    radii = np.linspace(0.15, 0.75, 5)
    return lambda: geo.density_profile(metric, center, theta, radii,
                                       SHOT_STEPS)


def harmonic_shot_case(alias: str):
    """A zero-argument call of check_harmonic's whole shot on FS2: its
    default directions, steps and radii about the center."""
    import numpy as np

    geo = importlib.import_module(f"{alias}.geodesics")
    metric = importlib.import_module(f"{alias}.manifest").build_metric(
        RHS_CHARTS["fs2"]).metric
    center = np.zeros(metric.dim)
    defaults = inspect.signature(geo.centrally_harmonic_test).parameters
    directions = geo.g_unit_directions(metric, center,
                                       defaults["n_directions"].default)
    r_max = min(geo.R_MAX, 0.45 * metric.injectivity_radius)
    radii = np.geomspace(r_max / 4.0, r_max, geo.N_RADII)
    steps = defaults["steps"].default
    return lambda: geo.density_profile(metric, center, directions, radii,
                                       steps)


# name: (chart, k_max for a curvature bundle or None for
# density_coefficients, calls per round, rounds)
BUNDLE_CASES = {
    "curvature_fs2_k0": ({"family": "fubini_study", "cdim": 2}, 0, 100, ROUNDS),
    "curvature_fs2_k2": ({"family": "fubini_study", "cdim": 2}, 2, 20, ROUNDS),
    "curvature_fs2_k4": ({"family": "fubini_study", "cdim": 2}, 4, 3, ROUNDS),
    "density_fs2": ({"family": "fubini_study", "cdim": 2}, None, 3, ROUNDS),
    "density_sphere4": ({"family": "sphere", "dim": 4}, None, 3, ROUNDS),
    "density_sphere6": ({"family": "sphere", "dim": 6}, None, 1, 7),
    "density_fubini_study3": ({"family": "fubini_study", "cdim": 3}, None, 1, 7),
}


def bundle_case(alias: str, spec: dict, k_max):
    """A zero-argument call of one warmed bundle or density_coefficients."""
    import numpy as np

    curvature = importlib.import_module(f"{alias}.curvature").curvature
    expansion = importlib.import_module(f"{alias}.expansion")
    metric = importlib.import_module(f"{alias}.manifest").build_metric(
        spec).metric
    rng = np.random.default_rng(metric.dim)
    x = rng.normal(size=metric.dim)
    x *= 0.3 / np.linalg.norm(x)
    xi = rng.normal(size=metric.dim)
    call = ((lambda: curvature(metric, x, k_max)) if k_max is not None else
            (lambda: expansion.density_coefficients(metric, x, xi)))
    call()
    return call


def interleaved(fns: dict, calls: int, rounds: int) -> dict:
    """Microseconds per call of each function, one entry per round.

    The functions run in turn, in reversed order on odd rounds.
    """
    us = {key: [] for key in fns}
    for r in range(rounds):
        for key in list(fns) if r % 2 == 0 else list(fns)[::-1]:
            t = time.perf_counter()
            for _ in range(calls):
                fns[key]()
            us[key].append(1e6 * (time.perf_counter() - t) / calls)
    return us


def paired(parent: list, change: list) -> dict:
    return {**{side: {"us_min": round(min(t)),
                      "us_median": round(statistics.median(t))}
               for side, t in (("parent", parent), ("change", change))},
            "paired_ratio_median": round(statistics.median(
                b / a for a, b in zip(parent, change)), 3)}


def ab(args) -> dict:
    sides = {"parent": load_hml(args.parent, "hml_parent"),
             "change": load_hml(Path(args.change).resolve(), "hml_change")}
    out = {}
    for B, calls in ((1, 200), (512, 10), (1024, 10)):
        fns = {(side, chart): rhs_case(mod.__name__, chart, B)
               for side, mod in sides.items()
               for chart in ("sphere4", "deformed_sphere4")}
        us = interleaved(fns, calls, ROUNDS)
        for chart in ("sphere4", "deformed_sphere4"):
            out[f"geodesics.rhs_{chart}_B{B}"] = paired(us["parent", chart],
                                                        us["change", chart])
        out[f"deformed_over_base_B{B}"] = {
            side: round(statistics.median(
                d / b for b, d in zip(us[side, "sphere4"],
                                      us[side, "deformed_sphere4"])), 3)
            for side in sides}
    for B, calls in ((1, 200), (16, 100)):
        for chart in ("fs2", "trivial_fs2"):
            fns = {side: rhs_case(mod.__name__, chart, B)
                   for side, mod in sides.items()}
            us = interleaved(fns, calls, ROUNDS)
            out[f"geodesics.rhs_{chart}_B{B}"] = paired(us["parent"],
                                                        us["change"])
    shots = {f"geodesics.shot_{chart}": partial(shot_case, chart=chart)
             for chart in ("sphere4", "deformed_sphere4", "trivial_fs2")}
    shots["geodesics.shot_fs2_B16"] = harmonic_shot_case
    for name, case in shots.items():
        fns = {side: case(mod.__name__) for side, mod in sides.items()}
        us = interleaved(fns, 1, ROUNDS)
        out[name] = paired(us["parent"], us["change"])
        print(f"ab {name}: {out[name]}", file=sys.stderr)
    for name, (spec, k_max, calls, rounds) in BUNDLE_CASES.items():
        fns = {side: bundle_case(mod.__name__, spec, k_max)
               for side, mod in sides.items()}
        us = interleaved(fns, calls, rounds)
        out[f"curvature.{name}"] = paired(us["parent"], us["change"])
        print(f"ab {name}: {out[f'curvature.{name}']}", file=sys.stderr)
    return out


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

_POLY = {"kind": "poly", "coeffs": [1.0, 0.2, 0.05]}
BYTES_CHARTS = {
    "fubini_study2": {"family": "fubini_study", "cdim": 2},
    "fubini_study3": {"family": "fubini_study", "cdim": 3},
    "sphere4": {"family": "sphere", "dim": 4},
    "sphere6": {"family": "sphere", "dim": 6},
    "deformed_sphere4": DEFORMED_SPHERE4,
    "sphere3_trivial_density": {"family": "sphere", "dim": 3, "deform": {
        "psi": {"kind": "trivial-density"}}},
    "fubini_study2_trivial_density": {"family": "fubini_study", "cdim": 2,
                                      "deform": {"psi": {
                                          "kind": "trivial-density"}}},
    "euclidean3": {"family": "euclidean", "dim": 3},
    "deformed_euclidean3": {"family": "euclidean", "dim": 3,
                            "deform": {"psi": _POLY}},
    "space_form_1_0.25_3": {"family": "space_form", "a": 1.0, "b": 0.25,
                            "dim": 3},
    "deformed_space_form_1_0.25_3": {"family": "space_form", "a": 1.0,
                                     "b": 0.25, "dim": 3,
                                     "deform": {"psi": _POLY}},
    "space_form_0.5_-0.5_4": {"family": "space_form", "a": 0.5, "b": -0.5,
                              "dim": 4},
}
BYTES_BATCHES = (None, 1, 16, 300, 512, 1000, 1024)   # None: one (m,) point
BYTES_SEEDS = (1, 2, 3)
# run through both sides' CLI next to the perfbench plans, none of which
# writes the blow-up section of a trivial-density fubini_study's deform
BYTES_MANIFESTS = {"deform_fubini_study2_trivial_density": {
    "metric": BYTES_CHARTS["fubini_study2_trivial_density"],
    "analysis": {"command": "deform"}}}


def digest(obj) -> str:
    """sha256 over the dtype, shape and bytes of every array in ``obj``.

    Lists, tuples, dicts and dataclasses are walked in order; any other
    value enters by its repr.
    """
    import numpy as np

    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype.str}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, (list, tuple)):
            for item in o:
                feed(item)
        elif isinstance(o, dict):
            for key in sorted(o):
                h.update(repr(key).encode())
                feed(o[key])
        elif dataclasses.is_dataclass(o):
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def _record(hashes: dict, key: str, call):
    try:
        hashes[key] = digest(call())
    except Exception as exc:        # the same failure on both sides is equal
        hashes[key] = f"{type(exc).__name__}: {exc}"


def array_hashes(alias: str) -> dict:
    """Hashes of every layer's output on BYTES_CHARTS, keyed by call."""
    import numpy as np

    mod = {name: importlib.import_module(f"{alias}.{name}") for name in (
        "curvature", "expansion", "geodesics", "manifest", "metric")}
    Workspace = mod["metric"].Workspace
    hashes = {}
    for i, (chart, spec) in enumerate(BYTES_CHARTS.items()):
        metric = mod["manifest"].build_metric(spec).metric
        m = metric.dim
        rng = np.random.default_rng(i)
        for B in BYTES_BATCHES[:3] if m >= 6 else BYTES_BATCHES:
            shape = (m,) if B is None else (B, m)
            x = rng.normal(size=shape)
            x *= (rng.uniform(0.05, 0.45, size=shape[:-1] + (1,))
                  / np.linalg.norm(x, axis=-1, keepdims=True))
            state = (x, rng.normal(size=shape),
                     rng.normal(size=shape + (m - 1,)),
                     rng.normal(size=shape[:-1] + (m - 1, m - 1)),
                     rng.normal(size=shape[:-1] + (m - 1, m - 1)))
            tag = f"{chart}/B={'unbatched' if B is None else B}"
            ws = Workspace()
            _record(hashes, f"{tag}/value", lambda: metric.value(x))
            for d in range(3 if m >= 6 else 4):
                _record(hashes, f"{tag}/derivative_arrays{d}",
                        lambda: metric.derivative_arrays(x, d))
                _record(hashes, f"{tag}/derivative_arrays{d}/ws",
                        lambda: metric.derivative_arrays(x, d, ws))
            arrays = mod["curvature"].curvature_arrays
            _record(hashes, f"{tag}/curvature_arrays",
                    lambda: arrays(metric, x))
            _record(hashes, f"{tag}/curvature_arrays/ws",
                    lambda: arrays(metric, x, ws))
            rhs = mod["geodesics"]._rhs
            _record(hashes, f"{tag}/_rhs", lambda: rhs(metric, state))
            _record(hashes, f"{tag}/_rhs/ws", lambda: rhs(metric, state, ws))
            if B is None:
                bundle_hashes(hashes, mod, chart, metric, x)
        center = np.zeros(m)
        if metric.contains(center):     # the exact zeros of the reports
            bundle_hashes(hashes, mod, f"{chart}/center", metric, center)
    return hashes


def bundle_hashes(hashes: dict, mod: dict, tag: str, metric, x):
    """Hashes of the curvature bundles and density_coefficients at x."""
    for k_max in (2, 4) if metric.dim >= 6 else (4,):
        _record(hashes, f"{tag}/curvature_k{k_max}",
                lambda: mod["curvature"].curvature(metric, x, k_max))
    _record(hashes, f"{tag}/density_coefficients",
            lambda: mod["expansion"].density_coefficients(
                metric, x, mod["geodesics"].g_unit_directions(
                    metric, x, 1)[0]).values)


# density_profile's outputs, hashed by named field: a field that goes
# unread and is deleted drops out of the list instead of reading as a change.
SHOT_CHARTS = ("fubini_study2", "deformed_sphere4")
SHOT_FIELDS = ("center", "radii", "directions", "theta", "xi", "umbilicity",
               "conjugate", "energy_error", "largest_safe_radius")


def shot_hashes(alias: str) -> dict:
    """Hashes of SHOT_FIELDS of density_profile on SHOT_CHARTS, about the
    center and an off-center point, 50 RK4 steps to radius 0.6."""
    import numpy as np

    geo = importlib.import_module(f"{alias}.geodesics")
    build = importlib.import_module(f"{alias}.manifest").build_metric
    read = operator.attrgetter(*SHOT_FIELDS)
    hashes = {}
    for chart in SHOT_CHARTS:
        metric = build(BYTES_CHARTS[chart]).metric
        for where, P in (("center", np.zeros(metric.dim)),
                         ("off", np.full(metric.dim, 0.1))):
            dirs = geo.g_unit_directions(metric, P, 8)
            _record(hashes, f"shot/{chart}/{where}/density_profile",
                    lambda: read(geo.density_profile(
                        metric, P, dirs, [0.2, 0.4, 0.6], 50)))
    return hashes


def report_hashes(alias: str, plans: list, texts: dict) -> dict:
    """Hashes of every report file and the exit code of each CLI op of the
    plans and of BYTES_MANIFESTS; the text of each JSON report goes into
    ``texts`` under its key."""
    cli = importlib.import_module(f"{alias}.cli")
    runs = [(f"cli/{plan['workload']}/seed{plan['seed']}/{op['name']}",
             op["manifest"])
            for plan in plans for op in plan["ops"] if op["kind"] == "cli"]
    runs += [(f"cli/fixed/{name}", doc)
             for name, doc in BYTES_MANIFESTS.items()]
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tag, doc in runs:
            path = os.path.join(tmp, "manifest.json")
            Path(path).write_text(json.dumps(doc))
            out = os.path.join(tmp, tag)
            hashes[f"{tag}/exit"] = str(cli.main(
                ["--manifest", path, "--out", out]))
            for name in sorted(os.listdir(out) if os.path.isdir(out)
                               else []):
                hashes[f"{tag}/{name}"] = _file_hash(
                    Path(out, name), f"{tag}/{name}", texts)
    return hashes


def _file_hash(path: Path, key: str, texts: dict) -> str:
    """sha256 of a file; a JSON file's text is kept in ``texts[key]``."""
    data = path.read_bytes()
    if path.suffix == ".json":
        texts[key] = data.decode()
    return hashlib.sha256(data).hexdigest()


def moved_keys(a, b, at: str = "") -> list:
    """The dotted keys whose values differ between two JSON documents; a
    list of unchanged length is followed into its items, as ``key[i]``."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [k for i, (x, y) in enumerate(zip(a, b))
                for k in moved_keys(x, y, f"{at}[{i}]")]
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [at]
    missing = object()
    return [k for key in sorted(set(a) | set(b))
            for k in moved_keys(a.get(key, missing), b.get(key, missing),
                                f"{at}.{key}" if at else key)]


# The fuzz tests' files and directories: their draws follow the literals in
# src/hml, so they differ between checkouts that keep every value.
CLI_TREE_SKIP = {"fuzz.json", "valid.json", "valid"}


def cli_tree_hashes(change: Path, root: Path, tmp: str, side: str,
                    texts: dict) -> dict:
    """Hashes of the files the change's test_cli.py writes with root's src,
    with the text of each JSON file in ``texts``.

    Exits unless the run passes and writes some file outside CLI_TREE_SKIP:
    two runs that fail alike would otherwise compare equal over less."""
    base, cwd = Path(tmp, side), Path(tmp, f"{side}_cwd")
    cwd.mkdir()     # each side's run keeps its hypothesis database apart
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(change / "tests" / "test_cli.py"),
         "-q", "-p", "no:cacheprovider", "--hypothesis-seed=1",
         f"--basetemp={base}", "-o", f"pythonpath={root / 'src'}"],
        cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{side}: test_cli.py exited {proc.returncode}\n"
                 f"{proc.stdout[-4000:]}{proc.stderr}")
    hashes = {}
    for path in sorted(base.rglob("*")):
        rel = path.relative_to(base)
        if path.is_file() and not CLI_TREE_SKIP & set(rel.parts):
            key = f"test_cli/{rel.as_posix()}"
            hashes[key] = _file_hash(path, key, texts)
    if not hashes:
        sys.exit(f"{side}: test_cli.py wrote no file to compare")
    return hashes


def load_workloads(root: Path):
    """The checkout's ``perfbench/workloads.py``, which builds the plans."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def byte_identity(args) -> dict:
    roots = {"parent": args.parent, "change": Path(args.change).resolve()}
    workloads = load_workloads(roots["change"])
    plans = [workloads.build_plan(w, seed) for w in ("cli_defaults",
                                                     "wide_sweep")
             for seed in BYTES_SEEDS]
    hashes, texts = {}, {side: {} for side in roots}
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in roots.items():
            alias = load_hml(root, f"hml_{side}").__name__
            hashes[side] = {**array_hashes(alias), **shot_hashes(alias),
                            **report_hashes(alias, plans, texts[side]),
                            **cli_tree_hashes(roots["change"], root, tmp,
                                              side, texts[side])}
            print(f"{side}: {len(hashes[side])} hashes", file=sys.stderr)
    keys = sorted(set(hashes["parent"]) | set(hashes["change"]))
    mismatches = [{"key": key, **{side: hashes[side].get(key)
                                  for side in roots}}
                  for key in keys
                  if hashes["parent"].get(key) != hashes["change"].get(key)]
    for entry in mismatches:
        if all(entry["key"] in texts[side] for side in roots):
            entry["moved_keys"] = moved_keys(
                *(json.loads(texts[side][entry["key"]]) for side in roots))
    return {"equal": len(keys) - len(mismatches), "total": len(keys),
            "mismatches": mismatches}


# ---------------------------------------------------------------------------
# fresh-process start-up A/B
# ---------------------------------------------------------------------------

# runs hml's __main__ as ``python -m hml`` does, then prints the scipy
# subpackages it loaded as the last line of stderr
_SCIPY_LOADED = """
import json, runpy, sys
sys.argv[0] = "hml"
try:
    runpy.run_module("hml", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.startswith("scipy.") and name.count(".") == 1
                        and not name.split(".")[1].startswith("_")
                        and hasattr(mod, "__path__"))), file=sys.stderr)
"""


def probe_wall(root: Path, plan_path: str) -> float:
    """Seconds from starting ``root``'s set-up probe to its ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "perfbench/probe.py", plan_path],
                            cwd=root, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed in {root}")
    return wall


def hml_run(root: Path, argv: list, prefix=("-m", "hml")):
    """(wall seconds, exit code, stderr) of one fresh ``python -m hml``.

    ``prefix`` replaces ``-m hml``, as with ``-c _SCIPY_LOADED``.
    """
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *prefix, *argv], cwd=root, env=env,
                         capture_output=True, text=True)
    return time.perf_counter() - t0, out.returncode, out.stderr


def _paired(runs: dict) -> dict:
    return {**{side: {"median_s": round(statistics.median(t), 4),
                      "runs_s": [round(x, 4) for x in t]}
               for side, t in runs.items()},
            "paired_ratio_median": round(statistics.median(
                c / p for p, c in zip(runs["parent"], runs["change"])), 3)}


def cold(args) -> dict:
    roots = {"parent": args.parent, "change": Path(args.change).resolve()}
    workloads = load_workloads(roots["change"])
    with tempfile.TemporaryDirectory() as tmp:
        plans = {}
        for name in workloads.WORKLOADS:
            os.makedirs(os.path.join(tmp, name))
            plan = workloads.build_plan(name, COLD_PLAN_SEED)
            plans[name] = workloads.write_plan(plan, os.path.join(tmp, name))
            if name == "cli_defaults":
                commands = {op["name"]: op["manifest_path"]
                            for op in plan["ops"]}
        for name, doc in BYTES_MANIFESTS.items():
            commands[name] = os.path.join(tmp, f"{name}.json")
            Path(commands[name]).write_text(json.dumps(doc))
        probes = {name: {"parent": [], "change": []} for name in plans}
        clis = {name: {"parent": [], "change": []} for name in commands}
        exits = {name: {"parent": set(), "change": set()} for name in commands}
        for r in range(COLD_ROUNDS):
            for side in ("parent", "change") if r % 2 == 0 else ("change",
                                                               "parent"):
                for name, path in plans.items():
                    probes[name][side].append(probe_wall(roots[side], path))
                for name, path in commands.items():
                    out = os.path.join(tmp, side, name)
                    wall, code, _ = hml_run(
                        roots[side], ["--manifest", path, "--out", out])
                    clis[name][side].append(wall)
                    exits[name][side].add(code)
            print(f"cold round {r + 1}/{COLD_ROUNDS}", file=sys.stderr)
        result = {"rounds": COLD_ROUNDS, "plan_seed": COLD_PLAN_SEED,
                  "probe": {name: _paired(t) for name, t in probes.items()},
                  "cli": {}}
        for name, path in commands.items():
            files = {side: {f: Path(tmp, side, name, f).read_bytes()
                            for f in sorted(os.listdir(Path(tmp, side, name)))}
                     for side in roots}
            loaded = {side: json.loads(hml_run(
                root, ["--manifest", path, "--out", os.path.join(tmp, "x")],
                prefix=("-c", _SCIPY_LOADED))[2].splitlines()[-1])
                for side, root in roots.items()}
            result["cli"][name] = {
                **_paired(clis[name]),
                "exit_codes": {side: sorted(c) for side, c in
                               exits[name].items()},
                "reports_equal": files["parent"] == files["change"],
                "scipy_loaded": loaded}
    return result


# ---------------------------------------------------------------------------
# fresh-process memory A/B
# ---------------------------------------------------------------------------

MEM_ROUNDS = 3
MEM_CHARTS = {"fubini_study2": {"family": "fubini_study", "cdim": 2},
              "sphere4": {"family": "sphere", "dim": 4},
              "fubini_study3": {"family": "fubini_study", "cdim": 3},
              "sphere6": {"family": "sphere", "dim": 6}}
M8_CHART = {"fubini_study4": {"family": "fubini_study", "cdim": 4}}

# one density_coefficients call at bundle_case's point and direction;
# argv: the chart spec as JSON, then "rss" or "traced"; prints one JSON line
_MEM_CALL = """
import json, resource, sys, time, tracemalloc
import numpy as np
from hml import curvature, jets
from hml.expansion import density_coefficients
from hml.manifest import build_metric
metric = build_metric(json.loads(sys.argv[1])).metric
rng = np.random.default_rng(metric.dim)
x = rng.normal(size=metric.dim)
x *= 0.3 / np.linalg.norm(x)
xi = rng.normal(size=metric.dim)
traced = sys.argv[2] == "traced"
phases, top = {}, [0]


def mark(name=None):
    # ends a span of the call: its peak enters the call's, and name's list
    peak = tracemalloc.get_traced_memory()[1]
    top[0] = max(top[0], peak)
    if name:
        phases.setdefault(name, []).append(peak)
    tracemalloc.reset_peak()


def spanned(fn, name):
    def run(*args):
        mark()
        out = fn(*args)
        mark(name)
        return out
    return run


if traced:
    # _jet_partials' span after _riemann_stack's is the PR fill (and DGam)
    for fn, name in (("_riemann_stack", "riemann_stack"),
                     ("_jet_partials", "pr_fill"),
                     ("_covariant_step", "covariant_step")):
        setattr(curvature, fn, spanned(getattr(curvature, fn), name))
    tracemalloc.start()
t = time.perf_counter()
density_coefficients(metric, x, xi)
out = {"wall_s": time.perf_counter() - t,
       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if traced:
    mark()
    current = tracemalloc.get_traced_memory()[0]
    jets._runs.cache_clear()
    out = {"tracemalloc_peak_mib": top[0] / 2 ** 20, "plan_cache_mib":
           (current - tracemalloc.get_traced_memory()[0]) / 2 ** 20,
           "phase_peaks_mib": {k: [round(p / 2 ** 20, 3) for p in v]
                               for k, v in phases.items()},
           "peak_phase": next((k for k, v in phases.items()
                               if max(v) == top[0]), "other")}
print(json.dumps(out))
"""


def mem_call(root: Path, spec: dict, mode: str) -> dict:
    """The JSON line of one fresh ``_MEM_CALL`` in ``root``'s src."""
    out = subprocess.run([sys.executable, "-c", _MEM_CALL, json.dumps(spec),
                          mode], cwd=root, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    if out.returncode != 0:
        raise RuntimeError(f"mem call failed in {root}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def mem(args) -> dict:
    roots = {"parent": args.parent, "change": Path(args.change).resolve()}
    result = {"rounds": MEM_ROUNDS, "charts": {}}
    for name, spec in {**MEM_CHARTS, **M8_CHART}.items():
        runs = {"parent": [], "change": []}
        for r in range(1 if name in M8_CHART else MEM_ROUNDS):
            for side in ("parent", "change") if r % 2 == 0 else ("change",
                                                               "parent"):
                runs[side].append(mem_call(roots[side], spec, "rss"))
        entry = {side: {key: round(statistics.median(run[key] for run in t),
                                   3) for key in ("peak_rss_mb", "wall_s")}
                 for side, t in runs.items()}
        for side, t in runs.items():
            entry[side]["peak_rss_mb_runs"] = [round(run["peak_rss_mb"], 3)
                                               for run in t]
            if name not in M8_CHART:
                entry[side].update({key: round(v, 3) if isinstance(
                    v, float) else v for key, v in mem_call(
                    roots[side], spec, "traced").items()})
        result["charts"][name] = entry
        print(f"mem {name}: {entry}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("pairs", "ab", "bytes", "cold", "mem"):
        s = sub.add_parser(name)
        s.add_argument("parent")
        s.add_argument("change")
        s.add_argument("--out")
    s = sub.choices["pairs"]
    s.add_argument("--label", default="")
    s.add_argument("--what", default="")
    s.add_argument("--seeds", default="1001-1010")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        args.parent, args.parent_sha = parent_checkout(args.parent, tmp)
        result = {"pairs": pairs, "ab": ab, "bytes": byte_identity,
                  "cold": cold, "mem": mem}[args.cmd](args)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
