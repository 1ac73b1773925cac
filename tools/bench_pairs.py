"""Before/after ledger for hml: alternating perfbench pairs and an RHS A/B.

Usage:
    python3 tools/bench_pairs.py pairs PARENT CHANGE --out BENCH_N.json
        [--label N] [--what TEXT] [--seeds 1001-1010]
    python3 tools/bench_pairs.py ab PARENT CHANGE [--out FILE]
    python3 tools/bench_pairs.py bytes PARENT CHANGE [--out FILE]

PARENT and CHANGE are two checkouts, each with its own src/ and perfbench/.

``pairs`` runs each checkout's own ``perfbench/run.py``, unchanged, on every
workload of the change's BENCHMARK.json for its ``run_seconds``, with
``--trace 0``: one seed per pair on both sides, the parent first on odd
pairs and the change first on even ones.  It writes every run, and per
metric the median, the inclusive quartiles, the pairs the change wins
(by the direction BENCHMARK.json gives) and the median's relative change.

``ab`` imports both checkouts' hml in one process under different names
and times one ``_rhs`` call on the poly-deformed sphere(4) and on its base
sphere(4) at B = 1, 512 and 1024 points (|x| = 0.4), in ROUNDS interleaved
rounds, each side with its own Workspace.  It reports microseconds per call,
the paired change/parent ratio and, per side, the deformed/base ratio.

``bytes`` checks that a change keeps every value.  It imports both
checkouts' hml in one process and hashes, on each chart of BYTES_CHARTS,
the ``tobytes`` of ``value``, ``derivative_arrays`` (orders 0-3, 0-2 at
m = 6), ``curvature_arrays`` and ``_rhs`` (fresh and through a Workspace)
at every batch size of BYTES_BATCHES (the first three at m = 6), and the
curvature bundle (k_max 4, 2 at m = 6) and ``density_coefficients`` at one
point.  It runs both sides' CLI on the change's perfbench plans for the
cli_defaults and wide_sweep workloads at seeds 1-3 and hashes every report
file and exit code.  A call that raises is recorded by its message.  It
reports the number of equal hashes, the total, and each mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROUNDS = 15
DEFORMED_SPHERE4 = {"family": "sphere", "dim": 4,
                    "deform": {"psi": {"kind": "poly", "coeffs": [1.0, 0.25]}}}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "hml").glob("*.py")))


def git_sha(root: Path):
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


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
    roots = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
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
        "parent_sha": git_sha(roots["parent"]),
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
    metric = build(DEFORMED_SPHERE4 if chart == "deformed_sphere4"
                   else {"family": "sphere", "dim": 4}).metric
    rng = np.random.default_rng(B)
    x = rng.normal(size=(B, 4))
    x *= 0.4 / np.linalg.norm(x, axis=1, keepdims=True)
    v = rng.normal(size=(B, 4))
    state = (x, v, rng.normal(size=(B, 4, 3)), rng.normal(size=(B, 3, 3)),
             rng.normal(size=(B, 3, 3)))
    ws = geo.Workspace()
    geo._rhs(metric, state, ws)
    return lambda: geo._rhs(metric, state, ws)


def ab(args) -> dict:
    sides = {"parent": load_hml(Path(args.parent).resolve(), "hml_parent"),
             "change": load_hml(Path(args.change).resolve(), "hml_change")}
    out = {}
    for B, calls in ((1, 200), (512, 10), (1024, 10)):
        fns = {(side, chart): rhs_case(mod.__name__, chart, B)
               for side, mod in sides.items()
               for chart in ("sphere4", "deformed_sphere4")}
        us = {key: [] for key in fns}
        for r in range(ROUNDS):
            keys = list(fns) if r % 2 == 0 else list(fns)[::-1]
            for key in keys:
                t = time.perf_counter()
                for _ in range(calls):
                    fns[key]()
                us[key].append(1e6 * (time.perf_counter() - t) / calls)
        for chart in ("sphere4", "deformed_sphere4"):
            p, c = us["parent", chart], us["change", chart]
            out[f"geodesics.rhs_{chart}_B{B}"] = {
                side: {"us_min": round(min(t)), "us_median":
                       round(statistics.median(t))}
                for side, t in (("parent", p), ("change", c))}
            out[f"geodesics.rhs_{chart}_B{B}"]["paired_ratio_median"] = round(
                statistics.median(b / a for a, b in zip(p, c)), 3)
        out[f"deformed_over_base_B{B}"] = {
            side: round(statistics.median(
                d / b for b, d in zip(us[side, "sphere4"],
                                      us[side, "deformed_sphere4"])), 3)
            for side in sides}
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
    "two_d_family_2_0.3": {"family": "two_d_family", "n": 2, "b": 0.3},
}
BYTES_BATCHES = (None, 1, 16, 300, 512, 1000, 1024)   # None: one (m,) point
BYTES_SEEDS = (1, 2, 3)


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
            if spec["family"] == "two_d_family":    # polar chart: r > 0
                x[..., 0] = np.abs(x[..., 0]) + 0.05
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
                k_max = 2 if m >= 6 else 4
                _record(hashes, f"{chart}/curvature_k{k_max}",
                        lambda: mod["curvature"].curvature(metric, x, k_max))
                _record(hashes, f"{chart}/density_coefficients",
                        lambda: mod["expansion"].density_coefficients(
                            metric, x, mod["geodesics"].g_unit_directions(
                                metric, x, 1)[0]).values)
    return hashes


def report_hashes(alias: str, plans: list) -> dict:
    """Hashes of every report file and the exit code of each CLI op."""
    cli = importlib.import_module(f"{alias}.cli")
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for plan in plans:
            for op in (op for op in plan["ops"] if op["kind"] == "cli"):
                tag = f"cli/{plan['workload']}/seed{plan['seed']}/{op['name']}"
                path = os.path.join(tmp, "manifest.json")
                Path(path).write_text(json.dumps(op["manifest"]))
                out = os.path.join(tmp, tag)
                hashes[f"{tag}/exit"] = str(cli.main(
                    ["--manifest", path, "--out", out]))
                for name in sorted(os.listdir(out) if os.path.isdir(out)
                                   else []):
                    hashes[f"{tag}/{name}"] = hashlib.sha256(
                        Path(out, name).read_bytes()).hexdigest()
    return hashes


def byte_identity(args) -> dict:
    roots = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    spec = importlib.util.spec_from_file_location(
        "bytes_workloads", roots["change"] / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    plans = [workloads.build_plan(w, seed) for w in ("cli_defaults",
                                                     "wide_sweep")
             for seed in BYTES_SEEDS]
    hashes = {}
    for side, root in roots.items():
        alias = load_hml(root, f"hml_{side}").__name__
        hashes[side] = {**array_hashes(alias), **report_hashes(alias, plans)}
        print(f"{side}: {len(hashes[side])} hashes", file=sys.stderr)
    keys = sorted(set(hashes["parent"]) | set(hashes["change"]))
    mismatches = [{"key": key, **{side: hashes[side].get(key)
                                  for side in roots}}
                  for key in keys
                  if hashes["parent"].get(key) != hashes["change"].get(key)]
    return {"equal": len(keys) - len(mismatches), "total": len(keys),
            "mismatches": mismatches}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("pairs", "ab", "bytes"):
        s = sub.add_parser(name)
        s.add_argument("parent")
        s.add_argument("change")
        s.add_argument("--out")
    s = sub.choices["pairs"]
    s.add_argument("--label", default="")
    s.add_argument("--what", default="")
    s.add_argument("--seeds", default="1001-1010")
    args = p.parse_args(argv)
    result = {"pairs": pairs, "ab": ab, "bytes": byte_identity}[args.cmd](args)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
