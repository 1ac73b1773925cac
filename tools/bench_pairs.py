"""Before/after ledger for hml: alternating perfbench pairs and an RHS A/B.

Usage:
    python3 tools/bench_pairs.py pairs PARENT CHANGE --out BENCH_N.json
        [--label N] [--what TEXT] [--seeds 1001-1010]
    python3 tools/bench_pairs.py ab PARENT CHANGE [--out FILE]

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
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import subprocess
import sys
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("pairs", "ab"):
        s = sub.add_parser(name)
        s.add_argument("parent")
        s.add_argument("change")
        s.add_argument("--out")
    s = sub.choices["pairs"]
    s.add_argument("--label", default="")
    s.add_argument("--what", default="")
    s.add_argument("--seeds", default="1001-1010")
    args = p.parse_args(argv)
    result = pairs(args) if args.cmd == "pairs" else ab(args)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
