"""hml benchmark: time each workload's analyses to a verified answer.

Usage:
    python3 perfbench/run.py --workload {cli_defaults,wide_sweep,coefficients}
        --seed N --seconds S --trace {0,1}

One client runs the workload's fixed list of analyses as a closed loop:
each analysis starts when the previous one has finished and its output
has been checked against an independent reference (oracles.py).  With
``--trace 0`` it repeats whole passes while another pass still fits in S
seconds (always at least one) and reports the end-to-end metrics.  With
``--trace 1`` it runs one pass with every layer wrapped by tracer.py and
reports the per-layer metrics.  The last line of
standard output is the result object; the line before it records the
environment and every analysis time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import workloads

SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(hml_threads) -> dict:
    import numpy
    import scipy

    src = workloads.SRC / "hml"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {k: os.environ.get(k) for k in _THREAD_VARS},
        "HML_THREADS": os.environ.get("HML_THREADS"),
        "HML_THREADS_at_start": hml_threads,
        "git_sha": _git_sha(workloads.ROOT),
        "src_hml_lines": lines,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_samples(plan_path: str, n: int) -> list:
    """Wall seconds of n fresh interpreters from start to end of set-up."""
    probe = Path(__file__).with_name("probe.py")
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), plan_path],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(wall)
    return samples


def run_pass(plan, ops, meter, stats) -> list:
    """One closed-loop pass; returns [(name, wall seconds, ok)]."""
    workloads.clear_outputs(plan)
    results = []
    for op in ops:
        mark = meter.mark()
        try:
            out = op.run()
        except Exception:  # an analysis that raises counts as failed
            wall = meter.since(mark)
            problems = [traceback.format_exc(limit=3)]
        else:
            wall = meter.since(mark)
            try:
                problems, measured = op.check(out)
            except Exception:  # a report missing or unreadable
                problems, measured = [traceback.format_exc(limit=3)], {}
            for key, val in measured.items():
                stats[key] = max(stats.get(key, 0.0), val)
        for msg in problems:
            print(f"FAILED {op.name}: {msg}", file=sys.stderr)
        results.append((op.name, wall, not problems))
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    # The engine's thread fan-out is not part of what is measured.
    hml_threads = os.environ.pop("HML_THREADS", None)
    workloads.import_hml()
    workdir = tempfile.mkdtemp(prefix="perfbench_", dir=workloads.ROOT)
    try:
        meter = speed.SpeedMeter()
        plan = workloads.build_plan(args.workload, args.seed)
        plan_path = workloads.write_plan(plan, workdir)
        setup = setup_samples(plan_path, SETUP_SAMPLES)
        ops = workloads.make_ops(plan, workloads.setup(plan))
        stats = {}
        passes = []
        if args.trace:
            # Boundary samples only, so no span contains sampler time.
            import tracer as tracer_mod

            tr = tracer_mod.Tracer()
            with tr:
                tracer_mod.install(tr)
                passes.append(run_pass(plan, ops, meter, stats))
        else:
            t_start = time.perf_counter()
            with meter:
                while True:
                    t_pass = time.perf_counter()
                    passes.append(run_pass(plan, ops, meter, stats))
                    now = time.perf_counter()
                    if (now - t_start) + (now - t_pass) > args.seconds:
                        break
        factor = meter.factor()
        # (name, wall s, normalized s, ok) per analysis, per pass
        passes = [[(name, wall, wall / factor, ok) for name, wall, ok in p]
                  for p in passes]
        pass_s = [sum(r[2] for r in p) for p in passes]
        op_results = [r for p in passes for r in p]
        failed = sum(not r[3] for r in op_results)
        setup_s = [wall / factor for wall in setup]
        if args.trace:
            metrics = tracer_mod.layer_metrics(tr.summary(), tr.counts)
            metrics["geodesics.theta_abs_err_max"] = stats.get("theta_abs_err", 0.0)
            metrics["expansion.h_abs_err_max"] = stats.get("h_abs_err", 0.0)
            metrics["trace.overhead_frac"] = tracer_mod.overhead_frac(
                tr, sum(r[1] for r in passes[0]))
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "solve_s": statistics.median(pass_s),
                "op_s_p50": statistics.median(r[2] for r in op_results),
                "ops_ok_frac": 1.0 - failed / len(op_results),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(hml_threads),
            "speed_factor": factor,
            "kernel_samples": len(meter.samples),
            "setup_samples": [{"wall_s": w, "s": s}
                              for w, s in zip(setup, setup_s)],
            "passes": [{"wall_s": sum(r[1] for r in p), "s": s}
                       for p, s in zip(passes, pass_s)],
            "op_s_samples": len(op_results),
            "ops": [{"name": n, "wall_s": w, "s": s, "ok": ok}
                    for n, w, s, ok in op_results],
        }
        print(json.dumps(detail))
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        unit_of = {m["name"]: m["unit"]
                   for m in spec["end_to_end"] + spec["per_layer"]}
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(op_results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of[k]}
                        for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
