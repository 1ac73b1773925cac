"""Outside-in span recorder for the traced run.

hml has no instrumentation of its own, so the traced run replaces public
functions with timing wrappers from outside.  Each function is patched
under the name its caller looks it up by: ``hml.geodesics.curvature_arrays``
and ``hml.curvature.curvature_arrays`` are separate bindings of one
function, ``ChartMetric.derivative_arrays`` is patched on the class, and
so on.  Spans are kept in memory as ``[name, start, end, parent, outer]``;
``outer`` is false when a span of the same name is already open, so totals
never count a recursive call twice.  ``MultiJet`` products are counted
without timing, because there are hundreds of thousands of them.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


class Tracer:
    """Spans and call counts of patched functions; ``restore`` unpatches."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open = Counter()
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, on_call=None):
        """Time every call of ``owner.attr`` as a span called ``name``."""
        orig = getattr(owner, attr)
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self.counts, args)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   open_[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                rec[2] = clock()

        self._patch(owner, attr, wrapper)

    def count(self, owner, attrs, name):
        """Count calls of ``owner.attr`` for each attr in ``attrs``."""
        counts = self.counts
        for attr in attrs:
            orig = getattr(owner, attr)

            def wrapper(*args, orig=orig):
                counts[name] += 1
                return orig(*args)

            self._patch(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over every recorded span.

        total_s sums the outermost spans of each name; self_s sums each
        span's duration minus the durations of its direct children.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, outer in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = {}
        for (name, start, end, parent, outer), child in zip(self.spans, children):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child
            if outer:
                agg["total_s"] += end - start
        return out


def wrapper_cost_s(calls: int = 20000) -> tuple:
    """Extra seconds per call that a span wrapper and a count wrapper add."""
    class Probe:
        def timed(self):
            return None

        def counted(self, other):
            return None

    probe = Probe()

    def loop(fn, *args):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        return (time.perf_counter() - t0) / calls

    base = min(loop(probe.timed) for _ in range(3))
    with Tracer() as t:
        t.span(Probe, "timed", "probe")
        t.count(Probe, ("counted",), "probe")
        span = min(loop(probe.timed) for _ in range(3))
        count = min(loop(probe.counted, None) for _ in range(3))
    return max(span - base, 0.0), max(count - base, 0.0)


def overhead_frac(tracer: Tracer, traced_s: float) -> float:
    """Tracer cost as a share of the untraced time of a traced pass.

    Estimated as calls times calibrated wrapper cost, so a traced run needs
    no untraced twin pass.
    """
    span_s, count_s = wrapper_cost_s()
    n_counts = tracer.counts["jets.mul"] + tracer.counts["curvature.sectional"]
    extra = len(tracer.spans) * span_s + n_counts * count_s
    return extra / (traced_s - extra)


def _count_rhs(counts, args):
    x = args[1]
    counts["geodesics.rhs_evals"] += 1
    counts["geodesics.rhs_dir_evals"] += max(1, x.size // x.shape[-1])


def install(tracer: Tracer):
    """Wrap every layer the benchmark reports on; undone by tracer.restore()."""
    from hml.conformal import RadialFunction
    from hml.jets import MultiJet
    from hml.metric import ChartMetric

    # hml/__init__ rebinds the name hml.curvature to the function, so the
    # modules are taken from the import system rather than as attributes.
    mod = {name: importlib.import_module(f"hml.{name}") for name in (
        "cli", "conformal", "curvature", "expansion", "geodesics", "jets",
        "manifest")}
    t = tracer
    t.span(ChartMetric, "derivative_arrays", "metric.derivative_arrays")
    t.span(ChartMetric, "component_jets", "metric.component_jets")
    t.span(ChartMetric, "contains", "metric.contains")
    for fn in ("cos_sqrt", "sinc_sqrt", "sin_sq_sqrt_over_t",
               "t_minus_sinsq_over_t2", "powf", "sqrt", "atan_sqrt_sq",
               "atan", "sin", "cos", "exp", "log"):
        t.span(mod["jets"], fn, "jets.analytic")
    t.count(MultiJet, ("__mul__", "__rmul__"), "jets.mul")
    t.span(mod["curvature"], "curvature_arrays", "curvature.arrays")
    t.span(mod["geodesics"], "curvature_arrays", "curvature.arrays",
           on_call=_count_rhs)
    for module in (mod["cli"], mod["geodesics"], mod["expansion"], mod["conformal"]):
        t.span(module, "curvature", "curvature.bundle")
    t.count(mod["cli"], ("sectional_curvature",), "curvature.sectional")
    t.span(mod["geodesics"], "density_profile", "geodesics.profile")
    t.span(mod["expansion"], "density_coefficients", "expansion.coefficients")
    t.span(RadialFunction, "compose_jet", "conformal.compose_jet")
    t.span(mod["conformal"], "reparametrize", "conformal.reparametrize")
    t.span(mod["conformal"], "deformed_density", "conformal.deformed_density")
    t.span(mod["cli"], "fit_radial_expansion", "series.fit")
    t.span(mod["manifest"], "load", "manifest.build")
    t.span(mod["manifest"], "build_metric", "manifest.build")
    t.span(mod["cli"], "main", "cli")


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer figures named in BENCHMARK.json, 0 for a layer not run."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    dir_evals = counts["geodesics.rhs_dir_evals"]
    profile_s = get("geodesics.profile", "total_s")
    return {
        "metric.derivative_arrays_calls": get("metric.derivative_arrays", "calls"),
        "metric.derivative_arrays_self_s": get("metric.derivative_arrays", "self_s"),
        "metric.component_jets_s": get("metric.component_jets", "total_s"),
        "metric.contains_s": get("metric.contains", "total_s"),
        "jets.analytic_calls": get("jets.analytic", "calls"),
        "jets.analytic_s": get("jets.analytic", "total_s"),
        "jets.mul_calls": counts["jets.mul"],
        "curvature.arrays_calls": get("curvature.arrays", "calls"),
        "curvature.arrays_self_s": get("curvature.arrays", "self_s"),
        "curvature.bundle_calls": get("curvature.bundle", "calls"),
        "curvature.bundle_s": get("curvature.bundle", "total_s"),
        "curvature.sectional_calls": counts["curvature.sectional"],
        "geodesics.rhs_evals": counts["geodesics.rhs_evals"],
        "geodesics.rhs_dir_evals": dir_evals,
        "geodesics.rhs_us_per_dir": 1e6 * profile_s / dir_evals if dir_evals else 0.0,
        "geodesics.profile_self_s": get("geodesics.profile", "self_s"),
        "expansion.coefficients_self_s": get("expansion.coefficients", "self_s"),
        "conformal.compose_jet_s": get("conformal.compose_jet", "total_s"),
        "conformal.reparametrize_s": get("conformal.reparametrize", "total_s"),
        "conformal.deformed_density_s": get("conformal.deformed_density", "total_s"),
        "series.fit_s": get("series.fit", "total_s"),
        "manifest.build_s": get("manifest.build", "total_s"),
        "cli.self_s": get("cli", "self_s"),
    }
