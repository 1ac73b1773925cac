"""The traced benchmark finds every function it wraps where it looks.

perfbench/tracer.py patches hml from outside, reading ``owner.__dict__``,
so a rename or a method moved out of its class body breaks only a
``--trace 1`` run; this test installs the tracer on a real call instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from hml import catalog
from hml.conformal import RadialFunction
from hml.jets import MultiJet
from hml.metric import ChartMetric

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    tracer = _load_tracer()
    before = {owner: dict(vars(owner)) for owner in (ChartMetric, MultiJet)}
    t = tracer.Tracer()
    try:
        tracer.install(t)
        catalog.fubini_study(2).metric.derivative_arrays(np.full(4, 0.1), 2)
    finally:
        t.restore()
    assert t.counts["jets.mul"] > 0
    assert t.summary()["metric.component_jets"]["calls"] == 1
    assert {owner: dict(vars(owner)) for owner in before} == before


def test_tracer_spans_the_bundle_layer():
    # density_coefficients builds its bundle through the name the tracer
    # patches in hml.expansion: one bundle span inside one coefficients span
    tracer = _load_tracer()
    modules = {name: importlib.import_module(f"hml.{name}") for name in (
        "cli", "conformal", "curvature", "expansion", "geodesics", "jets",
        "manifest")}
    owners = [ChartMetric, MultiJet, RadialFunction, *modules.values()]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    try:
        tracer.install(t)
        modules["expansion"].density_coefficients(
            catalog.fubini_study(2).metric, np.full(4, 0.1), [1.0, 0, 0, 0])
    finally:
        t.restore()
    summary = t.summary()
    assert summary["curvature.bundle"]["calls"] == 1
    assert summary["expansion.coefficients"]["calls"] == 1
    assert [dict(vars(owner)) for owner in owners] == before


def test_tracer_counts_every_stage_of_a_shot():
    # each RK4 stage still calls derivative_arrays and curvature_arrays by
    # the names the tracer patches: N steps of one RHS block are 4N calls
    tracer = _load_tracer()
    geodesics = importlib.import_module("hml.geodesics")
    metric = catalog.sphere(4).metric
    P = np.zeros(4)
    directions = geodesics.g_unit_directions(metric, P, 3)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        geodesics.density_profile(metric, P, directions, [0.5], 25)
    finally:
        t.restore()
    assert t.counts["geodesics.rhs_evals"] == 100
    assert t.counts["geodesics.rhs_dir_evals"] == 300
    assert t.summary()["metric.derivative_arrays"]["calls"] == 100
