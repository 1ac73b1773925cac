"""The traced benchmark finds every function it wraps where it looks.

perfbench/tracer.py patches hml from outside, reading ``owner.__dict__``,
so a rename or a method moved out of its class body breaks only a
``--trace 1`` run; this test installs the tracer on a real call instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from hml import catalog
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
