"""Analytic metrics on coordinate charts, evaluated through jets.

A ``ChartMetric`` wraps a component function written with the overloaded
arithmetic of :mod:`hml.jets`; evaluating it on seeded jets produces the
metric together with every partial derivative up to a requested order.
Charts are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import jets
from .jets import MultiJet, _extraction_table, all_true, jet_space, seed_point


class DomainError(ValueError):
    """Evaluation point fails the chart's domain predicate."""


def outside_domain(name: str) -> DomainError:
    return DomainError(f"point outside domain of {name}")


class DegenerateMetricError(ValueError):
    """Metric factorization failed: not positive definite at the point."""


class OrderExceededError(ValueError):
    """Requested derivative order exceeds what the metric provides."""


class Workspace:
    """Float buffers that one caller reuses across calls, one per name.

    ``array(name, shape)`` returns a C-contiguous view of the name's flat
    buffer, grown when a call needs more, so repeated batched evaluations
    (the RK4 stages and RHS blocks of one shot) write their large
    temporaries into the same pages instead of allocating and freeing them
    each time.  An array from a workspace is valid until the next request
    for the same name; callers that keep results use a fresh workspace.
    """

    __slots__ = ("_flat", "_view")

    def __init__(self):
        self._flat = {}
        self._view = {}     # the last view handed out per name

    def array(self, name: str, shape: tuple) -> np.ndarray:
        view = self._view.get(name)
        if view is not None and view.shape == shape:
            return view
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        view = self._view[name] = flat[:size].reshape(shape)
        return view


@lru_cache(maxsize=None)
def entry_layout(m: int):
    """(rows, cols, diag, index) of a stack of metric entries.

    Entry e of a stack is g_ij with (i, j) = (rows[e], cols[e]): the upper
    triangle i <= j, row by row.  ``diag`` lists the entries with i == j and
    ``index[i, j]`` is the entry holding g_ij = g_ji.
    """
    rows, cols = np.triu_indices(m)
    index = np.empty((m, m), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return rows, cols, index[np.arange(m), np.arange(m)], index


@lru_cache(maxsize=None)
def _entry_extraction(m: int, order: int, d: int):
    """Flat (coefficient, entry) positions and factorials of the order-d partials.

    Position [(i * m + j) * m**d + p] holds d_p g_ij in a stack's
    coefficients flattened to (size * entries, n).
    """
    flat_pos, fact = _extraction_table(m, order, d)
    index = entry_layout(m)[3].ravel()
    n_entries = m * (m + 1) // 2
    pos = flat_pos[None, :] * n_entries + index[:, None]
    return pos.ravel(), np.tile(fact, m * m)


@dataclass(frozen=True)
class ChartMetric:
    """Analytic Riemannian metric on an open chart of R^dim.

    ``components(xjets)`` maps the list of seeded coordinate jets to the
    metric entries: a stacked jet of the upper triangle (see
    ``entry_layout``), or a symmetric dim x dim nested structure of jets and
    constants.  It is evaluated with whatever jet order the caller seeds,
    so all derivatives come from one formula.  ``radial_distance_sq`` is an
    optional analytic expression for the squared geodesic distance r_P^2
    from the chart's distinguished center (the origin); charts that provide
    it support radial conformal deformation.

    ``_formula_domain``, where set, is the part of ``domain`` that
    ``component_jets`` checks before it runs the formula, which then tests
    the rest itself and raises the same DomainError: a deformed chart's
    formula forms psi(r^2) anyway, so it tests psi > 0 on that value instead
    of evaluating psi a second time (see ``conformal.deform_metric``).
    ``contains`` always checks all of ``domain``.
    """

    dim: int
    components: Callable
    domain: Callable = lambda x: np.full(np.shape(x)[:-1], True)
    name: str = "metric"
    params: dict = field(default_factory=dict)
    injectivity_radius: Optional[float] = None  # about the center; None = unknown
    radial_distance_sq: Optional[Callable] = None
    max_order: Optional[int] = None  # None: analytic, any order
    _formula_domain: Optional[Callable] = field(default=None, repr=False)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"<ChartMetric {self.name}({ps}) dim={self.dim}>"

    # -- validation -----------------------------------------------------
    def _as_point(self, x) -> np.ndarray:
        """A batch of one point as (dim,): 1-D jets are faster, bit for bit."""
        x = np.asarray(x, dtype=float)
        return x.reshape(self.dim) if x.size == x.shape[-1] == self.dim else x

    def contains(self, x) -> np.ndarray:
        ok = np.asarray(self.domain(self._as_point(x)))
        return ok.reshape(np.shape(x)[:-1])

    def require_inside(self, x):
        if not all_true(self.contains(x)):
            raise outside_domain(self.name)

    def check_order(self, order: int):
        if self.max_order is not None and order > self.max_order:
            raise OrderExceededError(
                f"{self.name} provides derivatives to order {self.max_order}, "
                f"order {order} requested")

    # -- evaluation -------------------------------------------------------
    def component_jets(self, x, order: int) -> MultiJet:
        """The metric entries at x as one stack (see ``entry_layout``).

        Batch axis 0 of the stack indexes the entries; the batch axes of x
        follow it.  A nested structure from ``components`` is stacked here.
        """
        if self._formula_domain is None:
            self.require_inside(x)
        elif not all_true(np.asarray(self._formula_domain(self._as_point(x)))):
            raise outside_domain(self.name)
        self.check_order(order)
        comps = self.components(seed_point(x, order))
        if type(comps) is MultiJet:
            return comps
        rows, cols, _, _ = entry_layout(self.dim)
        space = jet_space(self.dim, order)
        coef = np.zeros((space.size, len(rows)) + np.shape(x)[:-1])
        for e, (i, j) in enumerate(zip(rows, cols)):
            c = comps[i][j]
            if type(c) is MultiJet:
                coef[:, e] = c.coef
            else:
                coef[0, e] = c
        return MultiJet(space, coef)

    def value(self, x) -> np.ndarray:
        """Metric matrix (batch +) (dim, dim) without derivatives."""
        g = self.component_jets(self._as_point(x), 0).value
        g = np.moveaxis(g[entry_layout(self.dim)[3]], (0, 1), (-2, -1))
        return g.reshape(np.shape(x)[:-1] + (self.dim, self.dim))

    def derivative_arrays(self, x, order: int, ws: Optional[Workspace] = None):
        """[g, dg, d2g, ...]: dg[..., i, j, p] = d_p g_ij and so on.

        The arrays are written into ``ws`` (a fresh workspace by default):
        order d under the name ``"d<d>"``, with ``"gather"`` as scratch
        that is free again once this returns.
        """
        ws = Workspace() if ws is None else ws
        batch, m = np.shape(x)[:-1], self.dim
        stack = self.component_jets(self._as_point(x), order)
        n = math.prod(batch)
        coef = stack.coef.reshape(-1, n)
        out = []
        for d in range(order + 1):
            pos, fact = _entry_extraction(m, order, d)
            # mode="clip" (every index is in range) lets take write to out
            # directly; the default mode buffers it through a temporary
            g = np.take(coef, pos, axis=0, mode="clip",
                        out=ws.array("gather", (pos.size, n)))
            g *= fact[:, None]
            # batch first in C order: the matmuls downstream pick their
            # kernel by layout
            gd = ws.array(f"d{d}", (n, pos.size))
            np.copyto(gd, g.T)
            out.append(gd.reshape(batch + (m, m) + (m,) * d))
        return out

    def check_positive_definite(self, x):
        g = self.value(x)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(
                f"degenerate metric: {self.name} not positive definite at {x}"
            ) from exc
        return True

    def norm(self, x, v) -> float:
        g = self.value(x)
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(v @ g @ v))


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on a chart, jet-evaluable like metric components."""

    fn: Callable
    name: str = "phi"

    def jet(self, x, order: int) -> MultiJet:
        xj = seed_point(x, order)
        out = self.fn(xj)
        if not isinstance(out, MultiJet):
            space = jet_space(np.shape(x)[-1], order)
            out = MultiJet.constant(space, out, np.shape(x)[:-1])
        return out

    def value(self, x):
        return self.jet(x, 0).value

    @staticmethod
    def from_radial(radial_derivs: Callable, metric: ChartMetric,
                    name: str = "phi") -> "ScalarField":
        """Field f(x) = fcheck(r_P(x)) from fcheck's derivative evaluator.

        ``radial_derivs(r0, order)`` must return [fcheck(r0), fcheck'(r0), ...].
        Requires the chart to expose r_P^2 analytically.
        """
        if metric.radial_distance_sq is None:
            raise ValueError("chart does not declare a radial distance")

        def fn(xjets):
            t = metric.radial_distance_sq(xjets)
            r = jets.sqrt(t)
            r0 = np.asarray(r.const_value())
            order = r.space.order if isinstance(r, MultiJet) else r.order
            return r.apply_analytic(radial_derivs(r0, order))

        return ScalarField(fn, name=name)
