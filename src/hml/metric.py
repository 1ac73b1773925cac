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

from .jets import MultiJet, _extraction_table, all_true, jet_space, seed_point


class DomainError(ValueError):
    """Evaluation point fails the chart's domain predicate."""


def outside_domain(name: str) -> DomainError:
    return DomainError(f"point outside domain of {name}")


class DegenerateMetricError(ValueError):
    """Metric factorization failed: not positive definite at the point."""


class OrderExceededError(ValueError):
    """Requested derivative order exceeds what a curvature bundle holds."""


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
def _entry_extraction(m: int, order: int):
    """Flat (coefficient, entry) positions and factorials of all partials.

    For each order d = 0..order in turn, position cuts[d] + (i * m + j) *
    m**d + p holds d_p g_ij in a stack's coefficients flattened to
    (size * entries, n), with the factorials at the same places.
    """
    index = entry_layout(m)[3].ravel()
    n_entries = m * (m + 1) // 2
    pos, fact = [], []
    for d in range(order + 1):
        flat_pos, f = _extraction_table(m, order, d)
        pos.append((flat_pos[None, :] * n_entries + index[:, None]).ravel())
        fact.append(np.tile(f, m * m))
    cuts = np.cumsum([0] + [p.size for p in pos]).tolist()
    return np.concatenate(pos), np.concatenate(fact), cuts


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

    # -- evaluation -------------------------------------------------------
    def component_jets(self, x, order: int) -> MultiJet:
        """The metric entries at x as one stack (see ``entry_layout``).

        Batch axis 0 of the stack indexes the entries; the batch axes of x
        follow it.  A nested structure from ``components`` is stacked here.
        """
        inside = (self.contains(x) if self._formula_domain is None
                  else np.asarray(self._formula_domain(self._as_point(x))))
        if not all_true(inside):
            raise outside_domain(self.name)
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

        The arrays are written into ``ws`` (a fresh workspace by default)
        under the name ``"d"``, order after order, with ``"gather"`` as
        scratch that is free again once this returns.
        """
        ws = Workspace() if ws is None else ws
        batch, m = np.shape(x)[:-1], self.dim
        stack = self.component_jets(self._as_point(x), order)
        n = math.prod(batch)
        pos, fact, cuts = _entry_extraction(m, order)
        flat = ws.array("d", (pos.size * n,))
        # one gather for every order; mode="clip" (every index is in range)
        # lets take write to out directly, the default mode buffers it
        if n == 1:      # one point: the gather is laid out batch first
            stack.coef.take(pos, out=flat, mode="clip")
            flat *= fact
        else:
            g = stack.coef.reshape(-1, n).take(
                pos, 0, out=ws.array("gather", (pos.size, n)), mode="clip")
            g *= fact[:, None]
            # batch first in C order: the matmuls downstream pick their
            # kernel by layout
            for lo, hi in zip(cuts, cuts[1:]):
                np.copyto(flat[lo * n:hi * n].reshape(n, hi - lo), g[lo:hi].T)
        return [flat[lo * n:hi * n].reshape(batch + (m,) * (d + 2))
                for d, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
