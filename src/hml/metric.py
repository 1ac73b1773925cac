"""Analytic metrics on coordinate charts, evaluated through jets.

A ``ChartMetric`` wraps a component function written with the overloaded
arithmetic of :mod:`hml.jets`; evaluating it on the seeded coordinates
produces the metric together with every partial derivative up to a
requested order.
Charts are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .jets import (MultiJet, _extraction_table, all_true, jet_space, norm_sq,
                   seed_point)


class DomainError(ValueError):
    """Evaluation point fails the chart's domain predicate."""


def outside_domain(name: str) -> DomainError:
    return DomainError(f"point outside domain of {name}")


class DegenerateMetricError(ValueError):
    """Metric factorization failed: not positive definite at the point."""


class OrderExceededError(ValueError):
    """Requested derivative order exceeds what a curvature bundle holds."""


class Workspace:
    """Float buffers and call plans that one caller reuses across calls.

    ``array(name, shape)`` returns a C-contiguous view of the name's flat
    buffer, grown when a call needs more, so repeated batched evaluations
    (the RK4 stages and RHS blocks of one shot) write their large
    temporaries into the same pages instead of allocating and freeing them
    each time; ``plan(build, *args)``, built once, holds a routine's views
    and tables at one call shape.  An array from a workspace is valid until
    the next call that writes it; callers that keep results use a fresh
    workspace.
    """

    __slots__ = ("_flat", "_plans")

    def __init__(self):
        self._flat = {}
        self._plans = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)

    def plan(self, build, *args):
        key = (build, *args)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = build(self, *args)
        return plan


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

    ``components(x, t)`` maps the coordinate stack x (entry k the jet of
    x_k, see ``jets.seed_point``) and t = |x|^2 to the metric entries: a
    stacked jet of the upper triangle (see ``entry_layout``), or a
    symmetric dim x dim nested structure of jets and constants.  It is
    evaluated with whatever jet order the caller seeds, so all derivatives
    come from one formula; it must not write into x or t.
    ``radial_distance_sq(x, t)`` is an optional analytic expression for
    the squared geodesic distance r_P^2 from the chart's distinguished
    center (the origin); charts that provide it support radial conformal
    deformation.

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

        Batch axis 0 of the stack indexes the entries; the batch axes of x,
        none for one point (see _as_point), follow it.  A nested structure
        from ``components`` is stacked here.
        """
        x = self._as_point(x)
        if not all_true(np.asarray((self._formula_domain or self.domain)(x))):
            raise outside_domain(self.name)
        xs = seed_point(x, order)
        comps = self.components(xs, norm_sq(xs))
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
        g = self.component_jets(x, 0).value
        g = np.moveaxis(g[entry_layout(self.dim)[3]], (0, 1), (-2, -1))
        return g.reshape(np.shape(x)[:-1] + (self.dim, self.dim))

    def derivative_arrays(self, x, order: int, ws: Optional[Workspace] = None):
        """[g, dg, d2g, ...]: dg[..., i, j, p] = d_p g_ij and so on.

        The arrays are written into ``ws`` (a fresh workspace by default)
        under the name ``"d"``, order after order, with ``"gather"`` as
        scratch that is free again once this returns.
        """
        ws = Workspace() if ws is None else ws
        stack = self.component_jets(x, order)
        pos, fact, gather, copies, arrays = ws.plan(
            derivative_plan, self.dim, order, np.shape(x)[:-1])
        # one gather for every order; mode="clip" (every index is in range)
        # lets take write to out directly, the default mode buffers it
        stack.coef.reshape(-1, gather.shape[1]).take(pos, 0, out=gather,
                                                     mode="clip")
        gather *= fact
        for dst, src in copies:
            np.copyto(dst, src)
        return list(arrays)


def derivative_plan(ws: Workspace, m: int, order: int, batch: tuple):
    """derivative_arrays' gather table, buffers, copies and arrays."""
    n = math.prod(batch)
    pos, fact, cuts = _entry_extraction(m, order)
    flat = ws.array("d", (pos.size * n,))
    # one point gathers straight into flat, batch first; a batch gathers
    # into scratch, copied out batch first in C order: the matmuls
    # downstream pick their kernel by layout
    gather = flat[:, None] if n == 1 else ws.array("gather", (pos.size, n))
    copies = [] if n == 1 else [
        (flat[lo * n:hi * n].reshape(n, hi - lo), gather[lo:hi].T)
        for lo, hi in zip(cuts, cuts[1:])]
    return pos, fact[:, None], gather, copies, [
        flat[lo * n:hi * n].reshape(batch + (m,) * (d + 2))
        for d, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
