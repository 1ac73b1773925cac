"""Truncated univariate power series and radial-expansion fitting.

Two coefficient modes are supported: exact ``fractions.Fraction`` (used by
the test suite's exact-rational oracles, such as the leading-coefficient
verification, where results must be exact rational identities) and floats
(used to fit radial expansions of numerically sampled volume densities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .jets import int_power


class TruncationError(ValueError):
    """Series truncation orders are incompatible or insufficient."""


class TruncatedSeries:
    """Polynomial in one variable truncated at a fixed order N.

    Coefficients c0..cN live in whatever field they are given in; binary
    operations require matching truncation orders.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors ---------------------------------------------------
    @staticmethod
    def variable(order: int, at) -> "TruncatedSeries":
        """Float-mode seed t0 + (t - t0); ``at`` may be a numpy array."""
        if order < 1:
            raise ValueError("a variable needs order >= 1")
        return _series([at, 1.0] + [0.0] * (order - 1))

    @property
    def value(self):
        return self.coeffs[0]

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def _zero(self):
        return self.coeffs[0] * 0

    def _check(self, other):
        if len(other.coeffs) != len(self.coeffs):
            raise TruncationError(
                f"truncation mismatch: {self.order} vs {other.order}")

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return _series([a + b for a, b in zip(self.coeffs, other.coeffs)])
        c = list(self.coeffs)
        c[0] = c[0] + other
        return _series(c)

    __radd__ = __add__

    def __neg__(self):
        return _series([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return _series([a * other for a in self.coeffs])
        self._check(other)
        return _series(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        return TruncatedSeries([a / other for a in self.coeffs])

    __pow__ = int_power

    def reciprocal(self) -> "TruncatedSeries":
        c0 = self.coeffs[0]
        if np.any(np.asarray(c0) == 0):
            raise ZeroDivisionError(
                "reciprocal of a series with zero constant term "
                "(factor out the leading power first)")
        inv0 = Fraction(1, 1) / c0 if isinstance(c0, Rational) else 1.0 / c0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = self._zero()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out.append(-acc * inv0)
        return TruncatedSeries(out)

    # -- calculus ---------------------------------------------------------
    def derive(self) -> "TruncatedSeries":
        """d/dr at the same order; the top coefficient, which the truncation
        does not know, is an exact zero."""
        return _series([k * self.coeffs[k] for k in range(1, self.order + 1)]
                       + [self._zero()])

    # -- unshift (factored handling of series with low-order zeros) --------
    def unshift(self, k: int) -> "TruncatedSeries":
        """Divide by r^k; the k lowest coefficients must vanish."""
        if any(np.any(np.asarray(c) != 0) for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by r^{k}")
        zero = self._zero()
        return TruncatedSeries(self.coeffs[k:] + [zero] * k)

    # -- analytic composition (float mode), mirrors MultiJet ---------------
    def apply_analytic(self, derivs) -> "TruncatedSeries":
        c = self.coeffs
        du = [c[0] + (-c[0])] + c[1:]                 # self - c0
        ck = [derivs[k] / math.factorial(k)
              for k in range(min(len(derivs), len(c)))]
        value = ck[-1] + self._zero()
        out = [value] + [value * 0] * (len(c) - 1)    # constant(value)
        for k in range(len(ck) - 2, -1, -1):
            out = _product(out, du)                     # out * du + ck[k]
            out[0] = out[0] + ck[k]
        return _series(out)

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs})"


def _product(a: list, b: list) -> list:
    """Coefficients of a series product; terms of a zero number are skipped."""
    n = len(b)
    out = [a[0] * 0] * n        # entries are replaced, never updated
    for i, c in enumerate(a):
        if not isinstance(c, np.ndarray) and c == 0:
            continue
        for j in range(n - i):
            out[i + j] = out[i + j] + c * b[j]
    return out


def _series(coeffs: list) -> TruncatedSeries:
    """A series on a new list made here, taken without a copy."""
    s = object.__new__(TruncatedSeries)
    s.coeffs = coeffs
    return s


# ---------------------------------------------------------------------------
# radial expansion fitting
# ---------------------------------------------------------------------------

class IllConditionedFit(ValueError):
    def __init__(self, cond):
        super().__init__(f"radial fit is ill-conditioned (cond = {cond:.3e})")
        self.cond = cond


@dataclass
class RadialFit:
    """Least-squares radial expansion Theta/r^(m-1) - 1 ~ sum H_k r^k."""

    coefficients: dict  # k -> H_k
    order: int
    residual: float
    cond: float
    truncation_estimate: dict  # k -> |H_k(full) - H_k(half radii)|

    def __getitem__(self, k: int) -> float:
        return self.coefficients[k]


COND_MAX = 1e12     # the largest design condition number a fit accepts


def radial_designs(radii: np.ndarray, order: int) -> list:
    """(rows, design, column scales, cond) of each solve of an order-``order``
    fit on sorted distinct radii: all, then the lower half if it holds enough.
    Refuses too few radii or an ill-conditioned design before any sampling."""
    if len(radii) < 2 * (order - 1):
        raise ValueError(
            f"need at least {2 * (order - 1)} radii for order {order}")
    designs = []
    for rows in (slice(None), radii <= radii.max() / 2):
        rr = radii[rows]
        if len(rr) < 2 * (order - 1):
            break
        # scale columns by r_max^k to keep the Vandermonde system tame
        scale = rr.max() ** np.arange(2, order + 1)
        design = rr[:, None] ** np.arange(2, order + 1)[None, :] / scale[None, :]
        cond = np.linalg.cond(design)
        if cond > COND_MAX:
            raise IllConditionedFit(cond)
        designs.append((rows, design, scale, cond))
    return designs


def fit_radial_expansion(samples, m: int, order: int) -> RadialFit:
    """Fit density samples (r, Theta(r)) at fixed direction to Eq-style H_k.

    The model is Theta / r^(m-1) = 1 + sum_{k=2..order} H_k r^k.  Radii
    should sit well inside the injectivity radius so that the truncation
    error of the finite expansion is below the target accuracy; the
    ``truncation_estimate`` field reports a Richardson-style refit on the
    lower half of the radii as a contamination diagnostic.
    """
    pts = sorted((float(r), float(th)) for r, th in samples)
    radii = np.array([p[0] for p in pts])
    theta = np.array([p[1] for p in pts])
    if len(np.unique(radii)) != len(radii):
        raise ValueError("radii must be distinct")

    y = theta / radii ** (m - 1) - 1.0
    solves = []
    for rows, design, scale, cond in radial_designs(radii, order):
        # rcond=0 keeps every column of an accepted design (cond <= COND_MAX);
        # numpy's default cut drops one past a few thousand radii
        sol, res, *_ = np.linalg.lstsq(design, y[rows], rcond=0)
        resid = float(np.sqrt(res[0]))
        solves.append((sol / scale, resid, cond))
    (coeffs, residual, cond), *half = solves
    trunc = {k + 2: abs(d) for h, *_ in half for k, d in enumerate(coeffs - h)}
    return RadialFit(
        coefficients={k + 2: float(coeffs[k]) for k in range(len(coeffs))},
        order=order, residual=residual, cond=float(cond),
        truncation_estimate=trunc)
