"""Taylor-mode forward differentiation on truncated multivariate polynomials.

A ``MultiJet`` is a truncated Taylor expansion in ``nvars`` variables about a
base point, carrying every mixed partial derivative up to a total ``order``.
Metric components, conformal factors and scalar fields are written once as
plain Python formulas; evaluating them on the seeded coordinate stack (see
``seed_point``) yields all derivatives needed by the curvature machinery.
Coefficient arrays may carry batch axes so that one evaluation serves many
base points (used heavily by the geodesic integrator); in a stack, batch
axis 0 indexes entries instead, so one product serves all the metric
entries of a formula step.

Analytic functions (sqrt, sin, atan, ...) act on jets and truncated series
through truncated composition with the univariate Taylor expansion at the
constant term.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .conventions import MAX_JET_ORDER

# A product sums slot rows instead of calling np.add.reduceat from
# SLOT_MIN_BATCH points on (slot sums lose at 16 points and win from 32, for
# order-2 and order-3 jets in 4 variables).
SLOT_MIN_BATCH = 32

# No product gathers more than CHUNK_MAX floats of pairs or slot rows at
# once: the largest array a workload made before metric entries were stacked
# (an order-2 product in 4 variables on a 512-point block, 60 slot rows x
# 512).  Wider stacks, where one product made temporaries of ~600 kB and ran
# 6x slower than the per-entry products, are multiplied in column chunks.
CHUNK_MAX = 30_720

# entry_dot gathers at most ROWS_MAX floats (2 MiB) of operand pair rows at
# once, and multiplies at most BLOCK_MAX floats of pairs at once (glibc's
# mmap threshold: larger temporaries were mapped afresh on every call).
ROWS_MAX = 1 << 18
BLOCK_MAX = 16_384

N_EXTRA = 40    # terms an entire function's series keeps past a jet's order


@lru_cache(maxsize=None)
def _indices(nvars: int, order: int):
    """Multi-indices of total degree <= order in graded-lex order."""
    flat = []
    for d in range(order + 1):      # degree d: the multisets of d variables
        flat += sorted(tuple(c.count(k) for k in range(nvars)) for c in
                       itertools.combinations_with_replacement(range(nvars), d))
    return tuple(flat), {a: i for i, a in enumerate(flat)}


@lru_cache(maxsize=None)
def _mul_table(nvars: int, order: int):
    """(ia, ib, starts) for product accumulation via add.reduceat."""
    idx, pos = _indices(nvars, order)
    pairs = []
    for ia, a in enumerate(idx):
        da = sum(a)
        for ib, b in enumerate(idx):
            if da + sum(b) > order:
                continue
            out = pos[tuple(x + y for x, y in zip(a, b))]
            pairs.append((out, ia, ib))
    pairs.sort()
    out_idx = np.array([p[0] for p in pairs])
    ia = np.array([p[1] for p in pairs])
    ib = np.array([p[2] for p in pairs])
    # every output index occurs (alpha + 0 = alpha), so segments are dense
    starts = np.searchsorted(out_idx, np.arange(len(idx)))
    return ia, ib, starts


# np.add.reduceat sums a segment of n <= 8 pairs as P0 + (((P1 + P2) + P3)
# + ...), the remainder from a -0.0 start: longer remainders go to numpy's
# 8-accumulator pairwise sum.  Checked on numpy 2.4 (the floor in
# pyproject.toml); test_product_matches_literal_reduceat fails on a numpy
# that sums otherwise.
_SLOT_MAX = 8


@lru_cache(maxsize=None)
def _slot_table(nvars: int, order: int):
    """(sa, sb, pad, n_slots): the product pairs as slot rows, or None.

    Slot j of output k holds pair starts[k] + j of _mul_table; the rows past
    a segment's end (listed in ``pad``) are set to -0.0, which adds exactly.
    None where a segment exceeds _SLOT_MAX, so reduceat's order differs.
    """
    ia, ib, starts = _mul_table(nvars, order)
    lengths = np.diff(np.append(starts, len(ia)))
    n_slots = int(lengths.max())
    if n_slots > _SLOT_MAX:
        return None
    j = np.arange(n_slots)[:, None]
    real = j < lengths
    src = np.where(real, starts + j, starts).ravel()
    return ia[src], ib[src], np.flatnonzero(~real.ravel()), n_slots


@lru_cache(maxsize=None)
def _partial_table(nvars: int, order: int, k: int):
    """(src, dst, scale) implementing d/dx_k inside the same space."""
    idx, pos = _indices(nvars, order)
    src, dst, scale = [], [], []
    for a in idx:
        if sum(a) == 0 or a[k] == 0:
            continue
        b = a[:k] + (a[k] - 1,) + a[k + 1:]
        src.append(pos[a])
        dst.append(pos[b])
        scale.append(a[k])
    return np.array(src), np.array(dst), np.array(scale, dtype=float)


@lru_cache(maxsize=None)
def _extraction_table(nvars: int, order: int, d: int):
    """Positions and factorials mapping coefficients to d-th partials.

    Returns (flat_pos, fact) of length nvars**d: the array of all partial
    derivatives d_{p1} ... d_{pd} f is coef[flat_pos] * fact reshaped to
    (nvars,)*d.
    """
    _, pos = _indices(nvars, order)
    shape = (nvars,) * d
    flat_pos = np.empty(nvars ** d, dtype=int)
    fact = np.empty(nvars ** d)
    for flat, ptuple in enumerate(np.ndindex(shape) if d else [()]):
        alpha = [0] * nvars
        for p in ptuple:
            alpha[p] += 1
        flat_pos[flat] = pos[tuple(alpha)]
        fact[flat] = math.prod(math.factorial(a) for a in alpha)
    return flat_pos, fact


class JetSpace:
    """Shared truncation data for jets in ``nvars`` variables of ``order``."""

    def __init__(self, nvars: int, order: int):
        if not 0 <= order <= MAX_JET_ORDER:
            raise ValueError(f"jet order {order} outside [0, {MAX_JET_ORDER}]")
        self.nvars = nvars
        self.order = order
        self.index_list, self.index_of = _indices(nvars, order)
        self.size = len(self.index_list)
        self.factorials = tuple(float(math.factorial(k))
                                for k in range(order + 1))
        self.pairs = _mul_table(nvars, order)
        self.slots = _slot_table(nvars, order)
        # gathered rows per column of a product, by the larger route
        self.rows_per_column = (len(self.pairs[0]) if self.slots is None
                             else self.slots[3] * self.size)

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"

    # -- products of coefficient arrays --------------------------------
    # Two routes give the same bits: reduceat over the pair list, or (for
    # batches of SLOT_MIN_BATCH points and more, where it is faster) one
    # elementwise add per slot row in reduceat's summation order.  Rows of
    # a batch are gathered by ndarray.take, which copies what indexing
    # would with less set-up per call; indexing is the faster on one point.
    def use_slots(self, a, b) -> bool:
        return (self.slots is not None and a.ndim > 1 and a.shape == b.shape
                and SLOT_MIN_BATCH * self.size <= a.size
                and a.dtype == b.dtype == np.float64)

    def product(self, a, b, out=None):
        """Coefficients of a * b; their batch axes broadcast.

        A product whose gathered rows would exceed CHUNK_MAX floats runs
        over chunks of the leading batch axis, written into one output; a
        chunk of one index drops that axis, so it is chunked in turn.  One
        point, or fewer output columns than SLOT_MIN_BATCH, go to reduceat
        without the slot test.
        """
        ia, ib, starts = self.pairs
        if a.ndim == 1 == b.ndim:
            return np.add.reduceat(a[ia] * b[ib], starts, out=out)
        n = _out_columns(a, b)
        if n * self.rows_per_column > CHUNK_MAX:
            shape = (self.size,) + np.broadcast_shapes(a.shape[1:],
                                                       b.shape[1:])
            if out is None:
                out = np.empty(shape, dtype=np.result_type(a, b))
            step = CHUNK_MAX // (n // shape[1] * self.rows_per_column)
            chunks = (range(shape[1]) if step <= 1 else
                      (slice(k, k + step) for k in range(0, shape[1], step)))
            for at in chunks:
                self.product(_columns(a, at), _columns(b, at), out[:, at])
            return out
        if n < SLOT_MIN_BATCH or not self.use_slots(a, b):
            return np.add.reduceat(a.take(ia, 0) * b.take(ib, 0), starts,
                                   axis=0, out=out)
        sa, sb, pad, n_slots = self.slots
        p = a.take(sa, 0)
        p *= b.take(sb, 0)
        p[pad] = -0.0
        p = p.reshape((n_slots, self.size) + a.shape[1:])
        if n_slots == 1:
            return np.positive(p[0], out=out)
        tail = p[1]
        for j in range(2, n_slots):
            tail += p[j]
        return np.add(p[0], tail, out=out)


def _out_columns(a, b) -> int:
    """Columns of a product's output: its operands' batch axes broadcast,
    axis by axis (equal lengths, or one is 1; the operands' ndim match)."""
    return math.prod(map(max, a.shape[1:], b.shape[1:]))


def all_true(flags) -> bool:
    """np.all(flags) without numpy's reduction call on a scalar (one point)."""
    return bool(flags) if flags.ndim == 0 else bool(flags.all())


def _columns(c, at):
    """c[:, at]; an operand broadcast along that axis gives its one index."""
    if c.shape[1] > 1:
        return c[:, at]
    return c[:, 0] if isinstance(at, int) else c


def int_power(x, n):
    """x ** n for an int n >= 0 (x a MultiJet or a TruncatedSeries) by
    repeated squaring, whose first factor is x itself: x ** 2 is one
    product.  x ** 1 returns x, not a copy (no caller raises to the power
    1), and x ** 0 is x * 0 + 1, the constant one in x's space."""
    if not isinstance(n, int):
        raise TypeError("use jets.powf for non-integer exponents")
    if n < 0:
        raise ValueError(f"negative exponent {n}: use reciprocal() ** {-n}")
    if n == 0:
        return x * 0 + 1
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return result


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


class MultiJet:
    __slots__ = ("space", "coef")

    def __init__(self, space: JetSpace, coef: np.ndarray):
        self.space = space
        self.coef = coef

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(space: JetSpace, value, batch_shape=()):
        coef = np.zeros((space.size,) + batch_shape,
                        dtype=np.result_type(np.asarray(value), np.float64))
        coef[0] = value
        return MultiJet(space, coef)

    # -- basic queries ------------------------------------------------
    @property
    def value(self):
        return self.coef[0]

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def batch_shape(self):
        return self.coef.shape[1:]

    def derivative_array(self, d: int, first: int = None):
        """All order-d partials as an array of shape (nvars,)*d + batch; with
        ``first`` = p only d_p d_p2 ... d_pd, shape (nvars,)*(d-1) + batch."""
        if d > self.space.order:
            raise ValueError("derivative order exceeds jet order")
        flat_pos, fact = _extraction_table(self.space.nvars, self.space.order, d)
        if first is not None:
            n = len(fact) // self.space.nvars
            flat_pos, fact = flat_pos[first * n:][:n], fact[first * n:][:n]
            d -= 1
        out = self.coef[flat_pos]
        np.multiply(out, fact.reshape((-1,) + (1,) * len(self.batch_shape)),
                    out=out)
        return out.reshape((self.space.nvars,) * d + self.batch_shape)

    # -- stacks: batch axis 0 indexes the entries of a stacked jet ------
    def entries(self, *idx) -> "MultiJet":
        """Entries ``idx`` of a stack, one index per entry axis (ints give views)."""
        if len(idx) == 1 and type(idx[0]) is np.ndarray:    # one gather
            return MultiJet(self.space, self.coef.take(idx[0], 1))
        return MultiJet(self.space, self.coef[(slice(None),) + idx])

    def spread(self) -> "MultiJet":
        """This jet with a length-1 entry axis, to broadcast over a stack."""
        return MultiJet(self.space, self.coef[:, None])

    def put(self, idx, other: "MultiJet"):
        """Set the entries ``idx`` of this stack to ``other``, in place."""
        self.coef[:, idx] = other.coef

    # -- ring operations ----------------------------------------------
    def _same_space(self, other):
        if other.space is not self.space:
            raise ValueError("jets from different spaces")

    def __add__(self, other):
        if type(other) is MultiJet:
            self._same_space(other)
            return MultiJet(self.space, self.coef + other.coef)
        other = np.asarray(other)
        coef = self.coef.astype(np.result_type(self.coef, other), copy=True)
        coef[0] = coef[0] + other
        return MultiJet(self.space, coef)

    __radd__ = __add__

    def __neg__(self):
        return MultiJet(self.space, -self.coef)

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiJet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not MultiJet:
            return MultiJet(self.space, self.coef * other)
        self._same_space(other)
        return MultiJet(self.space, self.space.product(self.coef, other.coef))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not MultiJet:
            return MultiJet(self.space, self.coef / other)
        return self * other.reciprocal()

    __pow__ = int_power

    def partial(self, k: int) -> "MultiJet":
        """d/dx_k as a jet in the same space (top-degree terms become zero)."""
        src, dst, scale = _partial_table(self.space.nvars, self.space.order, k)
        coef = np.zeros_like(self.coef)
        if len(src):
            coef[dst] = self.coef[src] * scale.reshape(
                (-1,) + (1,) * len(self.batch_shape))
        return MultiJet(self.space, coef)

    # -- analytic composition ------------------------------------------
    def apply_analytic(self, derivs):
        """Compose with a univariate function given f^(k)(c0), k = 0..order."""
        space = self.space
        ck = [derivs[k] / space.factorials[k]
              for k in range(min(len(derivs), space.order + 1))]
        du = self.coef.copy()
        du[0] = 0.0
        # Horner in du from 0.0 + c_n
        coef = np.zeros(self.coef.shape)
        coef[0] = 0.0 + ck[-1]
        for k in range(len(ck) - 2, -1, -1):
            coef = space.product(coef, du)
            coef[0] += ck[k]
        return MultiJet(space, coef)

    def reciprocal(self):
        u0 = self.coef[0]        # a float64 scalar at one point, else an array
        if not all_true(u0 != 0):
            raise ZeroDivisionError("reciprocal of jet with zero constant term")
        derivs = [1.0 / u0]
        for k in range(1, self.space.order + 1):
            derivs.append(-k * derivs[-1] / u0)
        return self.apply_analytic(derivs)

    def __repr__(self):
        return f"MultiJet(order={self.order}, value={self.value})"


@lru_cache(maxsize=None)
def _seed_rows(nvars: int, order: int):
    """Seed coefficients: column k holds d x_k / d x_k = 1 (values left 0)."""
    space = jet_space(nvars, order)
    rows = np.zeros((space.size, nvars))
    if order >= 1:
        for k in range(nvars):
            rows[space.index_of[tuple(int(i == k) for i in range(nvars))], k] = 1.0
    rows.setflags(write=False)      # shared by every caller through the cache
    return rows


def seed_point(x, order: int) -> MultiJet:
    """The coordinate stack at x (shape (m,) or (..., m)): entry k is the
    jet of x_k, copied from cached rows."""
    x = np.asarray(x, dtype=float)
    batch, m = x.shape[:-1], x.shape[-1]
    rows = _seed_rows(m, order)
    if not batch:       # one point: the rows with x in row 0
        coef = rows.copy()
        coef[0] = x
    else:
        coef = np.empty(rows.shape + batch)
        coef[...] = rows.reshape(rows.shape + (1,) * len(batch))
        coef[0] = np.moveaxis(x, -1, 0)
    return MultiJet(jet_space(m, order), coef)


def pair_products(stacks, rows, cols) -> MultiJet:
    """Entry e: the sum over the stacks s of s[rows[e]] * s[cols[e]].

    The products are added in the order of ``stacks``.  A result too wide
    for one product under CHUNK_MAX is formed entry by entry into one
    output, without gathering the factors' entries.
    """
    space, first = stacks[0].space, stacks[0].coef
    batch = first.shape[2:]
    if len(rows) * math.prod(batch) * space.rows_per_column <= CHUNK_MAX:
        total = stacks[0].entries(rows) * stacks[0].entries(cols)
        for s in stacks[1:]:
            total = total + s.entries(rows) * s.entries(cols)
        return total
    out = np.empty((space.size, len(rows)) + batch)
    for e, (i, j) in enumerate(zip(rows, cols)):
        space.product(first[:, i], first[:, j], out[:, e])
        for s in stacks[1:]:
            out[:, e] += space.product(s.coef[:, i], s.coef[:, j])
    return MultiJet(space, out)


def entry_dot(a: MultiJet, ia: tuple, b: MultiJet, ib: tuple,
              init: MultiJet = None, minus=()) -> MultiJet:
    """init + sum over t of a.entries(*ia)[..., t] * b.entries(*ib)[..., t].

    The index arrays broadcast, the term axis t last.  Terms are added in
    order (subtracted for t in ``minus``) with the bits of one stacked
    product per term, but no operand stack is formed: a run of products
    gathers the pair rows of each distinct operand entry once.  The result
    is laid out entry by entry, as the sums are kept.
    """
    size, (pa, pb, starts) = a.space.size, a.space.pairs
    ca, cb = (np.arange(c.coef[0].size).reshape(c.coef.shape[1:])[i]
              for c, i in ((a, ia), (b, ib)))
    shape, runs = _runs(ca.shape, ca.tobytes(), cb.shape, cb.tobytes(),
                        tuple(minus), ROWS_MAX // len(pa),
                        max(1, BLOCK_MAX // len(pa)))
    # -0.0 + p is p, bit for bit, so the first term needs no case of its own
    sums = (np.full((math.prod(shape), size), -0.0) if init is None else
            np.ascontiguousarray(init.coef.reshape(size, -1).T))
    at, bt = (np.ascontiguousarray(c.coef.reshape(size, -1).T) for c in (a, b))
    for ua, ja, ub, jb, table in runs:
        ra, rb = np.take(at[ua], pa, axis=1), np.take(bt[ub], pb, axis=1)
        block = None
        for k0, k1, r0, r1, e0, e1, negative in table.tolist():
            if k0 != block:
                block, k = k0, (k0 if k1 - k0 == 1 else slice(k0, k1))
                part = np.add.reduceat(ra[ja[k]] * rb[jb[k]], starts,
                                       axis=-1).reshape(-1, size)
            # 1.0 * p is p, -1.0 * p is -p
            sums[e0:e1] += (-1.0 if negative else 1.0) * part[r0:r1]
    return MultiJet(a.space, sums.T.reshape((size,) + shape))


@lru_cache(maxsize=None)
def _runs(a_shape, ca: bytes, b_shape, cb: bytes, minus, limit, step):
    """entry_dot's output shape and runs (ua, ja, ub, jb, table).

    Over a run, at most ``limit`` distinct entries ua, ub give ca = ua[ja]
    and cb = ub[jb] (products term-major).  A block forms at most ``step``
    products k0:k1; each row (k0, k1, r0, r1, e0, e1, negative) of the
    table, a block's rows adjacent, adds (subtracts if negative) the
    block's rows r0:r1, all of one term, to the sums e0:e1.  At m = 6 most
    blocks hold one product, so a plan has a row per product: int32 rows
    keep the cache under 1 MiB after an order-6 bundle.
    """
    ca, cb = (np.moveaxis(c, -1, 0).ravel() for c in np.broadcast_arrays(
        np.frombuffer(ca, int).reshape(a_shape),
        np.frombuffer(cb, int).reshape(b_shape)))
    shape = np.broadcast_shapes(a_shape, b_shape)[:-1]
    n, runs, lo = math.prod(shape), [], 0
    while lo < len(ca):
        new = np.zeros(len(ca) - lo, dtype=int)     # distinct entries so far
        for c in (ca[lo:], cb[lo:]):
            new[np.unique(c, return_index=True)[1]] += 1
        hi = lo + max(1, int(np.searchsorted(np.cumsum(new), limit, "right")))
        table = []
        for k in range(lo, hi, step):
            w = min(step, hi - k)
            cuts = [k, *range((k // n + 1) * n, k + w, n), k + w]
            table += [(k - lo, k - lo + w, p - k, q - k, p % n, p % n + q - p,
                       p // n in minus) for p, q in zip(cuts, cuts[1:])]
        runs.append(np.unique(ca[lo:hi], return_inverse=True)
                    + np.unique(cb[lo:hi], return_inverse=True)
                    + (np.array(table, dtype=np.int32),))
        lo = hi
    return shape, tuple(runs)


def multiply(a: MultiJet, b, out: MultiJet) -> MultiJet:
    """a * b written into out's coefficients; returns out.

    out may be a or b (each chunk of a product is read before it is
    written), which saves a stack-sized temporary.
    """
    if type(b) is MultiJet:
        a._same_space(b)
        a.space.product(a.coef, b.coef, out.coef)
    else:
        np.multiply(a.coef, b, out=out.coef)
    return out


# ---------------------------------------------------------------------------
# analytic function helpers, on a MultiJet or a TruncatedSeries
# ---------------------------------------------------------------------------

def _compose(x, derivs):
    """x composed with the function whose derivatives at x's constant term
    u0 are derivs(u0, order)."""
    return x.apply_analytic(derivs(np.asarray(x.value), x.order))


def _power(x, alpha, value, what):
    """x**alpha by the power rule on a positive jet; value(u0) = u0**alpha."""
    def derivs(u0, order):
        if np.any(u0 <= 0):
            raise ValueError(f"{what} requires positive constant term")
        out = [value(u0)]
        for k in range(1, order + 1):
            out.append(out[-1] * (alpha - (k - 1)) / u0)
        return out
    return _compose(x, derivs)


def sqrt(x):
    return _power(x, 0.5, np.sqrt, "sqrt of jet")


def powf(x, alpha: float):
    """x**alpha for non-integer alpha (constant term must be positive)."""
    return _power(x, alpha, lambda u: np.power(u, alpha), "powf")


def exp(x):
    return _compose(x, lambda u0, order: [np.exp(u0)] * (order + 1))


def log(x):
    return _compose(x, lambda u0, order: [np.log(u0)] + [
        (-1.0) ** (k - 1) * math.factorial(k - 1) / u0 ** k
        for k in range(1, order + 1)])


def _sin_cycle(u0, order, shift):
    """Derivatives of sin (shift 0) or cos (shift 1) at u0."""
    s, c = np.sin(u0), np.cos(u0)
    cycle = [s, c, -s, -c]
    return [cycle[(k + shift) % 4] for k in range(order + 1)]


def sin(x):
    return _compose(x, lambda u0, order: _sin_cycle(u0, order, 0))


def cos(x):
    return _compose(x, lambda u0, order: _sin_cycle(u0, order, 1))


def _atan_derivs(u0, order):
    # Taylor coefficients of atan(u0 + h): integrate 1/(1 + (u0+h)^2),
    # whose h-series is the reciprocal of (1+u0^2) + 2 u0 h + h^2.
    denom = [1.0 + u0 ** 2, 2.0 * u0, np.ones_like(u0)]
    recip = [1.0 / denom[0]]
    for k in range(1, order):
        acc = 0.0
        for j in range(1, min(k, 2) + 1):
            acc = acc + denom[j] * recip[k - j]
        recip.append(-acc / denom[0])
    coeffs = [np.arctan(u0)] + [recip[k - 1] / k for k in range(1, order + 1)]
    return [coeffs[k] * math.factorial(k) for k in range(order + 1)]


def atan(x):
    return _compose(x, _atan_derivs)


@lru_cache(maxsize=None)
def _taylor_table(coef_fn, order: int, n: int):
    """Horner rows tab[j, d] = c_(d+j) (d+j)!/j!, zero-padded where d+j >= n."""
    tab = np.zeros((n, order + 1))
    for d in range(order + 1):
        for k in range(d, n):
            tab[k - d, d] = coef_fn(k) * math.factorial(k) / math.factorial(k - d)
    tab.setflags(write=False)      # shared by every caller through the cache
    return tab


@lru_cache(maxsize=None)
def _taylor_columns(coef_fn, order: int, n: int):
    """_taylor_table as Python floats: per d, tab[j, d] for j = n-1 .. 0."""
    return tuple(map(tuple, _taylor_table(coef_fn, order, n)[::-1].T.tolist()))


def _entire_apply(x, coef_fn):
    """Apply a function of t given its Maclaurin coefficients coef_fn(k).

    Derivatives at the jet's constant term come from the term-wise
    differentiated series cut after order + 1 + N_EXTRA terms (a Horner loop
    over a cached table): the sin/cos uses are entire with |t| up to ~pi^2,
    but atan(sqrt t)^2 has radius 1 and loses accuracy as t nears it."""
    def derivs(t0, order):
        t0 = np.asarray(t0, dtype=float)
        if t0.ndim == 0:
            # one point: the same Horner steps, each rounded alike, on floats
            t, out = float(t0), []
            for col in _taylor_columns(coef_fn, order, order + 1 + N_EXTRA):
                acc = 0.0
                for c in col:
                    acc = acc * t + c
                out.append(acc)
            return out
        tab = _taylor_table(coef_fn, order, order + 1 + N_EXTRA)
        tab = tab.reshape(tab.shape + (1,) * t0.ndim)
        # out[d] = sum_{k>=d} c_k k!/(k-d)! t0^(k-d), highest power first
        out = np.zeros((order + 1,) + t0.shape)
        for row in tab[::-1]:
            out *= t0
            out += row
        return out

    return _compose(x, derivs)


def _cos_sqrt_coef(k):
    return (-1.0) ** k / math.factorial(2 * k)


def _sinc_sqrt_coef(k):
    return (-1.0) ** k / math.factorial(2 * k + 1)


def _sin_sq_sqrt_over_t_coef(k):
    return (-1.0) ** k * 2.0 ** (2 * k + 1) / math.factorial(2 * k + 2)


def _t_minus_sinsq_over_t2_coef(k):
    return (-1.0) ** k * 2.0 ** (2 * k + 3) / math.factorial(2 * k + 4)


def _atan_sqrt_sq_coef(k):
    """Maclaurin coefficient of atan(sqrt(t))^2, radius of convergence 1."""
    # atan(sqrt t)/sqrt t = sum (-1)^j t^j/(2j+1); square then shift by t.
    a = [(-1.0) ** j / (2 * j + 1) for j in range(k)]
    return sum(a[j] * a[k - 1 - j] for j in range(k))


def cos_sqrt(x):
    """cos(sqrt(t)) as an entire function of t."""
    return _entire_apply(x, _cos_sqrt_coef)


def sinc_sqrt(x):
    """sin(sqrt(t))/sqrt(t) as an entire function of t."""
    return _entire_apply(x, _sinc_sqrt_coef)


def sin_sq_sqrt_over_t(x):
    """sin^2(sqrt(t))/t as an entire function of t."""
    return _entire_apply(x, _sin_sq_sqrt_over_t_coef)


def t_minus_sinsq_over_t2(x):
    """(t - sin^2 sqrt(t)) / t^2 as an entire function of t."""
    return _entire_apply(x, _t_minus_sinsq_over_t2_coef)


def atan_sqrt_sq(x):
    """atan(sqrt(t))^2; series route near 0, smooth composition elsewhere."""
    t0 = np.asarray(x.value)
    near = t0 < 0.5
    if np.all(near):
        return _entire_apply(x, _atan_sqrt_sq_coef)
    if not np.any(near):
        return atan(sqrt(x)) ** 2
    # a batch on both sides: each point by its own route (the series
    # converges only for t < 1)
    w = near.astype(float)
    return (atan_sqrt_sq(x - (1.0 - w) * t0) * w
            + atan_sqrt_sq(x + w * (1.0 - t0)) * (1.0 - w))


def norm_sq(x: MultiJet) -> MultiJet:
    """Sum of the squares of a stack's entries, squared as one stack and
    summed in order."""
    sq = (x * x).coef
    total = sq[:, 0].copy()
    for k in range(1, sq.shape[1]):     # the entries' planes, added in order
        total += sq[:, k]
    return MultiJet(x.space, total)
