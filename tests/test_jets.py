"""Taylor-mode jet engine against closed-form derivatives."""

import math
import tracemalloc

import numpy as np
import pytest

from hml import catalog, jets
from hml.conventions import MAX_JET_ORDER
from hml.jets import jet_space, seed_point
from hml.series import TruncatedSeries

import oracles


def test_polynomial_partials_exact():
    x, y = seed_point([2.0, -1.0], 3)
    f = x ** 2 * y + 3 * x - y ** 3
    assert f.value == pytest.approx(2 ** 2 * (-1) + 6 + 1)
    d = f.derivative_array(1)
    assert d[0] == pytest.approx(2 * 2 * (-1) + 3)   # 2xy + 3
    assert d[1] == pytest.approx(4 - 3)              # x^2 - 3y^2
    d2 = f.derivative_array(2)
    assert d2[0, 1] == pytest.approx(4.0)            # 2x
    assert d2[1, 1] == pytest.approx(6.0)            # -6y

def test_transcendental_mixed_partials():
    x0, y0 = 0.7, -0.3
    x, y = seed_point([x0, y0], 4)
    f = jets.sin(x * y) + x ** 3 / (1 + y * y)
    d2 = f.derivative_array(2)
    expected = (np.cos(x0 * y0) - x0 * y0 * np.sin(x0 * y0)
                - 6 * y0 * x0 ** 2 / (1 + y0 ** 2) ** 2)
    assert d2[0, 1] == pytest.approx(expected, rel=1e-12)
    assert d2[0, 1] == pytest.approx(d2[1, 0], rel=1e-14)


def test_high_order_univariate_matches_taylor():
    # exp at x0: all derivatives equal exp(x0)
    (x,) = seed_point([0.4], 12)
    f = jets.exp(x)
    for d in range(0, 13, 3):
        arr = f.derivative_array(d)
        assert float(arr.reshape(-1)[0]) == pytest.approx(math.exp(0.4), rel=1e-11)
    # log at x0: d^k log = (-1)^(k-1) (k-1)! / x0^k
    g = jets.log(x)
    assert float(g.value) == pytest.approx(math.log(0.4), rel=1e-15)
    for d in range(1, 13, 3):
        arr = g.derivative_array(d)
        assert float(arr.reshape(-1)[0]) == pytest.approx(
            (-1) ** (d - 1) * math.factorial(d - 1) / 0.4 ** d, rel=1e-11)


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        jet_space(2, MAX_JET_ORDER + 1)
    # the cap itself is generous enough for grad^7 R style needs
    assert MAX_JET_ORDER >= 12


def test_batch_matches_pointwise():
    pts = np.array([[0.3, 0.8], [1.2, -0.4], [0.05, 0.02]])
    xb = seed_point(pts, 3)
    fb = jets.sqrt(1 + jets.norm_sq(xb)) * jets.cos(xb[0])
    for i, p in enumerate(pts):
        xs = seed_point(p, 3)
        fs = jets.sqrt(1 + jets.norm_sq(xs)) * jets.cos(xs[0])
        assert fb.derivative_array(2)[..., i] == pytest.approx(
            fs.derivative_array(2), rel=1e-13)


def test_reciprocal_roundtrip():
    x, y = seed_point([1.5, 0.2], 5)
    f = 1 + x * y + y ** 2
    g = f * f.reciprocal()
    assert g.value == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(g.coef[1:])) < 1e-13


def test_partial_is_derivative():
    x, y = seed_point([0.9, 1.1], 4)
    f = jets.exp(x) * jets.sin(y)
    fx = f.partial(0)
    assert fx.value == pytest.approx(f.derivative_array(1)[0], rel=1e-13)
    # mixed: d/dy of (df/dx)
    assert fx.derivative_array(1)[1] == pytest.approx(
        f.derivative_array(2)[0, 1], rel=1e-12)


def test_division_and_integer_powers():
    (x,) = seed_point([0.6], 6)
    f = (1 + x) ** 3 / (1 - x)
    x0 = 0.6
    val = (1 + x0) ** 3 / (1 - x0)
    d1 = (3 * (1 + x0) ** 2 * (1 - x0) + (1 + x0) ** 3) / (1 - x0) ** 2
    assert f.value == pytest.approx(val, rel=1e-13)
    assert f.derivative_array(1)[0] == pytest.approx(d1, rel=1e-12)
    # by a number: each coefficient divided (by 4, exactly a scaling)
    assert (f / 4.0).coef.tobytes() == (f * 0.25).coef.tobytes()
    with pytest.raises(ValueError, match="negative exponent -1"):
        x ** -1


@pytest.mark.parametrize("t0", [0.0, 0.3, 2.0, 7.5])
def test_entire_helpers_match_references(t0):
    (t,) = seed_point([t0], 4)
    cs = jets.cos_sqrt(t)
    ss = jets.sinc_sqrt(t)
    s2 = jets.sin_sq_sqrt_over_t(t)
    if t0 > 0:
        r = math.sqrt(t0)
        assert cs.value == pytest.approx(math.cos(r), abs=1e-13)
        assert ss.value == pytest.approx(math.sin(r) / r, abs=1e-13)
        assert s2.value == pytest.approx(math.sin(r) ** 2 / t0, abs=1e-13)
    else:
        assert cs.value == pytest.approx(1.0, abs=1e-15)
        assert ss.value == pytest.approx(1.0, abs=1e-15)
        assert s2.value == pytest.approx(1.0, abs=1e-15)
    # first derivative vs finite differences of the scalar helpers
    h = 1e-6 if t0 else 1e-8
    tp, tm = t0 + h, max(t0 - h, 0.0)
    for jet_val, scalar in ((cs, jets.cos_sqrt), (s2, jets.sin_sq_sqrt_over_t)):
        fd = (scalar(tp) - scalar(tm)) / (tp - tm)
        assert jet_val.derivative_array(1)[0] == pytest.approx(fd, abs=2e-6)


@pytest.mark.parametrize("t0", [0.0, 0.2, 0.9, 16.0])
def test_atan_sqrt_sq(t0):
    (t,) = seed_point([t0], 3)
    f = jets.atan_sqrt_sq(t)
    ref = math.atan(math.sqrt(t0)) ** 2 if t0 else 0.0
    assert f.value == pytest.approx(ref, abs=1e-13)
    if t0:
        h = t0 * 1e-6
        fd = (jets.atan_sqrt_sq(t0 + h) - jets.atan_sqrt_sq(t0 - h)) / (2 * h)
        assert f.derivative_array(1)[0] == pytest.approx(fd, rel=1e-7)
    else:
        # atan(sqrt t)^2 = t - 2t^2/3 + ...
        assert f.derivative_array(1)[0] == pytest.approx(1.0, abs=1e-13)
        assert f.derivative_array(2)[0, 0] == pytest.approx(-4.0 / 3.0, abs=1e-12)


def test_atan_sqrt_sq_batch_matches_each_point():
    # a batch straddling the series radius takes each point's own route
    x = np.array([[0.1, 0.2], [1.5, 3.0], [0.6, 0.1], [4.0, 0.0]])
    batch = jets.atan_sqrt_sq(jets.norm_sq(seed_point(x, 3)))
    for i, xi in enumerate(x):
        single = jets.atan_sqrt_sq(jets.norm_sq(seed_point(xi, 3)))
        assert np.array_equal(batch.coef[:, i], single.coef)


@pytest.mark.parametrize("name", sorted(oracles.LITERAL_COEFS))
@pytest.mark.parametrize("order", range(7))
def test_entire_helpers_match_literal_horner(name, order):
    """The table-driven Horner loop is bit-identical to the per-call one."""
    fn, coef = getattr(jets, name), oracles.LITERAL_COEFS[name]
    rng = np.random.default_rng(order)
    cases = [seed_point(rng.uniform(0.05, 0.3, 3), order),
             seed_point(rng.uniform(0.05, 0.3, (1, 3)), order),
             seed_point(rng.uniform(0.05, 0.3, (16, 3)), order)]
    for xj in cases:
        t = jets.norm_sq(xj) + 0.3 * xj[0]
        got, ref = fn(t), oracles.literal_entire_apply(t, coef)
        assert got.coef.shape == ref.coef.shape
        assert np.array_equal(got.coef, ref.coef)
    series = TruncatedSeries([0.2, 1.0, -0.3, 0.05, 0.0, 0.1, 0.02][:order + 1])
    assert fn(series).coeffs == oracles.literal_entire_apply(series, coef).coeffs


class _BareJet:
    """Just enough of a jet for _entire_apply: order, constant, composition."""
    order = 4

    value = np.array([0.1, 0.25])

    def apply_analytic(self, derivs):
        return derivs


class _BarePoint(_BareJet):
    """A one-point jet: _entire_apply runs its Horner loop on floats."""

    value = np.float64(0.1)


def test_entire_apply_reuses_one_table(monkeypatch):
    jets._taylor_columns.cache_clear()
    for jet in (_BareJet(), _BarePoint()):  # fill the caches for order 4
        jets.cos_sqrt(jet)
        jets.atan_sqrt_sq(jet)
    size = jets._taylor_table.cache_info().currsize
    columns = jets._taylor_columns.cache_info().currsize
    assert columns == 2                     # the one-point calls read floats

    def no_factorial(k):
        raise AssertionError("factorial called after the table was cached")

    monkeypatch.setattr(math, "factorial", no_factorial)
    for _ in range(3):
        for jet in (_BareJet(), _BarePoint()):
            jets.cos_sqrt(jet)
            jets.atan_sqrt_sq(jet)
    assert jets._taylor_table.cache_info().currsize == size
    assert jets._taylor_columns.cache_info().currsize == columns


_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.7e308,
                     np.inf, -np.inf])


def _draw_coefs(rng, shape):
    """Coefficients over 16 decades, with 15% special values."""
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    hit = rng.random(shape) < 0.15
    arr[hit] = rng.choice(_SPECIAL, hit.sum())
    return arr


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("nvars", range(1, 7))
def test_product_matches_literal_reduceat(nvars, order):
    """Both product routes, whole or in column chunks, give reduceat's bits.

    Batched jets are checked against the literal reduceat; stacks (k
    entries, then a batch) column by column against the unbatched product
    of that column, also with one factor spread over the entries.  The
    column counts straddle the chunk cap and SLOT_MIN_BATCH, below which a
    product goes to reduceat without the slot test.
    """
    space = jet_space(nvars, order)
    rng = np.random.default_rng(10 * nvars + order)
    pairs = len(space.pairs[0])
    cap = jets.CHUNK_MAX // space.rows_per_column
    routes = set()
    for B in (None, 1, 16, jets.SLOT_MIN_BATCH - 1, 32, 64, 128, 256, 1024,
              max(cap, 2), cap + 1):
        if B is not None and B * pairs > 4_000_000:     # oracle memory
            continue
        shape = (space.size,) if B is None else (space.size, B)
        a, b = _draw_coefs(rng, shape), _draw_coefs(rng, shape)
        routes.add(space.use_slots(a, b))
        with np.errstate(all="ignore"):
            got = (jets.MultiJet(space, a) * jets.MultiJet(space, b)).coef
            want = oracles.literal_jet_product(space, a, b)
        assert got.tobytes() == want.tobytes()
    assert routes == ({False, True} if space.slots else {False})

    k = max(2, min(cap + 1, 12))         # a stack at, or past, the cap
    for batch in ((k,), (k, 3), (2, max(cap // 2, 1) + 1)):
        shape = (space.size,) + batch
        a, b = _draw_coefs(rng, shape), _draw_coefs(rng, shape)
        spread = _draw_coefs(rng, (space.size, 1) + batch[1:])
        with np.errstate(all="ignore"):
            got = (jets.MultiJet(space, a) * jets.MultiJet(space, b)).coef
            got_l = (jets.MultiJet(space, spread) * jets.MultiJet(space, b)).coef
            got_r = (jets.MultiJet(space, a) * jets.MultiJet(space, spread)).coef
            for col in np.ndindex(batch):
                at = (slice(None),) + col
                one = (slice(None), 0) + col[1:]
                want = oracles.literal_jet_product(space, a[at], b[at])
                assert got[at].tobytes() == want.tobytes()
                want = oracles.literal_jet_product(space, spread[one], b[at])
                assert got_l[at].tobytes() == want.tobytes()
                want = oracles.literal_jet_product(space, a[at], spread[one])
                assert got_r[at].tobytes() == want.tobytes()


def test_product_chunks_operands_that_broadcast_both_ways(monkeypatch):
    # (15, 64, 1) x (15, 1, 64): neither operand has the output's 4,096
    # columns, so chunks are sized from the output.  Each chunk gathers at
    # most CHUNK_MAX floats of product terms next to smaller factor rows,
    # so the peak stays under two gathered factors at the cap (unchunked,
    # this product peaked at 1.65 MB)
    space = jet_space(4, 2)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((space.size, 64, 1))
    b = rng.standard_normal((space.size, 1, 64))
    out = np.empty((space.size, 64, 64))
    space.product(a, b, out)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        space.product(a, b, out)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2 * jets.CHUNK_MAX * 8
    monkeypatch.setattr(jets, "CHUNK_MAX", 10 ** 12)
    assert space.product(a, b).tobytes() == out.tobytes()


@pytest.mark.parametrize("rows_max", [None, 1, 1 << 12])
@pytest.mark.parametrize("nvars, order", [(2, 1), (3, 2), (4, 4), (6, 3)])
def test_entry_dot_matches_stacked_products(nvars, order, rows_max,
                                            monkeypatch):
    """entry_dot gives the bits of one stacked product per term, added or
    subtracted in order, however its runs and blocks fall.

    The coefficients are finite (signed zeros and subnormals among them):
    the sums are laid out entry by entry, and which NaN an add of two NaNs
    returns depends on where an element falls in numpy's vector loops.
    """
    space = jet_space(nvars, order)
    if rows_max is not None:      # runs of one product, or of a few
        monkeypatch.setattr(jets, "ROWS_MAX", rows_max * len(space.pairs[0]))
    rng = np.random.default_rng(nvars * order)

    def draw(shape):
        arr = _draw_coefs(rng, shape)
        bad = ~(np.abs(arr) < 1e100)
        arr[bad] = rng.choice(_SPECIAL[:4], bad.sum())
        return arr

    a = jets.MultiJet(space, draw((space.size, 5, 3)))
    b = jets.MultiJet(space, draw((space.size, 7)))
    init = jets.MultiJet(space, draw((space.size, 4, 6)))
    ia = (rng.integers(0, 5, (4, 1, 9)), rng.integers(0, 3, (1, 6, 9)))
    ib = (rng.integers(0, 7, (4, 6, 9)),)
    with np.errstate(under="ignore"):
        for start, minus in ((None, ()), (init, range(1, 9, 2))):
            want = start
            for t in range(9):
                p = a.entries(*(i[..., t] for i in ia)) * b.entries(ib[0][..., t])
                want = p if want is None else (want - p if t in minus
                                               else want + p)
            got = jets.entry_dot(a, ia, b, ib, init=start, minus=minus)
            assert got.coef.shape == want.coef.shape
            assert got.coef.tobytes() == np.ascontiguousarray(want.coef).tobytes()


@pytest.mark.parametrize("order", range(5))
def test_apply_analytic_matches_literal_horner(order, monkeypatch):
    cases = [seed_point(np.array([0.3, -0.2, 0.1]), order)]
    cases += [seed_point(np.linspace(-0.3, 0.4, 3 * B).reshape(B, 3), order)
              for B in (1, 16, 256)]
    refs = []
    for xj in cases:
        t = jets.norm_sq(xj) + 0.5 * xj[1] + 0.7
        derivs = [np.cos(t.value + k) for k in range(order + 1)]
        # a top derivative of -0.0: the Horner loop starts from 0.0 + c_n
        for ds in (derivs, derivs[:-1] + [-0.0 * t.value]):
            refs.append((t, ds, oracles.literal_apply_analytic(t, ds)))

    def no_factorial(k):
        raise AssertionError("factorial called per composition")

    monkeypatch.setattr(math, "factorial", no_factorial)
    for t, derivs, ref in refs:
        assert t.apply_analytic(derivs).coef.tobytes() == ref.coef.tobytes()


@pytest.mark.parametrize("obj, text", [
    (jet_space(2, 3), "JetSpace(nvars=2, order=3)"),
    (seed_point([2.0, -1.0], 3)[0], "MultiJet(order=3, value=2.0)"),
    (catalog.sphere(3).metric, "<ChartMetric sphere(dim=3) dim=3>"),
    (TruncatedSeries([1.0, 0.5]), "TruncatedSeries([1.0, 0.5])"),
], ids=["JetSpace", "MultiJet", "ChartMetric", "TruncatedSeries"])
def test_repr_names_the_object(obj, text):
    assert repr(obj) == text


def test_scalar_fallbacks():
    assert jets.sqrt(4.0) == 2.0
    assert jets.sin(np.array([0.0, math.pi / 2])) == pytest.approx([0.0, 1.0])
    assert jets.powf(2.0, 0.5) == pytest.approx(math.sqrt(2))


def test_mul_requires_same_space():
    (a,) = seed_point([1.0], 2)
    (b,) = seed_point([1.0], 3)
    with pytest.raises(ValueError):
        a * b
