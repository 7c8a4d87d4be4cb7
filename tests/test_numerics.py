import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr, ndtr

from copgof import numerics
from copgof.numerics import (BracketError, OptimizationError, RngStream, derive_seed,
                             maximize_1d)
from oracles import binorm_pdf


def test_debye1_known_value():
    # D1(1) computed independently from the series expansion
    assert numerics.debye1(1.0) == pytest.approx(0.7775046341122482, abs=1e-10)


def test_debye1_small_theta_limit():
    # D1(t) -> 1 - t/4 as t -> 0
    t = 1e-4
    assert numerics.debye1(t) == pytest.approx(1.0 - t / 4.0, abs=1e-8)


def test_debye1_rejects_nonpositive():
    with pytest.raises(ValueError):
        numerics.debye1(0.0)


def test_binorm_cdf_independence():
    # rho = 0 factorizes
    val = numerics.binorm_cdf(0.3, -0.7, 0.0)
    expect = ndtr(0.3) * ndtr(-0.7)
    assert val == pytest.approx(expect, rel=1e-10)


def test_binorm_cdf_symmetric_median():
    # P(Z1<=0, Z2<=0) = 1/4 + arcsin(rho)/(2 pi)
    for rho in (-0.6, 0.0, 0.4, 0.9):
        expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert numerics.binorm_cdf(0.0, 0.0, rho) == pytest.approx(expect, rel=1e-9)


_GRID_Z = [z for z in np.round(np.arange(-4.0, 4.0001, 0.2), 10) if z != 0.0]
_GRID_RHO = [sign * r for r in (0.999, 0.99, 0.95, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01)
             for sign in (1.0, -1.0)]


@pytest.mark.parametrize("rho", _GRID_RHO)
def test_binorm_logcdf_matches_oracle_on_grid(rho):
    h, k = (a.ravel() for a in np.meshgrid(_GRID_Z, _GRID_Z))
    oracle = np.array([numerics.binorm_cdf(a, b, rho) for a, b in zip(h, k)])
    keep = oracle > 1e-300
    got = numerics.binorm_logcdf(h, k, rho)
    assert np.max(np.abs(got[keep] - np.log(oracle[keep]))) <= 1e-8
    # below 1e-300 the oracle's absolute floor takes over; the log stays finite
    assert np.all(np.isfinite(got)) and np.all(got[~keep] < math.log(1e-290))


@pytest.mark.parametrize("h, k, rho", [
    (0.0, 0.0, -0.6), (0.0, 0.0, 0.4), (0.0, 1.3, -0.7), (0.0, -2.1, 0.5),
    (-0.8, 0.0, -0.95), (2.2, 0.0, 0.9),
    (-2.7, -2.7, -0.9),    # deepest n = 300 corner: T identity's relative error 3.6e17
    (-4.9, 0.1, -0.95),    # mixed quadrant, cancels as well
    (5e-324, 0.0, 0.9),    # T's argument k/h - rho stays finite next to the axis
    (-8.0, -8.0, 0.01),    # positive rho cancels too, deeper in the corner
    (-8.0, 2.0, 0.5),
    (-6.0, -2.0, 0.999),   # rho near 1 in the tail branch
])
def test_binorm_logcdf_explicit_rows(h, k, rho):
    expect = math.log(numerics.binorm_cdf(h, k, rho))
    assert numerics.binorm_logcdf(h, k, rho) == pytest.approx(expect, rel=0, abs=1e-10)
    if h == k == 0.0:
        assert numerics.binorm_logcdf(h, k, rho) == pytest.approx(
            math.log(0.25 + math.asin(rho) / (2.0 * math.pi)), rel=0, abs=1e-14)


def test_binorm_logcdf_shapes_and_domain():
    assert np.ndim(numerics.binorm_logcdf(0.3, -0.2, 0.5)) == 0
    z = np.array([-1.0, 0.0, 2.0])
    out = numerics.binorm_logcdf(z, z[::-1], -0.5)
    assert out.shape == (3,)
    assert out[0] == out[2]
    with pytest.raises(ValueError):
        numerics.binorm_logcdf(0.0, 0.0, 1.0)
    # on the boundary Phi2 is a univariate Phi, or 0
    edge = numerics.binorm_logcdf([np.inf, 0.3, -np.inf, np.inf],
                                  [0.3, np.inf, 2.0, np.inf], -0.5)
    np.testing.assert_array_equal(edge, [log_ndtr(0.3)] * 2 + [-np.inf, 0.0])


def test_binorm_logcdf_rho_column_rows_equal_scalar_calls():
    # the grid reaches the tail branch (negative corners) on every row
    z = np.array(_GRID_Z + [-6.0, -8.0, 0.0])
    h, k = (a.ravel() for a in np.meshgrid(z, z))
    rhos = [-0.999, -0.9, -0.3, 0.0, 0.4, 0.99]
    block = numerics.binorm_logcdf(h, k, np.array(rhos)[:, None])
    assert block.shape == (len(rhos), h.size)
    for row, rho in zip(block, rhos):
        assert row.tobytes() == numerics.binorm_logcdf(h, k, rho).tobytes(), rho
    with pytest.raises(ValueError):
        numerics.binorm_logcdf(h, k, np.array([[0.5], [1.0]]))


def test_binorm_logcdf_entries_equal_their_scalar_calls():
    # the tail rule's node sum must not round an entry by its neighbours,
    # as a BLAS product over the tail entries would
    z = np.array(_GRID_Z + [-6.0, -8.0, 0.0])
    h, k = (a.ravel() for a in np.meshgrid(z, z))
    for rho in [-0.999, -0.9, -0.3, 0.0, 0.4, 0.99]:
        row = numerics.binorm_logcdf(h, k, rho)
        alone = np.array([numerics.binorm_logcdf(a, b, rho) for a, b in zip(h, k)])
        assert row.tobytes() == alone.tobytes(), rho


def test_binorm_pdf_peak():
    val = binorm_pdf(0.0, 0.0, 0.5)
    expect = 1.0 / (2.0 * math.pi * math.sqrt(0.75))
    assert val == pytest.approx(expect, rel=1e-12)


def _alone(f, x0, half, tol):
    """maximize_1d of one objective of x, as a one-row call."""
    (out,) = maximize_1d(lambda rows, xs: [f(xs[0])], np.array([x0]), half, tol=tol)
    return out


def test_maximize_1d_parabola():
    x, fx = _alone(lambda x: -(x - 0.7) ** 2, 0.0, 5.0, tol=1e-10)
    assert x == pytest.approx(0.7, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


class _Stop(Exception):
    pass


def _probed(f, x0, half, tol, max_probes=math.inf):
    """maximize_1d of f from x0 as a one-row call, and the points it
    probed; a search that asks for more than max_probes points is stopped
    there, and its result is None."""
    probes = []

    def row(rows, xs):
        probes.extend(xs)
        if len(probes) > max_probes:
            raise _Stop
        return [f(x) for x in xs]

    try:
        (out,) = maximize_1d(row, np.array([x0]), half, tol=tol)
    except _Stop:
        out = None
    return out, probes


def _scipy_bracket(f, lo, hi, xatol):
    """scipy's bounded minimize_scalar of -f on [lo, hi], with 1e300 where
    f(x) is not finite, and the points it probed."""
    probes = []

    def negated(x):
        probes.append(x)
        v = f(x)
        return -v if math.isfinite(v) else 1e300

    with np.errstate(all="ignore"):
        ref = minimize_scalar(negated, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
    assert ref.nfev == len(probes)
    return ref, probes


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _objectives(rng):
    """Smooth, flat and partly non-finite objectives, with their brackets."""
    for _ in range(40):
        c, w = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
        lo, hi = -5.0 + rng.uniform(-1.0, 1.0), 5.0 + rng.uniform(-1.0, 1.0)
        yield "smooth", (lambda x, c=c, w=w: w * (x - c) ** 2 + math.sin(x)), lo, hi
        yield "flat", (lambda x: 1.0), lo, hi
        yield "step", (lambda x, c=c: float(x > c)), lo, hi
        yield "inf beyond", (lambda x, c=c: math.inf if x > c else -math.cos(x)), lo, hi
        yield "nan near", (lambda x, c=c: math.nan if abs(x - c) < 0.5 else abs(x - c)), lo, hi
        yield "1e300 mapped", (lambda x, c=c: 1e300 if x < c else (x - c - 1.0) ** 2), lo, hi


def test_in_house_brent_equals_scipy_bit_for_bit():
    # a row's first bracket, x0 +- half, takes scipy's bounded Brent steps
    # on -f: the same probes, bit for bit, and the same optimum where the
    # row ends there. A row that probes on has that optimum within the
    # edge margin; one with more than 20% non-finite probes fails there
    rng = np.random.default_rng(8)
    for name, f, lo, hi in _objectives(rng):
        x0, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for sign in (1.0, -1.0):
            def g(x, f=f, sign=sign):
                return sign * f(x)

            for xatol in (1e-10, 1e-8, 1e-5, 1e-2):
                ref, ref_probes = _scipy_bracket(g, x0 - half, x0 + half, xatol)
                out, probes = _probed(g, x0, half, xatol, max_probes=ref.nfev)
                assert _bits(probes[:ref.nfev]) == _bits(ref_probes), name
                nonfinite = sum(not math.isfinite(g(x)) for x in ref_probes)
                if nonfinite > 0.2 * ref.nfev:
                    assert str(out) == (f"objective non-finite at {nonfinite}/{ref.nfev} "
                                        f"probes on [{x0 - half}, {x0 + half}]"), name
                elif out is not None:
                    assert _bits(out) == _bits((ref.x, -ref.fun)), name
                else:
                    margin = 0.01 * (2.0 * half) + 2.0 * xatol
                    assert min(ref.x - (x0 - half), x0 + half - ref.x) <= margin, name


def test_maximize_1d_lockstep_rows_equal_their_own_searches():
    # searches run together take the steps each takes alone, also when
    # their optima need different numbers of brackets, and one search's
    # non-finite probes fail that search only
    tops = [0.7, -2.0, 3.3, 0.0]

    def value(j, x):
        return math.nan if j == 3 else -(x - tops[j]) ** 2 + math.cos(3.0 * x)

    x0 = np.array([0.0, -1.5, 0.5, 0.0])
    calls = []

    def batch(rows, xs):
        calls.append(len(rows))
        return [value(j, x) for j, x in zip(rows.tolist(), xs)]

    out = maximize_1d(batch, x0, 1.0, tol=1e-9)
    for j in range(3):
        assert _alone(lambda x: value(j, x), x0[j], 1.0, tol=1e-9) == out[j]
    assert isinstance(out[3], OptimizationError)
    alone = _alone(lambda x: value(3, x), x0[3], 1.0, tol=1e-9)
    assert isinstance(alone, OptimizationError) and "non-finite" in str(alone)
    # one call per round, over the searches still running
    assert calls[0] == 4 and calls == sorted(calls, reverse=True)


def test_maximize_1d_bracket_gives_up_on_a_bounded_rising_objective():
    # atan rises toward its bound: the optimum sits on the upper edge of
    # every bracket, and the search ends after the last of them. Each
    # bracket's probes are scipy's on that bracket, and the next runs
    # from its optimum less the edge margin to one width past its upper
    # edge, so the lower ends rise
    tol = 1e-8
    out, probes = _probed(math.atan, 0.0, 1.0, tol)
    assert isinstance(out, BracketError)
    lo, hi, lower_ends = -1.0, 1.0, []
    for _ in range(numerics._MAX_EXPANSIONS):
        ref, ref_probes = _scipy_bracket(math.atan, lo, hi, tol)
        assert _bits(probes[:ref.nfev]) == _bits(ref_probes)
        del probes[:ref.nfev]
        width = hi - lo
        margin = 0.01 * width + 2.0 * tol
        assert ref.x - lo > margin and hi - ref.x <= margin
        lower_ends.append(lo)
        lo, hi = ref.x - margin, hi + width
    assert probes == []
    assert str(out) == f"optimum still on an edge of [{lo}, {hi}] after 60 brackets from 0.0"
    assert all(b > a for a, b in zip(lower_ends, lower_ends[1:]))


# numpy functions that the likelihood kernels apply to gathered, padded
# and theta-column arrays: each must give an entry the same bits whatever
# the array's length, offset, stride or shape, or block rows would differ
# from their one-sample calls
_LAYOUT_UFUNCS = {
    "log1p": (np.log1p, (-0.9, 5.0)),
    "exp": (np.exp, (-30.0, 30.0)),
    "expm1": (np.expm1, (-30.0, 30.0)),
    "log": (np.log, (1e-6, 50.0)),
    "sqrt": (np.sqrt, (0.0, 50.0)),
    "tanh": (np.tanh, (-20.0, 20.0)),
    "arctanh": (np.arctanh, (-0.999, 0.999)),
    "arcsin": (np.arcsin, (-0.999, 0.999)),
}


@pytest.mark.parametrize("name", [*_LAYOUT_UFUNCS, "power"])
def test_ufunc_results_do_not_depend_on_array_layout(name):
    rng = np.random.default_rng(21)
    size = 1006
    if name == "power":
        base = rng.uniform(1e-3, 1.0, size)
        p = rng.choice([-1.0, 0.5, 2.0, -2.5, 0.37, 3.1], size) * rng.choice([1.0, 1.0001], size)

        def fn(idx):
            return np.power(base[idx], p[idx])

        whole = np.power(base, p)
        # a (k, 1) exponent column over a (k, m) block: row j at p[j]
        column = np.power(np.tile(base[:40], (6, 1)), p[:6, None])
        for j in range(6):
            expect = np.power(base[:40], np.full(40, p[j]))
            assert column[j].tobytes() == expect.tobytes(), ("column", j)
    else:
        f, (lo, hi) = _LAYOUT_UFUNCS[name]
        x = rng.uniform(lo, hi, size)

        def fn(idx):
            return f(x[idx])

        whole = f(x)
        k = 7
        assert f(x[:k, None]).tobytes() == whole[:k].tobytes(), "column"
        block = f(np.broadcast_to(x[:k, None], (k, 33)))
        assert block.tobytes() == np.repeat(whole[:k], 33).tobytes(), "broadcast column"
    for length in range(1, 1001):
        for offset in (0, 1, 2, 3, 5):
            got = fn(slice(offset, offset + length))
            assert got.tobytes() == whole[offset:offset + length].tobytes(), (length, offset)
    for offset in range(3):
        assert fn(slice(offset, None, 3)).tobytes() == whole[offset::3].tobytes(), "stride 3"


def test_rng_stream_reproducible():
    a = RngStream(123, 5).generator().random(10)
    b = RngStream(123, 5).generator().random(10)
    c = RngStream(123, 6).generator().random(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_keyed():
    s1 = derive_seed(99, 1, 2)
    s2 = derive_seed(99, 1, 2)
    s3 = derive_seed(99, 2, 1)
    assert s1 == s2
    assert s1 != s3


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=30.0))
def test_debye1_bounded(theta):
    d = numerics.debye1(theta)
    assert 0.0 < d < 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-0.99, max_value=0.99),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_binorm_cdf_is_probability(rho, z1, z2):
    v = numerics.binorm_cdf(z1, z2, rho)
    assert 0.0 <= v <= 1.0
    assert v <= min(ndtr(z1), ndtr(z2)) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.999, max_value=0.999),
       st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_binorm_logcdf_within_frechet_bounds(rho, h, k):
    v = numerics.binorm_logcdf(h, k, rho)
    assert np.isfinite(v)
    assert v == numerics.binorm_logcdf(k, h, rho)
    ph, pk = ndtr(h), ndtr(k)
    p = math.exp(v)
    assert p <= min(ph, pk) * (1.0 + 1e-9)
    assert p >= max(0.0, ph + pk - 1.0) - 1e-15
