import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr

from copgof import numerics
from copgof.numerics import (BracketError, RngStream, derive_seed, find_root,
                             maximize_1d)


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


def test_elementwise_uses_the_scalar_function():
    x = np.linspace(0.01, 30.0, 1001)
    for fn, args in ((math.log1p, (x,)), (math.expm1, (-x,)), (pow, (x, 3))):
        got = numerics.elementwise(fn, *args)
        assert got.shape == x.shape
        assert got.tolist() == [fn(*(a[i].item() if np.ndim(a) else a for a in args))
                                for i in range(x.size)]
    assert numerics.elementwise(math.log1p, 0.25) == math.log1p(0.25)


def test_binorm_pdf_peak():
    val = numerics.binorm_pdf(0.0, 0.0, 0.5)
    expect = 1.0 / (2.0 * math.pi * math.sqrt(0.75))
    assert val == pytest.approx(expect, rel=1e-12)


def test_find_root_simple():
    r = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_maximize_1d_parabola():
    x, fx = maximize_1d(lambda x: -(x - 0.7) ** 2, -5.0, 5.0, tol=1e-10)
    assert x == pytest.approx(0.7, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


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
