import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copgof import numerics
from copgof.numerics import (BracketError, QuadratureSpec, RngStream,
                             derive_seed, find_root, integrate, maximize_1d)


def test_integrate_polynomial():
    spec = QuadratureSpec()
    val = integrate(lambda t: 3.0 * t * t, 0.0, 2.0, spec)
    assert val == pytest.approx(8.0, abs=1e-10)


def test_integrate_infinite_domain():
    spec = QuadratureSpec()
    val = integrate(lambda t: math.exp(-t), 0.0, math.inf, spec)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


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


def test_norm_functions_match_each_other():
    for z in (-3.0, -0.5, 0.0, 1.7):
        p = numerics.norm_cdf(z)
        assert numerics.norm_quantile(p) == pytest.approx(z, abs=1e-10)
        assert numerics.norm_logcdf(z) == pytest.approx(math.log(p), abs=1e-12)


def test_norm_quantile_domain():
    with pytest.raises(ValueError):
        numerics.norm_quantile(0.0)
    with pytest.raises(ValueError):
        numerics.norm_quantile(1.0)


def test_binorm_cdf_independence():
    # rho = 0 factorizes
    val = numerics.binorm_cdf(0.3, -0.7, 0.0)
    expect = numerics.norm_cdf(0.3) * numerics.norm_cdf(-0.7)
    assert val == pytest.approx(expect, rel=1e-10)


def test_binorm_cdf_symmetric_median():
    # P(Z1<=0, Z2<=0) = 1/4 + arcsin(rho)/(2 pi)
    for rho in (-0.6, 0.0, 0.4, 0.9):
        expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert numerics.binorm_cdf(0.0, 0.0, rho) == pytest.approx(expect, rel=1e-9)


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
    a = RngStream(123, 5).uniform(10)
    b = RngStream(123, 5).uniform(10)
    c = RngStream(123, 6).uniform(10)
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
    assert v <= min(numerics.norm_cdf(z1), numerics.norm_cdf(z2)) + 1e-12
