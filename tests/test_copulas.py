import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from copgof import copulas, numerics
from copgof.copulas import (CopulaModel, Family, cdf, density, loglik_vec,
                            partial_u1, partial_u2, sample_pairs, score_vec,
                            hessian_vec, tau_to_theta, theta_to_tau)
from oracles import binorm_pdf

THETAS = {
    Family.CLAYTON: 2.0,
    Family.FRANK: 5.0,
    Family.JOE: 2.5,
    Family.GAUSSIAN: 0.6,
    Family.GUMBEL: 2.0,
}


def _grid():
    u = np.linspace(0.1, 0.9, 7)
    return np.meshgrid(u, u)


# --- frozen pointwise values -------------------------------------------

def test_clayton_cdf_half_half():
    # C(1/2, 1/2; 2) = (2^2 + 2^2 - 1)^(-1/2) = 7^(-1/2)
    m = CopulaModel(Family.CLAYTON, 2.0)
    assert cdf(m, 0.5, 0.5) == pytest.approx(7.0 ** -0.5, abs=1e-12)


def test_clayton_density_half_half():
    # 3 * 2^6 * 7^(-5/2) evaluated by hand
    m = CopulaModel(Family.CLAYTON, 2.0)
    expect = 3.0 * 64.0 * 7.0 ** -2.5
    assert density(m, 0.5, 0.5) == pytest.approx(expect, rel=1e-12)


def test_clayton_loglik_pieces_frozen():
    u1 = np.array([0.5])
    u2 = np.array([0.5])
    # fully observed pair: log c(1/2,1/2;2) = log 1.48100...
    ll = loglik_vec(Family.CLAYTON, 2.0, copulas.Observations(u1, u2, np.array([1]), np.array([1])))
    assert ll[0] == pytest.approx(0.39272, abs=1e-5)
    # doubly censored pair: log C(1/2,1/2;2) = -log(7)/2
    ll = loglik_vec(Family.CLAYTON, 2.0, copulas.Observations(u1, u2, np.array([0]), np.array([0])))
    assert ll[0] == pytest.approx(-0.97295, abs=1e-5)
    assert ll[0] == pytest.approx(-math.log(7.0) / 2.0, abs=1e-12)


def test_gaussian_cdf_closed_median():
    m = CopulaModel(Family.GAUSSIAN, 0.5)
    expect = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    assert cdf(m, 0.5, 0.5) == pytest.approx(expect, rel=1e-9)


def test_frank_independence_limit():
    # small theta approaches the independence copula
    m = CopulaModel(Family.FRANK, 1e-5)
    assert cdf(m, 0.3, 0.7) == pytest.approx(0.21, rel=1e-4)


# --- boundary and copula axioms ---------------------------------------

@pytest.mark.parametrize("family", list(Family))
def test_copula_margins(family):
    m = CopulaModel(family, THETAS[family])
    u = np.array([0.2, 0.5, 0.8])
    near_one = np.full(3, 1.0 - 1e-10)
    np.testing.assert_allclose(cdf(m, u, near_one), u, rtol=1e-6)
    np.testing.assert_allclose(cdf(m, near_one, u), u, rtol=1e-6)
    assert cdf(m, 1e-10, 0.5) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("family", list(Family))
def test_partials_match_fd(family):
    m = CopulaModel(family, THETAS[family])
    u1, u2 = _grid()
    eps = 1e-6
    fd1 = (cdf(m, u1 + eps, u2) - cdf(m, u1 - eps, u2)) / (2 * eps)
    fd2 = (cdf(m, u1, u2 + eps) - cdf(m, u1, u2 - eps)) / (2 * eps)
    np.testing.assert_allclose(partial_u1(m, u1, u2), fd1, atol=1e-7, rtol=1e-5)
    np.testing.assert_allclose(partial_u2(m, u1, u2), fd2, atol=1e-7, rtol=1e-5)


@pytest.mark.parametrize("family", list(Family))
def test_density_matches_mixed_fd(family):
    m = CopulaModel(family, THETAS[family])
    u1, u2 = _grid()
    eps = 1e-5
    fd = (cdf(m, u1 + eps, u2 + eps) - cdf(m, u1 + eps, u2 - eps)
          - cdf(m, u1 - eps, u2 + eps) + cdf(m, u1 - eps, u2 - eps)) / (4 * eps * eps)
    np.testing.assert_allclose(density(m, u1, u2), fd, atol=1e-4, rtol=1e-4)


@pytest.mark.parametrize("family", list(Family))
def test_density_integrates_to_one(family):
    m = CopulaModel(family, THETAS[family])
    k = 200
    mid = (np.arange(k) + 0.5) / k
    u1, u2 = np.meshgrid(mid, mid)
    total = density(m, u1.ravel(), u2.ravel()).sum() / (k * k)
    assert total == pytest.approx(1.0, abs=5e-3)


# --- theta-derivatives against finite differences ----------------------

@pytest.mark.parametrize("family", list(Family))
def test_score_hessian_match_fd(family):
    rng = np.random.default_rng(31)
    u1 = rng.uniform(0.05, 0.95, 60)
    u2 = rng.uniform(0.05, 0.95, 60)
    d1 = rng.integers(0, 2, 60)
    d2 = rng.integers(0, 2, 60)
    inputs = [(THETAS[family], u1, u2, d1, d2)]
    if family is Family.GUMBEL:
        # both ends of the parameter range, at pairs near the corners of
        # the unit square, in every censoring case
        grid = [a.ravel() for a in np.meshgrid([0.003, 0.997], [0.003, 0.997], [0, 1], [0, 1])]
        inputs += [(theta, *grid) for theta in (1.02, 30.0)]
    for theta, u1, u2, d1, d2 in inputs:
        h1 = 1e-6 * max(1.0, abs(theta))
        h2 = 1e-4 * max(1.0, abs(theta))
        ll = lambda t: loglik_vec(family, t, copulas.Observations(u1, u2, d1, d2))
        fd1 = (ll(theta + h1) - ll(theta - h1)) / (2 * h1)
        fd2 = (ll(theta + h2) - 2 * ll(theta) + ll(theta - h2)) / h2 ** 2
        np.testing.assert_allclose(score_vec(family, theta, copulas.Observations(u1, u2, d1, d2)),
                                   fd1, atol=1e-5, rtol=1e-4)
        np.testing.assert_allclose(hessian_vec(family, theta, copulas.Observations(u1, u2, d1, d2)),
                                   fd2, atol=1e-3, rtol=1e-3)


def test_every_family_declares_its_pieces_and_derivatives():
    # no numerical fallback remains to stand in for a missing piece, nor
    # a bisection sampler for a missing inverse; each piece, asked for its
    # derivatives, gives them with its value, bit for bit the value alone
    u1, u2 = np.array([0.2, 0.7, 0.95]), np.array([0.6, 0.3, 0.9])
    for family in Family:
        ops = copulas.family_ops(family)
        for name in ("log_pdf", "log_c1", "log_cdf", "inv_conditional"):
            assert name in vars(ops), (family, name)
        for name in copulas._PIECES:
            value, d1, d2 = getattr(ops, name)(THETAS[family], u1, u2, derivs=True)
            assert value.tobytes() == getattr(ops, name)(THETAS[family], u1, u2).tobytes()
            assert d1.shape == d2.shape == u1.shape
        assert not [name for name in dir(ops) if name.startswith("dlog")]
    assert not hasattr(copulas._Family, "inv_conditional")


def _four_case_sample(n=40, seed=5):
    rng = np.random.default_rng(seed)
    d1, d2 = [np.tile(d, n // 4) for d in ([1, 1, 0, 0], [1, 0, 1, 0])]
    return rng.uniform(0.02, 0.98, n), rng.uniform(0.02, 0.98, n), d1, d2


@pytest.mark.parametrize("family", list(Family))
def test_dlog_vec_evaluates_each_case_piece_once(family, monkeypatch):
    # one pass: each case's piece runs once, asked for its derivatives,
    # and gives the log-likelihood, score and hessian together
    ops = copulas.family_ops(family)
    # the Gaussian kernel reads its pieces from the terms its sample keeps,
    # by the methods that _FROM_TERMS names, the u1-partial's for both partials
    gaussian = family is Family.GAUSSIAN
    names = sorted(set(ops._FROM_TERMS)) if gaussian else copulas._PIECES
    calls = {}
    for name in names:
        def counted(*args, _name=name, _piece=getattr(ops, name)):
            calls[_name] = calls.get(_name, 0) + 1
            assert args[-1] is True
            return _piece(*args)
        monkeypatch.setattr(ops, name, counted)
    u1, u2, d1, d2 = _four_case_sample()
    copulas.dlog_vec(family, THETAS[family], copulas.Observations(u1, u2, d1, d2))
    # log_c2 is log_c1 with its pairs swapped, so log_c1 runs for two cases
    assert calls == ({"_log_pdf": 1, "_log_c1": 2, "_log_cdf": 1} if gaussian else
                     {"log_pdf": 1, "log_c1": 2, "log_c2": 1, "log_cdf": 1})
    calls.clear()
    copulas.dlog_vec(family, THETAS[family],
                     copulas.Observations(u1, u2, np.ones_like(d1), np.ones_like(d2)))
    assert calls == {"_log_pdf" if gaussian else "log_pdf": 1}


@pytest.mark.parametrize("family", list(Family))
def test_dlog_vec_halves_are_score_and_hessian(family):
    # the pass gives the log-likelihood first, then the score and hessian
    u1, u2, d1, d2 = _four_case_sample()
    obs = copulas.Observations(u1, u2, d1, d2)
    column = np.array(COLUMN_THETAS[family])[:, None]
    for theta in (THETAS[family], column):
        loglik, score, hessian = copulas.dlog_vec(family, theta, obs)
        assert loglik.tobytes() == loglik_vec(family, theta, obs).tobytes()
        assert score.tobytes() == score_vec(family, theta, obs).tobytes()
        assert hessian.tobytes() == hessian_vec(family, theta, obs).tobytes()


# Frank's log pieces in the two corners where 1 - zeta (zeta = g1 g2 / g)
# loses digits: near (1, 1) at strong dependence it is of order e^-theta
# and cancels if formed by subtraction, and in the lower-left corner or at
# small theta zeta is tiny, so log C needs log1p(-zeta) rather than the log
# of 1 - zeta. References from 50-digit mpmath, with log c and log c1 from
# differentiating C itself
FRANK_CORNER = [
    # theta, u1, u2, log_pdf, log_c1, log_cdf
    (11.0, 0.95, 0.97, 1.7711060511062662, -0.20340949172926612, -0.07094961860678745),
    (11.0, 0.999, 0.998, 2.365388130791886, -0.02176229343868154, -0.002982800668653503),
    (18.0, 0.95, 0.97, 2.019372320189635, -0.2554997373730249, -0.06634754763787912),
    (18.0, 0.999, 0.998, 2.8376337325177583, -0.03536902086246087, -0.0029693497311271445),
    (30.0, 0.95, 0.97, 2.2373440842851946, -0.2819266486886635, -0.06123471002345625),
    (30.0, 0.999, 0.998, 3.3146425835901505, -0.05827739903605495, -0.0029469178681375777),
    (38.0, 0.95, 0.97, 2.3252068745789067, -0.2761896425737393, -0.05897339361372562),
    (38.0, 0.999, 0.998, 3.529051236559806, -0.07326746158328994, -0.002932386339654243),
    (0.1, 1e-6, 0.2, 0.029583309665826247, -1.5698379569650531, -15.385348475333272),
    (5.0, 1e-6, 1e-3, 1.6111937120970083, -5.294060550325389, -19.109568620841976),
]


@pytest.mark.parametrize("theta, u1, u2, log_pdf, log_c1, log_cdf", FRANK_CORNER,
                         ids=[f"{t:g}-{u1}-{u2}" for t, u1, u2, *_ in FRANK_CORNER])
def test_frank_log_pieces_near_one_one(theta, u1, u2, log_pdf, log_c1, log_cdf):
    ops = copulas.family_ops(Family.FRANK)
    for piece, expect in (("log_pdf", log_pdf), ("log_c1", log_c1), ("log_cdf", log_cdf)):
        got = getattr(ops, piece)(theta, np.array([u1]), np.array([u2]))[0]
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0), piece


@pytest.mark.parametrize("theta, u1, u2, d1, d2", [
    # theta, u1, u2, then d/dtheta and d^2/dtheta^2 of log C (50-digit mpmath)
    (0.1, 1e-6, 0.2, 0.3920009944539003, -0.0799583341934933),
    (5.0, 1e-6, 1e-3, 0.19271626669051212, -0.03317024276897294),
])
def test_frank_dlog_cdf_in_the_lower_corner(theta, u1, u2, d1, d2):
    got = copulas.family_ops(Family.FRANK).log_cdf(theta, np.array([u1]), np.array([u2]),
                                                   derivs=True)
    assert got[1][0] == pytest.approx(d1, rel=1e-12, abs=0.0)
    assert got[2][0] == pytest.approx(d2, rel=1e-12, abs=0.0)


def test_gaussian_cdf_theta_derivative_is_density():
    # dC/dtheta equals the bivariate normal density at the quantiles
    u1, u2 = 0.3, 0.7
    theta = 0.5
    eps = 1e-5
    ma = CopulaModel(Family.GAUSSIAN, theta + eps)
    mb = CopulaModel(Family.GAUSSIAN, theta - eps)
    fd = (cdf(ma, u1, u2) - cdf(mb, u1, u2)) / (2 * eps)
    from scipy.special import ndtri
    pdf2 = binorm_pdf(ndtri(u1), ndtri(u2), theta)
    assert fd == pytest.approx(pdf2, rel=1e-5)


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5])
@pytest.mark.parametrize("u", [(0.003, 0.003), (0.003, 0.6), (0.5, 0.5)])
def test_gaussian_dlog_cdf_matches_central_differences(rho, u):
    # the doubly censored piece, including the negative-rho tail rows
    ops = copulas.family_ops(Family.GAUSSIAN)
    u1, u2 = np.array([u[0]]), np.array([u[1]])
    _, d1, d2 = ops.log_cdf(rho, u1, u2, derivs=True)

    def f(r):
        return ops.log_cdf(r, u1, u2)

    h1, h2 = 1e-6, 1e-4
    np.testing.assert_allclose(d1, (f(rho + h1) - f(rho - h1)) / (2 * h1), rtol=1e-7)
    np.testing.assert_allclose(d2, (f(rho + h2) - 2 * f(rho) + f(rho - h2)) / h2 ** 2,
                               rtol=1e-5)


def test_gaussian_censored_corner_score_is_finite():
    # Phi2 ~ exp(-750) here: it used to underflow to 0 and make the
    # score and hessian non-finite (LikelihoodError)
    rho, u, d = -0.99, np.array([0.003]), np.array([0])
    s = score_vec(Family.GAUSSIAN, rho, copulas.Observations(u, u, d, d))
    h = hessian_vec(Family.GAUSSIAN, rho, copulas.Observations(u, u, d, d))
    assert np.isfinite(s).all() and np.isfinite(h).all()
    ops = copulas.family_ops(Family.GAUSSIAN)
    eps = 1e-6
    fd1 = (ops.log_cdf(rho + eps, u, u) - ops.log_cdf(rho - eps, u, u)) / (2 * eps)
    np.testing.assert_allclose(s, fd1, rtol=1e-6)
    assert h[0] < 0.0


def test_loglik_follows_its_score_below_log_tiny():
    # log C is -766 here, below log(1e-300): a finite piece is no longer
    # floored there, so the log-likelihood has the slope its score reports
    rho, u, d = -0.99, np.array([0.003]), np.array([0])
    eps = 1e-6
    ll = lambda r: loglik_vec(Family.GAUSSIAN, r, copulas.Observations(u, u, d, d))
    fd = (ll(rho + eps) - ll(rho - eps)) / (2 * eps)
    assert ll(rho)[0] < numerics.LOG_TINY
    np.testing.assert_allclose(
        fd, score_vec(Family.GAUSSIAN, rho, copulas.Observations(u, u, d, d)), rtol=1e-6)


# thetas per family for the column kernels: 1 and 2 are exponents numpy
# computes by its own shortcuts (u ** -1, v ** 2, a ** 0.5)
COLUMN_THETAS = {
    Family.CLAYTON: [0.05, 0.7, 1.0, 2.0, 3.7, 12.0],
    Family.FRANK: [0.1, 2.0, 5.0, 11.3, 25.0],
    Family.JOE: [1.01, 1.5, 2.0, 2.5, 7.0],
    Family.GAUSSIAN: [-0.97, -0.5, 0.0, 0.6, 0.95],
    Family.GUMBEL: [1.02, 1.5, 2.0, 3.3, 8.0],
}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 0), (0, 1), (0, 0)])
def test_theta_column_rows_equal_scalar_calls(family, d1, d2):
    rng = np.random.default_rng(12)
    u1 = np.concatenate([rng.uniform(0.001, 0.999, 300), [0.003, 0.5, 0.97, 0.003]])
    u2 = np.concatenate([rng.uniform(0.001, 0.999, 300), [0.003, 0.5, 0.002, 0.9]])
    d1 = np.full(u1.size, d1)
    d2 = np.full(u1.size, d2)
    obs = copulas.Observations(u1, u2, d1, d2)
    thetas = COLUMN_THETAS[family]
    for fn in (loglik_vec, score_vec, hessian_vec):
        block = fn(family, np.array(thetas)[:, None], obs)
        assert block.shape == (len(thetas), u1.size)
        for row, theta in zip(block, thetas):
            assert row.tobytes() == fn(family, theta, obs).tobytes(), (fn, theta)


@pytest.mark.parametrize("p", [-1.0, 0.5, 2.0, -2.7])
def test_apow_column_rows_equal_their_one_row_calls(p):
    # numpy takes the exponents -1, 0.5 and 2 by shortcuts that a column
    # holding them gets only at some array sizes; row j of a (k, 1)-column
    # call, over a block or over one sample, equals the (1, 1)-column call
    rng = np.random.default_rng(5)
    exponents = np.array([0.3, p, 1.7, p, -0.4])[:, None]
    k = exponents.shape[0]
    for length in range(1, 65):
        base = rng.uniform(1e-3, 1.0, (k, length))
        block = copulas._apow(base, exponents)
        sample = copulas._apow(base[0], exponents)
        assert block.shape == sample.shape == (k, length)
        for j in range(k):
            alone = copulas._apow(base[j], exponents[j:j + 1])
            assert alone.shape == (1, length)
            assert block[j].tobytes() == alone[0].tobytes(), (length, j)
            at_row = copulas._apow(base[0], exponents[j:j + 1])
            assert sample[j].tobytes() == at_row[0].tobytes(), (length, j)


def _per_mask(family, theta, u1, u2, d1, d2, derivs=False):
    """Reference evaluation of each row's censoring-case piece: four
    boolean masks formed from the indicators on every call, each case's
    rows gathered and its piece's values (with ``derivs``, its value and
    derivatives, stacked) assigned back through the mask."""
    ops = copulas.family_ops(family)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    d1 = np.asarray(d1).astype(bool)
    d2 = np.asarray(d2).astype(bool)
    lead = (3,) if derivs else ()
    out = np.empty(lead + np.shape(theta)[:1] + u1.shape, dtype=float)
    with np.errstate(all="ignore"):
        for mask, piece in zip((d1 & d2, d1 & ~d2, ~d1 & d2, ~d1 & ~d2), copulas._PIECES):
            if mask.any():
                out[..., mask] = getattr(ops, piece)(theta, u1[mask], u2[mask], derivs)
    return out


THETA_RANGES = {
    Family.CLAYTON: (0.05, 15.0),
    Family.FRANK: (0.1, 30.0),
    Family.JOE: (1.01, 10.0),
    Family.GAUSSIAN: (-0.95, 0.95),
    Family.GUMBEL: (1.02, 10.0),
}


@st.composite
def _split_cases(draw):
    family = draw(st.sampled_from(list(Family)))
    lo, hi = THETA_RANGES[family]
    thetas = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4))
    theta = np.array(thetas)[:, None] if draw(st.booleans()) else thetas[0]
    mix = draw(st.sampled_from(["observed", "censored", "one per case", "any"]))
    if mix == "one per case":
        order = np.array(draw(st.permutations(range(4))))
        d1, d2 = np.array([1, 1, 0, 0])[order], np.array([1, 0, 1, 0])[order]
    else:
        n = draw(st.integers(1, 40))
        if mix == "any":
            d1, d2 = (np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
                      for _ in range(2))
        else:
            d1 = d2 = np.full(n, int(mix == "observed"))
    u1, u2 = (np.array(draw(st.lists(st.floats(1e-4, 1.0 - 1e-4), min_size=d1.size,
                                     max_size=d1.size))) for _ in range(2))
    return family, theta, u1, u2, d1, d2


@given(_split_cases())
@settings(max_examples=300, deadline=None)
def test_case_split_equals_per_mask_evaluation(case):
    family, theta, u1, u2, d1, d2 = case
    obs = copulas.Observations(u1, u2, d1, d2)
    for a in (obs.u1, obs.u2, obs.d1, obs.d2,
              *(a for _, rows, v1, v2 in obs.cases for a in (rows, v1, v2) if a is not None)):
        assert not a.flags.writeable

    raw = _per_mask(family, theta, u1, u2, d1, d2)
    expect = np.where(np.isneginf(raw), numerics.LOG_TINY, raw)
    expect[~np.isfinite(expect)] = -np.inf
    ll = loglik_vec(family, theta, obs)
    assert ll.tobytes() == expect.tobytes()

    raw = _per_mask(family, theta, u1, u2, d1, d2, derivs=True)
    # the one pass's log-likelihood is loglik_vec's, and its score and
    # hessian are the pieces' derivatives, unchecked
    loglik, score, hessian = copulas.dlog_vec(family, theta, obs)
    assert loglik.tobytes() == ll.tobytes()
    assert score.tobytes() == raw[1].tobytes() and hessian.tobytes() == raw[2].tobytes()
    # the check raises exactly when a derivative entry is not finite
    try:
        copulas.require_finite(family, theta, score, hessian)
    except copulas.LikelihoodError:
        assert not np.isfinite(raw[1:]).all()
    else:
        assert np.isfinite(raw[1:]).all()
    for out in (ll, loglik, score, hessian):
        assert not np.shares_memory(out, obs.u1) and not np.shares_memory(out, obs.u2)


@st.composite
def _blocks(draw):
    """A (k, n) block over every censoring mix a row can have: any cases,
    one case missing, only observed and only censored entries; with one
    theta per row."""
    family = draw(st.sampled_from(list(Family)))
    lo, hi = THETA_RANGES[family]
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    d1, d2 = np.empty((k, n), dtype=int), np.empty((k, n), dtype=int)
    for j in range(k):
        mix = draw(st.sampled_from(["any", "lacks a case", "observed", "censored"]))
        cases = {"any": range(4), "observed": [0], "censored": [3],
                 "lacks a case": sorted(draw(st.permutations(range(4)))[:3])}[mix]
        case = np.array(draw(st.lists(st.sampled_from(list(cases)), min_size=n, max_size=n)))
        d1[j], d2[j] = 1 - case // 2, 1 - case % 2
    u1, u2 = (np.array(draw(st.lists(st.floats(1e-4, 1.0 - 1e-4), min_size=k * n,
                                     max_size=k * n))).reshape(k, n) for _ in range(2))
    thetas = draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))
    return family, np.array(thetas), u1, u2, d1, d2


@given(_blocks())
@settings(max_examples=300, deadline=None)
def test_block_rows_equal_their_one_sample_calls(case):
    family, thetas, u1, u2, d1, d2 = case
    block = copulas.Observations(u1, u2, d1, d2)
    k = thetas.size
    assert (block.k, block.n, block.size) == (k, u1.shape[1], u1.size)
    rows = [copulas.Observations(u1[j], u2[j], d1[j], d2[j]) for j in range(k)]
    assert [block.row(j) for j in range(k)] == rows
    order = np.arange(k)[::-1]
    taken = block.take(order)
    assert taken == copulas.Observations(u1[order], u2[order], d1[order], d2[order])
    assert all(taken.row(i) == block.row(j) for i, j in enumerate(order))
    column = thetas[:, None]
    calls = [lambda th, o: loglik_vec(family, th, o),
             lambda th, o: np.array(copulas.dlog_vec(family, th, o))]
    for call in calls:
        whole = call(column, block)
        alone = [call(float(t), r) for t, r in zip(thetas, rows)]
        # a row rebuilt from the block's split evaluates as its own sample
        assert all(call(float(t), block.row(j)).tobytes() == a.tobytes()
                   for j, (t, a) in enumerate(zip(thetas, alone)))
        # and so does a row of a taken block
        assert all(call(float(thetas[j]), taken.row(i)).tobytes() == alone[j].tobytes()
                   for i, j in enumerate(order))
        for j, a in enumerate(alone):
            assert whole[..., j, :].tobytes() == a.tobytes(), (call, j)
        assert call(column[order], taken).tobytes() == whole[..., order, :].tobytes()
        # a block taken after that evaluation slices the theta-free terms
        # the block kept for it, and each row still equals its own call
        later = call(column[order], block.take(order))
        assert all(later[..., i, :].tobytes() == alone[j].tobytes()
                   for i, j in enumerate(order)), call
    # the one pass's log-likelihood is loglik_vec's over the block too
    assert (copulas.dlog_vec(family, column, block)[0].tobytes()
            == loglik_vec(family, column, block).tobytes())
    # an empty column over a sample, as the leave-one-out refits pass when
    # no trial is inside the domain, gives no rows
    empty, n = np.empty((0, 1)), u1.shape[1]
    assert loglik_vec(family, empty, block.row(0)).shape == (0, n)
    assert all(a.shape == (0, n) for a in copulas.dlog_vec(family, empty, block.row(0)))


# sha256 prefixes of the score and hessian bytes over a four-case sample
# at each family's theta column, recorded (numpy 2.4.6 on x86-64 with
# AVX-512; numpy picks its exp and log kernels by the CPU's SIMD level)
# when the derivatives came from derivative pieces of their own; the one
# pass that also gives the value keeps every bit. Joe and the Gaussian were
# re-recorded when numpy's ufuncs took over the theta-only terms, and the
# Gaussian again when binorm_logcdf's tail rule took its node sum as a row
# sum in place of a BLAS product
SCORE_HESSIAN_DIGESTS = {
    Family.CLAYTON: "6667491b27394fe1",
    Family.FRANK: "94ee5a192a8581f2",
    Family.JOE: "17b3b08038d74961",
    Family.GAUSSIAN: "b1d43270d4c196ac",
    Family.GUMBEL: "048912b4317e4eb5",
}


@pytest.mark.parametrize("family", list(Family))
def test_score_and_hessian_bytes_are_pinned(family):
    rng = np.random.default_rng(21)
    u1 = np.concatenate([rng.uniform(0.001, 0.999, 400),
                         [0.003, 0.5, 0.97, 0.003, 0.999, 0.9999]])
    u2 = np.concatenate([rng.uniform(0.001, 0.999, 400),
                         [0.003, 0.5, 0.002, 0.9, 0.998, 0.9995]])
    d1, d2 = [np.resize(d, u1.size) for d in ([1, 1, 0, 0], [1, 0, 1, 0])]
    obs = copulas.Observations(u1, u2, d1, d2)
    _, score, hessian = copulas.dlog_vec(family, np.array(COLUMN_THETAS[family])[:, None], obs)
    digest = hashlib.sha256(score.tobytes() + hessian.tobytes()).hexdigest()[:16]
    assert digest == SCORE_HESSIAN_DIGESTS[family]


def test_float_theta_over_a_block_names_the_failing_row():
    # the Joe score at theta = 200 is NaN at (0.99, 0.995) with u2 censored,
    # here in row 1 of a block evaluated at one float theta
    u1, u2 = np.array([[0.3, 0.4], [0.6, 0.99]]), np.array([[0.3, 0.4], [0.6, 0.995]])
    d1, d2 = np.ones((2, 2), dtype=int), np.array([[1, 1], [1, 0]])
    block = copulas.Observations(u1, u2, d1, d2)
    _, score, hessian = copulas.dlog_vec(Family.JOE, 200.0, block)
    with pytest.raises(copulas.LikelihoodError,
                       match="non-finite score for joe at theta=200.0") as err:
        copulas.require_finite(Family.JOE, 200.0, score, hessian)
    assert err.value.index == 1


def test_observations_copy_their_input():
    u1, u2 = np.array([0.2, 0.7]), np.array([0.4, 0.9])
    d = np.array([1, 1])
    obs = copulas.Observations(u1, u2, d, d)
    before = loglik_vec(Family.CLAYTON, 2.0, obs)
    u1[0], d[1] = 0.9, 0
    assert loglik_vec(Family.CLAYTON, 2.0, obs).tobytes() == before.tobytes()
    assert obs.size == obs.n == 2
    with pytest.raises(AttributeError):
        obs.u1 = u1


@pytest.mark.parametrize("family", list(Family))
def test_entries_are_the_sample_as_a_one_column_block(family):
    # a sample's entries as an (n, 1) block, assembled from its split,
    # equal the validated (n, 1) block, split and all, and an (n, 1) theta
    # column evaluates each entry at its own theta, as its own sample would
    u1, u2, d1, d2 = _four_case_sample()
    thetas = np.resize(COLUMN_THETAS[family], 40)[:, None]
    for sample in (copulas.Observations(u1, u2, d1, d2),
                   copulas.Observations(u1, u2, np.ones(40), np.ones(40))):
        arrays = (sample.u1, sample.u2, sample.d1, sample.d2)
        entries = sample.entries()
        ref = copulas.Observations(*(a[:, None] for a in arrays))
        assert entries == ref and (entries.k, entries.n) == (40, 1)
        assert len(entries.cases) == len(ref.cases)
        for got, want in zip(entries.cases, ref.cases):
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert (a is None and b is None) or (
                    a.shape == b.shape and np.array_equal(a, b) and not a.flags.writeable)
        ll = loglik_vec(family, thetas, entries)
        assert ll.tobytes() == loglik_vec(family, thetas, ref).tobytes()
        for i in range(40):
            one = copulas.Observations(*(a[i:i + 1] for a in arrays))
            assert ll[i, 0] == loglik_vec(family, thetas[i, 0], one)[0]


def test_unconstrained_transforms_take_arrays():
    for family in Family:
        x = np.array([-3.0, -0.4, 0.0, 1.7])
        theta = copulas.from_unconstrained(family, x)
        assert theta.tobytes() == np.array(
            [copulas.from_unconstrained(family, float(v)) for v in x]).tobytes()
        back = copulas.to_unconstrained(family, theta)
        assert back.tobytes() == np.array(
            [copulas.to_unconstrained(family, float(t)) for t in theta]).tobytes()


# --- tau <-> theta ------------------------------------------------------

@pytest.mark.parametrize("family", list(Family))
def test_tau_round_trip(family):
    taus = (0.2, 0.5, 0.7) if family is not Family.GAUSSIAN else (-0.4, 0.2, 0.5, 0.7)
    # just inside the tau that Frank's and Joe's theta bracket reaches
    taus += {Family.FRANK: (0.994,), Family.JOE: (0.996,)}.get(family, ())
    for tau in taus:
        theta = tau_to_theta(family, tau)
        assert theta_to_tau(family, theta) == pytest.approx(tau, abs=1e-8)


def test_tau_known_parameter_values():
    assert tau_to_theta(Family.CLAYTON, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert tau_to_theta(Family.GUMBEL, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert tau_to_theta(Family.GAUSSIAN, 0.5) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
    assert tau_to_theta(Family.FRANK, 0.5) == pytest.approx(5.736283, abs=1e-5)
    assert tau_to_theta(Family.JOE, 0.5) == pytest.approx(2.856257, abs=1e-5)


def test_joe_tau_finite_across_theta_two():
    # the digamma closed form is 0/0 at theta = 2; tau there is 2 - pi^2/6
    # and its slope is trigamma(2)/2 + tetragamma(2)/4
    slope = special.polygamma(1, 2.0) / 2.0 + special.polygamma(2, 2.0) / 4.0
    for h in (-1e-9, 0.0, 1e-9):
        expect = 2.0 - math.pi ** 2 / 6.0 + slope * h
        assert abs(theta_to_tau(Family.JOE, 2.0 + h) - expect) <= 1e-12


def test_joe_tau_matches_integral():
    # tau = 1 + (4/theta) int_0^1 log(1 - v^theta)(1 - v^theta) / v^(theta-1) dv
    for theta in (1.05, 1.5, 2.0, 2.857, 5.0, 20.0, 100.0):
        def f(v):
            a = v ** theta
            return math.log1p(-a) * (1.0 - a) / v ** (theta - 1.0) if a < 1.0 else 0.0
        value = integrate.quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)[0]
        expect = 1.0 + 4.0 / theta * value
        assert theta_to_tau(Family.JOE, theta) == pytest.approx(expect, abs=1e-9)


def test_tau_rejects_out_of_range():
    with pytest.raises(ValueError):
        tau_to_theta(Family.CLAYTON, -0.2)
    with pytest.raises(ValueError):
        tau_to_theta(Family.JOE, 1.0)
    # past the largest tau of the theta bracket: theta = 700 and 500
    with pytest.raises(ValueError, match=r"for frank: .* 0\.994299\]"):
        tau_to_theta(Family.FRANK, 0.995)
    with pytest.raises(ValueError, match=r"for joe: .* 0\.99601\]"):
        tau_to_theta(Family.JOE, 0.999)


def test_frank_tau_past_exp_overflow():
    # D1's integrand t / (e^t - 1) overflows past t = 709.78. References
    # from 40-digit mpmath
    for theta, expect in ((710.0, 0.99437924962560482624),
                          (800.0, 0.99501028083791780142),
                          (5000.0, 0.99920026318945069572)):
        assert abs(theta_to_tau(Family.FRANK, theta) - expect) <= 1e-9


# --- sampling -----------------------------------------------------------

@pytest.mark.parametrize("family", list(Family))
def test_sampler_recovers_tau(family):
    from copgof.survival import empirical_kendall_tau
    theta = tau_to_theta(family, 0.5)
    m = CopulaModel(family, theta)
    u1, u2 = sample_pairs(m, np.random.default_rng(77), 5000)
    assert ((u1 > 0) & (u1 < 1) & (u2 > 0) & (u2 < 1)).all()
    assert empirical_kendall_tau(u1, u2) == pytest.approx(0.5, abs=0.025)


def test_frank_sampler_at_strong_dependence():
    # tau = 0.9: 1 - g2 is of order e^-theta for u1 near 1, so forming it
    # by subtraction rounds it to 0 and gives u2 = inf (clipped to
    # 1 - 1e-12 by sample_pairs)
    theta = tau_to_theta(Family.FRANK, 0.9)
    gen = np.random.default_rng(0)
    u1 = np.clip(gen.random(100_000), 1e-12, 1.0 - 1e-12)
    w = np.clip(gen.random(100_000), 1e-12, 1.0 - 1e-12)
    ops = copulas.family_ops(Family.FRANK)
    u2 = ops.inv_conditional(theta, u1, w)
    assert ((u2 > 1e-12) & (u2 < 1.0 - 1e-12)).all()
    # each draw inverts the conditional distribution at its level
    np.testing.assert_allclose(np.exp(ops.log_c1(theta, u1, u2)), w, rtol=1e-12)


def test_clayton_sampler_at_large_theta():
    # u1 ** -theta overflows here; the inverse still keeps u2 near u1,
    # against values computed in 50-digit arithmetic
    ops = copulas.family_ops(Family.CLAYTON)
    u2 = ops.inv_conditional(108.0, np.array([1e-3, 3e-4]), np.array([0.3, 0.7]))
    np.testing.assert_allclose(u2, [9.92330664347009e-4, 3.02393517869978e-4], rtol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u1, u2 = sample_pairs(CopulaModel(Family.CLAYTON, 108.0), np.random.default_rng(3), 2000)
    assert (u2 > 1e-12).all()


# (family, theta, u1, w, u2 with C(u2 | u1) = w) from an 80-digit mpmath
# bisection of C(u2 | u1). The first three Joe rows are draws that
# collapsed onto u2 = 0.975902955853001 under bisection, where
# (1 - u1)^200 underflows; the first Gumbel row is a draw that bisection
# put at 0.99942. The last four sit at the edge distance, theta = 1 + 1e-6.
_LARGE_THETA_DRAWS = [
    ("joe", 200.0, 0.997209935789211, 0.7144129789505205, 0.99722261576365549),
    ("joe", 200.0, 0.9808353387762301, 0.7571675360416631, 0.98094345375508115),
    ("joe", 200.0, 0.9950965052353241, 0.34286637343206705, 0.99508032844361793),
    ("joe", 200.0, 0.5, 0.3, 0.49785559031860755),
    ("joe", 200.0, 0.001, 0.9, 0.01234094065048298),
    ("gumbel", 100.0, 0.9997911436030891, 0.33765578839335686, 0.99978969710187196),
    ("gumbel", 100.0, 0.9998, 0.5, 0.99979997209789707),
    ("gumbel", 100.0, 0.3, 0.05, 0.28942374068286514),
    ("joe", 1.000001, 0.2, 0.7, 0.69999968943277333),
    ("joe", 1.000001, 0.9, 0.1, 0.10000012600309841),
    ("gumbel", 1.000001, 0.2, 0.7, 0.69999948841687834),
    ("gumbel", 1.000001, 0.9, 0.1, 0.1000002696435639),
]


@pytest.mark.parametrize("family, theta, u1, w, u2", _LARGE_THETA_DRAWS)
def test_joe_and_gumbel_draws_at_large_theta_and_the_edge(family, theta, u1, w, u2):
    ops = copulas.family_ops(Family(family))
    got = ops.inv_conditional(theta, np.array([u1]), np.array([w]))
    np.testing.assert_allclose(got, [u2], rtol=1e-14)


@pytest.mark.parametrize("family, theta", [
    (Family.JOE, 200.0), (Family.GUMBEL, 100.0), (Family.JOE, 1.000001),
    (Family.GUMBEL, 1.000001)])
def test_joe_and_gumbel_samplers_stay_quiet_and_distinct(family, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u1, u2 = sample_pairs(CopulaModel(family, theta), np.random.default_rng(0), 2000)
    # bisection collapsed 49 of these Joe draws onto one value
    assert np.unique(u2).size == 2000


# (family, theta, u1, u2, log c1) where the direct form under- or
# overflows: Joe's (1 - u)^theta and Gumbel's x^theta both underflow, or
# Gumbel's overflow. References from mpmath at 500 digits, which the
# cancellation of the direct form's terms needs.
LOG_C1_AT_LARGE_THETA = [
    ("joe", 200.0, 0.99, 0.995, -6.191900201471836e-61),
    ("joe", 200.0, 0.98, 0.999, -6.191900201471836e-261),
    ("joe", 200.0, 0.999, 0.98, -596.15072243724421),
    ("gumbel", 100.0, 0.9998, 0.9999, -7.7707826485954599e-31),
    ("gumbel", 100.0, 0.9999, 0.9998, -68.626621509273557),
    ("gumbel", 300.0, 1e-06, 1e-05, -1.8356640802633912e-24),
    ("gumbel", 300.0, 1e-05, 1e-06, -56.816730574386482),
]


@pytest.mark.parametrize("family, theta, u1, u2, log_c1", LOG_C1_AT_LARGE_THETA)
def test_log_c1_finite_at_large_theta(family, theta, u1, u2, log_c1):
    ops = copulas.family_ops(Family(family))
    # next to an ordinary entry, whose bits the recomputation keeps; the
    # direct form's under- and overflow is silenced as loglik_vec does
    a1, a2 = np.array([u1, 0.4]), np.array([u2, 0.6])
    with np.errstate(all="ignore"):
        got = ops.log_c1(theta, a1, a2)
        alone = ops.log_c1(theta, a1[1:], a2[1:])
        # a theta column gives each row's float-theta values bit for bit
        column = ops.log_c1(np.array([[theta], [2.0]]), a1, a2)
        at_two = ops.log_c1(2.0, a1, a2)
    np.testing.assert_allclose(got[0], log_c1, rtol=1e-12)
    assert got[1] == alone[0]
    assert column[0].tobytes() == got.tobytes()
    assert column[1].tobytes() == at_two.tobytes()


# (family, theta, u1, u2, log C) where gamma (Joe) or A (Gumbel)
# underflows, or A overflows, so the direct form gave -0.0 or -inf.
# References from mpmath at 100 digits.
LOG_CDF_AT_LARGE_THETA = [
    ("joe", 200.0, 0.99, 0.995, -0.01005033585350145),
    ("joe", 200.0, 0.999, 0.98, -0.020202707317519467),
    ("gumbel", 100.0, 0.9998, 0.9999, -0.0002000200026670447),
    ("gumbel", 100.0, 0.9999, 0.9998, -0.0002000200026670447),
    ("gumbel", 300.0, 1e-06, 1e-05, -13.815510557964274),
]


@pytest.mark.parametrize("family, theta, u1, u2, log_cdf", LOG_CDF_AT_LARGE_THETA)
def test_log_cdf_at_large_theta(family, theta, u1, u2, log_cdf):
    ops = copulas.family_ops(Family(family))
    a1, a2 = np.array([u1, 0.4]), np.array([u2, 0.6])
    with np.errstate(all="ignore"):
        got = ops.log_cdf(theta, a1, a2)
        alone = ops.log_cdf(theta, a1[1:], a2[1:])
        column = ops.log_cdf(np.array([[theta], [2.0]]), a1, a2)
        at_two = ops.log_cdf(2.0, a1, a2)
        # asked for its derivatives too, the piece gives the same value
        with_derivs = ops.log_cdf(theta, a1, a2, derivs=True)[0]
    np.testing.assert_allclose(got[0], log_cdf, rtol=1e-14)
    assert got[1] == alone[0]
    assert column[0].tobytes() == got.tobytes()
    assert column[1].tobytes() == at_two.tobytes()
    assert with_derivs.tobytes() == got.tobytes()


# (family, theta, u1, u2, log c) where gamma (Joe) or A (Gumbel)
# underflows, or A overflows, so the direct form gave +inf or NaN.
# References from mpmath at 600 digits, which agree with its numerical
# second derivative of C.
LOG_PDF_AT_LARGE_THETA = [
    ("joe", 200.0, 0.99, 0.995, -128.03781392071653),
    ("joe", 200.0, 0.999, 0.98, -586.9453946070915),
    ("gumbel", 100.0, 0.9998, 0.9999, -55.51420643565226),
    ("gumbel", 100.0, 0.9999, 0.9998, -55.51420643565226),
    ("gumbel", 300.0, 1e-06, 1e-05, -39.881398337273666),
]


@pytest.mark.parametrize("family, theta, u1, u2, log_pdf", LOG_PDF_AT_LARGE_THETA)
def test_log_pdf_at_large_theta(family, theta, u1, u2, log_pdf):
    ops = copulas.family_ops(Family(family))
    a1, a2 = np.array([u1, 0.4]), np.array([u2, 0.6])
    with np.errstate(all="ignore"):
        got = ops.log_pdf(theta, a1, a2)
        alone = ops.log_pdf(theta, a1[1:], a2[1:])
        column = ops.log_pdf(np.array([[theta], [2.0]]), a1, a2)
        at_two = ops.log_pdf(2.0, a1, a2)
        with_derivs = ops.log_pdf(theta, a1, a2, derivs=True)[0]
    np.testing.assert_allclose(got[0], log_pdf, rtol=1e-14)
    assert got[1] == alone[0]
    assert column[0].tobytes() == got.tobytes()
    assert column[1].tobytes() == at_two.tobytes()
    assert with_derivs.tobytes() == got.tobytes()


# (family, theta, u1, u2, log C, log c1, log c) where Joe's gamma is
# subnormal, not 0, or Gumbel's A underflows to 0: each piece reads its
# core's log gamma or log A there, not the direct log of a number that has
# lost its digits. References from the closed forms in mpmath at 400
# digits, which agree with its numerical derivatives of C.
LOG_PIECES_BELOW_THE_NORMAL_RANGE = [
    ("joe", 300.0, 0.9163, 0.92,
     -0.08741145740264368, -1.282060009980642e-06, -5.337533197173449),
    ("joe", 200.0, 0.9734, 0.9734,
     -0.02705505819186342, -0.6896814446571455, 7.537320262701887),
    ("joe", 200.0, 0.9736, 0.972,
     -0.028399475637633783, -11.709267213607724, -2.840419367858847),
    ("gumbel", 150.0, 0.999, 0.9992,
     -0.0010005003335835344, -2.844963293026488e-15, -21.351291918525057),
    ("gumbel", 200.0, 0.9962, 0.997,
     -0.0038072383429540663, -2.694763820049901e-21, -36.254013401199124),
    ("gumbel", 300.0, 0.9346, 0.9343,
     -0.06800672500100025, -1.6318995906861038, 6.609225561264776),
]


@pytest.mark.parametrize("family, theta, u1, u2, log_cdf, log_c1, log_pdf",
                         LOG_PIECES_BELOW_THE_NORMAL_RANGE)
def test_log_pieces_below_the_normal_range(family, theta, u1, u2, log_cdf, log_c1, log_pdf):
    ops = copulas.family_ops(Family(family))
    a1, a2 = np.array([u1, 0.4]), np.array([u2, 0.6])
    for piece, want in (("log_cdf", log_cdf), ("log_c1", log_c1), ("log_pdf", log_pdf)):
        f = getattr(ops, piece)
        with np.errstate(all="ignore"):
            got = f(theta, a1, a2)
            one = f(theta, a1[:1], a2[:1])
            column = f(np.array([[theta], [2.0]]), a1, a2)
        np.testing.assert_allclose(got[0], want, rtol=1e-12, err_msg=piece)
        assert got[:1].tobytes() == one.tobytes(), piece
        assert column[0].tobytes() == got.tobytes(), piece


# the large-theta points above, and Joe's and Gumbel's edges u in {0, 1}:
# each runs a rescue branch that assigns by mask in some piece, which a
# scalar pair's 0-d arrays could not take (TypeError)
_POINTWISE_POINTS = list(dict.fromkeys(
    [row[:4] for row in LOG_C1_AT_LARGE_THETA + LOG_CDF_AT_LARGE_THETA
     + LOG_PDF_AT_LARGE_THETA]
    + [(family, theta, u1, u2) for family, theta in (("joe", 2.5), ("gumbel", 2.0))
       for u1, u2 in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0))]))


@pytest.mark.parametrize("family, theta, u1, u2", _POINTWISE_POINTS)
def test_pointwise_scalar_calls_equal_their_one_element_calls(family, theta, u1, u2):
    m = CopulaModel(Family(family), theta)
    for f in (cdf, partial_u1, partial_u2, density):
        with np.errstate(all="ignore"):
            scalar, one = f(m, u1, u2), f(m, np.array([u1]), np.array([u2]))
        assert type(scalar) is float and one.shape == (1,), f.__name__
        assert np.float64(scalar).tobytes() == one.tobytes(), f.__name__


def test_sampler_deterministic():
    m = CopulaModel(Family.JOE, 2.5)
    a = sample_pairs(m, np.random.default_rng(5), 100)
    b = sample_pairs(m, np.random.default_rng(5), 100)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("family", list(Family))
def test_sample_pairs_block_rows_equal_single_draws(family, k):
    # row j of a block is generator j's own draw, bit for bit, and one
    # generator in a list gives a block of one row
    m = CopulaModel(family, tau_to_theta(family, 0.6))
    seeds = [100 + 7 * j for j in range(k)]
    u1, u2 = sample_pairs(m, [np.random.default_rng(s) for s in seeds], 50)
    assert u1.shape == u2.shape == (k, 50)
    for j, s in enumerate(seeds):
        v1, v2 = sample_pairs(m, np.random.default_rng(s), 50)
        assert u1[j].tobytes() == v1.tobytes() and u2[j].tobytes() == v2.tobytes()


# --- validation and transforms ------------------------------------------

def test_model_domain_validation():
    with pytest.raises(ValueError):
        CopulaModel(Family.CLAYTON, 0.0)
    with pytest.raises(ValueError):
        CopulaModel(Family.GUMBEL, 1.0)
    with pytest.raises(ValueError):
        CopulaModel(Family.GAUSSIAN, 1.0)
    # the open domains exclude infinity too
    for family in (Family.CLAYTON, Family.FRANK, Family.JOE, Family.GUMBEL):
        with pytest.raises(ValueError):
            CopulaModel(family, math.inf)


@pytest.mark.parametrize("family", list(Family))
def test_in_domain_is_elementwise(family):
    # an array theta gets one answer per entry, each its scalar call's
    ops = copulas.family_ops(family)
    lo, hi = ops.domain
    theta = np.array([lo, THETAS[family], hi, np.nan, -np.inf, np.inf])
    inside = ops.in_domain(theta)
    assert inside.tolist() == [False, True, False, False, False, False]
    assert inside.tolist() == [bool(ops.in_domain(float(t))) for t in theta]


def test_family_parse():
    assert Family.parse(" Clayton ") is Family.CLAYTON
    with pytest.raises(ValueError):
        Family.parse("vine")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(Family)), st.floats(min_value=-5.0, max_value=5.0))
def test_unconstrained_transform_round_trip(family, x):
    theta = copulas.from_unconstrained(family, x)
    assert copulas.family_ops(family).in_domain(theta)
    assert copulas.to_unconstrained(family, theta) == pytest.approx(x, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Family)),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.05, max_value=0.95))
def test_cdf_bounds(family, u1, u2):
    m = CopulaModel(family, THETAS[family])
    v = cdf(m, u1, u2)
    # Frechet-Hoeffding bounds
    assert max(u1 + u2 - 1.0, 0.0) - 1e-9 <= v <= min(u1, u2) + 1e-9
