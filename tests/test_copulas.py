import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from copgof import copulas, numerics
from copgof.copulas import (CopulaModel, Family, cdf, density, loglik_vec,
                            partial_u1, partial_u2, sample_pairs, score_vec,
                            hessian_vec, tau_to_theta, theta_to_tau)

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
    # no numerical fallback remains to stand in for a missing piece
    for family in Family:
        own = vars(copulas.family_ops(family))
        for name in ("log_pdf", "log_c1", "log_cdf", "dlog_pdf", "dlog_c1", "dlog_cdf"):
            assert name in own, (family, name)


def _four_case_sample(n=40, seed=5):
    rng = np.random.default_rng(seed)
    d1, d2 = [np.tile(d, n // 4) for d in ([1, 1, 0, 0], [1, 0, 1, 0])]
    return rng.uniform(0.02, 0.98, n), rng.uniform(0.02, 0.98, n), d1, d2


@pytest.mark.parametrize("family", list(Family))
def test_dlog_vec_evaluates_each_case_piece_once(family, monkeypatch):
    ops = copulas.family_ops(family)
    calls = {}
    for name in ("dlog_pdf", "dlog_c1", "dlog_c2", "dlog_cdf"):
        def counted(*args, _name=name, _piece=getattr(ops, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _piece(*args)
        monkeypatch.setattr(ops, name, counted)
    u1, u2, d1, d2 = _four_case_sample()
    copulas.dlog_vec(family, THETAS[family], copulas.Observations(u1, u2, d1, d2))
    # dlog_c2 is dlog_c1 with its pairs swapped, so dlog_c1 runs for two cases
    assert calls == {"dlog_pdf": 1, "dlog_c1": 2, "dlog_c2": 1, "dlog_cdf": 1}
    calls.clear()
    copulas.dlog_vec(family, THETAS[family],
                     copulas.Observations(u1, u2, np.ones_like(d1), np.ones_like(d2)))
    assert calls == {"dlog_pdf": 1}


@pytest.mark.parametrize("family", list(Family))
def test_dlog_vec_halves_are_score_and_hessian(family):
    u1, u2, d1, d2 = _four_case_sample()
    obs = copulas.Observations(u1, u2, d1, d2)
    column = np.array(COLUMN_THETAS[family])[:, None]
    for theta in (THETAS[family], column):
        score, hessian = copulas.dlog_vec(family, theta, obs)
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
    got = copulas.family_ops(Family.FRANK).dlog_cdf(theta, np.array([u1]), np.array([u2]))
    assert got[0][0] == pytest.approx(d1, rel=1e-12, abs=0.0)
    assert got[1][0] == pytest.approx(d2, rel=1e-12, abs=0.0)


def test_gaussian_cdf_theta_derivative_is_density():
    # dC/dtheta equals the bivariate normal density at the quantiles
    u1, u2 = 0.3, 0.7
    theta = 0.5
    eps = 1e-5
    ma = CopulaModel(Family.GAUSSIAN, theta + eps)
    mb = CopulaModel(Family.GAUSSIAN, theta - eps)
    fd = (cdf(ma, u1, u2) - cdf(mb, u1, u2)) / (2 * eps)
    from copgof import numerics
    from scipy.special import ndtri
    pdf2 = numerics.binorm_pdf(ndtri(u1), ndtri(u2), theta)
    assert fd == pytest.approx(pdf2, rel=1e-5)


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5])
@pytest.mark.parametrize("u", [(0.003, 0.003), (0.003, 0.6), (0.5, 0.5)])
def test_gaussian_dlog_cdf_matches_central_differences(rho, u):
    # the doubly censored piece, including the negative-rho tail rows
    ops = copulas.family_ops(Family.GAUSSIAN)
    u1, u2 = np.array([u[0]]), np.array([u[1]])
    d1, d2 = ops.dlog_cdf(rho, u1, u2)

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


def _per_mask(family, pieces, theta, u1, u2, d1, d2):
    """Reference evaluation of each row's censoring-case piece: four
    boolean masks formed from the indicators on every call, each case's
    rows gathered and its piece's values assigned back through the mask."""
    ops = copulas.family_ops(family)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    d1 = np.asarray(d1).astype(bool)
    d2 = np.asarray(d2).astype(bool)
    lead = (2,) if pieces == copulas._DPIECES else ()
    out = np.empty(lead + np.shape(theta)[:1] + u1.shape, dtype=float)
    with np.errstate(all="ignore"):
        for mask, piece in zip((d1 & d2, d1 & ~d2, ~d1 & d2, ~d1 & ~d2), pieces):
            if mask.any():
                out[..., mask] = getattr(ops, piece)(theta, u1[mask], u2[mask])
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

    raw = _per_mask(family, copulas._PIECES, theta, u1, u2, d1, d2)
    expect = np.where(np.isneginf(raw), numerics.LOG_TINY, raw)
    expect[~np.isfinite(expect)] = -np.inf
    ll = loglik_vec(family, theta, obs, strict=False)
    assert ll.tobytes() == expect.tobytes()
    outputs = [ll]

    raw = _per_mask(family, copulas._DPIECES, theta, u1, u2, d1, d2)
    try:
        score, hessian = copulas.dlog_vec(family, theta, obs)
    except copulas.LikelihoodError:
        assert not np.isfinite(raw).all()
    else:
        assert score.tobytes() == raw[0].tobytes()
        assert hessian.tobytes() == raw[1].tobytes()
        outputs += [score, hessian]
    for out in outputs:
        assert not np.shares_memory(out, obs.u1) and not np.shares_memory(out, obs.u2)


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
        expect = 1.0 + 4.0 / theta * numerics.integrate(f, 0.0, 1.0)
        assert theta_to_tau(Family.JOE, theta) == pytest.approx(expect, abs=1e-9)


def test_tau_rejects_out_of_range():
    with pytest.raises(ValueError):
        tau_to_theta(Family.CLAYTON, -0.2)
    with pytest.raises(ValueError):
        tau_to_theta(Family.JOE, 1.0)


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
