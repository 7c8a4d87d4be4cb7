import numpy as np
import pytest

from copgof import copulas, inference, numerics
from copgof.copulas import CopulaModel, Family
from copgof.inference import (FitResult, InferenceError, compute_statistic,
                              fit_pmle, information, pios_statistic)
from copgof.simulation import Scenario, generate_scenario_dataset
from copgof.survival import CensoredPair, CensoredSample, pseudo_observations


def _simulate(family, tau, n, seed, censoring_mean=None):
    theta = copulas.tau_to_theta(family, tau)
    gen = np.random.default_rng(seed)
    u1, u2 = copulas.sample_pairs(CopulaModel(family, theta), gen, n)
    t1, t2 = -np.log(u1), -np.log(u2)
    if censoring_mean is None:
        c = np.full(n, np.inf)
    else:
        c = gen.exponential(censoring_mean, n)
    pairs = [CensoredPair(float(min(a, cc)), float(min(b, cc)),
                          int(a <= cc), int(b <= cc))
             for a, b, cc in zip(t1, t2, c)]
    return pseudo_observations(pairs)


@pytest.mark.parametrize("family", list(Family))
def test_fit_recovers_parameter(family):
    theta = copulas.tau_to_theta(family, 0.5)
    u1, u2, d1, d2 = _simulate(family, 0.5, 1500, seed=11)
    fit = fit_pmle(family, u1, u2, d1, d2)
    assert fit.converged
    assert fit.theta_hat == pytest.approx(theta, rel=0.12)
    assert fit.n == 1500
    assert fit.loglik > 0.0  # dependence beats independence here


def test_fit_with_censoring():
    u1, u2, d1, d2 = _simulate(Family.CLAYTON, 0.5, 1200, seed=3,
                               censoring_mean=1.5)
    assert 0.25 < 1.0 - d1.mean() < 0.55
    fit = fit_pmle(Family.CLAYTON, u1, u2, d1, d2)
    assert fit.converged
    assert 1.0 < fit.theta_hat < 3.5


def test_fit_score_near_zero_at_optimum():
    u1, u2, d1, d2 = _simulate(Family.FRANK, 0.5, 400, seed=21)
    fit = fit_pmle(Family.FRANK, u1, u2, d1, d2)
    total = copulas.score_vec(Family.FRANK, fit.theta_hat, u1, u2, d1, d2).sum()
    assert abs(total) <= 1e-6 * fit.n


def test_fit_rejects_tiny_samples():
    u1 = np.full(5, 0.5)
    with pytest.raises(InferenceError):
        fit_pmle(Family.CLAYTON, u1, u1, np.ones(5), np.ones(5))


def test_fit_rejects_out_of_range_inputs():
    u1 = np.array([0.5] * 12)
    u2 = np.array([0.5] * 11 + [1.0])
    with pytest.raises(InferenceError):
        fit_pmle(Family.CLAYTON, u1, u2, np.ones(12), np.ones(12))


def test_fit_at_domain_edge_is_a_typed_error():
    # comonotone pseudo-observations: the Gaussian likelihood grows
    # without bound toward rho = 1, and the wide bracket reaches search
    # points where tanh(x) rounds to 1.0
    u = (np.arange(1, 31) - 0.5) / 30
    d = np.ones(30)
    with pytest.raises((InferenceError, numerics.NumericsError)):
        fit_pmle(Family.GAUSSIAN, u, u, d, d, initial_theta=0.9,
                 bracket_halfwidth=15.0)


def test_fit_bracket_expands_beyond_initial():
    # initial theta far from the optimum still converges
    u1, u2, d1, d2 = _simulate(Family.CLAYTON, 0.7, 600, seed=9)
    fit = fit_pmle(Family.CLAYTON, u1, u2, d1, d2, initial_theta=0.05)
    expect = copulas.tau_to_theta(Family.CLAYTON, 0.7)
    assert fit.theta_hat == pytest.approx(expect, rel=0.2)


def test_information_equality_under_null():
    # S and V estimate the same quantity when the model is correct
    u1, u2, d1, d2 = _simulate(Family.GAUSSIAN, 0.5, 8000, seed=17)
    fit = fit_pmle(Family.GAUSSIAN, u1, u2, d1, d2)
    s, v = information(Family.GAUSSIAN, fit.theta_hat, u1, u2, d1, d2)
    assert s > 0.0 and v > 0.0
    assert v / s == pytest.approx(1.0, abs=0.08)


def test_ir_statistic_null_and_misspecified():
    u1, u2, d1, d2 = _simulate(Family.CLAYTON, 0.7, 3000, seed=23)
    fit_ok = fit_pmle(Family.CLAYTON, u1, u2, d1, d2)
    r_ok = compute_statistic("ir", fit_ok, u1, u2, d1, d2)
    assert r_ok.kind == "ir" and r_ok.null_value == 1.0
    assert abs(r_ok.value - 1.0) < 0.1
    fit_bad = fit_pmle(Family.FRANK, u1, u2, d1, d2)
    r_bad = compute_statistic("ir", fit_bad, u1, u2, d1, d2)
    assert abs(r_bad.value - 1.0) > 0.1


def test_white_and_logim_consistent_with_ir():
    u1, u2, d1, d2 = _simulate(Family.FRANK, 0.5, 500, seed=5)
    fit = fit_pmle(Family.FRANK, u1, u2, d1, d2)
    s, v = information(Family.FRANK, fit.theta_hat, u1, u2, d1, d2)
    w = compute_statistic("white", fit, u1, u2, d1, d2)
    lg = compute_statistic("logim", fit, u1, u2, d1, d2)
    ir = compute_statistic("ir", fit, u1, u2, d1, d2)
    assert w.value == pytest.approx(v - s, rel=1e-12)
    assert lg.value == pytest.approx(-np.log(ir.value), rel=1e-10)
    assert w.null_value == 0.0 and lg.null_value == 0.0


def test_pios_near_one_under_null():
    u1, u2, d1, d2 = _simulate(Family.CLAYTON, 0.5, 150, seed=41)
    fit = fit_pmle(Family.CLAYTON, u1, u2, d1, d2)
    t = pios_statistic(fit, u1, u2, d1, d2)
    assert t.kind == "pios" and t.null_value == 1.0
    assert 0.2 < t.value < 2.5


@pytest.mark.parametrize("family", list(Family))
def test_loo_refits_are_exact_optima(family):
    u1, u2, d1, d2 = _simulate(family, 0.5, 40, seed=13, censoring_mean=1.5)
    fit = fit_pmle(family, u1, u2, d1, d2)
    x, own, at_hat = inference._loo_fits(fit, u1, u2, d1, d2)
    assert at_hat.tobytes() == copulas.loglik_vec(family, fit.theta_hat,
                                                  u1, u2, d1, d2).tobytes()
    n = u1.size
    for i in range(n):
        keep = np.arange(n) != i
        sub = (u1[keep], u2[keep], d1[keep], d2[keep])
        theta = copulas.from_unconstrained(family, x[i])
        # gradient and hessian of the delete-one objective on the search scale
        s = copulas.score_vec(family, theta, *sub).sum()
        h = copulas.hessian_vec(family, theta, *sub).sum()
        t1, t2 = copulas.unconstrained_derivs(family, theta)
        g, hx = s * t1, h * t1 * t1 + s * t2
        assert hx < 0.0 and abs(g / hx) <= 1e-10
        ref = fit_pmle(family, *sub, initial_theta=fit.theta_hat, bracket_halfwidth=0.25)
        assert x[i] == pytest.approx(copulas.to_unconstrained(family, ref.theta_hat),
                                     rel=0, abs=5e-8)
        own_ref = copulas.loglik_vec(family, theta, u1[i:i + 1], u2[i:i + 1],
                                     d1[i:i + 1], d2[i:i + 1]).sum()
        assert own[i] == pytest.approx(own_ref, rel=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_pios_is_independent_of_the_block_size(family, monkeypatch):
    u1, u2, d1, d2 = _simulate(family, 0.5, 40, seed=13, censoring_mean=1.5)
    fit = fit_pmle(family, u1, u2, d1, d2)
    whole = pios_statistic(fit, u1, u2, d1, d2).value
    # 7 entries make one-row blocks; 6 * 40 + 1 makes 7-row blocks and a
    # ragged last one
    for block in (7, 6 * 40 + 1):
        monkeypatch.setattr(inference, "_LOO_BLOCK", block)
        assert pios_statistic(fit, u1, u2, d1, d2).value == whole


def _edge_fit(family, u1, u2, d1, d2):
    """An unconverged fit 1e-8 inside the lower edge of the domain."""
    theta = copulas.family_ops(family).domain[0] + 1e-8
    loglik = float(copulas.loglik_vec(family, theta, u1, u2, d1, d2).sum())
    return FitResult(family, theta, loglik, u1.size, converged=False, n_evaluations=0)


@pytest.mark.parametrize("family", [Family.CLAYTON, Family.FRANK, Family.JOE, Family.GUMBEL])
def test_pios_at_domain_edge_is_a_typed_error(family):
    # independent data: the fit ends on the domain edge (Clayton and
    # Frank near 0, Joe and Gumbel near 1) without converging, which is a
    # typed error; at such a fit every leave-one-out optimum is the edge
    gen = np.random.default_rng(1)
    t1, t2 = gen.exponential(1.0, 60), gen.exponential(1.0, 60)
    c = gen.exponential(3.0, 60)
    u1, u2, d1, d2 = pseudo_observations(
        CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c))
    with pytest.raises(InferenceError, match="on the edge of the domain"):
        fit_pmle(family, u1, u2, d1, d2)
    with pytest.raises(InferenceError, match="leave-one-out optimum on the domain edge"):
        pios_statistic(_edge_fit(family, u1, u2, d1, d2), u1, u2, d1, d2)


@pytest.mark.parametrize("family, n, rows", [(Family.CLAYTON, 100, 2),
                                             (Family.JOE, 40, 1),
                                             (Family.GUMBEL, 40, 6)])
def test_pios_with_delete_one_optima_on_the_edge_is_a_typed_error(family, n, rows):
    # an interior fit whose delete-one scores at the edge are negative for
    # a few rows: those rows' leave-one-out optimum is the domain edge
    sample = generate_scenario_dataset(Scenario(family, 0.2, n, "c40"), seed=1)
    u1, u2, d1, d2 = pseudo_observations(sample)
    fit = fit_pmle(family, u1, u2, d1, d2)
    assert fit.converged
    with pytest.raises(InferenceError, match=f"leave-one-out optimum on the domain "
                                             f"edge for {family.value} at {rows} of {n} rows"):
        pios_statistic(fit, u1, u2, d1, d2)


def test_statistics_take_score_and_hessian_from_one_pass(monkeypatch):
    u1, u2, d1, d2 = _simulate(Family.GUMBEL, 0.5, 60, seed=4, censoring_mean=1.5)
    fit = fit_pmle(Family.GUMBEL, u1, u2, d1, d2)
    thetas = []
    dlog_vec = copulas.dlog_vec

    def counted(family, theta, *data):
        thetas.append(theta)
        return dlog_vec(family, theta, *data)

    def unused(*args):
        raise AssertionError("score and hessian come from dlog_vec")

    monkeypatch.setattr(copulas, "dlog_vec", counted)
    monkeypatch.setattr(copulas, "score_vec", unused)
    monkeypatch.setattr(copulas, "hessian_vec", unused)
    inference.compute_statistics(("ir", "white", "logim"), fit, u1, u2, d1, d2)
    assert thetas == [fit.theta_hat]
    thetas.clear()
    pios_statistic(fit, u1, u2, d1, d2)
    # the full-sample pass, then one theta column per Newton iteration
    assert len(thetas) > 1 and thetas[0] == fit.theta_hat
    assert all(t.ndim == 2 and t.shape[1] == 1 for t in thetas[1:])


def test_pios_frank_at_strong_dependence():
    # theta_hat ~ 38 with pairs near (1, 1): unless 1 - zeta keeps its
    # digits there, the score is rounding noise and the leave-one-out
    # refits cannot converge
    u1, u2, d1, d2 = _simulate(Family.FRANK, 0.9, 100, seed=0)
    fit = fit_pmle(Family.FRANK, u1, u2, d1, d2)
    assert fit.converged
    assert np.isfinite(pios_statistic(fit, u1, u2, d1, d2).value)


def test_pios_needs_enough_rows_to_delete_one():
    u1, u2, d1, d2 = _simulate(Family.CLAYTON, 0.5, 10, seed=3)
    fit = fit_pmle(Family.CLAYTON, u1, u2, d1, d2)
    with pytest.raises(InferenceError, match="at least 11"):
        pios_statistic(fit, u1, u2, d1, d2)


def test_compute_statistic_dispatch():
    u1, u2, d1, d2 = _simulate(Family.GUMBEL, 0.5, 200, seed=8)
    fit = fit_pmle(Family.GUMBEL, u1, u2, d1, d2)
    assert compute_statistic("IR", fit, u1, u2, d1, d2).kind == "ir"
    with pytest.raises(ValueError):
        compute_statistic("wald", fit, u1, u2, d1, d2)
