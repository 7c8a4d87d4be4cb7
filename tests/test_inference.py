import pickle

import numpy as np
import pytest

from copgof import copulas, inference, numerics
from copgof.copulas import CopulaModel, Family
from copgof.inference import (FitResult, InferenceError, compute_statistic,
                              fit_pmle, information)
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
    fit = fit_pmle(family, _simulate(family, 0.5, 1500, seed=11))
    assert fit.converged
    assert fit.theta_hat == pytest.approx(theta, rel=0.12)
    assert fit.n == fit.obs.n == 1500
    assert fit.loglik > 0.0  # dependence beats independence here


def test_fit_with_censoring():
    obs = _simulate(Family.CLAYTON, 0.5, 1200, seed=3, censoring_mean=1.5)
    assert 0.25 < 1.0 - obs.d1.mean() < 0.55
    fit = fit_pmle(Family.CLAYTON, obs)
    assert fit.converged
    assert 1.0 < fit.theta_hat < 3.5


def test_fit_score_near_zero_at_optimum():
    obs = _simulate(Family.FRANK, 0.5, 400, seed=21)
    fit = fit_pmle(Family.FRANK, obs)
    total = copulas.score_vec(Family.FRANK, fit.theta_hat, obs).sum()
    assert abs(total) <= 1e-6 * fit.n


def test_fit_rejects_tiny_samples():
    u1 = np.full(5, 0.5)
    with pytest.raises(InferenceError):
        fit_pmle(Family.CLAYTON, copulas.Observations(u1, u1, np.ones(5), np.ones(5)))


def test_fit_rejects_out_of_range_inputs():
    u1 = np.array([0.5] * 12)
    u2 = np.array([0.5] * 11 + [1.0])
    with pytest.raises(InferenceError):
        fit_pmle(Family.CLAYTON, copulas.Observations(u1, u2, np.ones(12), np.ones(12)))


def _set_d1(value, rows=slice(0, 5)):
    def defect(u1, u2, d1, d2):
        d1 = d1.astype(float)
        d1[rows] = value
        return u1, u2, d1, d2
    return defect


# each defect, and the argument its ValueError names
MALFORMED = {
    "indicator 2": (_set_d1(2), "d1"),
    "indicator -1": (_set_d1(-1), "d1"),
    "indicator 0.5": (_set_d1(0.5), "d1"),
    "indicator nan": (_set_d1(np.nan, 0), "d1"),
    "short d2": (lambda u1, u2, d1, d2: (u1, u2, d1, d2[:-1]), "d2"),
    "long u2": (lambda u1, u2, d1, d2: (u1, np.append(u2, 0.5), d1, d2), "u2"),
}


@pytest.mark.parametrize("entry", ["fit_pmle", "information"])
@pytest.mark.parametrize("defect", list(MALFORMED))
def test_malformed_samples_fail_typed(defect, entry):
    # the entry points take an Observations, so malformed arrays fail
    # typed where that sample is built, before they can reach the entry
    make, name = MALFORMED[defect]
    obs = _simulate(Family.CLAYTON, 0.5, 60, seed=2, censoring_mean=1.5)
    sample = make(obs.u1, obs.u2, obs.d1, obs.d2)
    with pytest.raises(ValueError, match=rf"^{name} "):
        if entry == "fit_pmle":
            fit_pmle(Family.CLAYTON, copulas.Observations(*sample))
        else:
            information(Family.CLAYTON, 2.0, copulas.Observations(*sample))


def test_four_array_calls_raise_type_error():
    # the fit and information take one Observations, and the statistics
    # take the fit alone; the four-array form, the arrays as one tuple and
    # a sample next to the fit have no fallback
    obs = _simulate(Family.CLAYTON, 0.5, 30, seed=2)
    fit = fit_pmle(Family.CLAYTON, obs)
    arrays = (obs.u1, obs.u2, obs.d1, obs.d2)
    calls = [lambda: fit_pmle(Family.CLAYTON, *arrays),
             lambda: information(Family.CLAYTON, 2.0, *arrays),
             lambda: compute_statistic("ir", fit, *arrays),
             lambda: inference.compute_statistics(("ir",), fit, *arrays),
             lambda: compute_statistic("ir", fit, obs),
             lambda: inference.compute_statistics(("ir",), fit, obs)]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    for call in (lambda: fit_pmle(Family.CLAYTON, arrays),
                 lambda: information(Family.CLAYTON, 2.0, arrays)):
        with pytest.raises(TypeError, match="copulas.Observations, got tuple"):
            call()


def test_fit_at_domain_edge_is_a_typed_error(monkeypatch):
    # comonotone pseudo-observations: the Gaussian likelihood grows
    # without bound toward rho = 1, and the wide bracket reaches search
    # points where tanh(x) rounds to 1.0
    u = (np.arange(1, 31) - 0.5) / 30
    d = np.ones(30)
    monkeypatch.setattr(inference, "_HALFWIDTH", 15.0)
    with pytest.raises((InferenceError, numerics.NumericsError)):
        fit_pmle(Family.GAUSSIAN, copulas.Observations(u, u, d, d), initial_theta=0.9)


def test_block_fit_is_one_search_whatever_its_rows_brackets(monkeypatch):
    # Clayton rows started at tau = 0.5 whose optima, near tau = 0.1, 0.5
    # and 0.85, take 3, 1 and 2 brackets when each is fitted alone: the
    # block runs every row's whole search in one maximize_1d call
    theta0 = copulas.tau_to_theta(Family.CLAYTON, 0.5)
    rows = [pseudo_observations(generate_scenario_dataset(
        Scenario(Family.CLAYTON, tau, 100, "c40"), 2)) for tau in (0.1, 0.5, 0.85)]
    brackets, calls = [], []
    bracket, maximize = numerics._maximize, numerics.maximize_1d

    def counted_bracket(lo, hi, tol):
        brackets.append((lo, hi))
        return (yield from bracket(lo, hi, tol))

    def counted_maximize(*args, **kwargs):
        calls.append(args)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(numerics, "_maximize", counted_bracket)
    monkeypatch.setattr(numerics, "maximize_1d", counted_maximize)
    refs, per_row = [], []
    for obs in rows:
        brackets.clear()
        refs.append(fit_pmle(Family.CLAYTON, obs, initial_theta=theta0))
        per_row.append(len(brackets))
    assert per_row == [3, 1, 2]
    calls.clear()
    block = copulas.Observations(*(np.array([getattr(r, a) for r in rows])
                                   for a in ("u1", "u2", "d1", "d2")))
    fits = inference.fit_block(Family.CLAYTON, block, initial_theta=theta0)
    assert len(calls) == 1
    assert [fits.result(j) for j in range(3)] == refs


def test_search_scores_points_past_the_exp_overflow_as_invalid(monkeypatch):
    # math.exp overflows past x = log(DBL_MAX) = 709.78...; such points
    # score -inf, and the other rows keep their log-likelihoods
    obs = _simulate(Family.CLAYTON, 0.5, 40, seed=5)
    block = copulas.Observations(*(np.array([getattr(obs, a)] * 3)
                                   for a in ("u1", "u2", "d1", "d2")))
    objectives = []

    def capture(f, x0, half, tol):
        objectives.append(f)
        return [(0.0, 0.0)] * len(x0)

    monkeypatch.setattr(numerics, "maximize_1d", capture)
    inference._search(Family.CLAYTON, block, np.zeros(3))
    objective, = objectives
    edge = 709.782712893384
    values = objective(np.arange(3), [np.log(2.0), np.nextafter(edge, np.inf), 1e300])
    assert values[1:].tolist() == [-np.inf, -np.inf]
    assert values[0] == copulas.loglik_vec(Family.CLAYTON, 2.0, obs, strict=False).sum()
    assert objective(np.arange(2), [710.0, 1e300]).tolist() == [-np.inf, -np.inf]


def test_bracket_failure_is_a_typed_error():
    # the Clayton optimum of this Frank sample keeps escaping every
    # bracket; a solver without the bracket search retires this case
    sample = generate_scenario_dataset(Scenario(Family.FRANK, 0.5, 60, "none"), 14,
                                       replicate=1)
    with pytest.raises(InferenceError) as err:
        fit_pmle(Family.CLAYTON, pseudo_observations(sample))
    assert str(err.value) == ("bracket expansion failed for clayton: optimum keeps "
                              "escaping toward the parameter boundary")


def test_fit_bracket_expands_beyond_initial():
    # initial theta far from the optimum still converges
    fit = fit_pmle(Family.CLAYTON, _simulate(Family.CLAYTON, 0.7, 600, seed=9),
                   initial_theta=0.05)
    expect = copulas.tau_to_theta(Family.CLAYTON, 0.7)
    assert fit.theta_hat == pytest.approx(expect, rel=0.2)


def test_information_equality_under_null():
    # S and V estimate the same quantity when the model is correct
    obs = _simulate(Family.GAUSSIAN, 0.5, 8000, seed=17)
    fit = fit_pmle(Family.GAUSSIAN, obs)
    s, v = information(Family.GAUSSIAN, fit.theta_hat, obs)
    assert s > 0.0 and v > 0.0
    assert v / s == pytest.approx(1.0, abs=0.08)


def test_ir_statistic_null_and_misspecified():
    obs = _simulate(Family.CLAYTON, 0.7, 3000, seed=23)
    fit_ok = fit_pmle(Family.CLAYTON, obs)
    r_ok = compute_statistic("ir", fit_ok)
    assert r_ok.kind == "ir" and r_ok.null_value == 1.0
    assert abs(r_ok.value - 1.0) < 0.1
    fit_bad = fit_pmle(Family.FRANK, obs)
    r_bad = compute_statistic("ir", fit_bad)
    assert abs(r_bad.value - 1.0) > 0.1


def test_white_and_logim_consistent_with_ir():
    obs = _simulate(Family.FRANK, 0.5, 500, seed=5)
    fit = fit_pmle(Family.FRANK, obs)
    s, v = information(Family.FRANK, fit.theta_hat, obs)
    w = compute_statistic("white", fit)
    lg = compute_statistic("logim", fit)
    ir = compute_statistic("ir", fit)
    assert w.value == pytest.approx(v - s, rel=1e-12)
    assert lg.value == pytest.approx(-np.log(ir.value), rel=1e-10)
    assert w.null_value == 0.0 and lg.null_value == 0.0


def test_pios_near_one_under_null():
    obs = _simulate(Family.CLAYTON, 0.5, 150, seed=41)
    t = compute_statistic("pios", fit_pmle(Family.CLAYTON, obs))
    assert t.kind == "pios" and t.null_value == 1.0
    assert 0.2 < t.value < 2.5


@pytest.mark.parametrize("family", list(Family))
def test_loo_refits_are_exact_optima(family, monkeypatch):
    obs = _simulate(family, 0.5, 40, seed=13, censoring_mean=1.5)
    u1, u2, d1, d2 = obs.u1, obs.u2, obs.d1, obs.d2
    fit = fit_pmle(family, obs)
    # the reference refits below search from a narrow first bracket
    monkeypatch.setattr(inference, "_HALFWIDTH", 0.25)
    x, own, at_hat = inference._loo_fits(fit)
    assert at_hat.tobytes() == copulas.loglik_vec(family, fit.theta_hat, obs).tobytes()
    n = obs.n
    for i in range(n):
        keep = np.arange(n) != i
        sub = copulas.Observations(u1[keep], u2[keep], d1[keep], d2[keep])
        theta = copulas.from_unconstrained(family, x[i])
        # gradient and hessian of the delete-one objective on the search scale
        s = copulas.score_vec(family, theta, sub).sum()
        h = copulas.hessian_vec(family, theta, sub).sum()
        t1, t2 = copulas.unconstrained_derivs(family, theta)
        g, hx = s * t1, h * t1 * t1 + s * t2
        assert hx < 0.0 and abs(g / hx) <= 1e-10
        ref = fit_pmle(family, sub, initial_theta=fit.theta_hat)
        assert x[i] == pytest.approx(copulas.to_unconstrained(family, ref.theta_hat),
                                     rel=0, abs=5e-8)
        one = copulas.Observations(u1[i:i + 1], u2[i:i + 1], d1[i:i + 1], d2[i:i + 1])
        own_ref = copulas.loglik_vec(family, theta, one).sum()
        assert own[i] == pytest.approx(own_ref, rel=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_pios_is_independent_of_the_block_size(family, monkeypatch):
    obs = _simulate(family, 0.5, 40, seed=13, censoring_mean=1.5)
    fit = fit_pmle(family, obs)
    whole = compute_statistic("pios", fit).value
    # 7 entries make one-row blocks; 6 * 40 + 1 makes 7-row blocks and a
    # ragged last one
    for block in (7, 6 * 40 + 1):
        monkeypatch.setattr(inference, "BLOCK_ENTRIES", block)
        assert compute_statistic("pios", fit).value == whole


@pytest.mark.parametrize("seed, message", [
    (7, "leave-one-out optimum on the domain edge for gaussian at 1 of 14 rows"),
    (20, "leave-one-out refit for gaussian did not converge in 100 iterations "
         "for 14 of 14 rows")])
def test_pios_errors_count_all_rows_whatever_the_block_size(seed, message, monkeypatch):
    # heavily censored n = 14 samples whose delete-one refits fail: one
    # on the edge (seed 7), all unconverged (seed 20)
    sample = generate_scenario_dataset(Scenario(Family.GAUSSIAN, 0.2, 14, "c70"), seed)
    fit = fit_pmle(Family.GAUSSIAN, pseudo_observations(sample))
    for block in (inference.BLOCK_ENTRIES, 1, 6 * 14 + 1):
        monkeypatch.setattr(inference, "BLOCK_ENTRIES", block)
        with pytest.raises(InferenceError) as err:
            compute_statistic("pios", fit)
        assert str(err.value) == message


def _edge_fit(family, obs):
    """An unconverged fit 1e-8 inside the lower edge of the domain."""
    theta = copulas.family_ops(family).domain[0] + 1e-8
    loglik = float(copulas.loglik_vec(family, theta, obs).sum())
    loglik_obs, score, hessian = copulas.dlog_vec(family, theta, obs)
    return FitResult(family, theta, loglik, converged=False, n_evaluations=0,
                     obs=obs, loglik_obs=loglik_obs, score=score, hessian=hessian)


@pytest.mark.parametrize("family", [Family.CLAYTON, Family.FRANK, Family.JOE, Family.GUMBEL])
def test_pios_at_domain_edge_is_a_typed_error(family):
    # independent data: the fit ends on the domain edge (Clayton and
    # Frank near 0, Joe and Gumbel near 1) without converging, which is a
    # typed error; at such a fit every leave-one-out optimum is the edge
    gen = np.random.default_rng(1)
    t1, t2 = gen.exponential(1.0, 60), gen.exponential(1.0, 60)
    c = gen.exponential(3.0, 60)
    obs = pseudo_observations(
        CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c))
    with pytest.raises(InferenceError, match="on the edge of the domain"):
        fit_pmle(family, obs)
    with pytest.raises(InferenceError, match="leave-one-out optimum on the domain edge"):
        compute_statistic("pios", _edge_fit(family, obs))


@pytest.mark.parametrize("family, n, rows", [(Family.CLAYTON, 100, 2),
                                             (Family.JOE, 40, 1),
                                             (Family.GUMBEL, 40, 6)])
def test_pios_with_delete_one_optima_on_the_edge_is_a_typed_error(family, n, rows):
    # an interior fit whose delete-one scores at the edge are negative for
    # a few rows: those rows' leave-one-out optimum is the domain edge
    sample = generate_scenario_dataset(Scenario(family, 0.2, n, "c40"), seed=1)
    obs = pseudo_observations(sample)
    fit = fit_pmle(family, obs)
    assert fit.converged
    with pytest.raises(InferenceError, match=f"leave-one-out optimum on the domain "
                                             f"edge for {family.value} at {rows} of {n} rows"):
        compute_statistic("pios", fit)


def test_statistics_take_score_and_hessian_from_one_pass(monkeypatch):
    obs = _simulate(Family.GUMBEL, 0.5, 60, seed=4, censoring_mean=1.5)
    thetas = []
    dlog_vec = copulas.dlog_vec

    def counted(family, theta, *data, **options):
        thetas.append(theta)
        return dlog_vec(family, theta, *data, **options)

    def unused(*args):
        raise AssertionError("score and hessian come from dlog_vec")

    monkeypatch.setattr(copulas, "dlog_vec", counted)
    monkeypatch.setattr(copulas, "score_vec", unused)
    monkeypatch.setattr(copulas, "hessian_vec", unused)
    fit = fit_pmle(Family.GUMBEL, obs)
    # the fit's convergence check is the one pass at theta_hat, and the
    # fit keeps it, read-only
    assert thetas == [fit.theta_hat]
    loglik_obs, score, hessian = dlog_vec(Family.GUMBEL, fit.theta_hat, obs)
    assert fit.loglik_obs.tobytes() == loglik_obs.tobytes()
    assert fit.score.tobytes() == score.tobytes()
    assert fit.hessian.tobytes() == hessian.tobytes()
    assert not (fit.loglik_obs.flags.writeable or fit.score.flags.writeable
                or fit.hessian.flags.writeable)
    thetas.clear()
    inference.compute_statistics(("ir", "white", "logim"), fit)
    assert thetas == []
    compute_statistic("pios", fit)
    # one theta column per Newton iteration, and no pass at theta_hat
    assert len(thetas) > 0
    assert all(t.ndim == 2 and t.shape[1] == 1 for t in thetas)


@pytest.mark.parametrize("family", [Family.CLAYTON, Family.GAUSSIAN])
def test_certified_pios_makes_two_kernel_passes(family, monkeypatch):
    # a certified leave-one-out solve makes one kernel pass over the
    # sample at the (12, 1) column of the Chebyshev points' thetas, whose
    # interpolants every Newton iteration reads, and one log-likelihood
    # pass over the sample's entries as an (n, 1) block at the converged
    # thetas, whatever its iteration count and block size; nothing is
    # evaluated at theta_hat, whose values the fit carries
    obs = _simulate(family, 0.5, 40, seed=13, censoring_mean=1.5)
    fit = fit_pmle(family, obs)
    whole = compute_statistic("pios", fit).value
    passes, steps = [], []
    by_case, newton_step = copulas._by_case, inference._newton_step

    def counted_pass(family, theta, obs, derivs=False):
        passes.append((np.shape(theta), obs.u1.shape, derivs))
        return by_case(family, theta, obs, derivs)

    def counted_step(g, h):
        steps.append(g.size)
        return newton_step(g, h)

    monkeypatch.setattr(copulas, "_by_case", counted_pass)
    monkeypatch.setattr(inference, "_newton_step", counted_step)
    for block in (inference.BLOCK_ENTRIES, 1):
        monkeypatch.setattr(inference, "BLOCK_ENTRIES", block)
        passes.clear()
        steps.clear()
        assert compute_statistic("pios", fit).value == whole
        assert passes == [((12, 1), (40,), True), ((40, 1), (40, 1), False)]
        # _newton_step runs once to start and once per iteration
        assert len(steps) > 3 and steps[0] == 40


# T from the exact delete-one solve, recorded before the refits moved to
# Chebyshev interpolants, and whether the interpolants' coefficient tails
# certify the sample: every family at tau = 0.5 with c40 at seed 1, and a
# heavily censored n = 11 Gaussian sample whose tails are far too large
# (used without the tail check, its interpolants put T off by 9e-7)
EXACT_PIOS = [
    (Family.CLAYTON, 40, "c40", 1, 1.0286836585971328, False),
    (Family.FRANK, 40, "c40", 1, 1.2913736635799886, False),
    (Family.JOE, 40, "c40", 1, 1.2820573237048414, True),
    (Family.GAUSSIAN, 40, "c40", 1, 1.1670943855633213, True),
    (Family.GUMBEL, 40, "c40", 1, 1.4013767211483268, True),
    (Family.CLAYTON, 300, "c40", 1, 1.0138151159177984, True),
    (Family.FRANK, 300, "c40", 1, 0.9218249434341713, True),
    (Family.JOE, 300, "c40", 1, 0.8932340092610846, True),
    (Family.GAUSSIAN, 300, "c40", 1, 0.9605258884498836, True),
    (Family.GUMBEL, 300, "c40", 1, 0.9238074075013325, True),
    (Family.GAUSSIAN, 11, "c70", 3, 2.6942894400647965, False),
]


def _record_builds(monkeypatch):
    """The interpolants that the leave-one-out solves build, None where
    their tails did not certify them."""
    built = []
    build = inference._Interpolant.build.__func__

    def recorded(cls, *args):
        built.append(build(cls, *args))
        return built[-1]

    monkeypatch.setattr(inference._Interpolant, "build", classmethod(recorded))
    return built


@pytest.mark.parametrize("family, n, censoring, seed, expected, certified", EXACT_PIOS)
def test_pios_matches_the_exact_solve(family, n, censoring, seed, expected, certified,
                                      monkeypatch):
    built = _record_builds(monkeypatch)
    sample = generate_scenario_dataset(Scenario(family, 0.5, n, censoring), seed)
    fit = fit_pmle(family, pseudo_observations(sample))
    assert compute_statistic("pios", fit).value == pytest.approx(expected, rel=1e-11, abs=0)
    assert [b is not None for b in built] == [certified]


@pytest.mark.parametrize("family", [Family.CLAYTON, Family.GUMBEL])
def test_trials_outside_the_interval_are_evaluated_exactly(family, monkeypatch):
    # interpolants built over the lower half of the interval only: the
    # trials past it are evaluated exactly, in the same Newton iterations
    # as the interpolated ones, and T agrees with the all-exact solve
    obs = _simulate(family, 0.5, 60, seed=13, censoring_mean=1.5)
    fit = fit_pmle(family, obs)
    build, exact = inference._Interpolant.build.__func__, inference._exact_loo
    exact_rows = []

    def counted(family, obs, theta, rows):
        exact_rows.append(rows.size)
        return exact(family, obs, theta, rows)

    def lower_half(cls, family, obs, lo, hi):
        return build(cls, family, obs, lo, 0.5 * (lo + hi))

    monkeypatch.setattr(inference, "_exact_loo", counted)
    monkeypatch.setattr(inference._Interpolant, "build", classmethod(lambda cls, *args: None))
    reference = compute_statistic("pios", fit).value
    assert exact_rows[0] == obs.n
    exact_rows.clear()
    monkeypatch.setattr(inference._Interpolant, "build", classmethod(lower_half))
    assert compute_statistic("pios", fit).value == pytest.approx(reference, rel=1e-11, abs=0)
    assert 0 < max(exact_rows) < obs.n


def test_pios_on_a_flat_gaussian_likelihood_keeps_its_message():
    # one event per margin: the Gaussian fit sits on a flat likelihood near
    # rho = -1, and 13 delete-one refits creep toward the edge. The
    # interpolants' tails do not certify this sample, so the exact solve
    # ends as it did before them; used without the tail check, they made
    # it 14 of 14 rows
    gen = np.random.default_rng(100)
    t1, t2, c = gen.exponential(1.0, 14), gen.exponential(1.0, 14), gen.exponential(0.15, 14)
    d1, d2 = t1 <= c, t2 <= c
    d1[0] = d2[1] = True
    obs = pseudo_observations(CensoredSample(np.minimum(t1, c), np.minimum(t2, c), d1, d2))
    fit = fit_pmle(Family.GAUSSIAN, obs)
    assert fit.converged and fit.theta_hat < -0.99
    with pytest.raises(InferenceError) as err:
        compute_statistic("pios", fit)
    assert str(err.value) == ("leave-one-out refit for gaussian did not converge in 100 "
                              "iterations for 13 of 14 rows")


def test_pios_of_a_fit_whose_loglik_is_not_finite_is_a_typed_error():
    # the statistic reads the fit's own per-observation log-likelihood; a
    # fit built where a piece is NaN fails as loglik_vec would have
    obs = _simulate(Family.CLAYTON, 0.5, 40, seed=6, censoring_mean=1.5)
    fit = fit_pmle(Family.CLAYTON, obs)
    loglik_obs = fit.loglik_obs.copy()
    loglik_obs[3] = -np.inf
    built = FitResult(fit.family, fit.theta_hat, fit.loglik, fit.converged,
                      fit.n_evaluations, obs=obs, loglik_obs=loglik_obs, score=fit.score,
                      hessian=fit.hessian)
    with pytest.raises(copulas.LikelihoodError,
                       match="non-finite log-likelihood for clayton") as err:
        compute_statistic("pios", built)
    assert err.value.index == 3


def test_fit_arrays_are_read_only_through_the_type():
    # a fit built directly or unpickled holds read-only copies of its score
    # and hessian, as the one fit_pmle returns does
    obs = _simulate(Family.CLAYTON, 0.5, 40, seed=6, censoring_mean=1.5)
    fit = fit_pmle(Family.CLAYTON, obs)
    loglik_obs, score, hessian = copulas.dlog_vec(Family.CLAYTON, 2.0, obs)
    built = FitResult(Family.CLAYTON, 2.0, 0.0, converged=False, n_evaluations=0,
                      obs=obs, loglik_obs=loglik_obs, score=score, hessian=hessian)
    assert loglik_obs.flags.writeable and score.flags.writeable and hessian.flags.writeable
    again = pickle.loads(pickle.dumps(fit))
    assert again == fit and again.obs == obs
    for f in (fit, built, again):
        assert not (f.loglik_obs.flags.writeable or f.score.flags.writeable
                    or f.hessian.flags.writeable)
    assert again.loglik_obs.tobytes() == fit.loglik_obs.tobytes()
    assert again.score.tobytes() == fit.score.tobytes()
    assert again.hessian.tobytes() == fit.hessian.tobytes()
    assert compute_statistic("pios", again) == compute_statistic("pios", fit)


def test_pios_frank_at_strong_dependence():
    # theta_hat ~ 38 with pairs near (1, 1): unless 1 - zeta keeps its
    # digits there, the score is rounding noise and the leave-one-out
    # refits cannot converge
    obs = _simulate(Family.FRANK, 0.9, 100, seed=0)
    fit = fit_pmle(Family.FRANK, obs)
    assert fit.converged
    assert np.isfinite(compute_statistic("pios", fit).value)


def test_pios_needs_enough_rows_to_delete_one():
    obs = _simulate(Family.CLAYTON, 0.5, 10, seed=3)
    fit = fit_pmle(Family.CLAYTON, obs)
    with pytest.raises(InferenceError, match="at least 11"):
        compute_statistic("pios", fit)


def test_compute_statistic_dispatch():
    obs = _simulate(Family.GUMBEL, 0.5, 200, seed=8)
    fit = fit_pmle(Family.GUMBEL, obs)
    assert compute_statistic("IR", fit).kind == "ir"
    with pytest.raises(ValueError):
        compute_statistic("wald", fit)
