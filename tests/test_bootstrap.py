import functools
import os
from pathlib import Path

import numpy as np
import pytest

from copgof import bootstrap, copulas, inference, numerics
from copgof.bootstrap import (B_CAP, BootstrapConfig, bootstrap_pvalue,
                              bootstrap_reports, generate_bootstrap_dataset,
                              select_copula, _build_frame)
from copgof.copulas import FAMILY_ORDER, CopulaModel, Family
from copgof.inference import compute_statistics, fit_pmle
from copgof.numerics import RngStream
from copgof.simulation import Scenario, generate_scenario_dataset
from copgof.survival import (CensoredSample, censoring_curves, kaplan_meier,
                             pseudo_observations)


def _make_pairs(family, tau, n, seed, censoring_mean=1.5):
    theta = copulas.tau_to_theta(family, tau)
    gen = np.random.default_rng(seed)
    u1, u2 = copulas.sample_pairs(CopulaModel(family, theta), gen, n)
    t1, t2 = -np.log(u1), -np.log(u2)
    c = gen.exponential(censoring_mean, n) if censoring_mean else np.full(n, np.inf)
    return CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c)


PAIRS = _make_pairs(Family.CLAYTON, 0.5, 150, seed=60)


def _row(block, j=0):
    """Row j of a generated (k, n) block as a CensoredSample."""
    return CensoredSample(*(a[j] for a in block))


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(b=1)
    with pytest.raises(ValueError):
        BootstrapConfig(b=B_CAP + 1)
    with pytest.raises(ValueError):
        BootstrapConfig(b=50, seed=-1)


def test_null_family_gets_large_pvalue():
    report = bootstrap_pvalue(PAIRS, Family.CLAYTON,
                              BootstrapConfig(b=60, seed=1))
    assert report.p_value > 0.05
    assert report.b_used == 60
    assert not report.degenerate
    assert 0.2 < report.censoring_rates[0] < 0.55


def test_reports_share_replicates_and_kinds_agree():
    cfg = BootstrapConfig(b=50, seed=2)
    reps = bootstrap_reports(PAIRS, Family.CLAYTON, cfg,
                             kinds=("ir", "white", "logim"))
    assert set(reps) == {"ir", "white", "logim"}
    for rep in reps.values():
        assert rep.theta_hat == reps["ir"].theta_hat
        assert rep.b_used == reps["ir"].b_used


def test_pair_list_and_sample_give_the_same_reports():
    cfg = BootstrapConfig(b=20, seed=4)
    kinds = ("ir", "white", "logim")
    assert (bootstrap_reports(list(PAIRS), Family.FRANK, cfg, kinds=kinds)
            == bootstrap_reports(PAIRS, Family.FRANK, cfg, kinds=kinds))


def test_fit_of_another_family_or_sample_is_rejected():
    # a given fit must be the null family's fit to this sample: a Frank
    # fit would otherwise be reported and bootstrapped as Clayton
    config = BootstrapConfig(b=4, seed=1)
    frank = fit_pmle(Family.FRANK, pseudo_observations(PAIRS))
    with pytest.raises(ValueError, match="fit of frank to 150 rows"):
        bootstrap_reports(PAIRS, Family.CLAYTON, config, fit=frank)
    smaller = _make_pairs(Family.CLAYTON, 0.5, 100, seed=61)
    other = fit_pmle(Family.CLAYTON, pseudo_observations(smaller))
    with pytest.raises(ValueError, match="fit of clayton to 100 rows"):
        bootstrap_reports(PAIRS, Family.CLAYTON, config, fit=other)


@pytest.mark.parametrize("kinds", [("ir", "white", "logim"), ("pios",), ("ir", "pios")])
def test_one_observations_per_sample(kinds, monkeypatch):
    # the observed pseudo-sample and each replicate's are built once, and
    # the fit and every statistic reuse that one object: b + 1 builds
    builds = []
    init = copulas.Observations.__post_init__

    def counted(self):
        builds.append(self)
        init(self)

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(copulas.Observations, "__post_init__", counted)
    sample = generate_scenario_dataset(Scenario(Family.CLAYTON, 0.5, 100, "c20"), seed=1)
    reports = bootstrap_reports(sample, Family.CLAYTON, BootstrapConfig(b=20, seed=1),
                                kinds=kinds)
    assert reports[kinds[0]].b_used == 20
    assert len(builds) == 21


def test_replicate_value_error_is_not_a_drop(monkeypatch):
    # only the typed statistical failures count as dropped replicates;
    # anything else is a bug and must surface
    def broken(*args, **kwargs):
        raise ValueError("bug inside a replicate")

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    fit = fit_pmle(Family.CLAYTON, pseudo_observations(PAIRS))
    monkeypatch.setattr(copulas, "sample_pairs", broken)
    with pytest.raises(ValueError, match="bug inside a replicate"):
        bootstrap_reports(PAIRS, Family.CLAYTON, BootstrapConfig(b=10, seed=1), fit=fit)


def test_replicate_fit_at_domain_edge_is_a_drop(monkeypatch):
    # comonotone Gaussian replicates whose fits are pushed to rho = 1
    # fail with a typed error and are dropped, not raised
    draw = copulas.sample_pairs

    def comonotone(m, gen, n):
        u, _ = draw(m, gen, n)
        return u, u.copy()

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    sample = _make_pairs(Family.GAUSSIAN, 0.3, 40, seed=4, censoring_mean=None)
    fit = fit_pmle(Family.GAUSSIAN, pseudo_observations(sample))
    monkeypatch.setattr(copulas, "sample_pairs", comonotone)
    monkeypatch.setattr(inference, "fit_pmle",
                        functools.partial(fit_pmle, bracket_halfwidth=15.0))
    with pytest.raises(bootstrap.BootstrapError, match="only 0 of 4"):
        bootstrap_reports(sample, Family.GAUSSIAN, BootstrapConfig(b=4, seed=1),
                          kinds=("white",), fit=fit)


@pytest.mark.parametrize("tau", [0.5, -0.3])
def test_gaussian_path_never_calls_the_quadrature_oracle(tau, monkeypatch):
    # the per-row quad is a test oracle only: a Gaussian test on a 40%
    # censored sample must run without it
    def forbidden(*args, **kwargs):
        raise AssertionError("numerics.binorm_cdf called from the library")

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(numerics, "binorm_cdf", forbidden)
    sample = _make_pairs(Family.GAUSSIAN, tau, 60, seed=8)
    reps = bootstrap_reports(sample, Family.GAUSSIAN, BootstrapConfig(b=2, seed=3))
    assert reps["ir"].b_used == 2
    assert not (sample.d1 | sample.d2).all()
    src = Path(copulas.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "binorm_cdf" in p.read_text())
    assert users == ["numerics.py"]


def test_bootstrap_deterministic_across_runs():
    cfg = BootstrapConfig(b=40, seed=9)
    a = bootstrap_pvalue(PAIRS, Family.FRANK, cfg)
    b = bootstrap_pvalue(PAIRS, Family.FRANK, cfg)
    assert a == b


def test_bootstrap_deterministic_across_worker_counts():
    cfg = BootstrapConfig(b=40, seed=9)
    prev = os.environ.get("COPULA_GOF_THREADS")
    try:
        os.environ["COPULA_GOF_THREADS"] = "1"
        a = bootstrap_pvalue(PAIRS, Family.CLAYTON, cfg)
        os.environ["COPULA_GOF_THREADS"] = "4"
        b = bootstrap_pvalue(PAIRS, Family.CLAYTON, cfg)
    finally:
        if prev is None:
            os.environ.pop("COPULA_GOF_THREADS", None)
        else:
            os.environ["COPULA_GOF_THREADS"] = prev
    assert a == b


def test_pios_reports_deterministic_across_worker_counts(monkeypatch):
    sample = _make_pairs(Family.FRANK, 0.5, 60, seed=61)
    cfg = BootstrapConfig(b=6, seed=4)
    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    a = bootstrap_reports(sample, Family.FRANK, cfg, kinds=("pios",))
    monkeypatch.setenv("COPULA_GOF_THREADS", "2")
    b = bootstrap_reports(sample, Family.FRANK, cfg, kinds=("pios",))
    assert a == b and a["pios"].b_used == 6


def test_pios_at_domain_edge_fails_typed(monkeypatch):
    # independent margins: the observed Clayton fit ends on the domain
    # edge, a typed error; handed such a fit, the leave-one-out refits
    # end in a typed error too, not a number
    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    gen = np.random.default_rng(1)
    t1, t2, c = gen.exponential(1.0, 60), gen.exponential(1.0, 60), gen.exponential(3.0, 60)
    sample = CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c)
    config = BootstrapConfig(b=4, seed=1)
    with pytest.raises(inference.InferenceError, match="on the edge of the domain"):
        bootstrap_reports(sample, Family.CLAYTON, config, kinds=("pios",))
    loglik = float(copulas.loglik_vec(Family.CLAYTON, 1e-8,
                                      pseudo_observations(sample)).sum())
    edge = inference.FitResult(Family.CLAYTON, 1e-8, loglik, len(sample),
                               converged=False, n_evaluations=0)
    with pytest.raises(inference.InferenceError, match="leave-one-out"):
        bootstrap_reports(sample, Family.CLAYTON, config, kinds=("pios",), fit=edge)


def test_seed_changes_sigma():
    a = bootstrap_pvalue(PAIRS, Family.CLAYTON, BootstrapConfig(b=40, seed=1))
    b = bootstrap_pvalue(PAIRS, Family.CLAYTON, BootstrapConfig(b=40, seed=2))
    assert a.sigma_b != b.sigma_b
    assert a.statistic.value == b.statistic.value  # observed stat is data-only


def test_generated_dataset_matches_shape():
    fit = fit_pmle(Family.CLAYTON, pseudo_observations(PAIRS))
    frame = _build_frame(PAIRS, fit, ("ir",), BootstrapConfig(b=10, seed=0))
    data = _row(generate_bootstrap_dataset(frame, [3]))
    assert len(data) == len(PAIRS)
    # roughly matching censoring level
    rate = sum(1 - p.d1 for p in data) / len(data)
    assert 0.1 < rate < 0.65
    # same stream, same data
    again = _row(generate_bootstrap_dataset(frame, [3]))
    assert data == again
    assert data != _row(generate_bootstrap_dataset(frame, [4]))


def test_per_margin_dataset_is_an_explicit_redraw():
    # per-margin censoring: after the pair draws, one uniform block for
    # margin 1 and one for margin 2, each through its own censoring curve
    fit = fit_pmle(Family.CLAYTON, pseudo_observations(PAIRS))
    config = BootstrapConfig(b=10, seed=7, common_censoring=False)
    frame = _build_frame(PAIRS, fit, ("ir",), config)
    data = _row(generate_bootstrap_dataset(frame, [5]))

    gen = RngStream(7, 5).generator()
    u1, u2 = copulas.sample_pairs(fit.model, gen, len(PAIRS))
    t1 = kaplan_meier(PAIRS.x1, PAIRS.d1).inverse(u1)
    t2 = kaplan_meier(PAIRS.x2, PAIRS.d2).inverse(u2)
    curve1, curve2 = censoring_curves(PAIRS, common=False)
    c1 = curve1.inverse(gen.random(len(PAIRS)))
    c2 = curve2.inverse(gen.random(len(PAIRS)))
    assert data == CensoredSample(np.minimum(t1, c1), np.minimum(t2, c2),
                                  t1 <= c1, t2 <= c2)
    common = _build_frame(PAIRS, fit, ("ir",), BootstrapConfig(b=10, seed=7))
    assert data != _row(generate_bootstrap_dataset(common, [5]))


@pytest.mark.parametrize("common", [True, False])
def test_block_rows_equal_their_single_stream_calls(common):
    # Joe draws through the bisection sampler; each block row is its own
    # stream's sample, bit for bit
    fit = fit_pmle(Family.JOE, pseudo_observations(PAIRS))
    frame = _build_frame(PAIRS, fit, ("ir",),
                         BootstrapConfig(b=10, seed=7, common_censoring=common))
    streams = [3, 9, 4, B_CAP + 1]
    block = generate_bootstrap_dataset(frame, streams)
    assert [a.shape for a in block] == [(4, len(PAIRS))] * 4
    for j, stream in enumerate(streams):
        single = generate_bootstrap_dataset(frame, [stream])
        assert [a[j].tobytes() for a in block] == [a[0].tobytes() for a in single]


JOE_PAIRS = _make_pairs(Family.JOE, 0.5, 60, seed=62)


def test_joe_reports_independent_of_block_size_and_workers(monkeypatch):
    cfg = BootstrapConfig(b=16, seed=5)
    kinds = ("ir", "white", "logim")
    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    whole = bootstrap_reports(JOE_PAIRS, Family.JOE, cfg, kinds=kinds)
    assert whole["ir"].b_used == 16
    # 1 entry makes one-row blocks, 7n seven-row blocks and a ragged last one
    for block in (1, 7 * len(JOE_PAIRS), bootstrap._BLOCK):
        monkeypatch.setattr(bootstrap, "_BLOCK", block)
        for threads in ("1", "2"):
            monkeypatch.setenv("COPULA_GOF_THREADS", threads)
            assert bootstrap_reports(JOE_PAIRS, Family.JOE, cfg, kinds=kinds) == whole


def test_rows_without_events_are_retried_as_an_explicit_loop(monkeypatch):
    # chosen streams lose every event on margin 2, which fails that row
    # alone; the reports equal a per-replicate loop over the primary and
    # then the retry stream, and a replicate failing on both is dropped
    family = Family.CLAYTON
    cfg = BootstrapConfig(b=12, seed=3)
    kinds = ("ir", "white", "logim")
    base = FAMILY_ORDER.index(family) * B_CAP
    retry = base + bootstrap._RETRY_OFFSET
    broken = {base + 2, base + 5, base + 6, retry + 6}
    draw = generate_bootstrap_dataset

    def censor_chosen(frame, streams):
        x1, x2, d1, d2 = draw(frame, streams)
        for j, stream in enumerate(streams):
            if stream in broken:
                d2[j] = 0
        return x1, x2, d1, d2

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(bootstrap, "generate_bootstrap_dataset", censor_chosen)
    reports = bootstrap_reports(PAIRS, family, cfg, kinds=kinds)

    fit = fit_pmle(family, pseudo_observations(PAIRS))
    frame = _build_frame(PAIRS, fit, kinds, cfg)
    draws = []
    for b in range(cfg.b):
        for stream in (base + b, retry + b):
            try:
                obs = pseudo_observations(_row(censor_chosen(frame, [stream])))
                refit = fit_pmle(family, obs, initial_theta=fit.theta_hat)
                draws.append(compute_statistics(kinds, refit, obs))
                break
            except bootstrap._STAT_ERRORS:
                continue
    assert len(draws) == cfg.b - 1
    for k in kinds:
        sigma_b = float(np.std([d[k].value for d in draws], ddof=1))
        rep = reports[k]
        assert (rep.b_used, rep.sigma_b) == (cfg.b - 1, sigma_b)
        assert rep.p_value == bootstrap._pvalue(rep.statistic.value,
                                                rep.statistic.null_value, sigma_b)[0]


def test_per_margin_reports_are_deterministic():
    cfg = BootstrapConfig(b=20, seed=3, common_censoring=False)
    kinds = ("ir", "white", "logim")
    a = bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds=kinds)
    assert a == bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds=kinds)
    assert a["ir"].b_used == 20


def test_uncensored_original_stays_uncensored():
    pairs = _make_pairs(Family.GUMBEL, 0.5, 120, seed=7, censoring_mean=None)
    fit = fit_pmle(Family.GUMBEL, pseudo_observations(pairs))
    frame = _build_frame(pairs, fit, ("ir",), BootstrapConfig(b=10, seed=0))
    data = _row(generate_bootstrap_dataset(frame, [0]))
    assert all(p.d1 == 1 and p.d2 == 1 for p in data)


def test_select_prefers_true_family():
    # larger uncensored sample so the contrast is sharp
    pairs = _make_pairs(Family.CLAYTON, 0.6, 400, seed=14, censoring_mean=None)
    result = select_copula(pairs, [Family.CLAYTON, Family.JOE],
                           BootstrapConfig(b=60, seed=5))
    assert result.best.family is Family.CLAYTON
    assert result.best.report.p_value >= result.entries[1].report.p_value


def test_select_dedupes_and_validates():
    result = select_copula(PAIRS, [Family.CLAYTON, Family.CLAYTON],
                           BootstrapConfig(b=30, seed=5))
    assert len(result.entries) == 1
    with pytest.raises(ValueError):
        select_copula(PAIRS, [], BootstrapConfig(b=30, seed=5))


def test_critical_value_decision():
    report = bootstrap_pvalue(PAIRS, Family.CLAYTON, BootstrapConfig(b=30, seed=3))
    assert report.reject(0.9999) is (report.p_value < 0.9999)
    assert report.reject(1e-12) is False


def test_pvalue_degenerate_rule():
    assert bootstrap._pvalue(1.0, 1.0, 0.0) == (1.0, True)
    assert bootstrap._pvalue(1.3, 1.0, 0.0) == (0.0, True)
    p, deg = bootstrap._pvalue(1.0, 1.0, 0.5)
    assert p == 1.0 and not deg
