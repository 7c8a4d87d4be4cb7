import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from copgof import bootstrap, copulas, inference, numerics, survival
from copgof.bootstrap import (B_CAP, BootstrapConfig, bootstrap_reports,
                              generate_bootstrap_dataset, select_copula,
                              _build_frame)
from copgof.copulas import FAMILY_ORDER, CopulaModel, Family
from copgof.inference import compute_statistic, fit_pmle
from copgof.numerics import RngStream, StatisticalError
from copgof.simulation import Scenario, StudyConfig, generate_scenario_dataset
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
    # the statistics a test computes are its kinds, not a config field
    with pytest.raises(TypeError):
        BootstrapConfig(b=4, seed=1, statistic="pios")


def test_kind_entries_must_be_strings():
    # a non-string entry, or a sequence passed where one kind is
    # expected, is a TypeError naming the entry, before any fit
    cfg = BootstrapConfig(b=4, seed=1)
    with pytest.raises(TypeError, match="got the entry None"):
        bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds=(None,))
    with pytest.raises(TypeError, match=r"got the entry \('ir',\)"):
        select_copula(PAIRS, [Family.CLAYTON], cfg, kind=("ir",))


def test_kinds_must_be_a_non_empty_sequence():
    # a bare string would read as one-letter kinds, and an empty selection
    # computes nothing: both fail before any fit
    cfg = BootstrapConfig(b=4, seed=1)
    with pytest.raises(TypeError, match="sequence of statistic kinds"):
        bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds="ir")
    with pytest.raises(TypeError, match="sequence of statistic kinds"):
        StudyConfig(kinds="ir")
    for call in (lambda: bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds=()),
                 lambda: StudyConfig(kinds=())):
        with pytest.raises(ValueError, match="no statistic kinds given"):
            call()


def test_null_family_gets_large_pvalue():
    report = bootstrap_reports(PAIRS, Family.CLAYTON,
                               BootstrapConfig(b=60, seed=1))["ir"]
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


def test_duplicate_kinds_are_computed_once(monkeypatch):
    # a kind named twice, in any case, is one report whose replicates are
    # computed once
    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    cfg = BootstrapConfig(b=4, seed=2)
    kinds = []
    block_statistics = inference.block_statistics

    def recorded(block_kinds, fits):
        kinds.append(block_kinds)
        return block_statistics(block_kinds, fits)

    monkeypatch.setattr(inference, "block_statistics", recorded)
    reps = bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds=("ir", "IR"))
    assert list(reps) == ["ir"] and kinds == [("ir",)]
    assert reps == bootstrap_reports(PAIRS, Family.CLAYTON, cfg, kinds=("ir",))


def test_pair_list_and_sample_give_the_same_reports():
    cfg = BootstrapConfig(b=20, seed=4)
    kinds = ("ir", "white", "logim")
    assert (bootstrap_reports(list(PAIRS), Family.FRANK, cfg, kinds=kinds)
            == bootstrap_reports(PAIRS, Family.FRANK, cfg, kinds=kinds))


@pytest.mark.parametrize("kinds", [("ir", "white", "logim"), ("pios",), ("ir", "pios")])
def test_one_observations_per_sample(kinds, monkeypatch):
    # the observed pseudo-sample and the one block of the b replicates are
    # built once, and the fits and every statistic reuse them, pios's
    # one-row samples included: 2 builds. The observed fit makes one
    # dlog_vec pass over its sample, at the (1, 1) column of its estimate,
    # the block fit one pass at its theta column, and every statistic
    # reads them: outside pios's leave-one-out iterations, 1 pass over a
    # sample
    builds = []
    passes = []
    in_loo = []
    init = copulas.Observations.__post_init__
    dlog_vec = copulas.dlog_vec
    loo_block = inference._loo_block

    def counted(self):
        builds.append(self)
        init(self)

    def counted_dlog(family, theta, obs):
        if obs.u1.ndim == 1 and not in_loo:
            passes.append(theta)
        return dlog_vec(family, theta, obs)

    def marked_loo(*args):
        in_loo.append(True)
        try:
            return loo_block(*args)
        finally:
            in_loo.pop()

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(copulas.Observations, "__post_init__", counted)
    monkeypatch.setattr(copulas, "dlog_vec", counted_dlog)
    monkeypatch.setattr(inference, "_loo_block", marked_loo)
    sample = generate_scenario_dataset(Scenario(Family.CLAYTON, 0.5, 100, "c20"), seed=1)
    reports = bootstrap_reports(sample, Family.CLAYTON, BootstrapConfig(b=20, seed=1),
                                kinds=kinds)
    assert reports[kinds[0]].b_used == 20
    assert len(builds) == 2
    assert len(passes) == 1 and np.shape(passes[0]) == (1, 1)


def test_no_statistic_objects_per_replicate(monkeypatch):
    # a block's ir, white and logim come back as arrays: the only
    # StatisticValues built are the observed sample's three
    builds = []
    init = inference.StatisticValue.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.kind)

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(inference.StatisticValue, "__init__", counted)
    sample = generate_scenario_dataset(Scenario(Family.CLAYTON, 0.5, 100, "c20"), seed=1)
    kinds = ("ir", "white", "logim")
    reports = bootstrap_reports(sample, Family.CLAYTON, BootstrapConfig(b=20, seed=1),
                                kinds=kinds)
    assert reports["ir"].b_used == 20
    assert builds == list(kinds)


def test_replicate_value_error_is_not_a_drop(monkeypatch):
    # only the typed statistical failures count as dropped replicates;
    # anything else is a bug and must surface
    def broken(*args, **kwargs):
        raise ValueError("bug inside a replicate")

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(copulas, "sample_pairs", broken)
    with pytest.raises(ValueError, match="bug inside a replicate"):
        bootstrap_reports(PAIRS, Family.CLAYTON, BootstrapConfig(b=10, seed=1))


def test_replicate_fit_at_domain_edge_is_a_drop(monkeypatch):
    # comonotone Gaussian replicates whose fits are pushed to rho = 1
    # fail with a typed error and are dropped, not raised
    draw = copulas.sample_pairs

    def comonotone(m, gen, n):
        u, _ = draw(m, gen, n)
        return u, u.copy()

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    sample = _make_pairs(Family.GAUSSIAN, 0.3, 40, seed=4, censoring_mean=None)
    # the observed fit is made before the wide bracket is set
    fit = fit_pmle(Family.GAUSSIAN, pseudo_observations(sample))
    monkeypatch.setattr(inference, "fit_pmle", lambda family, obs: fit)
    monkeypatch.setattr(copulas, "sample_pairs", comonotone)
    monkeypatch.setattr(inference, "_HALFWIDTH", 15.0)
    fit_block = inference.fit_block
    blocks = []

    def recorded(family, obs, **kwargs):
        fits = fit_block(family, obs, **kwargs)
        blocks.append(fits)
        return fits

    monkeypatch.setattr(inference, "fit_block", recorded)
    with pytest.raises(bootstrap.BootstrapError, match="only 0 of 4"):
        bootstrap_reports(sample, Family.GAUSSIAN, BootstrapConfig(b=4, seed=1),
                          kinds=("white",))
    # the wide bracket reached the replicate fits: the block and its retry
    # block, every row ending in a typed error
    assert [fits.obs.k for fits in blocks] == [4, 4]
    assert all(isinstance(err, (inference.InferenceError, numerics.NumericsError))
               for fits in blocks for err in fits.errors)


def _independent_pairs(n, seed):
    gen = np.random.default_rng(seed)
    t1, t2, c = gen.exponential(1.0, n), gen.exponential(1.0, n), gen.exponential(3.0, n)
    return CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c)


def _comonotone_pairs(n, seed):
    t = np.random.default_rng(seed).exponential(1.0, n)
    return CensoredSample(t, t.copy(), np.ones(n), np.ones(n))


def _stats_outcome(call):
    try:
        return call()
    except StatisticalError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("halfwidth", [1.0, 15.0])
def test_block_fit_rows_equal_their_own_fits(family, halfwidth, monkeypatch):
    # rows of mixed censoring, uncensored rows, independent rows (whose
    # fits end on the edge for the families with an edge there) and
    # comonotone ones (which push a wide bracket to non-finite points):
    # each row of one block fit equals fit_pmle on that row's own sample,
    # its estimate, log-likelihood, score and hessian bit for bit, or
    # its error
    n = 40
    samples = [_make_pairs(fam, tau, n, seed=70 + i, censoring_mean=cm)
               for i, (fam, tau, cm) in enumerate([(family, 0.5, 1.5), (Family.CLAYTON, 0.3, 0.8),
                                                   (Family.GUMBEL, 0.7, None),
                                                   (Family.FRANK, 0.2, 2.0)])]
    samples += [_independent_pairs(n, seed=80), _comonotone_pairs(n, seed=81)]
    rows = [pseudo_observations(s) for s in samples]
    block = copulas.Observations(*(np.array([getattr(r, a) for r in rows])
                                   for a in ("u1", "u2", "d1", "d2")))
    theta0 = copulas.tau_to_theta(family, 0.5)
    monkeypatch.setattr(inference, "_HALFWIDTH", halfwidth)
    fits = inference.fit_block(family, block, initial_theta=theta0)
    # the block's per-observation rows are read-only, as a FitResult's are
    assert not (fits.loglik_obs.flags.writeable or fits.score.flags.writeable
                or fits.hessian.flags.writeable)
    kinds = ("ir", "white", "logim")
    values, ok = inference.block_statistics(kinds, fits)
    outcomes = set()
    for j, obs in enumerate(rows):
        try:
            ref = fit_pmle(family, obs, initial_theta=theta0)
        except StatisticalError as exc:
            err = fits.errors[j]
            assert (type(err), str(err)) == (type(exc), str(exc)), j
            with pytest.raises(type(exc)):
                fits.result(j)
            assert not ok[j], j
            outcomes.add(type(exc).__name__)
            continue
        got = fits.result(j)
        assert fits.errors[j] is None and got == ref, j
        assert got.score.tobytes() == ref.score.tobytes(), j
        assert got.hessian.tobytes() == ref.hessian.tobytes(), j
        assert got.obs == obs
        # the block's statistics of row j are those of its own fit, as bytes
        expected = _stats_outcome(lambda: {k: compute_statistic(k, ref) for k in kinds})
        assert ok[j] == isinstance(expected, dict), j
        if ok[j]:
            assert values[:, j].tobytes() == np.array(
                [expected[k].value for k in kinds]).tobytes(), j
        outcomes.add("fit")
    assert "fit" in outcomes


def test_block_statistics_rows_equal_their_own_statistics():
    # a hand-built block fit of four rows: a failed fit whose score and
    # hessian are not finite, a positive mean hessian (S < 0: ir and logim
    # undefined), an all-zero score (V = 0: logim undefined) and a normal
    # row. The block's mask and values are each row's own compute_statistic
    # outcomes: the same value bytes, or a failure where it raises
    n = 12
    gen = np.random.default_rng(5)
    u = gen.uniform(0.05, 0.95, (2, 4, n))
    obs = copulas.Observations(u[0], u[1], np.ones((4, n)), np.ones((4, n)))
    score = gen.normal(0.0, 1.0, (4, n))
    hessian = -gen.uniform(0.5, 2.0, (4, n))
    score[0, :2] = hessian[0, :2] = [np.inf, -np.inf]
    score[0, 2:] = hessian[0, 2:] = np.nan
    hessian[1] = 0.5
    score[2] = 0.0
    hessian[2] = -2.0
    failed = inference.InferenceError("fit failed")
    fits = inference.BlockFit(
        family=Family.CLAYTON, obs=obs, theta_hat=np.array([np.nan, 2.0, 2.0, 2.0]),
        loglik=np.zeros(4), converged=np.ones(4, dtype=bool), n_evaluations=np.ones(4),
        loglik_obs=np.zeros((4, n)), score=score, hessian=hessian,
        errors=(failed, None, None, None))
    kinds = ("ir", "white", "logim")
    values, ok = inference.block_statistics(kinds, fits)

    def outcome(kind, j):
        try:
            return np.float64(compute_statistic(kind, fits.result(j)).value).tobytes()
        except StatisticalError as exc:
            return type(exc), str(exc)

    expected = [[outcome(k, j) for k in kinds] for j in range(4)]
    assert expected[0] == [(inference.InferenceError, "fit failed")] * 3
    assert expected[1][0] == (inference.InferenceError,
                              "hessian estimate is not positive definite (S = -0.5); "
                              "the information ratio is undefined at this fit")
    assert expected[1][2][0] is inference.InferenceError
    assert expected[1][2][1].startswith("non-positive information estimates (S = -0.5, V = ")
    assert expected[2][2] == (inference.InferenceError,
                              "non-positive information estimates (S = 2, V = 0)")
    assert ok.tolist() == [all(isinstance(o, bytes) for o in e) for e in expected]
    assert ok.tolist() == [False, False, False, True]
    for j, row in enumerate(expected):
        for i, o in enumerate(row):
            if isinstance(o, bytes):
                assert values[i, j].tobytes() == o, (i, j)


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
    a = bootstrap_reports(PAIRS, Family.FRANK, cfg)
    b = bootstrap_reports(PAIRS, Family.FRANK, cfg)
    assert a == b


def test_bootstrap_deterministic_across_worker_counts():
    cfg = BootstrapConfig(b=40, seed=9)
    prev = os.environ.get("COPULA_GOF_THREADS")
    try:
        os.environ["COPULA_GOF_THREADS"] = "1"
        a = bootstrap_reports(PAIRS, Family.CLAYTON, cfg)
        os.environ["COPULA_GOF_THREADS"] = "4"
        b = bootstrap_reports(PAIRS, Family.CLAYTON, cfg)
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
    obs = pseudo_observations(sample)
    loglik = float(copulas.loglik_vec(Family.CLAYTON, 1e-8, obs).sum())
    loglik_obs, score, hessian = copulas.dlog_vec(Family.CLAYTON, 1e-8, obs)
    edge = inference.FitResult(Family.CLAYTON, 1e-8, loglik, converged=False,
                               n_evaluations=0, obs=obs, loglik_obs=loglik_obs,
                               score=score, hessian=hessian)
    monkeypatch.setattr(inference, "fit_pmle", lambda family, obs: edge)
    with pytest.raises(inference.InferenceError, match="leave-one-out"):
        bootstrap_reports(sample, Family.CLAYTON, config, kinds=("pios",))


def test_seed_changes_sigma():
    a = bootstrap_reports(PAIRS, Family.CLAYTON, BootstrapConfig(b=40, seed=1))["ir"]
    b = bootstrap_reports(PAIRS, Family.CLAYTON, BootstrapConfig(b=40, seed=2))["ir"]
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
    # Joe draws through the Newton sampler, which iterates each entry on
    # its own; each block row is its own stream's sample, bit for bit
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
    for block in (1, 7 * len(JOE_PAIRS), inference.BLOCK_ENTRIES):
        monkeypatch.setattr(inference, "BLOCK_ENTRIES", block)
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
                draws.append({k: compute_statistic(k, refit) for k in kinds})
                break
            except StatisticalError:
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


# Joe and Gumbel ir reports at tau = 0.7, n = 80 and 1.5-mean exponential
# censoring, recorded before their samplers moved from bisection to their
# own inverses. The golden files cover only Clayton and Frank; these pin
# that rank-based pseudo-observations hide the inverses' last-ulp changes.
# Re-pinned when the p-value moved to the lower tail 2 Phi(-z), and again
# when numpy's ufuncs took over the theta-only terms.
@pytest.mark.parametrize("family, seed, expected", [
    (Family.JOE, 63,
     (4.349113993705094, 1.1811600045702917, 0.25921772203749216, 0.4846320352318415)),
    (Family.GUMBEL, 64,
     (3.9058815981623387, 1.342836958559892, 0.25637261204987205, 0.1811376309196182)),
])
def test_joe_and_gumbel_reports_are_pinned(family, seed, expected):
    pairs = _make_pairs(family, 0.7, 80, seed=seed)
    report = bootstrap_reports(pairs, family, BootstrapConfig(b=30, seed=7))["ir"]
    got = (report.theta_hat, report.statistic.value, report.sigma_b, report.p_value)
    assert got == expected
    assert report.b_used == 30


# one pios report per family at tau = 0.5, n = 60 and 1.5-mean exponential
# censoring, recorded before the leave-one-out Newton iteration took its
# log-likelihood, score and hessian from one kernel pass; every
# replicate's n delete-one refits run through all four censoring pieces.
# Re-pinned when the p-value moved to the lower tail 2 Phi(-z), when
# numpy's ufuncs took over the theta-only terms, and when the refits moved
# to Chebyshev interpolants of the sums (each value within 2e-14 relative).
@pytest.mark.parametrize("family, seed, expected", [
    (Family.CLAYTON, 90,
     (2.3788517439950763, 1.3103192225973406, 1.4024740582447062, 0.8248856563538854)),
    (Family.FRANK, 91,
     (5.314231898369331, 0.7724614616457322, 0.2531539861307589, 0.36875133880717015)),
    (Family.JOE, 92,
     (3.1543753975180144, 1.0122993288443702, 0.33138500034607477, 0.9703933732172825)),
    (Family.GAUSSIAN, 93,
     (0.8458821773659168, 0.7571457406382249, 0.3748883720417739, 0.5171116030107712)),
    (Family.GUMBEL, 94,
     (2.0241404841110824, 0.7488230124620054, 0.2903069796688415, 0.3869226196949782)),
])
def test_pios_reports_are_pinned(family, seed, expected):
    pairs = _make_pairs(family, 0.5, 60, seed=seed)
    report = bootstrap_reports(pairs, family, BootstrapConfig(b=10, seed=11),
                               kinds=("pios",))["pios"]
    got = (report.theta_hat, report.statistic.value, report.sigma_b, report.p_value)
    assert got == expected
    assert report.b_used == 10


def test_select_prefers_true_family():
    # larger uncensored sample so the contrast is sharp
    pairs = _make_pairs(Family.CLAYTON, 0.6, 400, seed=14, censoring_mean=None)
    result = select_copula(pairs, [Family.CLAYTON, Family.JOE],
                           BootstrapConfig(b=60, seed=5))
    assert result.best.family is Family.CLAYTON
    assert result.best.report.p_value >= result.entries[1].report.p_value


def test_select_prepares_each_sample_once(monkeypatch):
    # four families on one sample: one pseudo-sample, one Kendall tau and
    # one Kaplan-Meier curve each for the two margins and the common
    # censoring, and the same reports, bit for bit, as tests of fresh
    # copies of the sample; a pickled sample comes back without them
    calls = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("pseudo_observations", "empirical_kendall_tau", "kaplan_meier"):
        counted(survival, name)
    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    sample = CensoredSample(PAIRS.x1, PAIRS.x2, PAIRS.d1, PAIRS.d2)
    families = [Family.CLAYTON, Family.FRANK, Family.JOE, Family.GUMBEL]
    cfg = BootstrapConfig(b=6, seed=3)
    result = select_copula(sample, families, cfg)
    assert all(e.report is not None for e in result.entries)
    assert calls == {"pseudo_observations": 1, "empirical_kendall_tau": 1, "kaplan_meier": 3}
    for entry in result.entries:
        fresh = CensoredSample(PAIRS.x1, PAIRS.x2, PAIRS.d1, PAIRS.d2)
        expect, = bootstrap_reports(fresh, entry.family, cfg).values()
        assert repr(entry.report) == repr(expect)
    assert calls == {"pseudo_observations": 5, "empirical_kendall_tau": 5, "kaplan_meier": 15}
    again = pickle.loads(pickle.dumps(sample))
    bootstrap_reports(again, Family.CLAYTON, cfg)
    assert calls == {"pseudo_observations": 6, "empirical_kendall_tau": 6, "kaplan_meier": 18}


def test_select_dedupes_and_validates():
    cfg = BootstrapConfig(b=30, seed=5)
    result = select_copula(PAIRS, [Family.CLAYTON, Family.CLAYTON], cfg)
    assert len(result.entries) == 1
    assert result.best.report == bootstrap_reports(PAIRS, Family.CLAYTON, cfg)["ir"]
    # kind picks the statistic the candidates are tested and ranked on
    families = [Family.CLAYTON, Family.FRANK]
    white = select_copula(PAIRS, families, cfg, kind="white")
    expect = {fam: bootstrap_reports(PAIRS, fam, cfg, kinds=("white",))["white"]
              for fam in families}
    assert {e.family: e.report for e in white.entries} == expect
    ps = [e.report.p_value for e in white.entries]
    assert ps == sorted(ps, reverse=True)
    with pytest.raises(ValueError):
        select_copula(PAIRS, [], BootstrapConfig(b=30, seed=5))


def test_critical_value_decision():
    report = bootstrap_reports(PAIRS, Family.CLAYTON, BootstrapConfig(b=30, seed=3))["ir"]
    assert report.reject(0.9999) is (report.p_value < 0.9999)
    assert report.reject(1e-12) is False


def test_pvalue_degenerate_rule():
    assert bootstrap._pvalue(1.0, 1.0, 0.0) == (1.0, True)
    assert bootstrap._pvalue(1.3, 1.0, 0.0) == (0.0, True)
    p, deg = bootstrap._pvalue(1.0, 1.0, 0.5)
    assert p == 1.0 and not deg


@pytest.mark.parametrize("z", [8.0, 9.0])
def test_pvalue_far_tail_stays_positive(z):
    # 2 (1 - Phi(z)) rounds to 0 from z ~ 8.3; the lower tail keeps its digits
    p, deg = bootstrap._pvalue(1.0 + z, 1.0, 1.0)
    assert p == 2.0 * ndtr(-z) and p > 0.0 and not deg
