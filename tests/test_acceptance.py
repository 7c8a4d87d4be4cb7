"""End-to-end acceptance checks.

Each test prints one PASS line on success; a failure shows up as an
ordinary assertion error. The heavy Monte Carlo checks use reduced but
statistically calibrated scales.
"""

import csv
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from copgof import bootstrap, copulas, inference, numerics, simulation, survival
from copgof.bootstrap import BootstrapConfig
from copgof.cli import main as cli_main
from copgof.copulas import CopulaModel, Family, cdf, density, loglik_vec
from copgof.inference import compute_statistic, fit_pmle
from copgof.simulation import Scenario, StudyConfig
from copgof.survival import CensoredPair, kaplan_meier

ANALYTIC = tuple(Family)

GOLDEN = Path(__file__).parent / "golden"


def _theta_range(family):
    return {
        Family.CLAYTON: (0.2, 8.0),
        Family.FRANK: (0.5, 15.0),
        Family.JOE: (1.1, 8.0),
        Family.GAUSSIAN: (-0.9, 0.9),
        Family.GUMBEL: (1.1, 8.0),
    }[family]


def _known_margin_sample(family, tau, n, seed, censoring_mean=None):
    """Censored sample on the copula scale with the true (known) margins:
    unit exponentials transformed back through their exact survival."""
    theta = copulas.tau_to_theta(family, tau)
    gen = np.random.default_rng(seed)
    u1, u2 = copulas.sample_pairs(CopulaModel(family, theta), gen, n)
    t1, t2 = -np.log(u1), -np.log(u2)
    if censoring_mean is None:
        c = np.full(n, np.inf)
    else:
        c = gen.exponential(censoring_mean, n)
    x1, x2 = np.minimum(t1, c), np.minimum(t2, c)
    d1, d2 = (t1 <= c).astype(int), (t2 <= c).astype(int)
    return np.exp(-x1), np.exp(-x2), d1, d2, theta


def test_criterion_01_derivative_correctness():
    start = time.time()
    rng = np.random.default_rng(2024)
    for family in ANALYTIC:
        lo, hi = _theta_range(family)
        for _ in range(100):
            theta = float(rng.uniform(lo, hi))
            u1 = rng.uniform(0.03, 0.97, 1)
            u2 = rng.uniform(0.03, 0.97, 1)
            d1 = rng.integers(0, 2, 1)
            d2 = rng.integers(0, 2, 1)
            scale = max(1.0, abs(theta))
            h1, h2 = 1e-6 * scale, 1e-4 * scale
            ll = lambda t: loglik_vec(family, t, copulas.Observations(u1, u2, d1, d2))
            fd1 = (ll(theta + h1) - ll(theta - h1)) / (2 * h1)
            fd2 = (ll(theta + h2) - 2 * ll(theta) + ll(theta - h2)) / h2 ** 2
            s = copulas.score_vec(family, theta, copulas.Observations(u1, u2, d1, d2))
            h = copulas.hessian_vec(family, theta, copulas.Observations(u1, u2, d1, d2))
            assert abs(s[0] - fd1[0]) <= 1e-5 * max(1.0, abs(fd1[0])), \
                f"{family.value} score at theta={theta}, u=({u1[0]},{u2[0]})"
            assert abs(h[0] - fd2[0]) <= 1e-3 * max(1.0, abs(fd2[0])), \
                f"{family.value} hessian at theta={theta}, u=({u1[0]},{u2[0]})"
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: analytic score/hessian match finite differences "
          f"({100 * len(ANALYTIC)} points, {elapsed:.1f}s)")


def test_criterion_02_copula_calculus():
    start = time.time()
    grid = np.linspace(0.05, 0.95, 19)
    u1g, u2g = np.meshgrid(grid, grid)
    u1f, u2f = u1g.ravel(), u2g.ravel()
    nodes, weights = np.polynomial.legendre.leggauss(96)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for family in Family:
        lo, hi = _theta_range(family)
        theta = copulas.tau_to_theta(family, 0.5)
        m = CopulaModel(family, theta)
        eps = 1e-6
        fd1 = (cdf(m, u1f + eps, u2f) - cdf(m, u1f - eps, u2f)) / (2 * eps)
        fd2 = (cdf(m, u1f, u2f + eps) - cdf(m, u1f, u2f - eps)) / (2 * eps)
        np.testing.assert_allclose(copulas.partial_u1(m, u1f, u2f), fd1,
                                   rtol=1e-6, atol=1e-6,
                                   err_msg=f"{family.value} c1")
        np.testing.assert_allclose(copulas.partial_u2(m, u1f, u2f), fd2,
                                   rtol=1e-6, atol=1e-6,
                                   err_msg=f"{family.value} c2")
        epsd = 1e-5
        fdd = (cdf(m, u1f + epsd, u2f + epsd) - cdf(m, u1f + epsd, u2f - epsd)
               - cdf(m, u1f - epsd, u2f + epsd)
               + cdf(m, u1f - epsd, u2f - epsd)) / (4 * epsd * epsd)
        np.testing.assert_allclose(density(m, u1f, u2f), fdd,
                                   rtol=1e-4, atol=1e-4,
                                   err_msg=f"{family.value} density")
        # tensor Gauss-Legendre integral of the density over the square
        xx, yy = np.meshgrid(x, x)
        ww = np.outer(w, w)
        total = float((density(m, xx.ravel(), yy.ravel()) * ww.ravel()).sum())
        assert abs(total - 1.0) <= 1e-3, f"{family.value} density integral {total}"
    # Gaussian cross-check: dC/dtheta equals the bivariate normal density
    from scipy.special import ndtri
    theta = 0.5
    epst = 1e-5
    ma = CopulaModel(Family.GAUSSIAN, theta + epst)
    mb = CopulaModel(Family.GAUSSIAN, theta - epst)
    sub = slice(0, None, 37)
    fdt = (cdf(ma, u1f[sub], u2f[sub]) - cdf(mb, u1f[sub], u2f[sub])) / (2 * epst)
    pdf2 = numerics.binorm_pdf(ndtri(u1f[sub]), ndtri(u2f[sub]), theta)
    np.testing.assert_allclose(fdt, pdf2, rtol=1e-5, atol=1e-5)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: copula partials, density and integral checks "
          f"on 19x19 grids ({elapsed:.1f}s)")


def test_criterion_03_tau_round_trip_and_sampler():
    start = time.time()
    for family in Family:
        for tau in np.arange(0.1, 0.91, 0.1):
            tau = round(float(tau), 10)
            theta = copulas.tau_to_theta(family, tau)
            back = copulas.theta_to_tau(family, theta)
            assert abs(back - tau) <= 1e-8, f"{family.value} tau={tau}"
        theta = copulas.tau_to_theta(family, 0.5)
        u1, u2 = copulas.sample_pairs(CopulaModel(family, theta),
                                      np.random.default_rng(404), 10000)
        emp = survival.empirical_kendall_tau(u1, u2)
        assert abs(emp - 0.5) <= 0.02, f"{family.value} sampler tau {emp}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: tau round trips within 1e-8, samplers hit "
          f"tau=0.5 within 0.02 at 10^4 draws ({elapsed:.1f}s)")


def test_criterion_04_information_matrix_equivalence():
    start = time.time()
    n = 20000
    for family in ANALYTIC:
        u1, u2, d1, d2, theta = _known_margin_sample(family, 0.5, n, seed=91,
                                                     censoring_mean=1.5)
        s, v = inference.information(family, theta, copulas.Observations(u1, u2, d1, d2))
        ratio = abs(s - v) / s
        assert ratio <= 0.05, f"{family.value}: |S-V|/S = {ratio:.4f}"
    # misspecified: Clayton data, Frank model at its own pseudo-MLE.
    # Censoring dilutes this contrast (the doubly censored likelihood
    # piece discriminates weakly), so the breakdown is demonstrated on
    # the uncensored sample where the discrepancy is unambiguous.
    u1, u2, d1, d2, _ = _known_margin_sample(Family.CLAYTON, 0.7, n, seed=92,
                                             censoring_mean=None)
    obs = copulas.Observations(u1, u2, d1, d2)
    fit = fit_pmle(Family.FRANK, obs)
    s, v = inference.information(Family.FRANK, fit.theta_hat, obs)
    ratio = abs(s - v) / s
    assert ratio > 0.10, f"misspecified ratio only {ratio:.4f}"
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 4: information equality holds under the null "
          f"(ratio <= 0.05 at n=20000, 40% censoring) and breaks under "
          f"misspecification (ratio {ratio:.3f} > 0.10) ({elapsed:.1f}s)")


def test_criterion_05_ir_pios_equivalence():
    start = time.time()
    def mean_gap(n, reps):
        gaps = []
        for r in range(reps):
            pairs = simulation.generate_scenario_dataset(
                Scenario(Family.CLAYTON, 0.5, n, "none"), seed=300, replicate=r)
            obs = survival.pseudo_observations(pairs)
            fit = fit_pmle(Family.CLAYTON, obs)
            rn = compute_statistic("ir", fit).value
            tn = compute_statistic("pios", fit).value
            gaps.append(abs(rn - tn))
        return float(np.mean(gaps))

    gap_small = mean_gap(150, 50)
    gap_large = mean_gap(600, 50)
    assert gap_large < gap_small, f"gap at n=600 ({gap_large:.4f}) not below " \
                                  f"gap at n=150 ({gap_small:.4f})"
    assert gap_large <= 0.15, f"gap at n=600 is {gap_large:.4f}"
    elapsed = time.time() - start
    assert elapsed < 900.0
    print(f"\nPASS criterion 5: mean |R - T| shrinks from {gap_small:.4f} "
          f"(n=150) to {gap_large:.4f} (n=600) <= 0.15 ({elapsed:.1f}s)")


def test_criterion_06_type_one_error():
    start = time.time()
    rates = {}
    for i, family in enumerate((Family.CLAYTON, Family.FRANK, Family.GAUSSIAN)):
        sc = Scenario(family, 0.5, 100, "none")
        cfg = StudyConfig(replications=100, b=200, alpha=0.05,
                          seed=500 + i, kinds=("ir",))
        rows = simulation.run_rejection_study(sc, [family], cfg)
        rate = rows[0].rejection_rate
        rates[family.value] = rate
        assert 0.0 <= rate <= 0.11, f"{family.value} type-I rate {rate}"
    elapsed = time.time() - start
    assert elapsed < 7200.0
    summary = ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
    print(f"\nPASS criterion 6: IR type-I error within [0, 0.11] at n=100, "
          f"100 reps, B=200 ({summary}) ({elapsed:.0f}s)")


def test_criterion_07_power():
    start = time.time()
    sc = Scenario(Family.CLAYTON, 0.7, 300, "none")
    cfg = StudyConfig(replications=50, b=200, alpha=0.05, seed=700, kinds=("ir",))
    rows = simulation.run_rejection_study(sc, [Family.JOE], cfg)
    rate = rows[0].rejection_rate
    assert rate >= 0.5, f"power against Joe null is only {rate}"
    elapsed = time.time() - start
    assert elapsed < 3600.0
    print(f"\nPASS criterion 7: IR power {rate:.2f} >= 0.5 for Joe null on "
          f"Clayton tau=0.7 data at n=300 ({elapsed:.0f}s)")


def test_criterion_08_null_pvalue_uniformity():
    start = time.time()
    sc = Scenario(Family.GAUSSIAN, 0.5, 300, "none")
    cfg = StudyConfig(replications=100, b=200, seed=800, kinds=("ir",))
    dist = simulation.run_null_distribution(sc, cfg)["ir"]
    ks = sstats.kstest(dist.p_values, "uniform")
    assert ks.pvalue >= 0.01, f"KS uniformity rejected (p={ks.pvalue:.4f})"
    elapsed = time.time() - start
    print(f"\nPASS criterion 8: null p-values pass KS uniformity "
          f"(KS p={ks.pvalue:.3f}, 100 reps at n=300) ({elapsed:.0f}s)")


def test_criterion_09_determinism_and_golden(tmp_path, capsys):
    data = GOLDEN / "clayton_c20.csv"
    test_args = ["test", "--input", str(data), "--family", "clayton",
                 "--b", "40", "--seed", "11"]
    sim_args = ["simulate", "--true-family", "frank", "--tau", "0.5",
                "--n", "60", "--replications", "4", "--b", "20",
                "--tests", "ir,white", "--seed", "12"]

    def run(args, threads):
        prev = os.environ.get("COPULA_GOF_THREADS")
        os.environ["COPULA_GOF_THREADS"] = threads
        try:
            rc = cli_main(args)
        finally:
            if prev is None:
                os.environ.pop("COPULA_GOF_THREADS", None)
            else:
                os.environ["COPULA_GOF_THREADS"] = prev
        assert rc == 0
        return capsys.readouterr().out

    outputs_test = [run(test_args, t) for t in ("1", "1", "4")]
    outputs_sim = [run(sim_args, t) for t in ("1", "1", "4")]
    assert outputs_test[0] == outputs_test[1] == outputs_test[2]
    assert outputs_sim[0] == outputs_sim[1] == outputs_sim[2]
    assert outputs_test[0] == (GOLDEN / "test_report.json").read_text()
    assert outputs_sim[0] == (GOLDEN / "simulate_rejection.csv").read_text()
    # report schema sanity on the golden output
    report = json.loads(outputs_test[0])
    for key in ("family", "theta_hat", "statistic", "sigma_b", "p_value",
                "b", "seed", "n", "censoring_rates", "degenerate",
                "decision_at"):
        assert key in report
    print("\nPASS criterion 9: test and simulate outputs byte-identical "
          "across runs, across 1 vs 4 workers, and against golden files")


def test_criterion_10_hand_oracles():
    start = time.time()
    # Kaplan-Meier toy curves
    km = kaplan_meier([1, 2, 3, 4], [1, 1, 1, 1])
    np.testing.assert_allclose(km.values, [0.75, 0.5, 0.25, 0.0])
    km = kaplan_meier([1, 2, 3], [1, 0, 1])
    np.testing.assert_allclose(km.values, [2.0 / 3.0, 0.0])
    km = kaplan_meier([1, 2, 2, 3], [1, 1, 0, 1])
    np.testing.assert_allclose(km.values, [0.75, 0.5, 0.0])
    # censoring-rate identity: exponential censoring of mean m censors a
    # unit-exponential margin with probability 1/(1+m)
    for level, mean in simulation.CENSORING_LEVELS.items():
        if math.isinf(mean):
            continue
        sc = Scenario(Family.FRANK, 0.5, 4000, level)
        pairs = simulation.generate_scenario_dataset(sc, seed=1000)
        rate = sum(1 - p.d1 for p in pairs) / sc.n
        expect = 1.0 / (1.0 + mean)
        assert abs(rate - expect) <= 0.04, f"{level}: rate {rate} vs {expect}"
    # Clayton closed-form likelihood values at (1/2, 1/2), theta = 2
    one = np.array([1])
    zero = np.array([0])
    half = np.array([0.5])
    ll_obs = loglik_vec(Family.CLAYTON, 2.0, copulas.Observations(half, half, one, one))[0]
    ll_cen = loglik_vec(Family.CLAYTON, 2.0, copulas.Observations(half, half, zero, zero))[0]
    assert abs(ll_obs - 0.39272) <= 1e-5
    assert abs(ll_cen - (-0.97295)) <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 10: hand-computed Kaplan-Meier, censoring-rate "
          f"and Clayton likelihood oracles ({elapsed:.1f}s)")
