import math
import os
from dataclasses import replace

import numpy as np
import pytest

from copgof import bootstrap, copulas
from copgof.copulas import Family
from copgof.simulation import (CENSORING_LEVELS, Scenario, StudyConfig,
                               generate_scenario_dataset,
                               run_null_distribution, run_rejection_study,
                               write_qq_csv, write_rejection_csv)


def test_study_config_validation():
    for bad in (dict(b=1), dict(alpha=0.0), dict(alpha=1.5), dict(seed=-1),
                dict(kinds=("ir", "vine")), dict(kinds=())):
        with pytest.raises(ValueError):
            StudyConfig(**bad)
    # kinds are case-insensitive, as on the command line
    assert StudyConfig(kinds=("IR", "White")).kinds == ("ir", "white")


def test_study_config_collapses_duplicate_kinds():
    # a kind named twice is computed once, in first-seen order
    assert StudyConfig(kinds=("ir", "IR")).kinds == ("ir",)
    assert StudyConfig(kinds=("white", "ir", "White")).kinds == ("white", "ir")


def test_scenario_dataset_reads_the_scenario_theta(monkeypatch):
    # theta is computed once, with the scenario; generating its datasets
    # inverts no tau (a Frank tau takes a root-find over a quadrature)
    scenario = Scenario(Family.FRANK, 0.5, 60, "c20")
    assert scenario.theta == copulas.tau_to_theta(Family.FRANK, 0.5)
    assert replace(scenario, tau=0.7).theta == copulas.tau_to_theta(Family.FRANK, 0.7)
    expect = generate_scenario_dataset(scenario, seed=3, replicate=2)

    def unused(*args):
        raise AssertionError("generation inverted tau")

    monkeypatch.setattr(copulas, "tau_to_theta", unused)
    assert generate_scenario_dataset(scenario, seed=3, replicate=2) == expect


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(Family.CLAYTON, 0.5, 100, censoring="heavy")
    with pytest.raises(ValueError):
        Scenario(Family.CLAYTON, 0.5, 5)
    with pytest.raises(ValueError):
        Scenario(Family.JOE, -0.3, 100)
    with pytest.raises(ValueError):
        Scenario(Family.FRANK, 0.995, 100)
    with pytest.raises(ValueError):
        Scenario(Family.JOE, 0.999, 20)


def test_censoring_levels_expected_fractions():
    # exponential event times with exponential censoring of mean m are
    # censored with probability 1/(1+m)
    assert Scenario(Family.CLAYTON, 0.5, 50, "none").expected_censored_fraction == 0.0
    assert Scenario(Family.CLAYTON, 0.5, 50, "c20").expected_censored_fraction == pytest.approx(0.2)
    assert Scenario(Family.CLAYTON, 0.5, 50, "c40").expected_censored_fraction == pytest.approx(0.4)
    assert Scenario(Family.CLAYTON, 0.5, 50, "c70").expected_censored_fraction == pytest.approx(0.7)


@pytest.mark.parametrize("censoring", list(CENSORING_LEVELS))
def test_generated_censored_fraction(censoring):
    sc = Scenario(Family.FRANK, 0.5, 4000, censoring)
    pairs = generate_scenario_dataset(sc, seed=10)
    rate1 = sum(1 - p.d1 for p in pairs) / sc.n
    rate2 = sum(1 - p.d2 for p in pairs) / sc.n
    expect = sc.expected_censored_fraction
    assert rate1 == pytest.approx(expect, abs=0.04)
    assert rate2 == pytest.approx(expect, abs=0.04)


def test_generated_margins_unit_exponential():
    sc = Scenario(Family.GAUSSIAN, 0.5, 5000, "none")
    pairs = generate_scenario_dataset(sc, seed=2)
    x1 = np.array([p.x1 for p in pairs])
    assert x1.mean() == pytest.approx(1.0, abs=0.06)
    assert np.median(x1) == pytest.approx(math.log(2.0), abs=0.05)


def test_dataset_replicates_differ_but_reproduce():
    sc = Scenario(Family.CLAYTON, 0.5, 50, "c20")
    a = generate_scenario_dataset(sc, seed=1, replicate=0)
    b = generate_scenario_dataset(sc, seed=1, replicate=0)
    c = generate_scenario_dataset(sc, seed=1, replicate=1)
    assert a == b
    assert a != c


def test_rejection_study_columns_and_bounds():
    sc = Scenario(Family.CLAYTON, 0.5, 60, "none")
    cfg = StudyConfig(replications=4, b=20, seed=3, kinds=("ir",))
    rows = run_rejection_study(sc, [Family.CLAYTON, Family.JOE], cfg)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row.rejection_rate <= 1.0
        assert 0.0 <= row.selection_rate <= 1.0
        assert row.replications + row.failures == 4
    # selection rates sum to one over candidates (no failures here)
    assert sum(r.selection_rate for r in rows) == pytest.approx(1.0)


def test_rejection_study_collapses_duplicate_nulls():
    # each null family is tested once per replicate, in first-seen order
    sc = Scenario(Family.CLAYTON, 0.5, 40, "none")
    cfg = StudyConfig(replications=2, b=4, seed=3, kinds=("ir",))
    rows = run_rejection_study(sc, [Family.CLAYTON, Family.CLAYTON, Family.FRANK], cfg)
    assert rows == run_rejection_study(sc, [Family.CLAYTON, Family.FRANK], cfg)


def test_study_deterministic_across_worker_counts():
    sc = Scenario(Family.FRANK, 0.5, 50, "c20")
    cfg = StudyConfig(replications=4, b=15, seed=8, kinds=("ir", "white"))
    prev = os.environ.get("COPULA_GOF_THREADS")
    try:
        os.environ["COPULA_GOF_THREADS"] = "1"
        a = run_rejection_study(sc, [Family.FRANK], cfg)
        os.environ["COPULA_GOF_THREADS"] = "4"
        b = run_rejection_study(sc, [Family.FRANK], cfg)
    finally:
        if prev is None:
            os.environ.pop("COPULA_GOF_THREADS", None)
        else:
            os.environ["COPULA_GOF_THREADS"] = prev
    assert a == b


def test_null_distribution_shapes():
    sc = Scenario(Family.GAUSSIAN, 0.5, 60, "none")
    cfg = StudyConfig(replications=6, b=15, seed=4, kinds=("ir",))
    dists = run_null_distribution(sc, cfg)
    d = dists["ir"]
    assert d.statistics.size == 6
    assert (np.diff(d.statistics) >= 0).all()
    assert (np.diff(d.normal_quantiles) > 0).all()
    assert ((d.p_values >= 0) & (d.p_values <= 1)).all()
    # median plotting position of 6 points is symmetric around zero
    assert d.normal_quantiles[0] == pytest.approx(-d.normal_quantiles[-1])


def test_csv_writers(tmp_path):
    sc = Scenario(Family.CLAYTON, 0.5, 60, "none")
    cfg = StudyConfig(replications=3, b=15, seed=3, kinds=("ir",))
    rows = run_rejection_study(sc, [Family.CLAYTON], cfg)
    out = tmp_path / "rej.csv"
    with open(out, "w", newline="") as fh:
        write_rejection_csv(rows, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("true_family,null_family,test,tau,n,censoring,"
                        "rejection_rate,selection_rate,replications")
    assert len(lines) == 2

    dist = run_null_distribution(sc, cfg)["ir"]
    qq = tmp_path / "qq.csv"
    with open(qq, "w", newline="") as fh:
        write_qq_csv(dist, fh)
    qlines = qq.read_text().strip().splitlines()
    assert qlines[0] == "statistic,normal_quantile"
    assert len(qlines) == 4


def test_selection_rate_breaks_ties_like_select(monkeypatch):
    # every p-value tied at 0: the study must rank like select_copula, on
    # pseudo-log-likelihood and then name, not take the first family listed
    inner = bootstrap.bootstrap_reports

    def tied(*args, **kwargs):
        return {k: replace(r, p_value=0.0) for k, r in inner(*args, **kwargs).items()}

    monkeypatch.setenv("COPULA_GOF_THREADS", "1")
    monkeypatch.setattr(bootstrap, "bootstrap_reports", tied)
    sc = Scenario(Family.FRANK, 0.5, 60, "none")
    cfg = StudyConfig(replications=4, b=10, seed=2, kinds=("ir",))
    nulls = [Family.CLAYTON, Family.FRANK, Family.GUMBEL]
    rows = run_rejection_study(sc, nulls, cfg)
    assert [r.selection_rate for r in rows] == [0.0, 0.25, 0.75]
    assert [r.rejection_rate for r in rows] == [1.0, 1.0, 1.0]
