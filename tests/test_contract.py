"""The failure contract: a test on degenerate data ends in a
``copgof.StatisticalError`` (exit code 2 through the command line) or in
a finite report, never in another exception or a silent number."""

import json
import math

import numpy as np
import pytest

import copgof
from copgof import (BootstrapConfig, CensoredSample, Family, Scenario, StatisticalError,
                    bootstrap, bootstrap_reports, cli, copulas, generate_scenario_dataset,
                    inference, numerics, simulation, survival)


def test_typed_failures_are_statistical_errors():
    typed = (numerics.NumericsError, numerics.BracketError, numerics.OptimizationError,
             copulas.CopulaError, copulas.LikelihoodError, inference.InferenceError,
             survival.SurvivalError, bootstrap.BootstrapError, simulation.SimulationError)
    for cls in typed:
        assert issubclass(cls, copgof.StatisticalError), cls
    for cls in (ValueError, TypeError, cli.UsageError, cli.InputError):
        assert not issubclass(cls, copgof.StatisticalError), cls
    assert "StatisticalError" in copgof.__all__


def _degenerate_cases(n=60):
    gen = np.random.default_rng(5)
    t, t2 = gen.exponential(1.0, n), gen.exponential(1.0, n)
    ones = np.ones(n)
    # independent margins under common censoring, with a small positive tau
    gen = np.random.default_rng(17)
    (i1, i2), c = gen.exponential(1.0, (2, n)), gen.exponential(3.0, n)
    small = generate_scenario_dataset(Scenario(Family.CLAYTON, 0.5, 10), seed=5)
    return {
        "comonotone": (CensoredSample(t, t.copy(), ones, ones), "ir"),
        # u2 = 1 - u1 exactly: Kendall's tau is -1
        "countermonotone": (CensoredSample(t, -np.log(-np.expm1(-t)), ones, ones), "ir"),
        "independent": (CensoredSample(np.minimum(i1, c), np.minimum(i2, c),
                                       i1 <= c, i2 <= c), "ir"),
        "no events on margin 1": (CensoredSample(t, t2, np.zeros(n), ones), "ir"),
        "n = 10 with pios": (small, "pios"),
    }


ARCHIMEDEAN = (Family.CLAYTON, Family.FRANK, Family.JOE, Family.GUMBEL)
# how each case ends today, per family: the class of its typed error, or a
# report. The Archimedean fits to comonotone data run to theta = 148 to
# 2e15 before a derivative overflows; countermonotone data put them on the
# edge of their domains, as independent data do Gumbel, while independent
# Joe loses too many replicates to edge fits
OUTCOMES = {
    "comonotone": {**{f: "LikelihoodError" for f in ARCHIMEDEAN},
                   Family.GAUSSIAN: "InferenceError"},
    "countermonotone": {**{f: "InferenceError" for f in ARCHIMEDEAN},
                        Family.GAUSSIAN: "report"},
    "independent": {Family.CLAYTON: "report", Family.FRANK: "report",
                    Family.JOE: "BootstrapError", Family.GAUSSIAN: "report",
                    Family.GUMBEL: "InferenceError"},
    "no events on margin 1": {f: "SurvivalError" for f in Family},
    "n = 10 with pios": {f: "InferenceError" for f in Family},
}


@pytest.mark.parametrize("case", list(OUTCOMES))
def test_degenerate_input_ends_as_the_contract_says(case, tmp_path, capsys):
    # every family, through the library and through `copgof test` on the
    # same sample written as CSV: a StatisticalError is exit 2 with its
    # message and nothing on stdout, a report is exit 0 with the same
    # finite statistic and a p-value in [0, 1]
    sample, kind = _degenerate_cases()[case]
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,d1,d2\n" + "".join(
        f"{a!r},{b!r},{int(c)},{int(d)}\n" for a, b, c, d in zip(
            sample.x1.tolist(), sample.x2.tolist(), sample.d1, sample.d2)))
    for family in Family:
        try:
            report = bootstrap_reports(sample, family, BootstrapConfig(b=4, seed=1),
                                       kinds=(kind,))[kind]
        except StatisticalError as exc:
            error = exc
        else:
            error = None
            assert math.isfinite(report.statistic.value) and 0.0 <= report.p_value <= 1.0
        assert OUTCOMES[case][family] == (type(error).__name__ if error else "report"), family
        rc = cli.main(["test", "--input", str(path), "--family", family.value,
                       "--statistic", kind, "--b", "4", "--seed", "1"])
        captured = capsys.readouterr()
        if error is not None:
            assert (rc, captured.out) == (cli.EXIT_STATISTICAL, ""), family
            assert captured.err == f"statistical failure: {error}\n", family
        else:
            assert rc == cli.EXIT_OK, family
            out = json.loads(captured.out)
            assert out["statistic"]["value"] == cli._fmt(report.statistic.value)
            assert out["p_value"] == cli._fmt(report.p_value)
