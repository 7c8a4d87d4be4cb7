"""Goodness-of-fit tests for bivariate survival copula models under
right censoring.

The main entry points are :func:`fit_pmle` for two-stage pseudo-maximum-
likelihood estimation, :func:`compute_statistic` for one statistic at a
fit, :func:`bootstrap_reports` for a calibrated test of one null family
on one or more statistics, and :func:`select_copula` for ranking
candidates. Every typed failure on the data derives from
:class:`StatisticalError`.
"""

from .bootstrap import (BootstrapConfig, BootstrapError, GofReport,
                        SelectionResult, bootstrap_reports, select_copula)
from .copulas import (CopulaModel, CopulaError, Family, LikelihoodError,
                      Observations, cdf, density, partial_u1, partial_u2, sample_pairs,
                      tau_to_theta, theta_to_tau)
from .inference import (FitResult, InferenceError, StatisticValue,
                        compute_statistic, fit_pmle)
from .numerics import StatisticalError
from .simulation import (Scenario, StudyConfig, generate_scenario_dataset,
                         run_null_distribution, run_rejection_study)
from .survival import (CensoredPair, CensoredSample, StepSurvival,
                       SurvivalError, censoring_curves,
                       empirical_kendall_tau, kaplan_meier,
                       pseudo_observations)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig", "BootstrapError", "GofReport", "SelectionResult",
    "bootstrap_reports", "select_copula",
    "CopulaModel", "CopulaError", "Family", "LikelihoodError", "Observations",
    "cdf", "density", "partial_u1", "partial_u2",
    "sample_pairs", "tau_to_theta", "theta_to_tau",
    "FitResult", "InferenceError", "StatisticValue", "compute_statistic",
    "fit_pmle", "StatisticalError",
    "Scenario", "StudyConfig", "generate_scenario_dataset",
    "run_null_distribution", "run_rejection_study",
    "CensoredPair", "CensoredSample", "StepSurvival", "SurvivalError",
    "censoring_curves", "empirical_kendall_tau",
    "kaplan_meier", "pseudo_observations",
]
