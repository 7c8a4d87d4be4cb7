"""Monte Carlo studies: size, power and null-distribution checks.

Scenario data use unit-exponential margins, T = -log(U) with (U1, U2)
from the true copula, and one shared exponential censoring time per
subject. Censoring means infinity, 4, 3/2 and 3/7 give expected censored
fractions 0, 0.2, 0.4 and 0.7 on each margin.

Every replicate owns a derived random stream, keyed by the master seed,
a fixed namespace tag, and the replicate index, so studies reproduce
bit-for-bit at any worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import bootstrap, copulas, inference
from ._parallel import ordered_map
from .bootstrap import _STAT_ERRORS, BootstrapConfig, _rank_key
from .copulas import CopulaModel, Family, FAMILY_ORDER
from .numerics import RngStream, derive_seed
from .survival import CensoredSample

# namespace tags for derived seeds: scenario data vs bootstrap masters
_DATA_TAG = 0xD474
_BOOT_TAG = 0xB007

CENSORING_LEVELS = {
    "none": math.inf,
    "c20": 4.0,
    "c40": 1.5,
    "c70": 3.0 / 7.0,
}


class SimulationError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    true_family: Family
    tau: float
    n: int
    censoring: str = "none"

    def __post_init__(self):
        if self.censoring not in CENSORING_LEVELS:
            valid = "|".join(CENSORING_LEVELS)
            raise ValueError(f"censoring must be one of {valid}, got {self.censoring!r}")
        if self.n < inference.MIN_OBSERVATIONS:
            raise ValueError(f"scenario size n={self.n} too small")
        # validates tau against the family's admissible range
        copulas.tau_to_theta(self.true_family, self.tau)

    @property
    def censoring_mean(self) -> float:
        return CENSORING_LEVELS[self.censoring]

    @property
    def expected_censored_fraction(self) -> float:
        m = self.censoring_mean
        return 0.0 if math.isinf(m) else 1.0 / (1.0 + m)


def generate_scenario_dataset(scenario: Scenario, seed: int,
                              replicate: int = 0) -> CensoredSample:
    """Draw one scenario sample. Replicate r uses stream r of the
    data namespace derived from the master seed."""
    data_seed = derive_seed(seed, _DATA_TAG)
    gen = RngStream(data_seed, replicate).generator()
    theta = copulas.tau_to_theta(scenario.true_family, scenario.tau)
    model = CopulaModel(scenario.true_family, theta)
    u1, u2 = copulas.sample_pairs(model, gen, scenario.n)
    t1 = -np.log(u1)
    t2 = -np.log(u2)
    m = scenario.censoring_mean
    if math.isinf(m):
        c = np.full(scenario.n, np.inf)
    else:
        c = gen.exponential(m, scenario.n)
    return CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c)


@dataclass(frozen=True)
class RejectionRow:
    true_family: Family
    null_family: Family
    test: str
    tau: float
    n: int
    censoring: str
    rejection_rate: float
    selection_rate: float
    replications: int
    failures: int


@dataclass(frozen=True)
class StudyConfig:
    replications: int = 100
    b: int = 200
    alpha: float = 0.05
    seed: int = 0
    kinds: tuple[str, ...] = ("ir", "white", "logim")

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # b and seed follow the bootstrap's rules
        BootstrapConfig(b=self.b, seed=self.seed)
        object.__setattr__(self, "kinds", inference.statistic_kinds(self.kinds))
        if not self.kinds:
            raise ValueError("no statistic kinds given")


def _study_replicate(args):
    """Test every null family on replicate r's dataset, giving
    {family: {kind: (statistic, p-value, pseudo-log-likelihood)}, or None
    where the test failed}."""
    scenario, null_families, cfg, r = args
    sample = generate_scenario_dataset(scenario, cfg.seed, replicate=r)
    out = {}
    for fam in null_families:
        boot_seed = derive_seed(cfg.seed, _BOOT_TAG, r, FAMILY_ORDER.index(fam))
        bcfg = BootstrapConfig(b=cfg.b, seed=boot_seed)
        try:
            reps = bootstrap.bootstrap_reports(sample, fam, bcfg, kinds=cfg.kinds)
            out[fam] = {k: (reps[k].statistic.value, reps[k].p_value, reps[k].loglik)
                        for k in cfg.kinds}
        except _STAT_ERRORS:
            out[fam] = None
    return out


def run_rejection_study(scenario: Scenario, null_families,
                        cfg: StudyConfig) -> list[RejectionRow]:
    """Rejection and selection rates of each null family under a scenario.

    The selection rate of a family is the fraction of replicates in
    which it ranks first (per statistic kind) among the candidates that
    succeeded, by the ranking of ``bootstrap.select_copula``. Failed
    replicates are excluded from both rates and counted in ``failures``.
    Duplicate null families are collapsed, keeping first-seen order.
    """
    null_families = list(dict.fromkeys(null_families))
    results = ordered_map(
        _study_replicate,
        [(scenario, null_families, cfg, r) for r in range(cfg.replications)])

    rows = []
    for fam in null_families:
        for kind in cfg.kinds:
            rejections = 0
            selections = 0
            used = 0
            failures = 0
            for res in results:
                if res[fam] is None:
                    failures += 1
                    continue
                used += 1
                if res[fam][kind][1] < cfg.alpha:
                    rejections += 1
                winners = [f for f in null_families if res[f] is not None]
                best = min(winners, key=lambda f: _rank_key(f, *res[f][kind][1:]))
                if best is fam:
                    selections += 1
            rows.append(RejectionRow(
                true_family=scenario.true_family, null_family=fam, test=kind,
                tau=scenario.tau, n=scenario.n, censoring=scenario.censoring,
                rejection_rate=rejections / used if used else float("nan"),
                selection_rate=selections / used if used else float("nan"),
                replications=used, failures=failures))
    return rows


@dataclass(frozen=True)
class NullDistribution:
    kind: str
    statistics: np.ndarray
    normal_quantiles: np.ndarray
    p_values: np.ndarray


def run_null_distribution(scenario: Scenario, cfg: StudyConfig) -> dict[str, NullDistribution]:
    """Sampling distribution of each statistic when the fitted family is
    the true one. Normal quantiles use plotting positions (k - 0.5)/m on
    the sorted statistics."""
    fam = scenario.true_family
    results = ordered_map(
        _study_replicate,
        [(scenario, [fam], cfg, r) for r in range(cfg.replications)])
    kept = [res[fam] for res in results if res[fam] is not None]
    if not kept:
        raise SimulationError("every replicate of the null-distribution study failed")
    out = {}
    for kind in cfg.kinds:
        stats = np.sort(np.array([r[kind][0] for r in kept]))
        pvals = np.array([r[kind][1] for r in kept])
        m = stats.size
        q = ndtri((np.arange(1, m + 1) - 0.5) / m)
        out[kind] = NullDistribution(kind=kind, statistics=stats,
                                     normal_quantiles=q, p_values=pvals)
    return out


REJECTION_CSV_HEADER = ["true_family", "null_family", "test", "tau", "n",
                        "censoring", "rejection_rate", "selection_rate",
                        "replications"]
QQ_CSV_HEADER = ["statistic", "normal_quantile"]


def write_rejection_csv(rows, stream) -> None:
    """Write study rows as CSV to a text stream."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REJECTION_CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.true_family.value, row.null_family.value, row.test,
            _fmt(row.tau), row.n, row.censoring,
            _fmt(row.rejection_rate), _fmt(row.selection_rate),
            row.replications])


def write_qq_csv(dist: NullDistribution, stream) -> None:
    """Write a null distribution's QQ points as CSV to a text stream."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(QQ_CSV_HEADER)
    for s, q in zip(dist.statistics, dist.normal_quantiles):
        writer.writerow([_fmt(s), _fmt(q)])


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"
