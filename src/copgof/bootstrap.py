"""Parametric bootstrap calibration of the goodness-of-fit statistics.

The input is converted once to a :class:`~copgof.survival.CensoredSample`.
Its marginal and censoring Kaplan-Meier curves and the fitted model go
into one picklable frame. Each replicate regenerates a censored sample
from that frame as arrays: dependent uniforms come from the fitted
model, event times from the inverse marginal Kaplan-Meier curves, and
censoring times from the inverse censoring Kaplan-Meier (one shared
censoring variable by default). The null copula is refit on every
replicate and every requested statistic is recomputed from one (S, V)
pass, giving a bootstrap standard deviation per statistic. The reported
p-value is the two-sided normal tail of the observed statistic
standardized by that deviation around its null value.

Replicate b of family f draws from stream index f * 2^20 + b of the
master seed, so results are independent of worker count and of which
other families are being tested. Replicates are drawn in (k, n) blocks
of about ``_BLOCK`` entries: one sampler call, one inverse Kaplan-Meier
pass per curve and one product-limit pass per margin cover the block,
while each row keeps its own stream, so results are independent of the
block size too. Each row is then refit as its own task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from . import copulas, inference, numerics, survival
from ._parallel import ordered_map
from .copulas import CopulaModel, Family, FAMILY_ORDER, LikelihoodError
from .inference import FitResult, InferenceError, StatisticValue
from .numerics import RngStream
from .survival import CensoredSample, StepSurvival

B_CAP = 1 << 20
_RETRY_OFFSET = B_CAP >> 1
MIN_REPLICATE_FRACTION = 0.8
# replicates are generated in blocks of about this many entries,
# (rows in block) x n, so each (k, n) array stays near 1 MB
_BLOCK = 2 ** 17


class BootstrapError(Exception):
    pass


# the typed failures of a fit, a statistic or its calibration: a test that
# raises one of these failed on its data and is reported or dropped
_STAT_ERRORS = (InferenceError, LikelihoodError, BootstrapError,
                numerics.NumericsError, survival.SurvivalError)


@dataclass(frozen=True)
class BootstrapConfig:
    b: int = 200
    seed: int = 0
    statistic: str = "ir"
    common_censoring: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.b < 2:
            raise ValueError(f"need at least 2 bootstrap replicates, got {self.b}")
        if self.b > B_CAP:
            raise ValueError(f"at most {B_CAP} bootstrap replicates supported")


@dataclass(frozen=True)
class GofReport:
    family: Family
    theta_hat: float
    statistic: StatisticValue
    sigma_b: float
    p_value: float
    b_requested: int
    b_used: int
    seed: int
    n: int
    censoring_rates: tuple[float, float]
    degenerate: bool
    loglik: float
    converged: bool

    def reject(self, alpha: float) -> bool:
        return bool(self.p_value < alpha)


@dataclass(frozen=True)
class _Frame:
    """Everything a replicate worker needs, picklable. ``censoring`` holds
    one curve shared by both margins, or one curve per margin."""
    model: CopulaModel
    event1: StepSurvival
    event2: StepSurvival
    censoring: tuple[StepSurvival, ...]
    n: int
    kinds: tuple[str, ...]
    master_seed: int
    family_index: int


def generate_bootstrap_dataset(frame: _Frame, stream_indices) -> tuple[np.ndarray, ...]:
    """Parametric bootstrap samples from the fitted model, one per stream
    index, as four (k, n) arrays (x1, x2, d1, d2).

    Row j is what the stream alone gives: its pairs, then one block of
    censoring uniforms per censoring curve. Each inverse Kaplan-Meier curve
    is taken once over the whole block, and the block's times are checked
    once, as CensoredSample checks a sample's.
    """
    gens = [RngStream(frame.master_seed, s).generator() for s in stream_indices]
    n = frame.n
    u1, u2 = copulas.sample_pairs(frame.model, gens, n)
    t1 = frame.event1.inverse(u1)
    t2 = frame.event2.inverse(u2)
    levels = [np.array([g.random(n) for g in gens]) for _ in frame.censoring]
    c = [curve.inverse(u) for curve, u in zip(frame.censoring, levels)]
    c1, c2 = c[0], c[-1]
    x1, x2 = np.minimum(t1, c1), np.minimum(t2, c2)
    if not (np.isfinite(x1) & np.isfinite(x2) & (x1 >= 0.0) & (x2 >= 0.0)).all():
        raise ValueError("bootstrap times must be finite and non-negative")
    return x1, x2, (t1 <= c1).astype(np.int8), (t2 <= c2).astype(np.int8)


def _replicate_stats(args) -> dict[str, float] | None:
    """Worker body: refit one generated replicate and recompute the
    statistics, or None when that fails with a typed error."""
    frame, row = args
    try:
        if isinstance(row, survival.SurvivalError):
            raise row
        obs = copulas.Observations(*row)
        fit = inference.fit_pmle(frame.model.family, obs, initial_theta=frame.model.theta)
        stats = inference.compute_statistics(frame.kinds, fit, obs)
    except _STAT_ERRORS:
        return None
    return {k: v.value for k, v in stats.items()}


def _block_stats(frame: _Frame, stream_indices) -> list[dict[str, float] | None]:
    """Generate the replicates on these streams as one block and refit
    each row as its own task."""
    x1, x2, d1, d2 = generate_bootstrap_dataset(frame, stream_indices)
    u1, u2, errors = survival._pseudo_rows(x1, x2, d1, d2)
    rows = [err if err is not None else (u1[j], u2[j], d1[j], d2[j])
            for j, err in enumerate(errors)]
    return ordered_map(_replicate_stats, [(frame, row) for row in rows])


def _replicates(frame: _Frame, b: int) -> list[dict[str, float]]:
    """Statistics of the b replicates that succeed, in replicate order.

    Replicate i draws from stream base + i, in blocks of about _BLOCK
    entries. A replicate that fails gets one retry on stream
    base + _RETRY_OFFSET + i, and the retries of a block are generated as
    one more block; a replicate that fails twice is dropped.
    """
    base = frame.family_index * B_CAP
    size = -(-_BLOCK // frame.n)
    kept = []
    for start in range(0, b, size):
        idx = range(start, min(start + size, b))
        stats = _block_stats(frame, [base + i for i in idx])
        failed = [j for j, s in enumerate(stats) if s is None]
        if failed:
            retried = _block_stats(frame, [base + _RETRY_OFFSET + idx[j] for j in failed])
            for j, s in zip(failed, retried):
                stats[j] = s
        kept.extend(s for s in stats if s is not None)
    return kept


def _pvalue(observed: float, null_value: float, sigma_b: float) -> tuple[float, bool]:
    if sigma_b == 0.0:
        return (1.0 if observed == null_value else 0.0), True
    z = abs(observed - null_value) / sigma_b
    return float(2.0 * (1.0 - ndtr(z))), False


def _build_frame(sample: CensoredSample, fit: FitResult, kinds,
                 config: BootstrapConfig) -> _Frame:
    event1 = survival.kaplan_meier(sample.x1, sample.d1)
    event2 = survival.kaplan_meier(sample.x2, sample.d2)
    return _Frame(model=fit.model, event1=event1, event2=event2,
                  censoring=survival.censoring_curves(sample, config.common_censoring),
                  n=len(sample), kinds=tuple(kinds), master_seed=config.seed,
                  family_index=FAMILY_ORDER.index(fit.family))


def bootstrap_reports(pairs, family: Family, config: BootstrapConfig,
                      kinds=None, fit: FitResult | None = None) -> dict[str, GofReport]:
    """Full test for one null family, one report per statistic kind.

    ``pairs`` is a CensoredSample or a sequence of CensoredPair rows.
    ``fit``, if given, must be a fit of ``family`` to this sample
    (ValueError otherwise). Replicate fits and the (S, V) pass of each
    fit are shared across kinds, so asking for ir, white and logim
    together costs the same as any one of them.
    """
    sample = survival.as_sample(pairs)
    if fit is not None and (fit.family is not family or fit.n != len(sample)):
        raise ValueError(
            f"fit of {fit.family.value} to {fit.n} rows given for a "
            f"{family.value} test of {len(sample)} rows")
    kinds = inference.statistic_kinds(kinds or (config.statistic,))
    obs = survival.pseudo_observations(sample)
    if fit is None:
        fit = inference.fit_pmle(family, obs)
    observed = inference.compute_statistics(kinds, fit, obs)

    kept = _replicates(_build_frame(sample, fit, kinds, config), config.b)
    floor = math.ceil(MIN_REPLICATE_FRACTION * config.b)
    if len(kept) < floor:
        raise BootstrapError(
            f"only {len(kept)} of {config.b} bootstrap replicates succeeded "
            f"for {family.value}; at least {floor} are required")

    rates = (float(1.0 - obs.d1.mean()), float(1.0 - obs.d2.mean()))
    reports = {}
    for k in kinds:
        draws = np.array([s[k] for s in kept])
        sigma_b = float(draws.std(ddof=1))
        p, degenerate = _pvalue(observed[k].value, observed[k].null_value, sigma_b)
        reports[k] = GofReport(
            family=family, theta_hat=fit.theta_hat, statistic=observed[k],
            sigma_b=sigma_b, p_value=p, b_requested=config.b, b_used=len(kept),
            seed=config.seed, n=len(sample), censoring_rates=rates,
            degenerate=degenerate, loglik=fit.loglik, converged=fit.converged)
    return reports


def bootstrap_pvalue(pairs, family: Family, config: BootstrapConfig) -> GofReport:
    return bootstrap_reports(pairs, family, config)[config.statistic.lower()]


def _rank_key(family: Family, p_value: float, loglik: float):
    """Ranking of a tested family, best first: larger bootstrap p-value,
    ties broken on larger pseudo-log-likelihood, then on family name."""
    return (-p_value, -loglik, family.value)


@dataclass(frozen=True)
class SelectionEntry:
    family: Family
    report: GofReport | None
    error: str | None = None


@dataclass(frozen=True)
class SelectionResult:
    entries: tuple[SelectionEntry, ...]

    @property
    def best(self) -> SelectionEntry:
        return self.entries[0]


def select_copula(pairs, families, config: BootstrapConfig) -> SelectionResult:
    """Test each candidate family and rank by bootstrap p-value.

    Ties break on pseudo-log-likelihood, then family name (``_rank_key``,
    which the simulation study's selection rate shares). Families
    whose fit or bootstrap fails are ranked last and carry the error
    message instead of a report. Duplicate candidates are collapsed.
    """
    sample = survival.as_sample(pairs)
    families = list(dict.fromkeys(families))
    if not families:
        raise ValueError("no candidate families given")
    entries = []
    for fam in families:
        try:
            rep = bootstrap_pvalue(sample, fam, config)
            entries.append(SelectionEntry(family=fam, report=rep))
        except _STAT_ERRORS as exc:
            entries.append(SelectionEntry(family=fam, report=None, error=str(exc)))

    def sort_key(e: SelectionEntry):
        if e.report is None:
            return (1, 0.0, 0.0, e.family.value)
        return (0, *_rank_key(e.family, e.report.p_value, e.report.loglik))

    entries.sort(key=sort_key)
    return SelectionResult(entries=tuple(entries))

