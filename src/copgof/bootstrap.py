"""Parametric bootstrap calibration of the goodness-of-fit statistics.

The input is converted once to a :class:`~copgof.survival.CensoredSample`.
Its marginal and censoring Kaplan-Meier curves and the fitted model go
into one picklable frame. Each replicate regenerates a censored sample
from that frame as arrays: dependent uniforms come from the fitted
model, event times from the inverse marginal Kaplan-Meier curves, and
censoring times from the inverse censoring Kaplan-Meier (one shared
censoring variable by default). The null copula is refit on every
replicate and every requested statistic is recomputed from the refit's
one derivative pass, giving a bootstrap standard deviation per
statistic. The reported p-value is the two-sided normal tail of the
observed statistic standardized by that deviation around its null value.

Replicate b of family f draws from stream index f * 2^20 + b of the
master seed, so results are independent of worker count and of which
other families are being tested. Replicates are drawn in (k, n) blocks
of about ``inference.BLOCK_ENTRIES`` entries: one sampler call, one
inverse Kaplan-Meier pass per curve and one product-limit pass per
margin cover the block, while each row keeps its own stream, so results
are independent of the block size too. The rows of a block are then
refit together (``inference.fit_block``): the Brent searches of all rows
step in lockstep, one kernel call per round, and one derivative pass
gives every row's score and hessian, from which the statistics come as
one array per kind with a mask of the rows that succeeded
(``inference.block_statistics``). Each row equals its own one-sample fit bit
for bit, so the reports do not depend on the block size or on the
worker count, over which the pool spreads the blocks.

``bootstrap_reports`` is the one test entry point: its ``kinds`` names
the statistics a test computes, and ``select_copula`` ranks on one kind.
A replicate that raises a ``StatisticalError`` is retried, then dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import copulas, inference, survival
from ._parallel import ordered_map
from .copulas import CopulaModel, Family, FAMILY_ORDER
from .inference import FitResult, StatisticValue
from .numerics import RngStream, StatisticalError
from .survival import CensoredSample, StepSurvival

B_CAP = 1 << 20
_RETRY_OFFSET = B_CAP >> 1
MIN_REPLICATE_FRACTION = 0.8


class BootstrapError(StatisticalError):
    pass


@dataclass(frozen=True)
class BootstrapConfig:
    b: int = 200
    seed: int = 0
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


def _block_stats(frame: _Frame, stream_indices) -> tuple[np.ndarray, np.ndarray]:
    """Generate the replicates on these streams as one block, refit every
    row in one ``inference.fit_block`` call warm-started at the model's
    theta, and recompute the statistics from the rows' scores and
    hessians (``inference.block_statistics``): a (len(kinds), k) array of
    values, row i for frame.kinds[i], and the (k,) mask of the replicates
    that succeeded; the others failed with a typed error."""
    x1, x2, d1, d2 = generate_bootstrap_dataset(frame, stream_indices)
    u1, u2, ok = survival._pseudo_rows(x1, x2, d1, d2)
    values = np.full((len(frame.kinds), ok.size), np.nan)
    if not ok.any():
        return values, ok
    try:
        fits = inference.fit_block(frame.model.family, copulas.Observations(
            *(a[ok] for a in (u1, u2, d1, d2))), initial_theta=frame.model.theta)
    except StatisticalError:
        return values, np.zeros_like(ok)
    values[:, ok], ok[ok] = inference.block_statistics(frame.kinds, fits)
    return values, ok


def _block_task(args) -> tuple[np.ndarray, np.ndarray]:
    """Worker body: the statistics of the replicates ``idx`` (one block)
    and the mask of those that succeeded, each failed one replaced by its
    retry, all retries as one more block."""
    frame, idx = args
    base = frame.family_index * B_CAP
    values, ok = _block_stats(frame, [base + i for i in idx])
    failed = np.flatnonzero(~ok)
    if failed.size:
        values[:, failed], ok[failed] = _block_stats(
            frame, [base + _RETRY_OFFSET + idx[j] for j in failed])
    return values, ok


def _replicates(frame: _Frame, b: int) -> np.ndarray:
    """Statistics of the b replicates that succeed, in replicate order: a
    (len(kinds), b_used) array, row i for frame.kinds[i].

    Replicate i draws from stream base + i, in blocks of about
    inference.BLOCK_ENTRIES entries, and the pool maps the blocks. A
    replicate that fails gets one retry on stream base + _RETRY_OFFSET + i,
    and the retries of a block are generated as one more block; a
    replicate that fails twice is dropped.
    """
    size = inference.block_rows(frame.n)
    blocks = [(frame, range(start, min(start + size, b))) for start in range(0, b, size)]
    return np.concatenate([values[:, ok] for values, ok in ordered_map(_block_task, blocks)],
                          axis=1)


def _pvalue(observed: float, null_value: float, sigma_b: float) -> tuple[float, bool]:
    if sigma_b == 0.0:
        return (1.0 if observed == null_value else 0.0), True
    z = abs(observed - null_value) / sigma_b
    # the lower tail, which stays positive where 1 - ndtr(z) rounds to 0
    return float(2.0 * ndtr(-z)), False


def _build_frame(sample: CensoredSample, fit: FitResult, kinds,
                 config: BootstrapConfig) -> _Frame:
    event1 = survival.kaplan_meier(sample.x1, sample.d1)
    event2 = survival.kaplan_meier(sample.x2, sample.d2)
    return _Frame(model=fit.model, event1=event1, event2=event2,
                  censoring=survival.censoring_curves(sample, config.common_censoring),
                  n=len(sample), kinds=tuple(kinds), master_seed=config.seed,
                  family_index=FAMILY_ORDER.index(fit.family))


def bootstrap_reports(pairs, family: Family, config: BootstrapConfig,
                      kinds=("ir",)) -> dict[str, GofReport]:
    """Full test for one null family, one report per statistic kind.

    ``pairs`` is a CensoredSample or a sequence of CensoredPair rows.
    ``kinds`` is a non-empty sequence of statistic kinds (see
    ``inference.statistic_kinds``), a kind named twice counting once; the
    reports are keyed by lower-case kind. The family is fitted to the
    sample's pseudo-observations once, and the observed statistics come
    from that fit, the first kind in order that fails raising. Replicate
    fits and the derivative pass of each fit are shared across kinds, so
    asking for ir, white and logim together costs the same as any one of
    them.
    """
    sample = survival.as_sample(pairs)
    kinds = inference.statistic_kinds(kinds)
    obs = survival.pseudo_observations(sample)
    fit = inference.fit_pmle(family, obs)
    observed = {kind: inference.compute_statistic(kind, fit) for kind in kinds}

    draws = _replicates(_build_frame(sample, fit, kinds, config), config.b)
    b_used = draws.shape[1]
    floor = math.ceil(MIN_REPLICATE_FRACTION * config.b)
    if b_used < floor:
        raise BootstrapError(
            f"only {b_used} of {config.b} bootstrap replicates succeeded "
            f"for {family.value}; at least {floor} are required")

    rates = (float(1.0 - obs.d1.mean()), float(1.0 - obs.d2.mean()))
    reports = {}
    for k, kind_draws in zip(kinds, draws):
        sigma_b = float(kind_draws.std(ddof=1))
        p, degenerate = _pvalue(observed[k].value, observed[k].null_value, sigma_b)
        reports[k] = GofReport(
            family=family, theta_hat=fit.theta_hat, statistic=observed[k],
            sigma_b=sigma_b, p_value=p, b_requested=config.b, b_used=b_used,
            seed=config.seed, n=len(sample), censoring_rates=rates,
            degenerate=degenerate, loglik=fit.loglik, converged=fit.converged)
    return reports


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


def select_copula(pairs, families, config: BootstrapConfig,
                  kind: str = "ir") -> SelectionResult:
    """Test each candidate family on the statistic ``kind`` and rank by
    bootstrap p-value.

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
            rep, = bootstrap_reports(sample, fam, config, (kind,)).values()
            entries.append(SelectionEntry(family=fam, report=rep))
        except StatisticalError as exc:
            entries.append(SelectionEntry(family=fam, report=None, error=str(exc)))

    def sort_key(e: SelectionEntry):
        if e.report is None:
            return (1, 0.0, 0.0, e.family.value)
        return (0, *_rank_key(e.family, e.report.p_value, e.report.loglik))

    entries.sort(key=sort_key)
    return SelectionResult(entries=tuple(entries))

