"""Pseudo-maximum-likelihood fitting and information-based test statistics.

The dependence parameter is estimated in two stages: marginal
Kaplan-Meier transforms produce pseudo-observations, then the censored
copula pseudo-likelihood is maximized in one dimension. The search runs
on an unconstrained transform of theta with a bracket that expands
geometrically from a Kendall-tau moment start until it contains the
optimum.

Under a correctly specified copula the negative mean hessian S and the
mean squared score V of the pseudo-likelihood estimate the same
information matrix, so the ratio R = V/S hovers near 1. Three statistics
quantify the discrepancy: the information ratio R (null value 1), the
White difference V - S (null value 0), and log S - log V (null value 0).
A fourth, the cross-validated likelihood contrast T, compares in-sample
and leave-one-out log-likelihoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import copulas, numerics
from .copulas import CopulaModel, Family, LikelihoodError

MIN_OBSERVATIONS = 10


class InferenceError(Exception):
    pass


@dataclass(frozen=True)
class FitResult:
    family: Family
    theta_hat: float
    loglik: float
    n: int
    converged: bool
    n_evaluations: int

    @property
    def model(self) -> CopulaModel:
        return CopulaModel(self.family, self.theta_hat)


@dataclass(frozen=True)
class StatisticValue:
    kind: str
    value: float
    null_value: float


def pseudo_loglik(family: Family, theta: float, u1, u2, d1, d2) -> float:
    return float(copulas.loglik_vec(family, theta, u1, u2, d1, d2).sum())


def _tau_start(family: Family, u1, u2) -> float:
    """Moment start: invert the empirical Kendall tau, folded into the
    family's admissible tau range."""
    from .survival import empirical_kendall_tau
    tau = empirical_kendall_tau(u1, u2)
    lo, hi = copulas.family_ops(family).tau_domain
    margin = 0.01
    tau = min(max(tau, lo + margin), hi - margin)
    # tau_to_theta rejects independence, tau = 0, which only a tau range
    # straddling zero can reach after the clamp
    if abs(tau) < 1e-3:
        tau = 1e-3
    return copulas.tau_to_theta(family, tau)


def fit_pmle(family: Family, u1, u2, d1, d2,
             initial_theta: float | None = None,
             xatol: float = 1e-8,
             bracket_halfwidth: float = 1.0) -> FitResult:
    """Maximize the censored pseudo-likelihood over the one-dimensional
    dependence parameter.

    The search runs on the unconstrained scale (log theta, log(theta-1)
    or atanh theta depending on the family). The bracket starts at
    +-bracket_halfwidth around the initial point and doubles, recentered
    on the current best edge, until the interior optimum is strict or 60
    expansions have been used.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    d1 = np.asarray(d1)
    d2 = np.asarray(d2)
    n = u1.size
    if n < MIN_OBSERVATIONS:
        raise InferenceError(f"need at least {MIN_OBSERVATIONS} observations, got {n}")
    if not ((u1 > 0) & (u1 < 1) & (u2 > 0) & (u2 < 1)).all():
        raise InferenceError("pseudo-observations must lie strictly in (0, 1)")

    if initial_theta is None:
        initial_theta = _tau_start(family, u1, u2)
    x0 = copulas.to_unconstrained(family, initial_theta)
    in_domain = copulas.family_ops(family).in_domain
    evaluations = [0]

    def objective(x: float) -> float:
        evaluations[0] += 1
        # far out on the search scale the transform overflows or rounds
        # onto the domain's edge (tanh(x) == 1.0 from x ~ 19.1): score
        # such points as invalid, as loglik_vec does for NaN pieces
        try:
            theta = copulas.from_unconstrained(family, x)
        except OverflowError:
            return -math.inf
        if not in_domain(theta):
            return -math.inf
        ll = copulas.loglik_vec(family, theta, u1, u2, d1, d2, strict=False)
        return float(ll.sum())

    half = bracket_halfwidth
    lo, hi = x0 - half, x0 + half
    for _ in range(60):
        x_star, f_star = numerics.maximize_1d(objective, lo, hi, tol=xatol)
        # the bounded search can stall a little short of an edge when the
        # objective is nearly flat there, so use a generous edge margin
        margin = 0.01 * (hi - lo) + 2.0 * xatol
        at_lo = x_star - lo <= margin
        at_hi = hi - x_star <= margin
        if not at_lo and not at_hi:
            break
        width = hi - lo
        if at_lo:
            lo, hi = lo - width, x_star + margin
        else:
            lo, hi = x_star - margin, hi + width
    else:
        raise InferenceError(
            f"bracket expansion failed for {family.value}: optimum keeps "
            f"escaping toward the parameter boundary")

    theta_hat = copulas.from_unconstrained(family, x_star)
    try:
        total_score = float(copulas.score_vec(family, theta_hat, u1, u2, d1, d2).sum())
        converged = abs(total_score) <= 1e-6 * n
    except LikelihoodError:
        converged = False
    # maximize_1d returns a finite f_star, so every piece at theta_hat was
    # finite and f_star is the strict pseudo_loglik there
    return FitResult(family=family, theta_hat=theta_hat, loglik=f_star,
                     n=n, converged=converged, n_evaluations=evaluations[0])


def estimate_s(family: Family, theta: float, u1, u2, d1, d2) -> float:
    """Negative mean second derivative of the per-observation
    log-likelihood at theta."""
    h = copulas.hessian_vec(family, theta, u1, u2, d1, d2)
    return float(-h.mean())


def estimate_v(family: Family, theta: float, u1, u2, d1, d2) -> float:
    """Mean squared score at theta."""
    s = copulas.score_vec(family, theta, u1, u2, d1, d2)
    return float(np.square(s).mean())


def _information(fit: FitResult, u1, u2, d1, d2) -> tuple[float, float]:
    """(S, V) at the fitted parameter."""
    return (estimate_s(fit.family, fit.theta_hat, u1, u2, d1, d2),
            estimate_v(fit.family, fit.theta_hat, u1, u2, d1, d2))


def _ir(s: float, v: float) -> StatisticValue:
    if s <= 0.0:
        raise InferenceError(
            f"hessian estimate is not positive definite (S = {s:.6g}); "
            f"the information ratio is undefined at this fit")
    return StatisticValue(kind="ir", value=v / s, null_value=1.0)


def _white(s: float, v: float) -> StatisticValue:
    return StatisticValue(kind="white", value=v - s, null_value=0.0)


def _logim(s: float, v: float) -> StatisticValue:
    if s <= 0.0 or v <= 0.0:
        raise InferenceError(
            f"non-positive information estimates (S = {s:.6g}, V = {v:.6g})")
    return StatisticValue(kind="logim", value=math.log(s) - math.log(v), null_value=0.0)


def ir_statistic(fit: FitResult, u1, u2, d1, d2) -> StatisticValue:
    return _ir(*_information(fit, u1, u2, d1, d2))


def white_statistic(fit: FitResult, u1, u2, d1, d2) -> StatisticValue:
    return _white(*_information(fit, u1, u2, d1, d2))


def logim_statistic(fit: FitResult, u1, u2, d1, d2) -> StatisticValue:
    return _logim(*_information(fit, u1, u2, d1, d2))


def pios_statistic(fit: FitResult, u1, u2, d1, d2) -> StatisticValue:
    """In-sample minus leave-one-out log-likelihood contrast.

    Each delete-one fit is an exact re-maximization warm-started at the
    full-sample estimate with a narrow initial bracket.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    d1 = np.asarray(d1)
    d2 = np.asarray(d2)
    n = u1.size
    total = 0.0
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        keep[i] = False
        sub = fit_pmle(fit.family, u1[keep], u2[keep], d1[keep], d2[keep],
                       initial_theta=fit.theta_hat, bracket_halfwidth=0.25)
        keep[i] = True
        li_full = pseudo_loglik(fit.family, fit.theta_hat,
                                u1[i:i + 1], u2[i:i + 1], d1[i:i + 1], d2[i:i + 1])
        li_loo = pseudo_loglik(fit.family, sub.theta_hat,
                               u1[i:i + 1], u2[i:i + 1], d1[i:i + 1], d2[i:i + 1])
        total += li_full - li_loo
    return StatisticValue(kind="pios", value=total, null_value=1.0)


# statistics that are functions of (S, V) alone; pios needs its own refits
_FROM_INFORMATION = {"ir": _ir, "white": _white, "logim": _logim}
STATISTIC_KINDS = tuple(sorted([*_FROM_INFORMATION, "pios"]))


def statistic_kinds(kinds) -> tuple[str, ...]:
    """``kinds`` in lower case, checked against STATISTIC_KINDS."""
    kinds = tuple(k.lower() for k in kinds)
    for k in kinds:
        if k not in STATISTIC_KINDS:
            valid = "|".join(STATISTIC_KINDS)
            raise ValueError(f"unknown statistic {k!r}; expected one of {valid}")
    return kinds


def compute_statistics(kinds, fit: FitResult, u1, u2, d1, d2) -> dict[str, StatisticValue]:
    """Every kind in ``kinds`` at one fit, keyed by lower-case kind.
    ir, white and logim share one (S, V) pass."""
    kinds = statistic_kinds(kinds)
    info = _information(fit, u1, u2, d1, d2) if _FROM_INFORMATION.keys() & set(kinds) else None
    return {k: _FROM_INFORMATION[k](*info) if k in _FROM_INFORMATION
            else compute_statistic(k, fit, u1, u2, d1, d2) for k in kinds}


def compute_statistic(kind: str, fit: FitResult, u1, u2, d1, d2) -> StatisticValue:
    # pios is computed here so that its leave-one-out refits stay nested
    # under compute_statistic, where perfbench's traced run attributes them
    if kind.lower() == "pios":
        return pios_statistic(fit, u1, u2, d1, d2)
    return compute_statistics((kind,), fit, u1, u2, d1, d2)[kind.lower()]
