"""Pseudo-maximum-likelihood fitting and information-based test statistics.

The dependence parameter is estimated in two stages: marginal
Kaplan-Meier transforms produce pseudo-observations, then the censored
copula pseudo-likelihood is maximized in one dimension. The search runs
on an unconstrained transform of theta with a bracket that expands
geometrically from a Kendall-tau moment start until it contains the
optimum. A search that stops unconverged on a finite edge of the domain
raises InferenceError.

Every entry point takes the pseudo-sample as the ``copulas.Observations``
that ``survival.pseudo_observations`` returns, validated and split into
its censoring cases once; the fit, the (S, V) pass and the leave-one-out
refits all reuse that split. The entry points check only that it has
enough rows and that every pseudo-observation lies strictly in (0, 1).

Under a correctly specified copula the negative mean hessian S and the
mean squared score V of the pseudo-likelihood estimate the same
information matrix, so the ratio R = V/S hovers near 1. Three statistics
quantify the discrepancy: the information ratio R (null value 1), the
White difference V - S (null value 0), and log S - log V (null value 0).
All three come from one (S, V) pass per fit, ``information``, which
makes one ``copulas.dlog_vec`` call for the score and hessian together.
``compute_statistic`` and ``compute_statistics`` are the entry points
for one kind or several.
A fourth, the cross-validated likelihood contrast T (PIOS), compares
in-sample and leave-one-out log-likelihoods. Its n delete-one
re-maximizations are solved together: a safeguarded Newton iteration on
the unconstrained scale, warm-started at the full-sample estimate, runs
over blocks of rows with the family kernels evaluated at a column of
thetas at once, and a row converges when its Newton step is at most
_LOO_XTOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import copulas, numerics, survival
from .copulas import CopulaModel, Family, LikelihoodError, Observations

MIN_OBSERVATIONS = 10

# leave-one-out refits run in blocks of about this many log-likelihood
# entries, (rows in block) x n, so each (k, n) array stays near 1 MB
_LOO_BLOCK = 2 ** 17
_LOO_MAX_ITER = 100
# a row converges when its Newton step |g/h| is at most _LOO_XTOL
_LOO_XTOL = 1e-10
# fit_pmle's tolerance on the unconstrained scale
_XATOL = 1e-8
# an optimizer that stops unconverged this close to a finite domain edge
# is on the edge: the likelihood rises toward the boundary of the family
_EDGE_DISTANCE = 1e-6


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


def _tau_start(family: Family, obs: Observations) -> float:
    """Moment start: invert the empirical Kendall tau, folded into the
    family's admissible tau range."""
    tau = survival.empirical_kendall_tau(obs.u1, obs.u2)
    lo, hi = copulas.family_ops(family).tau_domain
    margin = 0.01
    tau = min(max(tau, lo + margin), hi - margin)
    # tau_to_theta rejects independence, tau = 0, which only a tau range
    # straddling zero can reach after the clamp
    if abs(tau) < 1e-3:
        tau = 1e-3
    return copulas.tau_to_theta(family, tau)


def _check(obs: Observations, min_n: int = MIN_OBSERVATIONS) -> None:
    """InferenceError unless ``obs`` has at least ``min_n`` rows and its
    pseudo-observations lie strictly inside (0, 1)."""
    if obs.n < min_n:
        raise InferenceError(f"need at least {min_n} observations, got {obs.n}")
    u1, u2 = obs.u1, obs.u2
    if not ((u1 > 0) & (u1 < 1) & (u2 > 0) & (u2 < 1)).all():
        raise InferenceError("pseudo-observations must lie strictly in (0, 1)")


def _on_edge(family: Family, theta):
    """Whether theta (a float or an array) lies within _EDGE_DISTANCE of a
    finite edge of the family's domain."""
    lo, hi = copulas.family_ops(family).domain
    return np.minimum(theta - lo, hi - theta) <= _EDGE_DISTANCE


def fit_pmle(family: Family, obs: Observations, *,
             initial_theta: float | None = None,
             bracket_halfwidth: float = 1.0) -> FitResult:
    """Maximize the censored pseudo-likelihood over the one-dimensional
    dependence parameter.

    The search runs on the unconstrained scale (log theta, log(theta-1)
    or atanh theta depending on the family). The bracket starts at
    +-bracket_halfwidth around the initial point and doubles, recentered
    on the current best edge, until the interior optimum is strict or 60
    expansions have been used. A fit that ends unconverged on a finite
    edge of the domain, as on independent data for a family whose
    independence point is that edge, raises InferenceError.
    """
    _check(obs)
    if initial_theta is None:
        initial_theta = _tau_start(family, obs)
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
        ll = copulas.loglik_vec(family, theta, obs, strict=False)
        return float(ll.sum())

    half = bracket_halfwidth
    lo, hi = x0 - half, x0 + half
    for _ in range(60):
        x_star, f_star = numerics.maximize_1d(objective, lo, hi, tol=_XATOL)
        # the bounded search can stall a little short of an edge when the
        # objective is nearly flat there, so use a generous edge margin
        margin = 0.01 * (hi - lo) + 2.0 * _XATOL
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
        total_score = float(copulas.score_vec(family, theta_hat, obs).sum())
        converged = abs(total_score) <= 1e-6 * obs.n
    except LikelihoodError:
        converged = False
    if not converged and _on_edge(family, theta_hat):
        lo, hi = copulas.family_ops(family).domain
        raise InferenceError(
            f"{family.value} fit did not converge: theta_hat = {theta_hat!r} "
            f"is on the edge of the domain ({lo:g}, {hi:g})")
    # maximize_1d returns a finite f_star, so every piece at theta_hat was
    # finite and f_star is the strict pseudo-log-likelihood there
    return FitResult(family=family, theta_hat=theta_hat, loglik=f_star,
                     n=obs.n, converged=converged, n_evaluations=evaluations[0])


def information(family: Family, theta, obs: Observations) -> tuple[float, float]:
    """(S, V) at theta from one derivative pass: the negative mean
    hessian and the mean squared score of the per-observation
    log-likelihood."""
    score, hessian = copulas.dlog_vec(family, theta, obs)
    return float(-hessian.mean()), float(np.square(score).mean())


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


def _drop_own(a, rows):
    """Row sums of a (k, n) array without entry (j, rows[j]) of each row j,
    and those entries. Overwrites them in ``a``."""
    j = np.arange(rows.size)
    own = a[j, rows]
    a[j, rows] = 0.0
    return a.sum(axis=1), own


def _newton_step(g, h):
    """Newton's step where the search-scale hessian is negative, else a
    step of 0.25 uphill; at most 1 either way."""
    step = 0.25 * np.sign(g)
    newton = h < 0.0
    step[newton] = -g[newton] / h[newton]
    return np.clip(step, -1.0, 1.0)


def _search_slopes(family: Family, theta, rows, score, hessian):
    """Search-scale gradient and hessian of each leave-one-out objective,
    from the (k, n) per-observation score and hessian at its theta."""
    g, _ = _drop_own(score, rows)
    h, _ = _drop_own(hessian, rows)
    t1, t2 = copulas.unconstrained_derivs(family, theta)
    return g * t1, h * t1 * t1 + g * t2


def _loo_block(fit: FitResult, rows, at_hat, obs: Observations):
    """Leave-one-out maximizers on the search scale for the deleted
    observations ``rows``, and each one's log-likelihood at its own fit.

    Row j maximizes the log-likelihood summed over every observation but
    rows[j], from the full-sample estimate, where ``at_hat`` holds the
    per-observation log-likelihood, score and hessian. Each iteration
    tries the current step on the rows still active. A trial is accepted
    when its theta is inside the domain, its objective is finite, and
    either the objective did not decrease or the gradient, which Newton's
    method drives to zero, shrank. The gradient test is needed near the
    optimum: a Newton step s gains |h| s^2 / 2 there, which can be below
    the rounding of the objective's sum, so the sum alone would reject
    every halving of it. A rejected step is halved. A row converges when
    its Newton step |g/h| is at most _LOO_XTOL.
    """
    family = fit.family
    k = rows.size
    f, own = _drop_own(np.tile(at_hat[0], (k, 1)), rows)
    grad, h = _search_slopes(family, fit.theta_hat, rows,
                             *(np.tile(a, (k, 1)) for a in at_hat[1:]))
    x = np.full(k, copulas.to_unconstrained(family, fit.theta_hat))
    step = _newton_step(grad, h)
    active = ~((h < 0.0) & (np.abs(step) <= _LOO_XTOL))
    lo, hi = copulas.family_ops(family).domain
    for _ in range(_LOO_MAX_ITER):
        act = np.flatnonzero(active)
        if act.size == 0:
            return x, own
        trial = x[act] + step[act]
        theta = copulas.from_unconstrained(family, trial)
        f_trial = np.full(act.size, -np.inf)
        own_trial, g, h = np.zeros((3, act.size))
        ok = (lo < theta) & (theta < hi)
        ll = copulas.loglik_vec(family, theta[ok][:, None], obs, strict=False)
        f_trial[ok], own_trial[ok] = _drop_own(ll, rows[act[ok]])
        ok = np.isfinite(f_trial)
        score, hessian = copulas.dlog_vec(family, theta[ok][:, None], obs)
        g[ok], h[ok] = _search_slopes(family, theta[ok], rows[act[ok]], score, hessian)
        up = ok & ((f_trial >= f[act]) | (np.abs(g) <= np.abs(grad[act])))
        step[act[~up]] *= 0.5
        acc = act[up]
        x[acc], f[acc], own[acc], grad[acc] = trial[up], f_trial[up], own_trial[up], g[up]
        step[acc] = _newton_step(g[up], h[up])
        active[acc[(h[up] < 0.0) & (np.abs(step[acc]) <= _LOO_XTOL)]] = False
    edge = np.count_nonzero(_on_edge(family, copulas.from_unconstrained(family, x[active])))
    if edge:
        raise InferenceError(
            f"leave-one-out optimum on the domain edge for {family.value} "
            f"at {edge} of {k} rows")
    raise InferenceError(
        f"leave-one-out refit for {family.value} did not converge in "
        f"{_LOO_MAX_ITER} iterations for {np.count_nonzero(active)} of {k} rows")


def _loo_fits(fit: FitResult, obs: Observations):
    """The leave-one-out maximizers x_i on the search scale, each deleted
    observation's log-likelihood at its own x_i, and the per-observation
    log-likelihood at the full-sample estimate."""
    at_hat = (copulas.loglik_vec(fit.family, fit.theta_hat, obs),
              *copulas.dlog_vec(fit.family, fit.theta_hat, obs))
    n = obs.n
    x = np.empty(n)
    own = np.empty(n)
    size = -(-_LOO_BLOCK // n)
    for start in range(0, n, size):
        rows = np.arange(start, min(start + size, n))
        x[rows], own[rows] = _loo_block(fit, rows, at_hat, obs)
    if not np.isfinite(own).all():
        idx = int(np.argmax(~np.isfinite(own)))
        raise LikelihoodError(
            f"non-finite log-likelihood for {fit.family.value} at its "
            f"leave-one-out fit", index=idx)
    return x, own, at_hat[0]


def pios_statistic(fit: FitResult, obs: Observations) -> StatisticValue:
    """In-sample minus leave-one-out log-likelihood contrast,
    sum_i l_i(theta_hat) - l_i(theta_hat_(-i)).

    Each theta_hat_(-i) is an exact re-maximization without observation
    i. All n are solved together, in blocks of about _LOO_BLOCK / n rows,
    by a safeguarded Newton iteration on the unconstrained scale
    warm-started at theta_hat (see ``_loo_block``). Raises InferenceError
    if a refit does not converge, naming the rows whose leave-one-out
    optimum is on the domain edge.
    """
    _check(obs, MIN_OBSERVATIONS + 1)
    _, own, at_hat = _loo_fits(fit, obs)
    return StatisticValue(kind="pios", value=float(np.sum(at_hat - own)), null_value=1.0)


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


def compute_statistics(kinds, fit: FitResult, obs: Observations) -> dict[str, StatisticValue]:
    """Every kind in ``kinds`` at one fit, keyed by lower-case kind.
    ir, white and logim share one (S, V) pass."""
    kinds = statistic_kinds(kinds)
    info = (information(fit.family, fit.theta_hat, obs)
            if _FROM_INFORMATION.keys() & set(kinds) else None)
    # pios goes through compute_statistic so that its leave-one-out refits
    # stay nested under it, where perfbench's traced run attributes them
    return {k: _FROM_INFORMATION[k](*info) if k in _FROM_INFORMATION
            else compute_statistic(k, fit, obs) for k in kinds}


def compute_statistic(kind: str, fit: FitResult, obs: Observations) -> StatisticValue:
    """The statistic ``kind`` (ir, white, logim or pios, any case) at one fit."""
    kind, = statistic_kinds((kind,))
    if kind == "pios":
        return pios_statistic(fit, obs)
    return _FROM_INFORMATION[kind](*information(fit.family, fit.theta_hat, obs))
