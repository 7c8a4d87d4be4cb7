"""Pseudo-maximum-likelihood fitting and information-based test statistics.

The dependence parameter is estimated in two stages: marginal
Kaplan-Meier transforms produce pseudo-observations, then the censored
copula pseudo-likelihood is maximized in one dimension. The search runs
on an unconstrained transform of theta, from a Kendall-tau moment start,
as one ``numerics.maximize_1d`` search per row: scipy's bounded Brent
method in a bracket that moves toward the optimum until it holds it
strictly inside. This module gives that search its objective only. A search
that stops unconverged on a finite edge of the domain raises
InferenceError.

``fit_block`` fits every row of a (k, n) block of pseudo-samples, such
as a bootstrap's replicates, with one ``maximize_1d`` call: each row's
search is its own, but the rows step in lockstep, so each round
evaluates all their thetas in one kernel call on a (k, 1) column, and
one pass of log-likelihood, score and hessian at the column of
estimates ends the fit. A row equals its own ``fit_pmle`` bit for bit,
and a row whose fit fails holds its typed error instead of raising.
``fit_pmle`` is the same search with one row.

``fit_pmle`` takes the pseudo-sample as the ``copulas.Observations``
that ``survival.pseudo_observations`` returns, validated and split into
its censoring cases once, and checks only that it has enough rows and
that every pseudo-observation lies strictly in (0, 1). Its
``FitResult`` is the fitted model on that sample: it carries the
sample and the per-observation log-likelihood, score and hessian at
theta_hat from the one ``copulas.dlog_vec`` pass that the convergence
check makes. Every statistic is a function of the fit alone.

Under a correctly specified copula the negative mean hessian S and the
mean squared score V of the pseudo-likelihood estimate the same
information matrix, so the ratio R = V/S hovers near 1. Three statistics
quantify the discrepancy: the information ratio R (null value 1), the
White difference V - S (null value 0), and log S - log V (null value 0).
All three read (S, V) from the fit's score and hessian, as arrays: one
reduction gives every row's (S, V) of a block fit, or a fit's as a
block of one row. ``compute_statistic`` gives one kind at one fit, and
``block_statistics`` each kind over a block's rows, with a mask of those
that succeeded.
A fourth, the cross-validated likelihood contrast T (PIOS), compares
in-sample and leave-one-out log-likelihoods. Its n delete-one
re-maximizations are solved together: one safeguarded Newton iteration
over all n rows on the unconstrained scale, warm-started at the
full-sample estimate and its log-likelihood, score and hessian, and a
row converges when its Newton step is at most _LOO_XTOL. The sums it
reads are smooth in theta, so one ``copulas.dlog_vec`` pass at 12
Chebyshev points, over an interval that the first steps bound, gives
their interpolants, and an iteration whose trials stay inside that
interval makes no kernel call. The interpolants are used only when the
tails of their Chebyshev coefficients certify them; a trial outside the
interval, or every trial on a sample they do not fit, is evaluated
exactly by a pass over blocks of rows. One more pass gives each deleted
observation's own log-likelihood at its refit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import copulas, numerics, survival
from .copulas import CopulaModel, Family, LikelihoodError, Observations

MIN_OBSERVATIONS = 10

# exact leave-one-out passes and bootstrap replicates run in blocks of
# about this many entries, (rows in block) x n, so each (k, n) array stays
# near 1 MB; block_rows reads it at call time
BLOCK_ENTRIES = 2 ** 17
_LOO_MAX_ITER = 100
# a row converges when its Newton step |g/h| is at most _LOO_XTOL
_LOO_XTOL = 1e-10
# fit_pmle's tolerance on the unconstrained scale, and the half-width of
# its first bracket there
_XATOL = 1e-8
_HALFWIDTH = 1.0
# an optimizer that stops unconverged this close to a finite domain edge
# is on the edge: the likelihood rises toward the boundary of the family
_EDGE_DISTANCE = 1e-6
# exp(x) overflows for x above this
_LOG_DBL_MAX = math.log(sys.float_info.max)


class InferenceError(numerics.StatisticalError):
    pass


@dataclass(frozen=True)
class FitResult:
    """A fitted family on its sample ``obs``: theta_hat, the
    pseudo-log-likelihood there, and the read-only per-observation
    log-likelihood ``loglik_obs``, ``score`` and ``hessian`` at
    theta_hat."""
    family: Family
    theta_hat: float
    loglik: float
    converged: bool
    n_evaluations: int
    obs: Observations = field(compare=False, repr=False)
    loglik_obs: np.ndarray = field(compare=False, repr=False)
    score: np.ndarray = field(compare=False, repr=False)
    hessian: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        for name in ("loglik_obs", "score", "hessian"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __reduce__(self):
        # rebuilt through the constructor, so read-only again when unpickled
        return FitResult, (self.family, self.theta_hat, self.loglik, self.converged,
                           self.n_evaluations, self.obs, self.loglik_obs, self.score,
                           self.hessian)

    @property
    def n(self) -> int:
        return self.obs.n

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
    family's admissible tau range. The tau is kept on ``obs``, so the
    fits of other families to the same sample reuse it."""
    tau = survival._once(obs, "kendall tau",
                         lambda: survival.empirical_kendall_tau(obs.u1, obs.u2))
    lo, hi = copulas.family_ops(family).tau_domain
    margin = 0.01
    tau = min(max(tau, lo + margin), hi - margin)
    # tau_to_theta rejects independence, tau = 0, which only a tau range
    # straddling zero can reach after the clamp
    if abs(tau) < 1e-3:
        tau = 1e-3
    return copulas.tau_to_theta(family, tau)


def block_rows(n: int) -> int:
    """Rows per block of rows of n entries: about BLOCK_ENTRIES entries,
    and at least one row."""
    return -(-BLOCK_ENTRIES // n)


def _check(obs: Observations, min_n: int = MIN_OBSERVATIONS) -> None:
    """InferenceError unless ``obs`` has at least ``min_n`` rows and its
    pseudo-observations lie strictly inside (0, 1); TypeError unless it
    is a ``copulas.Observations``."""
    if not isinstance(obs, Observations):
        raise TypeError(f"expected the pseudo-sample as a copulas.Observations, "
                        f"got {type(obs).__name__}")
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


def _edge_error(family: Family, theta_hat: float) -> InferenceError:
    lo, hi = copulas.family_ops(family).domain
    return InferenceError(
        f"{family.value} fit did not converge: theta_hat = {theta_hat!r} "
        f"is on the edge of the domain ({lo:g}, {hi:g})")


@dataclass(frozen=True, eq=False)
class BlockFit:
    """Fits of one family to each row of ``obs``, a sample (one row) or a
    (k, n) block: per row theta_hat, the pseudo-log-likelihood there,
    the convergence flag, the objective evaluations, and the read-only
    per-observation log-likelihood, score and hessian rows, (k, n), at
    theta_hat. ``errors[j]`` is the typed error that ended row j's fit,
    or None; a failed row's other entries are undefined."""
    family: Family
    obs: Observations
    theta_hat: np.ndarray
    loglik: np.ndarray
    converged: np.ndarray
    n_evaluations: np.ndarray
    loglik_obs: np.ndarray
    score: np.ndarray
    hessian: np.ndarray
    errors: tuple

    def result(self, j: int) -> FitResult:
        """Row j's fit on its own sample, or its error raised."""
        if self.errors[j] is not None:
            raise self.errors[j]
        return FitResult(family=self.family, theta_hat=float(self.theta_hat[j]),
                         loglik=float(self.loglik[j]), converged=bool(self.converged[j]),
                         n_evaluations=int(self.n_evaluations[j]), obs=self.obs.row(j),
                         loglik_obs=self.loglik_obs[j], score=self.score[j],
                         hessian=self.hessian[j])


def _search(family: Family, obs: Observations, x0):
    """One ``numerics.maximize_1d`` call on the unconstrained scale for
    every row of ``obs``, from x0[j] +- _HALFWIDTH: (x_star, f_star,
    evaluations, errors), errors[j] being the typed error that ended row
    j. Each round evaluates the running rows in one kernel call at the
    (k, 1) column of their thetas; a sample is a block of one row. A
    point whose theta overflows, or rounds onto the domain's edge,
    scores -inf."""
    in_domain = copulas.family_ops(family).in_domain
    evaluations = np.zeros(obs.k, dtype=np.int64)
    sub = obs

    def objective(rows, xs):
        nonlocal sub
        evaluations[rows] += 1
        # far out on the search scale the transform overflows (exp past
        # x = log(DBL_MAX), mapped to NaN here) or rounds onto the domain's
        # edge (tanh(x) == 1.0 from x ~ 19.1): score such points as
        # invalid, as loglik_vec does for NaN pieces
        x = np.array(xs, dtype=float)
        x[x > _LOG_DBL_MAX] = np.nan
        theta = copulas.from_unconstrained(family, x)
        valid = in_domain(theta)
        values = np.full(len(xs), -math.inf)
        if not valid.any():
            return values
        # an invalid point's row is evaluated at a valid theta and
        # dropped, so the rows evaluated are those still running
        theta[~valid] = theta[valid][0]
        # the running rows only shrink, so a change of count is a change of rows
        if rows.size != sub.k:
            sub = obs.take(rows)
        ll = copulas.loglik_vec(family, theta[:, None], sub)
        values[valid] = ll.sum(axis=1)[valid]
        return values

    results = numerics.maximize_1d(objective, x0, _HALFWIDTH, tol=_XATOL)
    x_star, f_star = np.full((2, obs.k), np.nan)
    errors = [None] * obs.k
    for j, res in enumerate(results):
        if not isinstance(res, numerics.NumericsError):
            x_star[j], f_star[j] = res
        elif isinstance(res, numerics.BracketError):
            errors[j] = InferenceError(
                f"bracket expansion failed for {family.value}: optimum keeps "
                f"escaping toward the parameter boundary")
        else:
            errors[j] = res
    return x_star, f_star, evaluations, errors


def fit_block(family: Family, obs: Observations, *, initial_theta) -> BlockFit:
    """``fit_pmle`` of every row of ``obs``, a sample or a (k, n) block,
    started at ``initial_theta`` (a float, or one per row), as one
    lockstep ``numerics.maximize_1d`` call: each round takes one step of
    each running row's own bracketed search and evaluates all their
    thetas in one ``copulas.loglik_vec`` call, and one
    ``copulas.dlog_vec`` pass gives every row's log-likelihood, score and
    hessian at its estimate. Row j equals ``fit_pmle`` of ``obs.row(j)``
    bit for bit; a row whose fit fails holds its typed error in
    ``errors``. Raises InferenceError for the whole block if its rows are
    too short or a pseudo-observation lies outside (0, 1), and ValueError
    if a start lies outside the family's open domain."""
    _check(obs)
    k = obs.k
    ops = copulas.family_ops(family)
    start = np.asarray(initial_theta, dtype=float)
    outside = np.flatnonzero(~ops.in_domain(start))
    if outside.size:
        lo, hi = ops.domain
        row = f" (row {outside[0]})" if start.ndim else ""
        raise ValueError(f"initial_theta{row} = {float(start.flat[outside[0]])!r} is outside "
                         f"the open domain ({lo:g}, {hi:g}) of {family.value}")
    x0 = np.broadcast_to(copulas.to_unconstrained(family, initial_theta), (k,))
    x_star, f_star, evaluations, errors = _search(family, obs, x0)
    fitted = np.array([err is None for err in errors])
    theta_hat = np.full(k, np.nan)
    theta_hat[fitted] = copulas.from_unconstrained(family, x_star[fitted])
    # the log-likelihood, score and hessian rows; a failed search's stay NaN
    at_hat = np.full((3, k, obs.n), np.nan)
    if fitted.any():
        sub = obs if fitted.all() else obs.take(np.flatnonzero(fitted))
        at_hat[:, fitted] = copulas.dlog_vec(family, theta_hat[fitted][:, None], sub)
    at_hat.flags.writeable = False
    loglik_obs, score, hessian = at_hat
    finite = np.isfinite(score).all(axis=1) & np.isfinite(hessian).all(axis=1)
    converged = np.zeros(k, dtype=bool)
    converged[finite] = np.abs(score[finite].sum(axis=1)) <= 1e-6 * obs.n
    edge = _on_edge(family, theta_hat)
    # a non-finite score or hessian entry fails its row with the first
    # one's LikelihoodError, and an unconverged fit on the edge with the
    # edge's InferenceError
    for j in np.flatnonzero(fitted & ~converged & (edge | ~finite)):
        theta = float(theta_hat[j])
        try:
            copulas.require_finite(family, theta, score[j], hessian[j])
        except LikelihoodError as exc:
            errors[j] = exc
        if edge[j]:
            errors[j] = _edge_error(family, theta)
    # maximize_1d returns a finite f_star, so no piece at theta_hat was NaN
    # or +inf, and f_star is the pseudo-log-likelihood there
    return BlockFit(family=family, obs=obs, theta_hat=theta_hat, loglik=f_star,
                    converged=converged, n_evaluations=evaluations, loglik_obs=loglik_obs,
                    score=score, hessian=hessian, errors=tuple(errors))


def fit_pmle(family: Family, obs: Observations, *,
             initial_theta: float | None = None) -> FitResult:
    """Maximize the censored pseudo-likelihood over the one-dimensional
    dependence parameter.

    The search runs on the unconstrained scale (log theta, log(theta-1)
    or atanh theta depending on the family), as one bracketed Brent
    search (``numerics.maximize_1d``). The bracket starts at +-_HALFWIDTH
    around the initial point; while the optimum sits on one of its edges,
    the next runs from just inside that optimum to one width past that
    edge, until the optimum is strictly inside or 60 brackets have been
    used (then InferenceError). A fit that ends unconverged on a finite
    edge of the domain, as on independent data for a family whose
    independence point is that edge, raises InferenceError. The score
    and hessian at theta_hat come from one ``copulas.dlog_vec`` pass, with
    the per-observation log-likelihood; if a score or hessian entry is
    non-finite off the edge, its LikelihoodError propagates. An
    ``initial_theta`` outside the family's open domain raises ValueError.
    This is ``fit_block``'s search with one row.
    """
    _check(obs)
    if obs.u1.ndim != 1:
        raise TypeError("fit_pmle takes one sample; fit a (k, n) block with fit_block")
    if initial_theta is None:
        initial_theta = _tau_start(family, obs)
    return fit_block(family, obs, initial_theta=initial_theta).result(0)


def _moments(score, hessian):
    """(S, V) per row: the negative mean hessian and the mean squared score
    over the last axis, each row's mean equal to its own ``mean()``."""
    return -hessian.mean(axis=-1), np.square(score).mean(axis=-1)


def _drop_own(a, rows):
    """Row sums of a (k, n) array without entry (j, rows[j]) of each row j.
    Overwrites those entries in ``a``."""
    a[np.arange(rows.size), rows] = 0.0
    return a.sum(axis=1)


def _newton_step(g, h):
    """Newton's step where the search-scale hessian is negative, else a
    step of 0.25 uphill; at most 1 either way."""
    step = 0.25 * np.sign(g)
    newton = h < 0.0
    step[newton] = -g[newton] / h[newton]
    return np.clip(step, -1.0, 1.0)


def _search_slopes(family: Family, theta, score, hessian):
    """Search-scale gradient and hessian from the score and hessian in
    theta, summed or per observation."""
    t1, t2 = copulas.unconstrained_derivs(family, theta)
    return score * t1, hessian * t1 * t1 + score * t2


def _exact_loo(family: Family, obs: Observations, theta, rows):
    """Each deleted row's leave-one-out objective, search-scale gradient
    and hessian at its own theta, as (3, k): exact sums over every
    observation but rows[j], from ``copulas.dlog_vec`` passes over blocks
    of about BLOCK_ENTRIES entries. A row whose objective is not finite
    keeps 0 for its slopes; for the other rows a non-finite score or
    hessian entry raises LikelihoodError."""
    out = np.zeros((3, rows.size))
    size = block_rows(obs.n)
    for start in range(0, rows.size, size):
        part = np.arange(start, min(start + size, rows.size))
        column = theta[part][:, None]
        ll, score, hessian = copulas.dlog_vec(family, column, obs)
        out[0, part] = _drop_own(ll, rows[part])
        # only the rows whose objective is finite read their derivatives, so
        # only theirs must be finite
        fin = np.isfinite(out[0, part])
        if not fin.all():
            column, score, hessian = column[fin], score[fin], hessian[fin]
        copulas.require_finite(family, column, score, hessian)
        part = part[fin]
        out[1:, part] = _search_slopes(family, column[:, 0], _drop_own(score, rows[part]),
                                       _drop_own(hessian, rows[part]))
    return out


# the leave-one-out sums are interpolated in x on _CHEB_NODES Chebyshev
# points of the first kind; _CHEB_COEF maps values at the points to
# Chebyshev coefficients, by the points' discrete orthogonality
_CHEB_NODES = 12
_CHEB_POINTS = np.cos(np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES)
_CHEB_COEF = 2.0 / _CHEB_NODES * np.polynomial.chebyshev.chebvander(
    _CHEB_POINTS, _CHEB_NODES - 1).T
_CHEB_COEF[0] /= 2.0
# an interpolant is used only when the last three coefficients of its
# gradient and hessian sums are each at most this share of the largest
_CHEB_TAIL = 1e-10


@dataclass(frozen=True, eq=False)
class _Interpolant:
    """Chebyshev interpolants in x over [lo, hi] of each observation's
    log-likelihood, search-scale gradient and hessian: ``coef`` is
    (3, _CHEB_NODES, n), and ``total`` its sum over the observations, the
    interpolants of the full-sample sums."""
    lo: float
    hi: float
    coef: np.ndarray
    total: np.ndarray

    @classmethod
    def build(cls, family: Family, obs: Observations, lo: float, hi: float):
        """The interpolants from one ``copulas.dlog_vec`` pass at the
        (_CHEB_NODES, 1) column of the points' thetas, or None unless
        every point is inside the domain, every value there is finite and
        the tails of the gradient and hessian sums certify them."""
        theta = copulas.from_unconstrained(
            family, 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_POINTS)
        if not copulas.family_ops(family).in_domain(theta).all():
            return None
        ll, score, hessian = copulas.dlog_vec(family, theta[:, None], obs)
        values = np.stack([ll, *_search_slopes(family, theta[:, None], score, hessian)])
        if not np.isfinite(values).all():
            return None
        coef = _CHEB_COEF @ values
        total = coef.sum(axis=2)
        scale = np.abs(total[1:]).max(axis=1)
        if (np.abs(total[1:, -3:]).max(axis=1) > _CHEB_TAIL * scale).any():
            return None
        return cls(lo, hi, coef, total)

    def covers(self, x):
        return (self.lo <= x) & (x <= self.hi)

    def loo(self, x, rows):
        """Each deleted row's leave-one-out objective, search-scale
        gradient and hessian at its own x, as (3, k): the interpolated
        full-sample sum less row rows[j]'s own interpolated term."""
        u = (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)
        t = np.polynomial.chebyshev.chebvander(u, _CHEB_NODES - 1)
        return np.einsum("jm,qmj->qj", t, self.total[:, :, None] - self.coef[:, :, rows])


def _loo_block(fit: FitResult, at_hat):
    """Leave-one-out maximizers on the search scale for every observation
    of the fit's sample, and which rows did not converge in
    _LOO_MAX_ITER iterations.

    Row i maximizes the log-likelihood summed over every observation but
    i, from the full-sample estimate, where ``at_hat`` holds the
    per-observation log-likelihood, score and hessian; so every row's
    first Newton step comes from the fit alone. Those steps bound an
    interval in x, x_hat and each x_hat + step padded by a quarter of the
    largest step, on which one kernel pass builds the Chebyshev
    interpolants of the sums (``_Interpolant``). A row's objective is the
    interpolated sum less its own interpolated term, so an iteration
    whose trials stay inside the interval makes no kernel call. A trial
    outside it, or every trial when the interpolants are not certified,
    is evaluated exactly (``_exact_loo``).

    Each iteration tries the current step on the rows still active. A
    trial is accepted when its theta is inside the domain, its objective
    is finite, and either the objective did not decrease or the
    gradient, which Newton's method drives to zero, shrank. The gradient
    test is needed near the optimum: a Newton step s gains |h| s^2 / 2
    there, which can be below the rounding of the objective's sum, so the
    sum alone would reject every halving of it. A rejected step is
    halved. A row converges when its Newton step |g/h| is at most
    _LOO_XTOL.
    """
    family, obs = fit.family, fit.obs
    f = at_hat[0].sum() - at_hat[0]
    grad, h = _search_slopes(family, fit.theta_hat, at_hat[1].sum() - at_hat[1],
                             at_hat[2].sum() - at_hat[2])
    x = np.full(obs.n, copulas.to_unconstrained(family, fit.theta_hat))
    step = _newton_step(grad, h)
    active = ~((h < 0.0) & (np.abs(step) <= _LOO_XTOL))
    pad = 0.25 * np.abs(step).max()
    interpolant = None
    if active.any() and pad > 0.0:
        interpolant = _Interpolant.build(family, obs, min(x[0], (x + step).min()) - pad,
                                         max(x[0], (x + step).max()) + pad)
    in_domain = copulas.family_ops(family).in_domain
    for _ in range(_LOO_MAX_ITER):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        trial = x[act] + step[act]
        theta = copulas.from_unconstrained(family, trial)
        # objective, gradient and hessian of each trial; one outside the
        # domain scores -inf
        values = np.zeros((3, act.size))
        values[0] = -np.inf
        ok = in_domain(theta)
        near = np.zeros(act.size, dtype=bool)
        if interpolant is not None:
            near = ok & interpolant.covers(trial)
            values[:, near] = interpolant.loo(trial[near], act[near])
        far = ok & ~near
        if far.any():
            values[:, far] = _exact_loo(family, obs, theta[far], act[far])
        f_trial, g, h = values
        ok = np.isfinite(f_trial)
        up = ok & ((f_trial >= f[act]) | (np.abs(g) <= np.abs(grad[act])))
        step[act[~up]] *= 0.5
        acc = act[up]
        x[acc], f[acc], grad[acc] = trial[up], f_trial[up], g[up]
        step[acc] = _newton_step(g[up], h[up])
        active[acc[(h[up] < 0.0) & (np.abs(step[acc]) <= _LOO_XTOL)]] = False
    return x, active


def _loo_fits(fit: FitResult):
    """Each deleted observation's log-likelihood at its own leave-one-out
    maximizer, and the per-observation log-likelihood at the full-sample
    estimate, which the fit carries.
    Raises LikelihoodError where that is not finite (a fit built at a
    theta where a piece is NaN), and InferenceError if a refit did not
    converge, counting over all n rows those whose optimum is on the
    domain edge, or else those unconverged. The own terms come from one
    ``copulas.loglik_vec`` pass over the sample's entries as an (n, 1)
    block, each at its own row's theta."""
    family, n = fit.family, fit.n
    at_hat = (fit.loglik_obs, fit.score, fit.hessian)
    if not np.isfinite(at_hat[0]).all():
        raise LikelihoodError(f"non-finite log-likelihood for {family.value} at "
                              f"theta={fit.theta_hat}",
                              index=int(np.argmax(~np.isfinite(at_hat[0]))))
    x, unconverged = _loo_block(fit, at_hat)
    theta = copulas.from_unconstrained(family, x)
    if unconverged.any():
        edge = np.count_nonzero(_on_edge(family, theta[unconverged]))
        if edge:
            raise InferenceError(
                f"leave-one-out optimum on the domain edge for {family.value} "
                f"at {edge} of {n} rows")
        raise InferenceError(
            f"leave-one-out refit for {family.value} did not converge in "
            f"{_LOO_MAX_ITER} iterations for {np.count_nonzero(unconverged)} of {n} rows")
    own = copulas.loglik_vec(family, theta[:, None], fit.obs.entries())[:, 0]
    if not np.isfinite(own).all():
        idx = int(np.argmax(~np.isfinite(own)))
        raise LikelihoodError(
            f"non-finite log-likelihood for {fit.family.value} at its "
            f"leave-one-out fit", index=idx)
    return own, at_hat[0]


_NULL_VALUES = {"ir": 1.0, "logim": 0.0, "pios": 1.0, "white": 0.0}
STATISTIC_KINDS = tuple(sorted(_NULL_VALUES))


def statistic_kinds(kinds) -> tuple[str, ...]:
    """``kinds``, a non-empty sequence of kind names, in lower case,
    checked against STATISTIC_KINDS, with duplicates collapsed in
    first-seen order. A bare string is a TypeError: it would be read as
    a sequence of one-letter kinds. So is an entry that is not a string,
    naming that entry."""
    if isinstance(kinds, str):
        raise TypeError(f"expected a sequence of statistic kinds, got the string "
                        f"{kinds!r}; pass ({kinds!r},)")
    kinds = tuple(kinds)
    for k in kinds:
        if not isinstance(k, str):
            raise TypeError(f"expected a sequence of statistic kinds, got the entry "
                            f"{k!r}; each kind is a string such as 'ir'")
    kinds = tuple(dict.fromkeys(k.lower() for k in kinds))
    if not kinds:
        raise ValueError("no statistic kinds given")
    for k in kinds:
        if k not in STATISTIC_KINDS:
            valid = "|".join(STATISTIC_KINDS)
            raise ValueError(f"unknown statistic {k!r}; expected one of {valid}")
    return kinds


def _from_moments(kind: str, s, v):
    """ir = V/S (where S > 0), white = V - S or logim = log S - log V
    (where S > 0 and V > 0) at each row's (S, V), and the mask of the rows
    where it is defined. logim takes ``math.log`` per row, as np.log's
    last bit can differ."""
    if kind == "white":
        return v - s, np.ones(s.shape, dtype=bool)
    if kind == "ir":
        with np.errstate(all="ignore"):  # the rows where S <= 0 are masked
            return v / s, ~(s <= 0.0)
    defined = ~((s <= 0.0) | (v <= 0.0))
    values = np.full(s.shape, np.nan)
    values[defined] = [math.log(a) - math.log(b)
                       for a, b in zip(s[defined].tolist(), v[defined].tolist())]
    return values, defined


def block_statistics(kinds, fits: BlockFit) -> tuple[np.ndarray, np.ndarray]:
    """``compute_statistic`` of each kind at every row of a block fit: a
    (len(kinds), k) array, row i for kinds[i], and the (k,) mask of the
    rows whose fit and every kind succeeded. ir, white and logim come
    from one (S, V) reduction over the fitted rows; pios refits each row
    still ok."""
    kinds = statistic_kinds(kinds)
    ok = np.array([err is None for err in fits.errors])
    values = np.full((len(kinds), ok.size), np.nan)
    rows = np.flatnonzero(ok)  # a failed fit's rows need not be finite
    s, v = _moments(fits.score[rows], fits.hessian[rows])
    for i, kind in enumerate(kinds):
        if kind != "pios":
            values[i, rows], defined = _from_moments(kind, s, v)
            ok[rows] &= defined
    if "pios" in kinds:
        i = kinds.index("pios")
        for j in np.flatnonzero(ok):
            try:
                values[i, j] = compute_statistic("pios", fits.result(j)).value
            except numerics.StatisticalError:
                ok[j] = False
    return values, ok


def compute_statistic(kind: str, fit: FitResult) -> StatisticValue:
    """The statistic ``kind`` (ir, white, logim or pios, any case) at one fit.

    ir, white and logim read the fit's (S, V) as a block of one row.
    pios is the in-sample minus leave-one-out log-likelihood contrast,
    sum_i l_i(theta_hat) - l_i(theta_hat_(-i)). Each theta_hat_(-i) is a
    re-maximization without observation i, solved to a Newton step of at
    most _LOO_XTOL. All n are solved together by one safeguarded Newton
    iteration on the unconstrained scale, warm-started at theta_hat and
    the fit's score and hessian there, on certified Chebyshev
    interpolants of the sums where they hold and on exact sums elsewhere
    (see ``_loo_block``): one kernel pass at the interpolation points and
    one for the own terms, whatever the iteration count. It raises
    InferenceError if a refit does not converge, naming the rows whose
    leave-one-out optimum is on the domain edge.
    """
    kind, = statistic_kinds((kind,))
    if kind == "pios":
        _check(fit.obs, MIN_OBSERVATIONS + 1)
        own, at_hat = _loo_fits(fit)
        return StatisticValue("pios", float(np.sum(at_hat - own)), _NULL_VALUES["pios"])
    s, v = _moments(fit.score[None], fit.hessian[None])
    value, defined = _from_moments(kind, s, v)
    if defined[0]:
        return StatisticValue(kind, float(value[0]), _NULL_VALUES[kind])
    if kind == "ir":
        raise InferenceError(f"hessian estimate is not positive definite (S = {s[0]:.6g}); "
                             f"the information ratio is undefined at this fit")
    raise InferenceError(f"non-positive information estimates (S = {s[0]:.6g}, V = {v[0]:.6g})")
