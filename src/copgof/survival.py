"""Censored samples, Kaplan-Meier estimation and pseudo-observations.

A right-censored bivariate sample is held as one validated
:class:`CensoredSample` of four arrays (times x1, x2 and event
indicators d1, d2). Public entry points also accept a sequence of
:class:`CensoredPair` rows and convert it once with :func:`as_sample`;
from there every stage, including each bootstrap replicate, works on
the arrays.

Margins are estimated by the Kaplan-Meier product-limit estimator, and
its generalized inverse :meth:`StepSurvival.inverse` maps uniform levels
(of any shape) back to times. Pseudo-observations feed the copula
likelihood as one ``copulas.Observations``: each margin is transformed
through its own survival estimate and clamped into (0, 1) by 1/(2n) at
both ends. One row-wise product-limit pass serves :func:`kaplan_meier`
and the pseudo-observations of a (k, n) block of bootstrap replicates at
once; each row equals its own one-sample call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import copulas


class SurvivalError(Exception):
    pass


@dataclass(frozen=True)
class CensoredPair:
    """One bivariate observation: times x1, x2 with event indicators d1, d2.

    d = 1 means the event time was observed, d = 0 means it was censored
    at x.
    """
    x1: float
    x2: float
    d1: int
    d2: int

    def __post_init__(self):
        if not (np.isfinite(self.x1) and np.isfinite(self.x2)):
            raise ValueError(f"non-finite observation times: {self}")
        if self.x1 < 0.0 or self.x2 < 0.0:
            raise ValueError(f"negative observation times: {self}")
        if self.d1 not in (0, 1) or self.d2 not in (0, 1):
            raise ValueError(f"event indicators must be 0 or 1: {self}")


@dataclass(frozen=True, eq=False)
class CensoredSample:
    """n bivariate observations as four read-only arrays: float times
    x1, x2 and int8 event indicators d1, d2 (1 observed, 0 censored).

    Validated once on construction, and again when unpickled, which
    rebuilds it from its arrays. Its length is n, iterating yields the
    rows as :class:`CensoredPair`, and two samples are equal when their
    arrays are.
    """
    x1: np.ndarray
    x2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        x1, x2 = np.array(self.x1, dtype=float), np.array(self.x2, dtype=float)
        d1, d2 = np.asarray(self.d1), np.asarray(self.d2)
        if not (x1.ndim == x2.ndim == d1.ndim == d2.ndim == 1
                and x1.size == x2.size == d1.size == d2.size > 0):
            raise ValueError("x1, x2, d1 and d2 must be non-empty 1-D arrays of equal length")
        ok = (np.isfinite(x1) & np.isfinite(x2) & (x1 >= 0.0) & (x2 >= 0.0)
              & ((d1 == 0) | (d1 == 1)) & ((d2 == 0) | (d2 == 1)))
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"row {i} (x1={x1[i]}, x2={x2[i]}, d1={d1[i]}, d2={d2[i]}): times must "
                f"be finite and non-negative, event indicators 0 or 1")
        for name, a in (("x1", x1), ("x2", x2),
                        ("d1", d1.astype(np.int8)), ("d2", d2.astype(np.int8))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.x1.size

    def __iter__(self):
        for a, b, e, f in zip(self.x1.tolist(), self.x2.tolist(),
                              self.d1.tolist(), self.d2.tolist()):
            yield CensoredPair(a, b, e, f)

    def __eq__(self, other):
        if not isinstance(other, CensoredSample):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in ("x1", "x2", "d1", "d2"))

    __hash__ = None

    def __reduce__(self):
        return CensoredSample, (self.x1, self.x2, self.d1, self.d2)


def as_sample(data) -> CensoredSample:
    """``data`` itself if it is a CensoredSample, else a sample built from
    its rows (CensoredPair or anything with x1, x2, d1, d2)."""
    if isinstance(data, CensoredSample):
        return data
    cols = np.array([(p.x1, p.x2, p.d1, p.d2) for p in data], dtype=float)
    return CensoredSample(*cols.reshape(-1, 4).T)


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous step function S(t), S(0-) = 1, with jumps at
    ``jump_times`` down to ``values[i]`` (the value at and after jump i)."""
    jump_times: np.ndarray
    values: np.ndarray
    n_at_risk: np.ndarray = field(default=None)

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jt.shape != vals.shape:
            raise ValueError("jump_times and values must have equal length")
        if jt.size and (np.diff(jt) <= 0).any():
            raise ValueError("jump_times must be strictly increasing")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)
        if self.n_at_risk is not None:
            object.__setattr__(self, "n_at_risk",
                               np.asarray(self.n_at_risk, dtype=np.int64))

    def evaluate(self, t):
        """S(t) for scalar or array t."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate(([1.0], self.values))
        out = padded[idx]
        return float(out) if t.ndim == 0 else out

    def inverse(self, u) -> np.ndarray:
        """Generalized inverse at each level in the array u: the smallest
        t with S(t) <= u. u >= 1 maps to 0, levels below the final plateau
        to the largest jump time, and with no jumps (no observed events)
        every u < 1 maps to +inf."""
        u = np.asarray(u, dtype=float)
        if not np.isfinite(u).all():
            raise ValueError("inverse levels must be finite")
        jt = self.jump_times
        if jt.size == 0:
            out = np.full(u.shape, np.inf)
        else:
            idx = np.searchsorted(-self.values, -u, side="left")
            out = jt[np.minimum(idx, jt.size - 1)]  # below the final plateau: last jump
        return np.where(u >= 1.0, 0.0, out)


def _product_limit(times, events):
    """One product-limit pass over the rows of (k, n) blocks of times and
    event indicators, ties deaths-first: a tie group's number at risk
    counts every row from its first sorted position on.

    The group's factor 1 - d/r sits at that position and 1.0 everywhere
    else, so the running product along a row is, bit for bit, the product
    over its death groups alone. Returns the stable sort ``order``, the
    sorted times, the survival at each sorted time, and the flat indices
    of the first positions of the tie groups with deaths.
    """
    k, n = times.shape
    order = np.argsort(times, axis=1, kind="stable")
    t_sorted = np.take_along_axis(times, order, axis=1)
    e_sorted = np.take_along_axis(events, order, axis=1).astype(np.int64)
    start = np.ones((k, n), dtype=bool)
    start[:, 1:] = t_sorted[:, 1:] != t_sorted[:, :-1]
    first = np.flatnonzero(start)
    deaths = np.add.reduceat(e_sorted.ravel(), first)
    factor = np.ones(k * n)
    factor[first] = 1.0 - deaths / (n - first % n)
    surv = np.cumprod(factor.reshape(k, n), axis=1)
    return order, t_sorted, surv, first[deaths > 0]


def _km_rows(times, events) -> np.ndarray:
    """Kaplan-Meier survival of each row of (k, n) blocks at that row's
    own times, equal to ``kaplan_meier(x, d).evaluate(x)`` row by row."""
    order, _, surv, _ = _product_limit(times, events)
    out = np.empty_like(surv)
    np.put_along_axis(out, order, surv, axis=1)
    return out


def kaplan_meier(times, events) -> StepSurvival:
    """Product-limit survival estimate.

    Ties between deaths and censorings at the same time are handled
    deaths-first: censored subjects at t remain in the risk set for the
    deaths at t.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    if times.size == 0:
        raise SurvivalError("empty sample")
    if times.shape != events.shape:
        raise SurvivalError("times and events must have equal length")
    if (times < 0).any() or not np.isfinite(times).all():
        raise SurvivalError("times must be finite and non-negative")
    _, t_sorted, surv, jumps = _product_limit(times[None], events[None])
    return StepSurvival(jump_times=t_sorted[0, jumps], values=surv[0, jumps],
                        n_at_risk=times.size - jumps)


def censoring_curves(data, common: bool) -> tuple[StepSurvival, ...]:
    """Kaplan-Meier estimates of the censoring distribution.

    With ``common`` the two margins share one censoring variable, and the
    one curve is fit to max(x1, x2) with event indicator 1 - d1*d2 (a
    censoring event is observed unless both failure times were seen).
    Otherwise each margin gets its own curve, with the roles of event and
    censoring swapped.
    """
    s = as_sample(data)
    if common:
        return (kaplan_meier(np.maximum(s.x1, s.x2), 1 - s.d1 * s.d2),)
    return kaplan_meier(s.x1, 1 - s.d1), kaplan_meier(s.x2, 1 - s.d2)


def _pseudo_rows(x1, x2, d1, d2):
    """``pseudo_observations`` of each row of (k, n) blocks, from one
    product-limit pass per margin: (u1, u2, errors), where errors[j] is
    the SurvivalError of row j if a margin of it has no observed events,
    else None."""
    eps = 1.0 / (2.0 * x1.shape[1])
    u1 = np.clip(_km_rows(x1, d1), eps, 1.0 - eps)
    u2 = np.clip(_km_rows(x2, d2), eps, 1.0 - eps)
    errors = [None] * x1.shape[0]
    # margin 1 last: its error wins when neither margin has events
    for margin, d in ((2, d2), (1, d1)):
        for j in np.flatnonzero(~d.any(axis=1)):
            errors[j] = SurvivalError(f"margin {margin} has no observed events")
    return u1, u2, errors


def pseudo_observations(data) -> copulas.Observations:
    """Transform a censored sample to the copula scale via marginal
    Kaplan-Meier.

    Returns the ``copulas.Observations`` (u1, u2, d1, d2), u_r = S_r(x_r)
    clamped to [1/(2n), 1 - 1/(2n)]. Raises SurvivalError for a margin
    with no observed events, whose pseudo-observations would all be equal.
    """
    s = as_sample(data)
    u1, u2, errors = _pseudo_rows(s.x1[None], s.x2[None], s.d1[None], s.d2[None])
    if errors[0] is not None:
        raise errors[0]
    return copulas.Observations(u1[0], u2[0], s.d1, s.d2)


def empirical_kendall_tau(x, y) -> float:
    """Kendall tau-a: exact concordance count over all pairs, ties
    contributing zero. Blocked so n = 10^4 stays fast and memory-safe."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n != y.size:
        raise ValueError("x and y must have equal length")
    if n < 2:
        raise ValueError("need at least two observations")
    total = 0
    block = 512
    for i0 in range(0, n, block):
        xi = x[i0:i0 + block, None]
        yi = y[i0:i0 + block, None]
        # pairs (i, j) with j > i only
        for j0 in range(i0, n, block):
            xj = x[j0:j0 + block][None, :]
            yj = y[j0:j0 + block][None, :]
            s = np.sign(xi - xj) * np.sign(yi - yj)
            if j0 == i0:
                s = np.triu(s, k=1)
            total += int(s.sum())
    return float(total) / (n * (n - 1) / 2.0)
