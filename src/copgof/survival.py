"""Censored samples, Kaplan-Meier estimation and pseudo-observations.

A right-censored bivariate sample is held as one validated
:class:`CensoredSample` of four arrays (times x1, x2 and event
indicators d1, d2). Public entry points also accept a sequence of
:class:`CensoredPair` rows and convert it once with :func:`as_sample`;
from there every stage, including each bootstrap replicate, works on
the arrays. A sample and its pseudo-observations are immutable, so what
is derived from them alone can be kept on them (:func:`_once`): the
bootstrap keeps a sample's pseudo-observations and curves on the
sample, and the fit its Kendall tau on the pseudo-observations, so
every null family tested on one sample object shares them.

Margins are estimated by the Kaplan-Meier product-limit estimator, and
its generalized inverse :meth:`StepSurvival.inverse` maps uniform levels
(of any shape) back to times through a table of 2^p equal buckets of
levels, built once per curve, which answers every level in a bucket
that holds no jump. Pseudo-observations feed the copula likelihood as
one ``copulas.Observations``: each margin is transformed through its
own survival estimate and clamped into (0, 1) by 1/(2n) at both ends.
One row-wise product-limit pass serves :func:`kaplan_meier` and the
pseudo-observations of a (k, n) block of bootstrap replicates at once;
each row equals its own one-sample call bit for bit. Kendall's tau is
Knight's O(n log n) merge count (:func:`empirical_kendall_tau`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import copulas, numerics


class SurvivalError(numerics.StatisticalError):
    pass


def _once(owner, key, build):
    """``build()``, called the first time ``key`` is asked of ``owner`` and
    kept on it. The owner is immutable, so the value holds as long as the
    owner lives; a pickled owner is rebuilt from its arrays without it."""
    memo = owner.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


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
        every u < 1 maps to +inf.

        The jump index of a level is the number of values above it. A
        level in [0, 1) reads it from the curve's bucket table
        (``_buckets``, built on the first call) when no value lies
        strictly inside its bucket; any other level binary-searches the
        values, so every level gets the search's index."""
        u = np.asarray(u, dtype=float)
        if not np.isfinite(u).all():
            raise ValueError("inverse levels must be finite")
        jt = self.jump_times
        if jt.size == 0:
            out = np.full(u.shape, np.inf)
        else:
            table = _once(self, "buckets", self._buckets)
            g = table.size - 1
            levels = u.ravel()
            # u * g is exact, as g is a power of two; a level outside
            # [0, 1) reads the table's last entry, a miss
            inside = (levels >= 0.0) & (levels < 1.0)
            idx = table[(np.where(inside, levels, 1.0) * g).astype(np.intp)]
            miss = idx < 0
            idx[miss] = np.searchsorted(-self.values, -levels[miss], side="left")
            # below the final plateau: the last jump
            out = jt[np.minimum(idx, jt.size - 1)].reshape(u.shape)
        return np.where(u >= 1.0, 0.0, out)

    def _buckets(self) -> np.ndarray:
        """Jump index of each of g = 2^p >= 8m equal buckets [b/g, (b+1)/g)
        of levels, m the number of jumps: where no value lies strictly
        inside the bucket, the number of values at or above its end,
        which is the number above each of its levels, and -1 elsewhere;
        g + 1 entries, the last -1.

        A value v lies in bucket floor(v g), strictly inside it when v g
        is not an integer; v g is exact, as g is a power of two, and a
        value outside [0, 1] counts as the nearer end.
        """
        g = 1 << (8 * self.values.size - 1).bit_length()
        scaled = np.clip(self.values, 0.0, 1.0) * g
        bucket = np.floor(scaled)
        counts = np.bincount(bucket.astype(np.intp), minlength=g + 1)
        table = self.values.size - np.cumsum(counts)
        table[bucket[bucket != scaled].astype(np.intp)] = -1
        table[g] = -1
        return table


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
    deaths at t. Event indicators must be 0 (censored) or 1 (death);
    SurvivalError names the first row that holds anything else.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    if times.size == 0:
        raise SurvivalError("empty sample")
    if times.shape != events.shape:
        raise SurvivalError("times and events must have equal length")
    if (times < 0).any() or not np.isfinite(times).all():
        raise SurvivalError("times must be finite and non-negative")
    bad = ~((events == 0) | (events == 1))
    if bad.any():
        i = int(np.argmax(bad))
        raise SurvivalError(f"row {i}: event indicator {events[i]} is not 0 or 1")
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
    product-limit pass per margin: (u1, u2, ok), where ok[j] says whether
    both margins of row j have observed events, as its own call needs."""
    eps = 1.0 / (2.0 * x1.shape[1])
    u1 = np.clip(_km_rows(x1, d1), eps, 1.0 - eps)
    u2 = np.clip(_km_rows(x2, d2), eps, 1.0 - eps)
    return u1, u2, d1.any(axis=1) & d2.any(axis=1)


def pseudo_observations(data) -> copulas.Observations:
    """Transform a censored sample to the copula scale via marginal
    Kaplan-Meier.

    Returns the ``copulas.Observations`` (u1, u2, d1, d2), u_r = S_r(x_r)
    clamped to [1/(2n), 1 - 1/(2n)]. Raises SurvivalError for a margin
    with no observed events, whose pseudo-observations would all be equal.
    """
    s = as_sample(data)
    for margin, d in ((1, s.d1), (2, s.d2)):
        if not d.any():
            raise SurvivalError(f"margin {margin} has no observed events")
    u1, u2, _ = _pseudo_rows(s.x1[None], s.x2[None], s.d1[None], s.d2[None])
    return copulas.Observations(u1[0], u2[0], s.d1, s.d2)


def _tied_pairs(new) -> int:
    """Pairs within the runs of equal entries of a sorted array, from the
    flags ``new`` that mark each entry after the first that differs from
    its predecessor."""
    runs = np.diff(np.flatnonzero(np.concatenate(([True], new, [True]))))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(a) -> int:
    """Pairs i < j with a[i] > a[j] in an array of non-negative integers.

    Bottom-up merge levels: at width w the array is sorted within runs of
    w, and each right run's entries are counted against its left run in
    one ``searchsorted`` over all runs (each pair of runs offset above
    the last), then each pair of runs is merged by one stable sort.
    Padding to a power of two with a value above every entry adds no
    inversion.
    """
    top = int(a.max()) + 1
    size = 1 << (a.size - 1).bit_length()
    a = np.concatenate((a, np.full(size - a.size, top)))
    total = 0
    w = 1
    while w < size:
        rows = size // (2 * w)
        runs = a.reshape(rows, 2, w)
        shift = np.arange(0, rows * (top + 1), top + 1)[:, None]
        not_above = np.searchsorted((runs[:, 0] + shift).ravel(), runs[:, 1] + shift,
                                    side="right")
        # row r's right entries each see r * w left entries of earlier
        # rows not above them, and w - (not_above - r * w) above them
        total += w * w * rows * (rows + 1) // 2 - int(not_above.sum())
        a = np.sort(runs.reshape(rows, 2 * w), axis=1, kind="stable").ravel()
        w *= 2
    return total


def empirical_kendall_tau(x, y) -> float:
    """Kendall tau-a: the exact concordance count S over all pairs, ties
    contributing zero, over n(n - 1)/2.

    S is Knight's (1966) O(n log n) merge count: with the pairs sorted by
    (x, y), S = n0 - n1 - n2 + n3 - 2 * (inversions of the sorted y),
    where n0 counts all pairs and n1, n2, n3 the pairs tied in x, in y
    and in both. It is the same integer as the sum of the pairs' sign
    products. Infinities are ordered values, two equal ones a tie; a NaN
    raises ValueError naming its row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n != y.size:
        raise ValueError("x and y must have equal length")
    if n < 2:
        raise ValueError("need at least two observations")
    nan = np.isnan(x) | np.isnan(y)
    if nan.any():
        i = int(np.argmax(nan))
        raise ValueError(f"row {i}: (x, y) = ({x[i]}, {y[i]}) holds a NaN")
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    # ranks of the sorted y in a stable sort: equal values rank in their
    # order, so only strictly decreasing pairs are inversions
    by_y = np.argsort(ys, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[by_y] = np.arange(n)
    y_sorted = ys[by_y]
    new_x = xs[1:] != xs[:-1]
    total = (n * (n - 1) // 2 - _tied_pairs(new_x) - _tied_pairs(y_sorted[1:] != y_sorted[:-1])
             + _tied_pairs(new_x | (ys[1:] != ys[:-1])) - 2 * _inversions(rank))
    return float(total) / (n * (n - 1) / 2.0)
