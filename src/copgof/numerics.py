"""Shared numeric kernel.

The Debye-1 integral, the bivariate normal CDF, 1-D maximization, and
splittable deterministic RNG streams. Everything here is a pure
function of its inputs. The maximization runs one generator per row
(``_bracketed``) that yields each point to evaluate: scipy's bounded
Brent steps, inlined, in a bracket that moves toward the optimum while
it sits on an edge. So many rows can step in lockstep (``maximize_1d``)
and share one objective call per round.
Univariate normal functions and adaptive quadrature are scipy's
(``scipy.special.ndtr``, ``ndtri``, ``log_ndtr``,
``scipy.integrate.quad``, imported when a quadrature runs), called
directly where they are needed; a quadrature that misses its tolerance
raises NumericsError. It and every other typed failure on the data, up
to the bootstrap and the studies, derive from ``StatisticalError``;
ValueError and TypeError mark misuse.

The bivariate normal CDF used by the library is ``binorm_logcdf``, an
array function (Owen's T identity, with a log-space Gauss-Legendre
branch where that identity cancels). It is the composition of a
rho-free half, ``binorm_terms``, and a rho half, ``binorm_logcdf_at``:
the likelihood evaluates one sample at many rho, so the sample keeps
the first (``copulas.Observations``) and each evaluation runs only the
second. ``binorm_cdf`` integrates the same quantity with one adaptive
quadrature per point; it is kept only as the reference oracle for
tests, and no library path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

LOG_TINY = math.log(1e-300)


class StatisticalError(Exception):
    """Base class for the typed failures of a test on its data."""


class NumericsError(StatisticalError):
    """Base class for numeric-kernel failures."""


class BracketError(NumericsError):
    pass


class OptimizationError(NumericsError):
    pass


def debye1(theta: float) -> float:
    """Debye function of order one, (1/theta) * int_0^theta t/(e^t - 1) dt."""
    from scipy import integrate

    if theta <= 0:
        raise ValueError(f"debye1 requires theta > 0, got {theta}")

    def integrand(t):
        # t/(e^t - 1) -> 1 as t -> 0; expm1 keeps the small-t branch exact.
        # Past t = 700, short of e^t's overflow, t e^-t is it to e^-700
        if t > 700.0:
            return t * math.exp(-t)
        return t / math.expm1(t) if t > 0 else 1.0

    value, bound, *warning = integrate.quad(integrand, 0.0, theta, epsabs=1e-10,
                                            epsrel=1e-10, limit=200, full_output=1)
    if warning[1:]:
        raise NumericsError(f"debye1({theta!r}): {warning[1]} (bound {bound!r})")
    return value / theta


def binorm_cdf(z1: float, z2: float, rho: float) -> float:
    """P(Z1 <= z1, Z2 <= z2) for standard bivariate normal via 1-D reduction.

    Computed as the integral of phi(t) * Phi((z2 - rho t)/sqrt(1-rho^2))
    over t in (-inf, z1). Relative accuracy near quadrature tolerance, so
    small corner probabilities keep their leading digits.

    Reference oracle only: one adaptive quadrature per point is far too
    slow for the likelihood, which uses ``binorm_logcdf``. The tests check
    ``binorm_logcdf`` against this function.
    """
    from scipy import integrate

    if not abs(rho) < 1:
        raise ValueError(f"binorm_cdf requires |rho| < 1, got {rho}")
    if math.isinf(z1) and z1 > 0 and math.isinf(z2) and z2 > 0:
        return 1.0
    if math.isinf(z1):
        return float(_special.ndtr(z2)) if z1 > 0 else 0.0
    if math.isinf(z2):
        return float(_special.ndtr(z1)) if z2 > 0 else 0.0
    s = math.sqrt(1.0 - rho * rho)

    def integrand(t):
        pdf = np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)
        return float(pdf) * float(_special.ndtr((z2 - rho * t) / s))

    value, bound, *warning = integrate.quad(integrand, -np.inf, z1, epsabs=1e-300,
                                            epsrel=1e-12, limit=200, full_output=1)
    if warning[1:]:
        raise NumericsError(f"binorm_cdf: {warning[1]} (bound {bound!r})")
    return value


_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_TAIL_DROP = 45.0               # the tail window ends where the integrand is down e^-45
_TAIL_SWITCH = math.log(1e-3)   # Owen value below 1e-3 of its terms: use the tail branch


def _binorm_logcdf_tail(lo, hi, rho):
    """log of the integral of phi(t) Phi((hi - rho t)/s) over t < lo, on one
    64-node Gauss-Legendre rule for all entries.

    The log integrand g is concave with g'' <= -1. With d = g'(lo) that
    gives g(lo - L) <= g(lo) - d L - L^2 / 2, so below lo - L for
    L = sqrt(d^2 + 90) - d the integrand is under e^-45 of its value at
    lo. Newton steps on g(lo) - g(lo - L) = 45, convex in L, shrink that
    window from above and keep it valid.
    """
    s = np.sqrt(1.0 - rho * rho)
    b = rho / s

    def g(t, hi, rho, s, b):
        """log integrand and its slope at t."""
        x = (hi - rho * t) / s
        log_cdf_x = _special.log_ndtr(x)
        mills = np.exp(-0.5 * x * x - _LOG_SQRT2PI - log_cdf_x)
        return -0.5 * t * t - _LOG_SQRT2PI + log_cdf_x, -t - b * mills

    g_lo, slope = g(lo, hi, rho, s, b)
    width = np.sqrt(slope * slope + 2.0 * _TAIL_DROP) - slope
    for _ in range(3):
        g_edge, slope_edge = g(lo - width, hi, rho, s, b)
        width -= (g_lo - g_edge - _TAIL_DROP) / slope_edge
    t = lo[:, None] - 0.5 * width[:, None] * (1.0 + _GL_NODES)
    rel = np.exp(g(t, *(a[:, None] for a in (hi, rho, s, b)))[0] - g_lo[:, None])
    return g_lo + np.log(0.5 * width * (rel * _GL_WEIGHTS).sum(axis=-1))


def binorm_logcdf(z1, z2, rho):
    """log P(Z1 <= z1, Z2 <= z2) for the standard bivariate normal,
    entry by entry over z1, z2 and rho (scalars or arrays, broadcast together).

    Owen's (1956) T-function identity gives Phi2 in closed form, exactly
    on the axes z = 0. Where min z < 0 and the identity's value is below
    1e-3 of Phi(max z), the size of its terms, it cancels; those entries take
    the log of the 1-D reduction that ``binorm_cdf`` integrates
    (``_binorm_logcdf_tail``). Against ``binorm_cdf`` on z in [-4, 4]^2 and
    |rho| <= 0.999 the log differs by at most about 3e-11.

    It is ``binorm_logcdf_at(binorm_terms(z1, z2), rho)`` over the
    broadcast entries, the rho-free half and the rho half of the identity.
    Each entry equals, bit for bit, its own scalar call.
    """
    z1, z2, rho = np.broadcast_arrays(np.asarray(z1, dtype=float),
                                      np.asarray(z2, dtype=float),
                                      np.asarray(rho, dtype=float))
    out = binorm_logcdf_at(binorm_terms(z1.ravel(), z2.ravel()), rho.ravel())
    return out.reshape(z1.shape)[()]


def binorm_terms(z1, z2) -> tuple:
    """The rho-free half of ``binorm_logcdf`` at z1, z2 (arrays of one
    shape S), as a tuple of arrays whose leading axes are S, so that
    slicing each array's rows slices the entries' rows.

    Owen's identity sums two shares, 0.5 Phi(h) - T(h, (k/h - rho)/s), one
    at (h, k) = (lo, hi) and one at (hi, lo), with lo = min z and hi = max
    z. Their h, 0.5 Phi(h), k/h and axis masks (h = 0, and the origin
    h = k = 0) are kept stacked on a last axis of length 2, lo's share
    first. With them: the straddle term (0.5 where lo < 0 < hi), the
    tail-branch test's lo < 0 and log 1e-3 + log Phi(hi), and the entries
    with an infinite z, where the value is log Phi(lo), kept with that
    value (0 elsewhere).
    """
    lo, hi = np.minimum(z1, z2), np.maximum(z1, z2)
    edge = np.isinf(lo) | np.isinf(hi)      # Phi2 = Phi(lo) there, 0 at lo = -inf
    edge_value = np.zeros(lo.shape)
    edge_value[edge] = _special.log_ndtr(lo[edge])
    lo, hi = np.where(edge, 0.0, lo), np.where(edge, 0.0, hi)
    h, k = np.stack((lo, hi), axis=-1), np.stack((hi, lo), axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k_over_h = k / h
    on_axis = h == 0.0
    return (h, 0.5 * _special.ndtr(h), k_over_h, on_axis, on_axis & (k == 0.0),
            np.where((lo < 0.0) & (hi > 0.0), 0.5, 0.0),
            lo < 0.0, _TAIL_SWITCH + _special.log_ndtr(hi), edge, edge_value)


def binorm_logcdf_at(terms, rho):
    """``binorm_logcdf`` from the rho-free half ``binorm_terms`` over S and
    rho, an array that broadcasts with S (a scalar, a (k, 1) column over
    S = (m,) or (k, m), or one entry per entry): the result has the
    broadcast shape, each entry equal, bit for bit, to ``binorm_logcdf``'s.
    Both Owen shares of every entry run as one ``owens_t`` call.

    At h = 0 a share is 0 (k != 0) or 1/8 + asin(rho)/(4 pi) (k = 0),
    which keeps the identity exact on the axes, where T's argument is
    infinite or undefined.
    """
    rho = np.asarray(rho, dtype=float)
    if not (np.abs(rho) < 1).all():
        raise ValueError(f"binorm_logcdf requires |rho| < 1, got {rho}")
    h, half_cdf, k_over_h, on_axis, origin, straddle, below, switch, edge, edge_value = terms
    pair = rho[..., None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        share = half_cdf - _special.owens_t(h, (k_over_h - pair) / np.sqrt(1.0 - pair * pair))
        share = np.where(on_axis, 0.0, share)
        if origin.any():
            at = np.broadcast_to(origin, share.shape)
            share[at] = 0.125 + np.arcsin(np.broadcast_to(pair, share.shape)[at]) / (4.0 * math.pi)
        out = np.log(share[..., 0] + share[..., 1] - straddle)
    tail = below & ~(out >= switch)
    if tail.any():
        lo, hi, rho = (np.broadcast_to(a, out.shape)[tail] for a in (h[..., 0], h[..., 1], rho))
        out[tail] = _binorm_logcdf_tail(lo, hi, rho)
    if edge.any():
        at = np.broadcast_to(edge, out.shape)
        out[at] = np.broadcast_to(edge_value, out.shape)[at]
    return out


_MAX_EXPANSIONS = 60
# Brent's golden ratio, square-root epsilon and probes per bracket, as in
# scipy's bounded method
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_PROBES = 500


def _bracketed(x0, half, tol):
    """One row's whole search as a generator: yields each point x to
    evaluate and is sent f(x). Returns (argmax, max).

    Each bracket, the first x0 +- half, runs Brent's bounded minimization
    of -f, with 1e300 where f(x) is not finite: scipy.optimize's
    ``_minimize_scalar_bounded`` (scipy 1.17) with xatol = tol, step for
    step. While the optimum lies within a margin (1% of the width plus
    2 tol) of an edge, the next bracket runs from the optimum less that
    margin to one width past that edge. Raises OptimizationError when
    more than 20% of a bracket's probes are non-finite, and BracketError
    when the optimum still sits on an edge after _MAX_EXPANSIONS
    brackets.

    The builtin abs and max, and comparisons in place of numpy's sign,
    are several times faster per step than numpy's scalars. The points,
    brackets and steps are always finite (a non-finite f(x) only fails
    the parabola test), and there they give the same values, so every
    step equals scipy's bit for bit."""
    lo, hi = float(x0 - half), float(x0 + half)
    for _ in range(_MAX_EXPANSIONS):
        a, b = lo, hi
        x = xf = nfc = fulc = a + _GOLDEN * (b - a)
        rat = e = 0.0
        probes = nonfinite = 0
        while True:
            v = float((yield x))
            probes += 1
            if math.isfinite(v):
                fu = -v
            else:
                fu = 1e300
                nonfinite += 1
            # xf holds the best probe, nfc the second best and fulc the third
            if probes == 1:
                fx = fnfc = ffulc = fu
            elif fu <= fx:
                if x >= xf:
                    a = xf
                else:
                    b = xf
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = xf, fx
                xf, fx = x, fu
            else:
                if x < xf:
                    a = x
                else:
                    b = x
                if fu <= fnfc or nfc == xf:
                    fulc, ffulc = nfc, fnfc
                    nfc, fnfc = x, fu
                elif fu <= ffulc or fulc == xf or fulc == nfc:
                    fulc, ffulc = x, fu
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
            tol2 = 2.0 * tol1
            if probes >= _MAX_PROBES or not abs(xf - xm) > tol2 - 0.5 * (b - a):
                break
            parabolic = False
            if abs(e) > tol1:
                r = (xf - nfc) * (fx - ffulc)
                q = (xf - fulc) * (fx - fnfc)
                p = (xf - fulc) * q - (xf - nfc) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = abs(q)
                r = e
                e = rat
                parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
            if parabolic:
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:   # a golden-section step into the larger part
                e = (a if xf >= xm else b) - xf
                rat = _GOLDEN * e
            step = max(abs(rat), tol1)
            x = xf + step if rat >= 0.0 else xf - step
        if nonfinite > 0.2 * probes:
            raise OptimizationError(
                f"objective non-finite at {nonfinite}/{probes} probes on [{lo}, {hi}]")
        # the bounded search can stall a little short of an edge when
        # the objective is nearly flat there, so use a generous edge margin
        width = hi - lo
        margin = 0.01 * width + 2.0 * tol
        if xf - lo <= margin:
            lo, hi = lo - width, xf + margin
        elif hi - xf <= margin:
            lo, hi = xf - margin, hi + width
        else:
            # fx is the best probe's -f, which is finite when any probe is
            return xf, -fx
    raise BracketError(f"optimum still on an edge of [{lo}, {hi}] after "
                       f"{_MAX_EXPANSIONS} brackets from {x0}")


def maximize_1d(f, x0, half: float, tol: float = 1e-8):
    """Maximization of k objectives of one variable by Brent's method
    (golden-section/parabolic hybrid, the steps of scipy's bounded
    ``minimize_scalar`` on -f). Search j is one ``_bracketed`` generator
    from x0[j]: its first bracket is x0[j] +- half, and the bracket moves
    toward the optimum while the optimum sits on an edge.

    The k generators step in lockstep: each round, every search still
    running yields one point, and one call f(rows, x) evaluates them
    all, where ``rows`` indexes the running searches and ``x`` lists
    their points. Each search takes the steps it would take alone.
    Returns one entry per start: (argmax, max), or the NumericsError
    that ended that search (OptimizationError or BracketError).
    """
    searches = [_bracketed(x, half, tol) for x in x0]
    results = [None] * len(searches)
    values = [None] * len(searches)
    running = range(len(searches))
    while True:
        asked, points = [], []
        for j in running:
            try:
                points.append(searches[j].send(values[j]))
                asked.append(j)
            except StopIteration as stop:
                results[j] = stop.value
            except NumericsError as exc:
                results[j] = exc
        if not asked:
            return results
        running = asked
        for j, v in zip(asked, f(np.array(asked), points)):
            values[j] = v


@dataclass(frozen=True)
class RngStream:
    """A deterministic, platform-independent random stream.

    Identical (master_seed, stream_index) pairs produce bit-identical
    sequences regardless of platform or thread count. Streams with
    distinct indices are statistically independent.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministically derive a sub-seed from a master seed and a key path."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])
