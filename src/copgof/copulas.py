"""Five bivariate copula families with censored-likelihood machinery.

The censored log-likelihood of one observation (u1, u2, d1, d2) selects a
single piece: the copula density for a doubly observed pair, a partial
derivative when exactly one margin is censored, and the copula function
itself when both are censored. Only the formulas differ by family.
The split into these four cases belongs to the sample: an
``Observations`` validates (u1, u2, d1, d2) and gathers each case's
entries once, when it is built, with the column of each, and a fit
reuses it for every evaluation. Then ``loglik_vec`` evaluates each
case's piece over its entries, and ``dlog_vec`` each case's piece with
its derivatives, giving the log-likelihood, score and hessian from one
pass; each scatters every entry back to its row and column.
Neither raises on a non-finite value. A -inf log-likelihood piece is
raised to LOG_TINY and a NaN or +inf one becomes -inf, an invalid point
for the search; the score and hessian come back as they are, and
``require_finite`` is the one check that raises on them, for the rows a
caller reads.
A sample with a single case (any uncensored one) is evaluated whole,
with no gather or scatter.
An ``Observations`` may also be a (k, n) block of k samples, evaluated
at a (k, 1) column of thetas, one per row; its case split pads each
row's entries of a case to the longest row's count, with column n for
a pad, and each row of the result equals that row's own one-sample call
bit for bit.
A float theta is evaluated as a (1, 1) column, so the pieces see only
array thetas, and each theta-only term is a numpy ufunc, the same loop
at every shape: powers of theta are ``np.power``, since Python's float
``**`` is the C library's pow, which differs from numpy's in the last
ulp. ``_apow`` redoes the column rows whose exponent numpy would take by
a shortcut at some array sizes only.

A family class declares its math and nothing else:

- ``domain``, the open interval of theta, and ``tau_domain`` where
  Kendall's tau may be negative (the default is (0, 1));
- the log pieces ``log_pdf``, ``log_c1`` (the u1-partial) and
  ``log_cdf``. Each computes its family's core terms once and returns
  the value or, asked for its derivatives, (value, d1, d2) with the
  analytic first and second theta-derivatives;
- the tau bijection ``theta_to_tau``/``tau_to_theta``;
- ``inv_conditional``, the sampler's inverse of u2 -> C(u2 | u1): in
  closed form for Clayton, Frank, the Gaussian and Gumbel (by the Wright
  omega function), and by a safeguarded Newton iteration on the
  generator for Joe.

The base ``_Family`` derives the rest: ``in_domain`` as
(lo < theta) & (theta < hi), elementwise over an array theta, and the
u2-partial ``log_c2`` as the u1-partial with (u1, u2) swapped, since
every family here is exchangeable. The module functions derive the
unconstrained search scale of ``fit_pmle`` from ``domain`` alone.

The Gaussian copula function is C(u1, u2) = Phi2(Phi^-1(u1), Phi^-1(u2); rho).
Its log comes from ``numerics.binorm_logcdf`` in one array pass over the
doubly censored rows: Owen's T identity, with a log-space Gauss-Legendre
branch in the corners where the identity cancels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special

from . import numerics
from .numerics import LOG_TINY

_SQRT2PI = math.sqrt(2.0 * math.pi)
# the smallest normal float: a sum of powers below it has lost digits to underflow
_TINY = np.finfo(float).tiny
# the Joe sampler's Newton iteration on s = log y: an entry stops once its
# step is at most _NEWTON_STOP max(1, |s|), or after _NEWTON_MAX steps
_NEWTON_STOP = 1e-11
_NEWTON_MAX = 100


def _log1pexp(x):
    """log(1 + e^x) without overflow: np.logaddexp(0, x), in a few times
    less time."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _apow(base, p):
    """base ** p for an array base and a theta-valued exponent p, a float
    or a (k, 1) column.

    numpy computes an array to the float power -1, 0.5 or 2 as a
    reciprocal, square root or square, but a column holding that value
    only sometimes (it depends on the array sizes); such rows are redone
    with the float so that each row equals base ** p_j bit for bit.
    """
    out = base ** p
    if np.ndim(p):
        # scanning the list is cheaper than numpy's tests at the (1, 1)
        # column of every float theta
        for j, e in enumerate(p.ravel().tolist()):
            if e == -1.0 or e == 0.5 or e == 2.0:
                out[j] = (base if base.ndim < 2 else base[j]) ** e
    return out


class CopulaError(numerics.StatisticalError):
    pass


class LikelihoodError(CopulaError):
    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"{message} (observation {index})")
        self.index = index


class Family(enum.Enum):
    CLAYTON = "clayton"
    FRANK = "frank"
    JOE = "joe"
    GAUSSIAN = "gaussian"
    GUMBEL = "gumbel"

    @classmethod
    def parse(cls, name: str) -> "Family":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = "|".join(f.value for f in cls)
            raise ValueError(f"unknown copula family {name!r}; expected one of {valid}") from None


# canonical ordering used for stream allocation in the bootstrap engine
FAMILY_ORDER = tuple(Family)


@dataclass(frozen=True)
class CopulaModel:
    family: Family
    theta: float

    def __post_init__(self):
        ops = _OPS[self.family]
        if not ops.in_domain(self.theta):
            lo, hi = ops.domain
            raise ValueError(
                f"theta={self.theta} outside open domain ({lo}, {hi}) of {self.family.value}")


# ---------------------------------------------------------------------------
# family implementations (vectorized over u1, u2; theta a float or a column)
# ---------------------------------------------------------------------------


class _Family:
    """Derives from a family's declarations what they imply (see the
    module docstring)."""

    tau_domain = (0.0, 1.0)

    @classmethod
    def in_domain(cls, theta):
        lo, hi = cls.domain
        return (lo < theta) & (theta < hi)

    # every family is exchangeable, C(u1, u2) = C(u2, u1), so the
    # u2-partial is the u1-partial with its arguments swapped
    @classmethod
    def log_c2(cls, theta, u1, u2, derivs=False):
        return cls.log_c1(theta, u2, u1, derivs)


class _Clayton(_Family):
    domain = (0.0, math.inf)

    @staticmethod
    def _core(theta, u1, u2):
        t1 = _apow(u1, -theta)
        t2 = _apow(u2, -theta)
        s = t1 + t2 - 1.0
        return t1, t2, s, np.log(s)

    @staticmethod
    def _psi_derivs(theta, lu1, lu2, t1, t2, s):
        """The first two theta-derivatives of psi = log s, then theta^2
        and theta^3."""
        a = t1 * lu1 + t2 * lu2
        b = t1 * lu1 ** 2 + t2 * lu2 ** 2
        return -a / s, b / s - (a / s) ** 2, np.power(theta, 2), np.power(theta, 3)

    @classmethod
    def log_cdf(cls, theta, u1, u2, derivs=False):
        *core, psi = cls._core(theta, u1, u2)
        value = -psi / theta
        if not derivs:
            return value
        psi_t, psi_tt, th2, th3 = cls._psi_derivs(theta, np.log(u1), np.log(u2), *core)
        return (value, -psi_t / theta + psi / th2,
                -psi_tt / theta + 2.0 * psi_t / th2 - 2.0 * psi / th3)

    @classmethod
    def log_c1(cls, theta, u1, u2, derivs=False):
        *core, psi = cls._core(theta, u1, u2)
        lu1 = np.log(u1)
        value = -(1.0 + theta) * lu1 - (1.0 / theta + 1.0) * psi
        if not derivs:
            return value
        psi_t, psi_tt, th2, th3 = cls._psi_derivs(theta, lu1, np.log(u2), *core)
        return (value, -lu1 + psi / th2 - (1.0 / theta + 1.0) * psi_t,
                -2.0 * psi / th3 + 2.0 * psi_t / th2 - (1.0 / theta + 1.0) * psi_tt)

    @classmethod
    def log_pdf(cls, theta, u1, u2, derivs=False):
        *core, psi = cls._core(theta, u1, u2)
        lu1, lu2 = np.log(u1), np.log(u2)
        value = (np.log1p(theta) - (1.0 + theta) * (lu1 + lu2)
                 - (1.0 / theta + 2.0) * psi)
        if not derivs:
            return value
        psi_t, psi_tt, th2, th3 = cls._psi_derivs(theta, lu1, lu2, *core)
        return (value, (1.0 / (1.0 + theta) - lu1 - lu2 + psi / th2
                        - (1.0 / theta + 2.0) * psi_t),
                (-1.0 / np.power(1.0 + theta, 2) + 2.0 * psi_t / th2
                 - 2.0 * psi / th3 - (1.0 / theta + 2.0) * psi_tt))

    @staticmethod
    def theta_to_tau(theta):
        return theta / (theta + 2.0)

    @staticmethod
    def tau_to_theta(tau):
        return 2.0 * tau / (1.0 - tau)

    @staticmethod
    def inv_conditional(theta, u1, w):
        # closed-form inverse of c1(u1, .) at level w; where u1 ** -theta
        # overflows (large theta), the log of the inner sum by logaddexp
        with np.errstate(over="ignore", invalid="ignore"):
            inner = 1.0 + u1 ** -theta * (w ** (-theta / (1.0 + theta)) - 1.0)
        u2 = inner ** (-1.0 / theta)
        big = ~np.isfinite(inner)
        log_rise = np.log(np.expm1(-theta / (1.0 + theta) * np.log(w[big])))
        u2[big] = np.exp(-np.logaddexp(0.0, log_rise - theta * np.log(u1[big])) / theta)
        return u2


class _Frank(_Family):
    # positive-dependence branch only
    domain = (0.0, math.inf)

    @staticmethod
    def _core(theta, u1, u2):
        g = -np.expm1(-theta)     # 1 - e^{-theta}
        em = np.exp(-theta)
        g1 = -np.expm1(-theta * u1)
        g2 = -np.expm1(-theta * u2)
        e2 = np.exp(-theta * u2)
        zeta = g1 * g2 / g
        # 1 - zeta cancels as zeta -> 1 (u1, u2 -> 1 at large theta); there
        # it is taken from g (1 - zeta) = e2 g1 + e^{-theta} expm1(theta (1 - u1)),
        # a sum of positive terms
        omz = np.where(zeta < 0.5, 1.0 - zeta,
                       (e2 * g1 + em * np.expm1(theta * (1.0 - u1))) / g)
        return g, em, g1, g2, e2, zeta, omz

    @staticmethod
    def _log_omz(zeta, omz):
        """log(1 - zeta), relatively accurate also where zeta is tiny (the
        lower-left corner, or small theta), as the log of C needs."""
        return np.where(zeta < 0.5, np.log1p(-np.minimum(zeta, 0.5)), np.log(omz))

    @classmethod
    def log_cdf(cls, theta, u1, u2, derivs=False):
        core = cls._core(theta, u1, u2)
        zeta, omz = core[5:]
        logomz = cls._log_omz(zeta, omz)
        c = -logomz / theta
        value = np.log(c)
        if not derivs:
            return value
        _, z_t, z_tt = cls._zeta_derivs(theta, u1, u2, *core)
        t2, t_omz = np.power(theta, 2), theta * omz
        c_t = logomz / t2 + z_t / t_omz
        c_tt = (-2.0 * logomz / np.power(theta, 3) - 2.0 * z_t / (t2 * omz)
                + z_tt / t_omz + z_t ** 2 / (theta * omz ** 2))
        r = c_t / c
        return value, r, c_tt / c - r ** 2

    @classmethod
    def log_c1(cls, theta, u1, u2, derivs=False):
        core = cls._core(theta, u1, u2)
        g, em, _, g2, e2, _, omz = core
        value = -theta * u1 + np.log(g2) - np.log(g) - np.log(omz)
        if not derivs:
            return value
        em_g2, z_t, z_tt = cls._zeta_derivs(theta, u1, u2, *core)
        return (value, z_t / omz - u1 + u2 * e2 / g2 - em / g,
                z_tt / omz + z_t ** 2 / omz ** 2 - (u2 ** 2) * e2 / g2 ** 2 + em_g2)

    @classmethod
    def log_pdf(cls, theta, u1, u2, derivs=False):
        core = cls._core(theta, u1, u2)
        g, em, *_, omz = core
        value = (np.log(theta) - theta * (u1 + u2) - np.log(g)
                 - 2.0 * np.log(omz))
        if not derivs:
            return value
        em_g2, z_t, z_tt = cls._zeta_derivs(theta, u1, u2, *core)
        return (value, 2.0 * z_t / omz + 1.0 / theta - u1 - u2 - em / g,
                (2.0 * z_tt / omz + 2.0 * z_t ** 2 / omz ** 2 - 1.0 / np.power(theta, 2)
                 + em_g2))

    @staticmethod
    def _zeta_derivs(theta, u1, u2, g, em, g1, g2, e2, zeta, omz):
        """e^-theta / g^2, then the first two theta-derivatives of zeta."""
        e1 = np.exp(-theta * u1)
        em_g2 = em / np.power(g, 2)
        lz_t = u1 * e1 / g1 + u2 * e2 / g2 - em / g
        lz_tt = -(u1 ** 2) * e1 / g1 ** 2 - (u2 ** 2) * e2 / g2 ** 2 + em_g2
        return em_g2, zeta * lz_t, zeta * (lz_tt + lz_t ** 2)

    @staticmethod
    def theta_to_tau(theta):
        return 1.0 - 4.0 * (1.0 - numerics.debye1(theta)) / theta

    @classmethod
    def tau_to_theta(cls, tau):
        return numerics.find_root(lambda t: cls.theta_to_tau(t) - tau, 1e-8, 700.0, tol=1e-12)

    @staticmethod
    def inv_conditional(theta, u1, w):
        # u2 = -log(1 - g2) / theta with g2 = w g / (e1 + w g1). Since
        # 1 - g2 = (e1 (1 - w) + w e^{-theta}) / (e1 + w g1), this is
        # log1p(w g / (e1 (1 - w) + w e^{-theta})) / theta, which neither
        # rounds g2 near 1 (large theta) to 1 nor loses small u2's digits
        g = -math.expm1(-theta)
        e1 = np.exp(-theta * u1)
        return np.log1p(w * g / (e1 * (1.0 - w) + w * math.exp(-theta))) / theta


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# the 16-node Gauss-Legendre rule mapped to [0, 1]: its weights sum to one
_UNIT_NODES, _UNIT_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


class _Joe(_Family):
    domain = (1.0, math.inf)

    @staticmethod
    def _core(theta, u1, u2):
        v1 = 1.0 - u1
        v2 = 1.0 - u2
        a1 = _apow(v1, theta)
        a2 = _apow(v2, theta)
        gamma = a1 + a2 - a1 * a2
        return v1, v2, a1, a2, gamma

    @staticmethod
    def _gamma_derivs(l1, l2, a1, a2):
        """The first two theta-derivatives of gamma, from l = log(1 - u)."""
        g_t = a1 * l1 + a2 * l2 - a1 * a2 * (l1 + l2)
        g_tt = a1 * l1 ** 2 + a2 * l2 ** 2 - a1 * a2 * (l1 + l2) ** 2
        return g_t, g_tt

    @classmethod
    def log_cdf(cls, theta, u1, u2, derivs=False):
        v1, v2, a1, a2, gamma = cls._core(theta, u1, u2)
        lg = np.log(gamma)
        g1 = np.exp(lg / theta)                       # Gamma^{1/theta}
        value = np.log1p(-g1)
        low = gamma < _TINY
        if low.any():
            # gamma under- or gradually underflows where both (1 - u)^theta
            # do (large theta, near (1, 1)); there
            # log gamma = log(a1 + a2 (1 - a1)) is formed from theta log(1 - u)
            th, b1, b2, c1 = (np.broadcast_to(a, value.shape)[low]
                              for a in (theta, v1, v2, a1))
            lg_low = np.logaddexp(th * np.log(b1), th * np.log(b2) + np.log1p(-c1))
            value[low] = np.log1p(-np.exp(lg_low / th))
        if not derivs:
            return value
        g_t, g_tt = cls._gamma_derivs(np.log(v1), np.log(v2), a1, a2)
        t2 = np.power(theta, 2)
        g1_t = g1 * (-lg / t2 + g_t / (theta * gamma))
        g1_tt = (2.0 * g1 * lg / np.power(theta, 3)
                 - (g1_t * lg + 2.0 * g1 / gamma * g_t) / t2
                 + (g_tt * g1 / gamma + g_t * g1_t / gamma
                    - g_t ** 2 * g1 / gamma ** 2) / theta)
        omg = 1.0 - g1
        return value, -g1_t / omg, -g1_tt / omg - (g1_t / omg) ** 2

    @staticmethod
    def _log_rho(theta, u1):
        """log rho, rho = (1 - u1)^-theta - 1, finite where rho overflows:
        with t = -theta log(1 - u1), log rho = t + log(1 - e^-t)."""
        t = -theta * np.log1p(-u1)
        return t + np.log(-np.expm1(-t))

    @classmethod
    def log_c1(cls, theta, u1, u2, derivs=False):
        v1, v2, a1, a2, gamma = cls._core(theta, u1, u2)
        lg, l1 = np.log(gamma), np.log(v1)
        value = (1.0 / theta - 1.0) * lg + np.log1p(-a2) + (theta - 1.0) * l1
        bad = ~np.isfinite(value)
        if bad.any():
            # gamma underflows to 0 where both (1 - u)^theta do (large
            # theta); there log c1 = log(1 - a2) - (1 - 1/theta) log(1 + rho a2)
            # with log(rho a2) = log rho + theta log(1 - u2)
            th, b1, b2 = (np.broadcast_to(a, value.shape)[bad] for a in (theta, u1, u2))
            la2 = th * np.log1p(-b2)
            value[bad] = (np.log1p(-np.exp(la2))
                          - (1.0 - 1.0 / th) * _log1pexp(cls._log_rho(th, b1) + la2))
        if not derivs:
            return value
        l2, o2 = np.log(v2), 1.0 - a2
        g_t, g_tt = cls._gamma_derivs(l1, l2, a1, a2)
        t2 = np.power(theta, 2)
        d1 = -lg / t2 + (1.0 / theta - 1.0) * g_t / gamma - a2 * l2 / o2 + l1
        d2 = (2.0 * lg / np.power(theta, 3) - 2.0 * g_t / (gamma * t2)
              + (1.0 / theta - 1.0) * (g_tt / gamma - (g_t / gamma) ** 2)
              - a2 * l2 ** 2 / o2 ** 2)
        return value, d1, d2

    @classmethod
    def log_pdf(cls, theta, u1, u2, derivs=False):
        v1, v2, a1, a2, gamma = cls._core(theta, u1, u2)
        lg, l1, l2 = np.log(gamma), np.log(v1), np.log(v2)
        o1, o2 = 1.0 - a1, 1.0 - a2
        value = ((1.0 / theta - 2.0) * lg + (theta - 1.0) * (l1 + l2)
                 + np.log(theta * gamma + (theta - 1.0) * o1 * o2))
        bad = ~np.isfinite(value)
        if bad.any():
            # gamma underflows to 0 where both (1 - u)^theta do (large
            # theta, near (1, 1)); there log gamma = log(a1 + a2 (1 - a1))
            # is formed from theta log(1 - u), and the last term's
            # theta gamma + (theta - 1)(1 - a1)(1 - a2) is gamma + theta - 1
            th, b1, b2, c1 = (np.broadcast_to(a, value.shape)[bad] for a in (theta, v1, v2, a1))
            m1, m2 = np.log(b1), np.log(b2)
            lg_bad = np.logaddexp(th * m1, th * m2 + np.log1p(-c1))
            value[bad] = ((1.0 / th - 2.0) * lg_bad + (th - 1.0) * (m1 + m2)
                          + np.log(np.exp(lg_bad) + th - 1.0))
        if not derivs:
            return value
        g_t, g_tt = cls._gamma_derivs(l1, l2, a1, a2)
        # the value's k, whose derivatives take (theta - 1) p as one product
        p = o1 * o2
        k = theta * gamma + (theta - 1.0) * p
        p_t = -a1 * l1 * o2 - a2 * l2 * o1
        p_tt = -a1 * l1 ** 2 * o2 - a2 * l2 ** 2 * o1 + 2.0 * a1 * a2 * l1 * l2
        k_t = gamma + theta * g_t + p + (theta - 1.0) * p_t
        k_tt = 2.0 * g_t + theta * g_tt + 2.0 * p_t + (theta - 1.0) * p_tt
        t2, r = np.power(theta, 2), k_t / k
        d1 = -lg / t2 + (1.0 / theta - 2.0) * g_t / gamma + l1 + l2 + r
        d2 = (2.0 * lg / np.power(theta, 3) - 2.0 * g_t / (gamma * t2)
              + (1.0 / theta - 2.0) * (g_tt / gamma - (g_t / gamma) ** 2)
              + k_tt / k - r ** 2)
        return value, d1, d2

    @staticmethod
    def theta_to_tau(theta):
        # tau = 1 + 2/(2 - theta) (digamma(2) - digamma(2/theta + 1)) is 0/0
        # at theta = 2; writing the digamma difference as the integral of
        # trigamma over [2, 2/theta + 1] gives 1 - (2/theta) * (its mean
        # there), which is finite everywhere
        x = 2.0 + _UNIT_NODES * (2.0 / theta - 1.0)
        return 1.0 - 2.0 / theta * float(_UNIT_WEIGHTS @ _special.polygamma(1, x))

    @classmethod
    def tau_to_theta(cls, tau):
        return numerics.find_root(lambda t: cls.theta_to_tau(t) - tau,
                                  1.0 + 1e-8, 500.0, tol=1e-12)

    @classmethod
    def inv_conditional(cls, theta, u1, w):
        """u2 with C(u2 | u1) = w, by Newton's method on the generator
        (Hofert, 2008, "Sampling Archimedean copulas").

        In y = -log(1 - a), a = (1 - u2)^theta = 1 - e^-y, the equation is
        g(y) = y + (1 - 1/theta) log(1 + rho a) = m, with
        rho = (1 - u1)^-theta - 1 and m = -log w. g rises from g(0) = 0 and
        log(1 + rho a) <= rho a <= rho y, so the root lies in
        [m / (1 + (1 - 1/theta) rho), m]. A safeguarded Newton iteration
        on s = log y starts at the middle of that bracket in s, halves it
        where a step would leave it, and runs each entry until its own
        step is below _NEWTON_STOP, so an entry's draw never depends on
        the others. rho is kept as log rho, which stays finite where rho
        overflows (theta = 200 from u1 ~ 0.97), and y as s, which stays
        finite where y underflows.
        """
        shape = np.shape(w)
        kappa = 1.0 - 1.0 / theta
        log_rho = cls._log_rho(theta, np.ravel(u1))
        m = -np.log(np.ravel(w))
        hi = np.log(m)
        lo = hi - _log1pexp(math.log(kappa) + log_rho)
        s = 0.5 * (lo + hi)
        run = np.arange(s.size)
        rs, rlo, rhi, rrho, rm = s, lo, hi, log_rho, m
        for _ in range(_NEWTON_MAX):
            y = np.exp(rs)
            big = _log1pexp(rrho + cls._log_a(rs, y))     # log(1 + rho a)
            f = y + kappa * big - rm
            # g'(y) y = y + kappa rho y e^-y / (1 + rho a), in logs
            step = f / (y + kappa * np.exp(rs + rrho - y - big))
            rhi = np.where(f > 0.0, rs, rhi)
            rlo = np.where(f < 0.0, rs, rlo)
            # a step that leaves the bracket halves it instead; a last step
            # below the stop may land on the bracket's edge (rs itself)
            tol = _NEWTON_STOP * np.maximum(1.0, np.abs(rs))
            new = rs - step
            new = np.where((np.abs(step) <= tol) | ((new > rlo) & (new < rhi)),
                           new, 0.5 * (rlo + rhi))
            keep = np.abs(new - rs) > tol
            s[run] = new
            if not keep.any():
                break
            run, rs, rlo, rhi, rrho, rm = (a[keep] for a in (run, new, rlo, rhi, rrho, rm))
        # u2 = 1 - a^(1/theta)
        return -np.expm1(cls._log_a(s, np.exp(s)) / theta).reshape(shape)

    @staticmethod
    def _log_a(s, y):
        """log a = log(1 - e^-y) at y = e^s; below y = 1e-300, where y is
        subnormal or 0, it is s - y/2 = s to double precision."""
        with np.errstate(divide="ignore"):
            return np.where(s < -690.0, s, np.log(-np.expm1(-y)))


class _Gaussian(_Family):
    domain = (-1.0, 1.0)
    tau_domain = (-1.0, 1.0)

    @staticmethod
    def _z(u1, u2):
        return _special.ndtri(u1), _special.ndtri(u2)

    @classmethod
    def log_cdf(cls, theta, u1, u2, derivs=False):
        z1, z2 = cls._z(u1, u2)
        value = numerics.binorm_logcdf(z1, z2, theta)
        if not derivs:
            return value
        s2 = 1.0 - theta * theta
        log_pdf2 = (-(np.square(z1) + np.square(z2) - 2.0 * theta * z1 * z2) / (2.0 * s2)
                    - np.log(2.0 * math.pi * np.sqrt(s2)))
        # Plackett: dC/dtheta = phi2; phi2/Phi2 in log space, where both underflow
        ratio = np.exp(log_pdf2 - value)
        lt, _ = cls._phi2_tilde(theta, z1, z2)
        return value, ratio, ratio * (lt - ratio)

    @classmethod
    def log_c1(cls, theta, u1, u2, derivs=False):
        z1, z2 = cls._z(u1, u2)
        s2 = 1.0 - theta * theta
        a = (z2 - theta * z1) / np.sqrt(s2)
        value = _special.log_ndtr(a)
        if not derivs:
            return value
        s2_15 = np.power(s2, 1.5)
        a_t = (theta * z2 - z1) / s2_15
        a_tt = z2 / s2_15 + (theta * z2 - z1) * 3.0 * theta / np.power(s2, 2.5)
        # phi(a)/Phi(a), computed in log space for deep-tail stability
        r = np.exp(-0.5 * np.square(a) - math.log(_SQRT2PI) - value)
        d1 = r * a_t
        return value, d1, r * (a_tt - a * a_t ** 2) - d1 ** 2

    @classmethod
    def log_pdf(cls, theta, u1, u2, derivs=False):
        z1, z2 = cls._z(u1, u2)
        s2 = 1.0 - theta * theta
        value = (-0.5 * np.log(s2)
                 - (np.square(z1) + np.square(z2) - 2.0 * theta * z1 * z2) / (2.0 * s2)
                 + 0.5 * (np.square(z1) + np.square(z2)))
        return (value, *cls._phi2_tilde(theta, z1, z2)) if derivs else value

    @classmethod
    def _phi2_tilde(cls, theta, z1, z2):
        s2 = 1.0 - theta * theta
        t2, s2_2 = np.power(theta, 2), np.power(s2, 2)
        zz = z1 * z2
        zsq = np.square(z1) + np.square(z2)
        d1 = (theta * s2 - theta * zsq + (1.0 + t2) * zz) / s2_2
        d2 = ((1.0 + t2) / s2_2
              + ((6.0 * theta + 2.0 * np.power(theta, 3)) * zz - (1.0 + 3.0 * t2) * zsq)
              / np.power(s2, 3))
        return d1, d2

    @staticmethod
    def theta_to_tau(theta):
        return 2.0 / math.pi * math.asin(theta)

    @staticmethod
    def tau_to_theta(tau):
        return math.sin(math.pi * tau / 2.0)

    @staticmethod
    def inv_conditional(theta, u1, w):
        z1 = _special.ndtri(u1)
        s = math.sqrt(1.0 - theta * theta)
        return _special.ndtr(theta * z1 + s * _special.ndtri(w))


class _Gumbel(_Family):
    domain = (1.0, math.inf)

    @staticmethod
    def _core(theta, u1, u2):
        x1 = -np.log(u1)
        x2 = -np.log(u2)
        p1 = _apow(x1, theta)
        p2 = _apow(x2, theta)
        a = p1 + p2
        a1 = _apow(a, 1.0 / theta)
        return x1, x2, p1, p2, a, a1

    @staticmethod
    def _a_derivs(theta, l1, l2, p1, p2, a, la):
        """With l = log x and la = log A: m = (log A)', m_t = m',
        q = (log A1)' and q_t = q', for A1 = A^(1/theta)."""
        w1, w2 = p1 / a, p2 / a
        m = w1 * l1 + w2 * l2
        # A''/A - m^2, written without its cancellation
        m_t = w1 * w2 * (l1 - l2) ** 2
        q = (m - la / theta) / theta
        q_t = (m_t - 2.0 * q) / theta
        return m, m_t, q, q_t

    @classmethod
    def log_cdf(cls, theta, u1, u2, derivs=False):
        x1, x2, p1, p2, a, a1 = cls._core(theta, u1, u2)
        value = -a1
        bad = (a < _TINY) | (a == math.inf)
        if bad.any():
            # A under- or overflows at large theta; there
            # A1 = x1 e^(r/theta), with r = log(1 + (x2/x1)^theta)
            th, b1, b2 = (np.broadcast_to(v, value.shape)[bad] for v in (theta, x1, x2))
            value[bad] = -b1 * np.exp(_log1pexp(th * (np.log(b2) - np.log(b1))) / th)
        if not derivs:
            return value
        _, _, q, q_t = cls._a_derivs(theta, np.log(x1), np.log(x2), p1, p2, a, np.log(a))
        return value, -a1 * q, -a1 * (q_t + q ** 2)

    @classmethod
    def log_c1(cls, theta, u1, u2, derivs=False):
        x1, x2, p1, p2, a, a1 = cls._core(theta, u1, u2)
        la, l1 = np.log(a), np.log(x1)
        value = -a1 + (1.0 / theta - 1.0) * la + (theta - 1.0) * l1 + x1
        bad = ~np.isfinite(value)
        if bad.any():
            # A = x1^theta + x2^theta under- or overflows at large theta;
            # there, with r = log(A / x1^theta) = log(1 + (x2/x1)^theta),
            # log c1 = x1 (1 - e^(r/theta)) + (1/theta - 1) r
            th, b1, b2 = (np.broadcast_to(v, value.shape)[bad] for v in (theta, x1, x2))
            r = _log1pexp(th * (np.log(b2) - np.log(b1)))
            value[bad] = -b1 * np.expm1(r / th) + (1.0 / th - 1.0) * r
        if not derivs:
            return value
        m, m_t, q, q_t = cls._a_derivs(theta, l1, np.log(x2), p1, p2, a, la)
        return value, -a1 * q + q - m + l1, -a1 * (q_t + q ** 2) + q_t - m_t

    @classmethod
    def log_pdf(cls, theta, u1, u2, derivs=False):
        x1, x2, p1, p2, a, a1 = cls._core(theta, u1, u2)
        la, l1, l2 = np.log(a), np.log(x1), np.log(x2)
        k = a1 + theta - 1.0
        value = (-a1 + (theta - 1.0) * (l1 + l2) + x1 + x2
                 + (1.0 / theta - 2.0) * la + np.log(k))
        bad = ~np.isfinite(value)
        if bad.any():
            # A = x1^theta + x2^theta under- or overflows at large theta;
            # there log A = theta log x1 + log(1 + (x2/x1)^theta)
            th, b1, b2 = (np.broadcast_to(v, value.shape)[bad] for v in (theta, x1, x2))
            m1, m2 = np.log(b1), np.log(b2)
            la_bad = th * m1 + _log1pexp(th * (m2 - m1))
            a1_bad = np.exp(la_bad / th)
            value[bad] = (-a1_bad + (th - 1.0) * (m1 + m2) + b1 + b2
                          + (1.0 / th - 2.0) * la_bad + np.log(a1_bad + th - 1.0))
        if not derivs:
            return value
        m, m_t, q, q_t = cls._a_derivs(theta, l1, l2, p1, p2, a, la)
        k_t = a1 * q + 1.0
        k_tt = a1 * (q_t + q ** 2)
        r = k_t / k
        d1 = -a1 * q + l1 + l2 + q - 2.0 * m + r
        d2 = -k_tt + q_t - 2.0 * m_t + k_tt / k - r ** 2
        return value, d1, d2

    @staticmethod
    def theta_to_tau(theta):
        return 1.0 - 1.0 / theta

    @staticmethod
    def tau_to_theta(tau):
        return 1.0 / (1.0 - tau)

    @staticmethod
    def inv_conditional(theta, u1, w):
        """u2 with C(u2 | u1) = w in closed form, by the Wright omega
        function omega(a) = W(e^a), the root of omega + log omega = a
        (Corless et al., 1996, "On the Lambert W function").

        With x = -log u1, y = -log u2 and z = (x^theta + y^theta)^(1/theta),
        C(u2 | u1) = w reads z + (theta - 1) log z = c, where
        c = x + (theta - 1) log x - log w. So
        z = (theta - 1) omega(c / (theta - 1) - log(theta - 1)), and
        y = x (e^(theta log(z/x)) - 1)^(1/theta). The root has z >= x; where
        w rounds it just below x, y is 0.
        """
        x = -np.log(u1)
        tm1 = theta - 1.0
        c = x + tm1 * np.log(x) - np.log(w)
        z = tm1 * _special.wrightomega(c / tm1 - math.log(tm1))
        y = x * np.maximum(np.expm1(theta * np.log(z / x)), 0.0) ** (1.0 / theta)
        return np.exp(-y)


_OPS = {
    Family.CLAYTON: _Clayton,
    Family.FRANK: _Frank,
    Family.JOE: _Joe,
    Family.GAUSSIAN: _Gaussian,
    Family.GUMBEL: _Gumbel,
}


def family_ops(family: Family):
    return _OPS[family]


# ---------------------------------------------------------------------------
# public pointwise surface
# ---------------------------------------------------------------------------


def _pointwise(piece: str, m: CopulaModel, u1, u2):
    out = np.exp(getattr(_OPS[m.family], piece)(
        m.theta, np.asarray(u1, float), np.asarray(u2, float)))
    return float(out) if np.isscalar(u1) else out


def cdf(m: CopulaModel, u1, u2):
    return _pointwise("log_cdf", m, u1, u2)


def partial_u1(m: CopulaModel, u1, u2):
    return _pointwise("log_c1", m, u1, u2)


def partial_u2(m: CopulaModel, u1, u2):
    return _pointwise("log_c2", m, u1, u2)


def density(m: CopulaModel, u1, u2):
    return _pointwise("log_pdf", m, u1, u2)


# the piece of each censoring case, indexed by the case number
# 2 (1 - d1) + (1 - d2): both margins observed, only the second censored,
# only the first, both
_PIECES = ("log_pdf", "log_c1", "log_c2", "log_cdf")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Observations:
    """A pseudo-sample (u1, u2, d1, d2), or a (k, n) block of k of them,
    split once into its censoring cases for the likelihood kernels.

    Validated on construction: four arrays of one shape, 1-D for a
    sample or (k, n) for a block, with event indicators 0 or 1; anything
    else raises ValueError naming the argument. The arrays are read-only
    copies: float u1, u2 and int8 d1, d2. ``n`` is the number of rows of
    a sample (entries per row of a block), ``k`` the number of samples
    (1 for a 1-D one) and ``size``, as for an array, the number of
    entries. Two samples are equal when their arrays are. A pickled
    sample is rebuilt from its four arrays, so it is validated, split
    and read-only again on the other side.

    ``cases`` holds one (case, cols, u1 entries, u2 entries) entry per
    censoring case present, in case order, where ``case`` indexes
    ``_PIECES`` and ``cols`` holds each entry's column. A sample gathers
    the case's entries into (m,) arrays. A block gathers each row's
    entries of the case in row order into a (k, m) array, m the longest
    row's count, padded with u = 0.5 (z = 0 on the Gaussian scale, so a
    pad never enters ``binorm_logcdf``'s tail branch) and column n. The
    padding lets a (k, 1) theta column broadcast over a case, and lets
    ``take`` and ``row`` reuse this split by slicing rows: ``take(rows)``
    holds ``cols[rows]`` and ``row(j)`` holds ``cols[j, :count]``, the
    row's own entries. When one case covers every entry, its entry
    holds the whole arrays and ``cols`` is None, so the kernels neither
    gather nor scatter.
    """
    u1: np.ndarray
    u2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    n: int = field(init=False)
    cases: tuple = field(init=False)

    def __post_init__(self):
        arrays = {"u1": np.array(self.u1, dtype=float), "u2": np.array(self.u2, dtype=float),
                  "d1": np.asarray(self.d1), "d2": np.asarray(self.d2)}
        shape = arrays["u1"].shape
        for name, a in arrays.items():
            if a.ndim not in (1, 2):
                raise ValueError(f"{name} must be a 1-D array or a (k, n) block, "
                                 f"got shape {a.shape}")
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape} where u1 has {shape}")
        for name in ("d1", "d2"):
            a = arrays[name]
            bad = ~((a == 0) | (a == 1))
            if bad.any():
                at = np.unravel_index(np.argmax(bad), a.shape)
                at = int(at[0]) if a.ndim == 1 else tuple(map(int, at))
                raise ValueError(
                    f"{name} must hold event indicators 0 or 1; row {at} is {a[at]}")
            arrays[name] = a.astype(np.int8)
        for name, a in arrays.items():
            object.__setattr__(self, name, _read_only(a))
        object.__setattr__(self, "n", shape[-1])
        object.__setattr__(self, "cases", self._split())

    def _split(self) -> tuple:
        case = 2 * (1 - self.d1) + (1 - self.d2)
        counts = np.bincount(case.ravel(), minlength=4).tolist()
        if self.size and self.size in counts:
            return ((counts.index(self.size), None, self.u1, self.u2),)
        k, n = self.k, self.n
        u1, u2 = self.u1.reshape(k, n), self.u2.reshape(k, n)
        cases = []
        for c in range(4):
            if not counts[c]:
                continue
            row, col = np.nonzero(case.reshape(k, n) == c)
            per_row = np.bincount(row, minlength=k)
            slot = np.arange(row.size) - (np.cumsum(per_row) - per_row)[row]
            shape = (k, int(per_row.max()))
            cols, v1, v2 = np.full(shape, n), np.full(shape, 0.5), np.full(shape, 0.5)
            cols[row, slot], v1[row, slot], v2[row, slot] = col, u1[row, col], u2[row, col]
            cases.append((c, *(_read_only(a.reshape(self.u1.shape[:-1] + (-1,)))
                               for a in (cols, v1, v2))))
        return tuple(cases)

    @classmethod
    def _assemble(cls, u1, u2, d1, d2, cases) -> "Observations":
        """An Observations from parts that an existing one validated and
        split, without doing either again."""
        obs = object.__new__(cls)
        for name, a in (("u1", u1), ("u2", u2), ("d1", d1), ("d2", d2)):
            object.__setattr__(obs, name, a)
        object.__setattr__(obs, "n", u1.shape[-1])
        object.__setattr__(obs, "cases", tuple(cases))
        return obs

    @property
    def k(self) -> int:
        return 1 if self.u1.ndim == 1 else self.u1.shape[0]

    @property
    def size(self) -> int:
        return self.u1.size

    def take(self, rows) -> "Observations":
        """The block of this block's ``rows`` (indices, in that order)."""
        rows = np.asarray(rows, dtype=np.intp)
        arrays = [_read_only(a[rows]) for a in (self.u1, self.u2, self.d1, self.d2)]
        cases = [(c, *(a if a is None else _read_only(a[rows]) for a in parts))
                 for c, *parts in self.cases]
        return Observations._assemble(*arrays, cases)

    def row(self, j: int) -> "Observations":
        """Row j of a block as its own sample, equal to
        ``Observations(u1[j], u2[j], d1[j], d2[j])``; a sample's row 0 is
        the sample itself."""
        if self.u1.ndim == 1:
            return self
        arrays = (self.u1[j], self.u2[j], self.d1[j], self.d2[j])
        cases = []
        for c, cols, v1, v2 in self.cases:
            count = self.n if cols is None else int(np.count_nonzero(cols[j] < self.n))
            if count == self.n:
                return Observations._assemble(*arrays, [(c, None, *arrays[:2])])
            if count:
                cases.append((c, cols[j, :count], v1[j, :count], v2[j, :count]))
        return Observations._assemble(*arrays, cases)

    def entries(self) -> "Observations":
        """A sample's n entries as an (n, 1) block, one entry per row, equal
        to ``Observations(u1[:, None], u2[:, None], d1[:, None], d2[:, None])``
        and assembled from this split, so an (n, 1) theta column evaluates
        each entry at its own theta."""
        n = self.n
        arrays = [a[:, None] for a in (self.u1, self.u2, self.d1, self.d2)]
        cases = []
        for c, cols, v1, v2 in self.cases:
            if cols is None:
                cases.append((c, None, *arrays[:2]))
                continue
            # a row outside the case holds one pad, at the spare column 1
            block = np.full((n, 1), 1), np.full((n, 1), 0.5), np.full((n, 1), 0.5)
            for a, v in zip(block, (0, v1, v2)):
                a[cols, 0] = v
            cases.append((c, *map(_read_only, block)))
        return Observations._assemble(*arrays, cases)

    def __eq__(self, other):
        if not isinstance(other, Observations):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in ("u1", "u2", "d1", "d2"))

    __hash__ = None

    def __reduce__(self):
        return Observations, (self.u1, self.u2, self.d1, self.d2)


def _full(a, shape):
    """``a`` if it has ``shape``, else a fresh broadcast copy (a
    theta-only piece)."""
    return a if np.shape(a) == shape else np.broadcast_to(a, shape).copy()


def _by_case(family: Family, theta, obs: Observations, derivs: bool = False):
    """Evaluate each entry's censoring-case piece, once per case present
    in ``obs``. A (k, 1) theta column gives a (k, n) result: over a
    sample, one row per theta; over a (k, n) block, row j at theta j.
    A float theta is evaluated as a (1, 1) column, so every piece sees an
    array theta and a float's row is a column row bit for bit; over a
    sample its result comes back as (n,). Each case's entries are
    scattered back to their row and column of a (k, n + 1) buffer, whose
    spare column takes a block's pads, so sums over the result do not
    depend on the split. With ``derivs``, each piece also gives its two
    theta-derivatives, and (value, d1, d2) stack on a leading axis of
    length 3. The result is always a fresh array: it never shares memory
    with ``obs``."""
    ops = _OPS[family]
    column = np.asarray(theta, dtype=float).reshape(-1, 1)
    block = obs.u1.ndim == 2
    k = obs.k if block else len(column)
    with np.errstate(all="ignore"):
        if obs.cases and obs.cases[0][1] is None:    # one case, every entry
            (case, _, u1, u2), = obs.cases
            out = getattr(ops, _PIECES[case])(column, u1, u2, derivs)
            shape = (k, obs.n)
            out = tuple(_full(a, shape) for a in out) if derivs else _full(out, shape)
        else:
            # entry (j, cols[j, i]) of each case; a block's pads land in the
            # spare column n
            rows = (np.arange(k)[:, None],) if block else ()
            out = np.empty(((3,) if derivs else ()) + (k, obs.n + 1))
            for case, cols, u1, u2 in obs.cases:
                out[(..., *rows, cols)] = getattr(ops, _PIECES[case])(column, u1, u2, derivs)
            out = out[..., :-1]
    if np.ndim(theta) or block:
        return out
    return tuple(a[0] for a in out) if derivs else out[0]


def _floored(out):
    """``out`` with its -inf entries raised to LOG_TINY and its NaN and
    +inf entries set to -inf, in place."""
    if not np.isfinite(out).all():
        out[np.isneginf(out)] = LOG_TINY
        out[~np.isfinite(out)] = -np.inf
    return out


def loglik_vec(family: Family, theta, obs: Observations):
    """Per-observation censored log-likelihood of ``obs``, vectorized over
    the rows and, for a (k, 1) theta column, over the k thetas as a (k, n)
    array.

    A piece that is -inf (its probability underflowed) is raised to
    log(1e-300) so optimization near parameter boundaries stays finite;
    finite pieces are kept as they are, so the score and hessian are the
    derivatives of this function. A NaN or +inf piece becomes -inf, which
    optimizers treat as an invalid point; callers that need every entry
    finite check for themselves.
    """
    return _floored(_by_case(family, theta, obs))


def require_finite(family: Family, theta, score, hessian) -> None:
    """LikelihoodError for the first non-finite entry of ``score``, or
    else of ``hessian``, at theta (a float, or the (k, 1) column of
    their k rows), naming its observation and, for a theta column, its
    row's theta."""
    for what, out in (("score", score), ("hessian", hessian)):
        if not np.isfinite(out).all():
            idx = int(np.argmax(~np.isfinite(out)))
            if out.ndim == 2:
                row, idx = divmod(idx, out.shape[1])
                if np.ndim(theta):      # a float over a block is every row's theta
                    theta = np.ravel(theta)[row]
            raise LikelihoodError(f"non-finite {what} for {family.value} at theta={theta}",
                                  index=idx)


def dlog_vec(family: Family, theta, obs: Observations):
    """Per-observation log-likelihood, score and hessian of ``obs``, each
    shaped as ``loglik_vec``'s result, from one pass that evaluates each
    censoring case's piece once for all three. The log-likelihood is
    ``loglik_vec``'s bit for bit, and the score and hessian are its first
    and second theta-derivatives, returned unchecked: the caller checks
    the rows it reads with ``require_finite``."""
    loglik, score, hessian = _by_case(family, theta, obs, derivs=True)
    return _floored(loglik), score, hessian


def score_vec(family: Family, theta, obs: Observations):
    return dlog_vec(family, theta, obs)[1]


def hessian_vec(family: Family, theta, obs: Observations):
    return dlog_vec(family, theta, obs)[2]


def theta_to_tau(family: Family, theta: float) -> float:
    ops = _OPS[family]
    if not ops.in_domain(theta):
        raise ValueError(f"theta={theta} outside the {family.value} domain")
    return float(ops.theta_to_tau(theta))


def tau_to_theta(family: Family, tau: float) -> float:
    ops = _OPS[family]
    lo, hi = ops.tau_domain
    # independence, tau = 0, is refused for every family; only a tau range
    # straddling zero (the Gaussian's) needs the explicit check
    if not (lo < tau < hi) or tau == 0.0:
        raise ValueError(f"tau={tau} outside the admissible range for {family.value}")
    return float(ops.tau_to_theta(tau))


def sample_pairs(m: CopulaModel, gen, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs by the conditional-distribution method.

    Each generator consumes exactly two uniform blocks of length n (u1,
    then w), so the draw sequence is reproducible. ``gen`` is one
    Generator, giving two arrays of length n, or a sequence of k of them,
    giving two (k, n) blocks whose row j is what generator j alone gives.
    One ``inv_conditional`` call covers the whole block.
    """
    single = isinstance(gen, np.random.Generator)
    draws = np.array([(g.random(n), g.random(n)) for g in ([gen] if single else gen)])
    u1, w = draws[:, 0], draws[:, 1]
    if single:
        u1, w = u1[0], w[0]
    # keep conditioning values away from exact 0/1
    u1 = np.clip(u1, 1e-12, 1.0 - 1e-12)
    w = np.clip(w, 1e-12, 1.0 - 1e-12)
    u2 = _OPS[m.family].inv_conditional(m.theta, u1, w)
    return u1, np.clip(u2, 1e-12, 1.0 - 1e-12)


# parameter transforms used by the fitting routines: each family's open
# domain maps to the whole real line so 1-D search needs no constraints.
# A half-infinite domain (lo, inf) takes log(theta - lo); the one bounded
# domain, (-1, 1), takes atanh. Each takes a float or an array.
def to_unconstrained(family: Family, theta):
    lo, hi = _OPS[family].domain
    return np.log(theta - lo) if hi == math.inf else np.arctanh(theta)


def from_unconstrained(family: Family, x):
    lo, hi = _OPS[family].domain
    return lo + np.exp(x) if hi == math.inf else np.tanh(x)


def unconstrained_derivs(family: Family, theta):
    """d theta/dx and d^2 theta/dx^2 of ``from_unconstrained`` at theta."""
    lo, hi = _OPS[family].domain
    if hi == math.inf:
        return theta - lo, theta - lo
    d = 1.0 - theta * theta
    return d, -2.0 * theta * d
