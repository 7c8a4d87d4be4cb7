"""Five bivariate copula families with censored-likelihood machinery.

The censored log-likelihood of one observation (u1, u2, d1, d2) selects a
single piece: the copula density for a doubly observed pair, a partial
derivative when exactly one margin is censored, and the copula function
itself when both are censored. Only the formulas differ by family.
The split into these four cases belongs to the sample: an
``Observations`` validates (u1, u2, d1, d2) and gathers each case's rows
once, when it is built, and a fit reuses it for every evaluation. Then
``loglik_vec`` evaluates each case's piece over its rows, and ``dlog_vec``
each case's derivative piece, once for both the score and the hessian;
each scatters the cases back in row order. A sample with a single case
(any uncensored one) is evaluated whole, with no gather or scatter.

A family class declares its math and nothing else:

- ``domain``, the open interval of theta, and ``tau_domain`` where
  Kendall's tau may be negative (the default is (0, 1));
- the log pieces ``log_pdf``, ``log_c1`` (the u1-partial) and
  ``log_cdf``, and their analytic first and second theta-derivatives
  ``dlog_*`` as (d1, d2) pairs;
- the tau bijection ``theta_to_tau``/``tau_to_theta``, and a closed-form
  ``inv_conditional`` sampler where one exists.

The base ``_Family`` derives the rest: ``in_domain`` as lo < theta < hi;
the u2-partial ``log_c2``/``dlog_c2`` as the u1-partial with (u1, u2)
swapped, since every family here is exchangeable; and a bisection
``inv_conditional``. The module functions derive the unconstrained
search scale of ``fit_pmle`` from ``domain`` alone.

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
_ew = numerics.elementwise


def _pow(x, p):
    """x ** p for a theta-only base (see ``numerics.elementwise``)."""
    return _ew(pow, x, p)


def _apow(base, p):
    """base ** p for an array base and a theta-valued exponent p, a float
    or a (k, 1) column.

    numpy computes an array to the float power -1, 0.5 or 2 as a
    reciprocal, square root or square, but a column holding that value
    only sometimes (it depends on the array sizes); such rows are redone
    with the float so that each row equals base ** p_j bit for bit.
    """
    out = base ** p
    if isinstance(p, np.ndarray) and p.ndim:
        flat = p.ravel()
        for j in np.flatnonzero(np.isin(flat, (-1.0, 0.5, 2.0))):
            out[j] = (base if base.ndim < 2 else base[j]) ** float(flat[j])
    return out


class CopulaError(Exception):
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
        return lo < theta < hi

    # every family is exchangeable, C(u1, u2) = C(u2, u1), so the
    # u2-partial is the u1-partial with its arguments swapped
    @classmethod
    def log_c2(cls, theta, u1, u2):
        return cls.log_c1(theta, u2, u1)

    @classmethod
    def dlog_c2(cls, theta, u1, u2):
        return cls.dlog_c1(theta, u2, u1)

    @classmethod
    def inv_conditional(cls, theta, u1, w):
        """Vectorized bisection inverse of u2 -> c1(u1, u2) at level w."""
        u1 = np.asarray(u1, dtype=float)
        w = np.asarray(w, dtype=float)
        lo = np.full_like(w, 1e-12)
        hi = np.full_like(w, 1.0 - 1e-12)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f = np.exp(cls.log_c1(theta, u1, mid))
            above = f >= w
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        return 0.5 * (lo + hi)


class _Clayton(_Family):
    domain = (0.0, math.inf)

    @staticmethod
    def _core(theta, u1, u2):
        t1 = _apow(u1, -theta)
        t2 = _apow(u2, -theta)
        s = t1 + t2 - 1.0
        return t1, t2, s, np.log(s)

    @classmethod
    def log_cdf(cls, theta, u1, u2):
        _, _, _, psi = cls._core(theta, u1, u2)
        return -psi / theta

    @classmethod
    def log_c1(cls, theta, u1, u2):
        _, _, _, psi = cls._core(theta, u1, u2)
        return -(1.0 + theta) * np.log(u1) - (1.0 / theta + 1.0) * psi

    @classmethod
    def log_pdf(cls, theta, u1, u2):
        _, _, _, psi = cls._core(theta, u1, u2)
        return (_ew(math.log1p, theta) - (1.0 + theta) * (np.log(u1) + np.log(u2))
                - (1.0 / theta + 2.0) * psi)

    @classmethod
    def _psi_derivs(cls, theta, u1, u2):
        lu1, lu2 = np.log(u1), np.log(u2)
        t1, t2, s, psi = cls._core(theta, u1, u2)
        a = t1 * lu1 + t2 * lu2
        b = t1 * lu1 ** 2 + t2 * lu2 ** 2
        psi_t = -a / s
        psi_tt = b / s - (a / s) ** 2
        return lu1, lu2, psi, psi_t, psi_tt

    @classmethod
    def dlog_cdf(cls, theta, u1, u2):
        _, _, psi, psi_t, psi_tt = cls._psi_derivs(theta, u1, u2)
        t2, t3 = _pow(theta, 2), _pow(theta, 3)
        d1 = -psi_t / theta + psi / t2
        d2 = -psi_tt / theta + 2.0 * psi_t / t2 - 2.0 * psi / t3
        return d1, d2

    @classmethod
    def dlog_c1(cls, theta, u1, u2):
        lu1, _, psi, psi_t, psi_tt = cls._psi_derivs(theta, u1, u2)
        t2, t3 = _pow(theta, 2), _pow(theta, 3)
        d1 = -lu1 + psi / t2 - (1.0 / theta + 1.0) * psi_t
        d2 = (-2.0 * psi / t3 + 2.0 * psi_t / t2
              - (1.0 / theta + 1.0) * psi_tt)
        return d1, d2

    @classmethod
    def dlog_pdf(cls, theta, u1, u2):
        lu1, lu2, psi, psi_t, psi_tt = cls._psi_derivs(theta, u1, u2)
        t2, t3 = _pow(theta, 2), _pow(theta, 3)
        d1 = (1.0 / (1.0 + theta) - lu1 - lu2 + psi / t2
              - (1.0 / theta + 2.0) * psi_t)
        d2 = (-1.0 / _pow(1.0 + theta, 2) + 2.0 * psi_t / t2
              - 2.0 * psi / t3 - (1.0 / theta + 2.0) * psi_tt)
        return d1, d2

    @staticmethod
    def theta_to_tau(theta):
        return theta / (theta + 2.0)

    @staticmethod
    def tau_to_theta(tau):
        return 2.0 * tau / (1.0 - tau)

    @staticmethod
    def inv_conditional(theta, u1, w):
        # closed-form inverse of c1(u1, .) at level w
        t1 = u1 ** -theta
        return (1.0 + t1 * (w ** (-theta / (1.0 + theta)) - 1.0)) ** (-1.0 / theta)


class _Frank(_Family):
    # positive-dependence branch only
    domain = (0.0, math.inf)

    @staticmethod
    def _core(theta, u1, u2):
        g = -_ew(math.expm1, -theta)     # 1 - e^{-theta}
        g1 = -np.expm1(-theta * u1)
        g2 = -np.expm1(-theta * u2)
        zeta = g1 * g2 / g
        # 1 - zeta cancels as zeta -> 1 (u1, u2 -> 1 at large theta); there
        # it is taken from g (1 - zeta) = e2 g1 + e^{-theta} expm1(theta (1 - u1)),
        # a sum of positive terms
        omz = np.where(zeta < 0.5, 1.0 - zeta,
                       (np.exp(-theta * u2) * g1
                        + _ew(math.exp, -theta) * np.expm1(theta * (1.0 - u1))) / g)
        return g, g1, g2, zeta, omz

    @staticmethod
    def _log_omz(zeta, omz):
        """log(1 - zeta), relatively accurate also where zeta is tiny (the
        lower-left corner, or small theta), as the log of C needs."""
        return np.where(zeta < 0.5, np.log1p(-np.minimum(zeta, 0.5)), np.log(omz))

    @classmethod
    def log_cdf(cls, theta, u1, u2):
        _, _, _, zeta, omz = cls._core(theta, u1, u2)
        return np.log(-cls._log_omz(zeta, omz) / theta)

    @classmethod
    def log_c1(cls, theta, u1, u2):
        g, _, g2, _, omz = cls._core(theta, u1, u2)
        return -theta * u1 + np.log(g2) - _ew(math.log, g) - np.log(omz)

    @classmethod
    def log_pdf(cls, theta, u1, u2):
        g, _, _, _, omz = cls._core(theta, u1, u2)
        return (_ew(math.log, theta) - theta * (u1 + u2) - _ew(math.log, g)
                - 2.0 * np.log(omz))

    @classmethod
    def _zeta_derivs(cls, theta, u1, u2):
        g, g1, g2, zeta, omz = cls._core(theta, u1, u2)
        e1 = np.exp(-theta * u1)
        e2 = np.exp(-theta * u2)
        em = _ew(math.exp, -theta)
        em_g2 = em / _pow(g, 2)
        lz_t = u1 * e1 / g1 + u2 * e2 / g2 - em / g
        lz_tt = -(u1 ** 2) * e1 / g1 ** 2 - (u2 ** 2) * e2 / g2 ** 2 + em_g2
        z_t = zeta * lz_t
        z_tt = zeta * (lz_tt + lz_t ** 2)
        return g, e1, e2, em, em_g2, zeta, omz, z_t, z_tt

    @classmethod
    def dlog_cdf(cls, theta, u1, u2):
        _, _, _, _, _, zeta, omz, z_t, z_tt = cls._zeta_derivs(theta, u1, u2)
        t2 = _pow(theta, 2)
        logomz = cls._log_omz(zeta, omz)
        c = -logomz / theta
        c_t = logomz / t2 + z_t / (theta * omz)
        c_tt = (-2.0 * logomz / _pow(theta, 3) - 2.0 * z_t / (t2 * omz)
                + z_tt / (theta * omz) + z_t ** 2 / (theta * omz ** 2))
        return c_t / c, c_tt / c - (c_t / c) ** 2

    @classmethod
    def dlog_c1(cls, theta, u1, u2):
        g, _, e2, em, em_g2, _, omz, z_t, z_tt = cls._zeta_derivs(theta, u1, u2)
        g2 = -np.expm1(-theta * u2)
        d1 = z_t / omz - u1 + u2 * e2 / g2 - em / g
        d2 = z_tt / omz + z_t ** 2 / omz ** 2 - (u2 ** 2) * e2 / g2 ** 2 + em_g2
        return d1, d2

    @classmethod
    def dlog_pdf(cls, theta, u1, u2):
        g, _, _, em, em_g2, _, omz, z_t, z_tt = cls._zeta_derivs(theta, u1, u2)
        d1 = 2.0 * z_t / omz + 1.0 / theta - u1 - u2 - em / g
        d2 = (2.0 * z_tt / omz + 2.0 * z_t ** 2 / omz ** 2 - 1.0 / _pow(theta, 2)
              + em_g2)
        return d1, d2

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

    @classmethod
    def log_cdf(cls, theta, u1, u2):
        _, _, _, _, gamma = cls._core(theta, u1, u2)
        return np.log1p(-np.exp(np.log(gamma) / theta))

    @classmethod
    def log_c1(cls, theta, u1, u2):
        v1, _, _, a2, gamma = cls._core(theta, u1, u2)
        return ((1.0 / theta - 1.0) * np.log(gamma) + np.log1p(-a2)
                + (theta - 1.0) * np.log(v1))

    @classmethod
    def log_pdf(cls, theta, u1, u2):
        v1, v2, a1, a2, gamma = cls._core(theta, u1, u2)
        k = theta * gamma + (theta - 1.0) * (1.0 - a1) * (1.0 - a2)
        return ((1.0 / theta - 2.0) * np.log(gamma)
                + (theta - 1.0) * (np.log(v1) + np.log(v2)) + np.log(k))

    @classmethod
    def _gamma_derivs(cls, theta, u1, u2):
        v1, v2, a1, a2, gamma = cls._core(theta, u1, u2)
        l1, l2 = np.log(v1), np.log(v2)
        g_t = a1 * l1 + a2 * l2 - a1 * a2 * (l1 + l2)
        g_tt = a1 * l1 ** 2 + a2 * l2 ** 2 - a1 * a2 * (l1 + l2) ** 2
        return v1, v2, a1, a2, l1, l2, gamma, g_t, g_tt

    @classmethod
    def dlog_cdf(cls, theta, u1, u2):
        _, _, _, _, _, _, gamma, g_t, g_tt = cls._gamma_derivs(theta, u1, u2)
        lg = np.log(gamma)
        t2 = _pow(theta, 2)
        g1 = np.exp(lg / theta)                       # Gamma^{1/theta}
        g1_t = g1 * (-lg / t2 + g_t / (theta * gamma))
        g1_tt = (2.0 * g1 * lg / _pow(theta, 3)
                 - (g1_t * lg + 2.0 * g1 / gamma * g_t) / t2
                 + (g_tt * g1 / gamma + g_t * g1_t / gamma
                    - g_t ** 2 * g1 / gamma ** 2) / theta)
        omg = 1.0 - g1
        return -g1_t / omg, -g1_tt / omg - (g1_t / omg) ** 2

    @classmethod
    def dlog_c1(cls, theta, u1, u2):
        _, _, _, a2, l1, l2, gamma, g_t, g_tt = cls._gamma_derivs(theta, u1, u2)
        lg = np.log(gamma)
        t2 = _pow(theta, 2)
        d1 = -lg / t2 + (1.0 / theta - 1.0) * g_t / gamma - a2 * l2 / (1.0 - a2) + l1
        d2 = (2.0 * lg / _pow(theta, 3) - 2.0 * g_t / (gamma * t2)
              + (1.0 / theta - 1.0) * (g_tt / gamma - (g_t / gamma) ** 2)
              - a2 * l2 ** 2 / (1.0 - a2) ** 2)
        return d1, d2

    @classmethod
    def dlog_pdf(cls, theta, u1, u2):
        _, _, a1, a2, l1, l2, gamma, g_t, g_tt = cls._gamma_derivs(theta, u1, u2)
        lg = np.log(gamma)
        p = (1.0 - a1) * (1.0 - a2)
        p_t = -a1 * l1 * (1.0 - a2) - a2 * l2 * (1.0 - a1)
        p_tt = (-a1 * l1 ** 2 * (1.0 - a2) - a2 * l2 ** 2 * (1.0 - a1)
                + 2.0 * a1 * a2 * l1 * l2)
        k = theta * gamma + (theta - 1.0) * p
        k_t = gamma + theta * g_t + p + (theta - 1.0) * p_t
        k_tt = 2.0 * g_t + theta * g_tt + 2.0 * p_t + (theta - 1.0) * p_tt
        t2 = _pow(theta, 2)
        d1 = -lg / t2 + (1.0 / theta - 2.0) * g_t / gamma + l1 + l2 + k_t / k
        d2 = (2.0 * lg / _pow(theta, 3) - 2.0 * g_t / (gamma * t2)
              + (1.0 / theta - 2.0) * (g_tt / gamma - (g_t / gamma) ** 2)
              + k_tt / k - (k_t / k) ** 2)
        return d1, d2

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


class _Gaussian(_Family):
    domain = (-1.0, 1.0)
    tau_domain = (-1.0, 1.0)

    @staticmethod
    def _z(u1, u2):
        return _special.ndtri(u1), _special.ndtri(u2)

    @classmethod
    def log_cdf(cls, theta, u1, u2):
        return numerics.binorm_logcdf(*cls._z(u1, u2), theta)

    @classmethod
    def log_c1(cls, theta, u1, u2):
        z1, z2 = cls._z(u1, u2)
        s = _ew(math.sqrt, 1.0 - theta * theta)
        return _special.log_ndtr((z2 - theta * z1) / s)

    @classmethod
    def log_pdf(cls, theta, u1, u2):
        z1, z2 = cls._z(u1, u2)
        s2 = 1.0 - theta * theta
        return (-0.5 * _ew(math.log, s2)
                - (np.square(z1) + np.square(z2) - 2.0 * theta * z1 * z2) / (2.0 * s2)
                + 0.5 * (np.square(z1) + np.square(z2)))

    @classmethod
    def _phi2_tilde(cls, theta, z1, z2):
        s2 = 1.0 - theta * theta
        t2, s2_2 = _pow(theta, 2), _pow(s2, 2)
        zz = z1 * z2
        zsq = np.square(z1) + np.square(z2)
        d1 = (theta * s2 - theta * zsq + (1.0 + t2) * zz) / s2_2
        d2 = ((1.0 + t2) / s2_2
              + ((6.0 * theta + 2.0 * _pow(theta, 3)) * zz - (1.0 + 3.0 * t2) * zsq)
              / _pow(s2, 3))
        return d1, d2

    @classmethod
    def dlog_cdf(cls, theta, u1, u2):
        z1, z2 = cls._z(u1, u2)
        s2 = 1.0 - theta * theta
        log_pdf2 = (-(np.square(z1) + np.square(z2) - 2.0 * theta * z1 * z2) / (2.0 * s2)
                    - _ew(math.log, 2.0 * math.pi * _ew(math.sqrt, s2)))
        # Plackett: dC/dtheta = phi2; phi2/Phi2 in log space, where both underflow
        ratio = np.exp(log_pdf2 - numerics.binorm_logcdf(z1, z2, theta))
        lt, _ = cls._phi2_tilde(theta, z1, z2)
        return ratio, ratio * (lt - ratio)

    @classmethod
    def dlog_c1(cls, theta, u1, u2):
        z1, z2 = cls._z(u1, u2)
        s2 = 1.0 - theta * theta
        s = _ew(math.sqrt, s2)
        s2_15 = _pow(s2, 1.5)
        a = (z2 - theta * z1) / s
        a_t = (theta * z2 - z1) / s2_15
        a_tt = z2 / s2_15 + (theta * z2 - z1) * 3.0 * theta / _pow(s2, 2.5)
        # phi(a)/Phi(a), computed in log space for deep-tail stability
        r = np.exp(-0.5 * np.square(a) - math.log(_SQRT2PI) - _special.log_ndtr(a))
        d1 = r * a_t
        d2 = r * (a_tt - a * a_t ** 2) - d1 ** 2
        return d1, d2

    @classmethod
    def dlog_pdf(cls, theta, u1, u2):
        z1, z2 = cls._z(u1, u2)
        return cls._phi2_tilde(theta, z1, z2)

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

    @classmethod
    def log_cdf(cls, theta, u1, u2):
        return -cls._core(theta, u1, u2)[5]

    @classmethod
    def log_c1(cls, theta, u1, u2):
        x1, _, _, _, a, a1 = cls._core(theta, u1, u2)
        return -a1 + (1.0 / theta - 1.0) * np.log(a) + (theta - 1.0) * np.log(x1) + x1

    @classmethod
    def log_pdf(cls, theta, u1, u2):
        x1, x2, _, _, a, a1 = cls._core(theta, u1, u2)
        return (-a1 + (theta - 1.0) * (np.log(x1) + np.log(x2)) + x1 + x2
                + (1.0 / theta - 2.0) * np.log(a) + np.log(a1 + theta - 1.0))

    @classmethod
    def _a_derivs(cls, theta, u1, u2):
        """A = x1^theta + x2^theta and A1 = A^(1/theta) with theta-derivatives
        m = (log A)', m_t = m', q = (log A1)' and q_t = q'."""
        x1, x2, p1, p2, a, a1 = cls._core(theta, u1, u2)
        l1, l2 = np.log(x1), np.log(x2)
        w1, w2 = p1 / a, p2 / a
        m = w1 * l1 + w2 * l2
        # A''/A - m^2, written without its cancellation
        m_t = w1 * w2 * (l1 - l2) ** 2
        q = (m - np.log(a) / theta) / theta
        q_t = (m_t - 2.0 * q) / theta
        return l1, l2, a1, m, m_t, q, q_t

    @classmethod
    def dlog_cdf(cls, theta, u1, u2):
        _, _, a1, _, _, q, q_t = cls._a_derivs(theta, u1, u2)
        return -a1 * q, -a1 * (q_t + q ** 2)

    @classmethod
    def dlog_c1(cls, theta, u1, u2):
        l1, _, a1, m, m_t, q, q_t = cls._a_derivs(theta, u1, u2)
        return -a1 * q + q - m + l1, -a1 * (q_t + q ** 2) + q_t - m_t

    @classmethod
    def dlog_pdf(cls, theta, u1, u2):
        l1, l2, a1, m, m_t, q, q_t = cls._a_derivs(theta, u1, u2)
        k = a1 + theta - 1.0
        k_t = a1 * q + 1.0
        k_tt = a1 * (q_t + q ** 2)
        d1 = -a1 * q + l1 + l2 + q - 2.0 * m + k_t / k
        d2 = -k_tt + q_t - 2.0 * m_t + k_tt / k - (k_t / k) ** 2
        return d1, d2

    @staticmethod
    def theta_to_tau(theta):
        return 1.0 - 1.0 / theta

    @staticmethod
    def tau_to_theta(tau):
        return 1.0 / (1.0 - tau)


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
_DPIECES = ("dlog_pdf", "dlog_c1", "dlog_c2", "dlog_cdf")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Observations:
    """A pseudo-sample (u1, u2, d1, d2), split once into its censoring
    cases for the likelihood kernels.

    Validated on construction: four 1-D arrays of equal length, with
    event indicators 0 or 1; anything else raises ValueError naming the
    argument. The arrays are read-only copies: float u1, u2 and int8 d1,
    d2. ``n`` (and ``size``, as for an array) is the number of rows.
    A pickled sample is rebuilt from its four arrays, so it is validated,
    split and read-only again on the other side.

    ``cases`` holds one (case, rows, u1 rows, u2 rows) entry per
    censoring case present, in case order, where ``case`` indexes
    ``_PIECES``. When one case covers every row, its entry holds the
    whole arrays and ``rows`` is None, so the kernels neither gather nor
    scatter.
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
        n = arrays["u1"].size
        for name, a in arrays.items():
            if a.ndim != 1:
                raise ValueError(f"{name} must be a 1-D array, got shape {a.shape}")
            if a.size != n:
                raise ValueError(f"{name} has {a.size} rows where u1 has {n}")
        for name in ("d1", "d2"):
            a = arrays[name]
            bad = ~((a == 0) | (a == 1))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"{name} must hold event indicators 0 or 1; row {i} is {a[i]}")
            arrays[name] = a.astype(np.int8)
        for name, a in arrays.items():
            object.__setattr__(self, name, _read_only(a))
        object.__setattr__(self, "n", n)
        case = 2 * (1 - self.d1) + (1 - self.d2)
        counts = np.bincount(case, minlength=4).tolist()
        if n and n in counts:
            cases = [(counts.index(n), None, self.u1, self.u2)]
        else:
            cases = []
            for c in range(4):
                if counts[c]:
                    rows = _read_only(np.flatnonzero(case == c))
                    cases.append((c, rows, _read_only(self.u1[rows]),
                                  _read_only(self.u2[rows])))
        object.__setattr__(self, "cases", tuple(cases))

    @property
    def size(self) -> int:
        return self.n

    def __reduce__(self):
        return Observations, (self.u1, self.u2, self.d1, self.d2)


def _full(a, shape):
    """``a`` if it has ``shape``, else a fresh broadcast copy (a
    theta-only piece)."""
    return a if np.shape(a) == shape else np.broadcast_to(a, shape).copy()


def _by_case(family: Family, pieces, theta, obs: Observations):
    """Evaluate each row's censoring-case piece from ``pieces``, once per
    case present in ``obs``. A (k, 1) theta column gives a (k, n) result,
    one row per theta. Each case's rows are scattered back in row order,
    so sums over the result do not depend on the split. The (d1, d2)
    pairs of the derivative pieces stack on a leading axis of length 2.
    The result is always a fresh array: it never shares memory with
    ``obs``."""
    ops = _OPS[family]
    shape = np.shape(theta)[:1] + (obs.n,)
    derivs = pieces is _DPIECES
    with np.errstate(all="ignore"):
        if obs.cases and obs.cases[0][1] is None:    # one case, every row
            (case, _, u1, u2), = obs.cases
            out = getattr(ops, pieces[case])(theta, u1, u2)
            return tuple(_full(a, shape) for a in out) if derivs else _full(out, shape)
        out = np.empty(((2,) if derivs else ()) + shape, dtype=float)
        for case, rows, u1, u2 in obs.cases:
            out[..., rows] = getattr(ops, pieces[case])(theta, u1, u2)
    return out


def _nonfinite_error(what: str, family: Family, theta, out) -> LikelihoodError:
    """The error for the first non-finite entry of ``out``, naming its
    observation and, for a theta column, its row's theta."""
    idx = int(np.argmax(~np.isfinite(out)))
    if out.ndim == 2:
        row, idx = divmod(idx, out.shape[1])
        theta = np.ravel(theta)[row]
    return LikelihoodError(f"non-finite {what} for {family.value} at theta={theta}",
                           index=idx)


def loglik_vec(family: Family, theta, obs: Observations, strict: bool = True):
    """Per-observation censored log-likelihood of ``obs``, vectorized over
    the rows and, for a (k, 1) theta column, over the k thetas as a (k, n)
    array.

    A piece that is -inf (its probability underflowed) is raised to
    log(1e-300) so optimization near parameter boundaries stays finite;
    finite pieces are kept as they are, so the score and hessian are the
    derivatives of this function. NaNs raise LikelihoodError when strict,
    otherwise map to -inf (optimizers treat the point as invalid).
    """
    out = _by_case(family, _PIECES, theta, obs)
    if not np.isfinite(out).all():
        neginf = np.isneginf(out)
        out[neginf] = LOG_TINY
        still_bad = ~np.isfinite(out)
        if still_bad.any():
            if strict:
                raise _nonfinite_error("log-likelihood", family, theta, out)
            out[still_bad] = -np.inf
    return out


def dlog_vec(family: Family, theta, obs: Observations):
    """Per-observation score and hessian of ``obs``, the first and second
    theta-derivatives of ``loglik_vec``, each shaped as its result. One
    pass evaluates each censoring case's derivative piece once for both;
    a non-finite entry in either raises LikelihoodError."""
    score, hessian = _by_case(family, _DPIECES, theta, obs)
    for what, out in (("score", score), ("hessian", hessian)):
        if not np.isfinite(out).all():
            raise _nonfinite_error(what, family, theta, out)
    return score, hessian


def score_vec(family: Family, theta, obs: Observations):
    return dlog_vec(family, theta, obs)[0]


def hessian_vec(family: Family, theta, obs: Observations):
    return dlog_vec(family, theta, obs)[1]


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
    return _ew(math.log, theta - lo) if hi == math.inf else _ew(math.atanh, theta)


def from_unconstrained(family: Family, x):
    lo, hi = _OPS[family].domain
    return lo + _ew(math.exp, x) if hi == math.inf else _ew(math.tanh, x)


def unconstrained_derivs(family: Family, theta):
    """d theta/dx and d^2 theta/dx^2 of ``from_unconstrained`` at theta."""
    lo, hi = _OPS[family].domain
    if hi == math.inf:
        return theta - lo, theta - lo
    d = 1.0 - theta * theta
    return d, -2.0 * theta * d
