"""The censored samples that the tests draw. A sample is fixed by its
arguments, so every test that names one reads the same arrays."""

import numpy as np

from copgof import copulas
from copgof.copulas import CopulaModel
from copgof.survival import CensoredSample


def censored_sample(family, tau, n, seed, censoring_mean=None) -> CensoredSample:
    """n pairs of unit-exponential event times coupled by ``family`` at
    Kendall's ``tau``, both times of a pair censored by one exponential
    time of mean ``censoring_mean`` (none when it is None). One generator,
    ``default_rng(seed)``, draws the copula pairs first and then the
    censoring times."""
    gen = np.random.default_rng(seed)
    model = CopulaModel(family, copulas.tau_to_theta(family, tau))
    u1, u2 = copulas.sample_pairs(model, gen, n)
    t1, t2 = -np.log(u1), -np.log(u2)
    c = np.full(n, np.inf) if censoring_mean is None else gen.exponential(censoring_mean, n)
    return CensoredSample(np.minimum(t1, c), np.minimum(t2, c), t1 <= c, t2 <= c)
