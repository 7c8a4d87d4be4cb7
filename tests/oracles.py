"""Reference implementations that the tests compare the library against.
No library path calls them."""

import math

import numpy as np


def binorm_pdf(z1, z2, rho: float):
    """Standard bivariate normal density with correlation rho."""
    if not abs(rho) < 1:
        raise ValueError(f"binorm_pdf requires |rho| < 1, got {rho}")
    s2 = 1.0 - rho * rho
    q = (np.square(z1) + np.square(z2) - 2.0 * rho * np.asarray(z1) * np.asarray(z2)) / (2.0 * s2)
    return np.exp(-q) / (2.0 * math.pi * math.sqrt(s2))
