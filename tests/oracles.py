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


def kendall_tau(x, y) -> float:
    """Kendall tau-a as the O(n^2) sum of the pairs' sign products, in
    blocks of 512 rows so n = 10^4 stays memory-safe. The signs come from
    comparisons, so equal infinities tie."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    total = 0
    block = 512
    for i0 in range(0, n, block):
        xi = x[i0:i0 + block, None]
        yi = y[i0:i0 + block, None]
        # pairs (i, j) with j > i only
        for j0 in range(i0, n, block):
            xj = x[j0:j0 + block][None, :]
            yj = y[j0:j0 + block][None, :]
            s = ((xi > xj).astype(int) - (xi < xj)) * ((yi > yj).astype(int) - (yi < yj))
            if j0 == i0:
                s = np.triu(s, k=1)
            total += int(s.sum())
    return float(total) / (n * (n - 1) / 2.0)


def inverse_by_search(curve, u):
    """``StepSurvival.inverse`` as one binary search of every level."""
    u = np.asarray(u, dtype=float)
    jt = curve.jump_times
    if jt.size == 0:
        out = np.full(u.shape, np.inf)
    else:
        idx = np.searchsorted(-curve.values, -u, side="left")
        out = jt[np.minimum(idx, jt.size - 1)]
    return np.where(u >= 1.0, 0.0, out)
