"""Polynomial roots: Aberth-Ehrlich for all complex roots, and clustering
of near-coincident ones."""

import math

import numpy as np


def aberth_roots(coeffs):
    """All complex roots of a polynomial, descending coefficients.

    Simultaneous Aberth-Ehrlich iteration followed by a Newton polish of
    each root.  Degree is expected to be small (dozens at most).
    """
    c = np.asarray(coeffs, dtype=complex)
    c = np.trim_zeros(c, "f")
    if c.size < 2:
        return np.array([], dtype=complex)
    c = c / c[0]
    deg = c.size - 1
    dc = c[:-1] * np.arange(deg, 0, -1)

    # Cauchy bound, slightly perturbed start angles to break symmetry
    R = 1.0 + float(np.max(np.abs(c[1:])))
    ang = 2 * math.pi * (np.arange(deg) + 0.25) / deg + 0.17
    z = R ** (np.arange(deg) % 2 * 0.5 + 0.5) * np.exp(1j * ang)

    for _ in range(200):
        p = np.polyval(c, z)
        dp = np.polyval(dc, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dp != 0, p / dp, 0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * s
        step = np.where(denom != 0, newton / denom, newton)
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, np.max(np.abs(z))):
            break
    # Newton polish
    for _ in range(4):
        p = np.polyval(c, z)
        dp = np.polyval(dc, z)
        mask = np.abs(dp) > 0
        z[mask] = z[mask] - p[mask] / dp[mask]
    return z


def cluster_roots(roots):
    """Group roots within 1e-7 of each other into (value, multiplicity) pairs."""
    out = []
    used = np.zeros(len(roots), dtype=bool)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        close = np.abs(roots - r) < 1e-7
        close &= ~used
        members = roots[close]
        used |= close
        out.append((complex(np.mean(members)), int(len(members))))
    return out
