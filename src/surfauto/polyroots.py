"""Polynomial roots: Aberth-Ehrlich for all complex roots, and clustering
of near-coincident ones."""

import cmath
import math


def _horner(c, z):
    y = 0j
    for v in c:
        y = y * z + v
    return y


def aberth_roots(coeffs):
    """All complex roots of a polynomial, descending coefficients, as a list.

    Simultaneous Aberth-Ehrlich iteration (every root steps from the same
    previous estimates) followed by a Newton polish of each root.  Degree
    is expected to be small (dozens at most).
    """
    c = [complex(v) for v in coeffs]
    while c and c[0] == 0:
        del c[0]
    if len(c) < 2:
        return []
    c = [v / c[0] for v in c]
    deg = len(c) - 1
    dc = [v * (deg - i) for i, v in enumerate(c[:-1])]

    # Cauchy bound, slightly perturbed start angles to break symmetry
    R = 1.0 + max(abs(v) for v in c[1:])
    z = [R ** (i % 2 * 0.5 + 0.5) * cmath.exp(1j * (2 * math.pi * (i + 0.25) / deg + 0.17))
         for i in range(deg)]

    def newton(zi):
        dp = _horner(dc, zi)
        return _horner(c, zi) / dp if dp != 0 else 0

    for _ in range(200):
        steps = []
        for i, zi in enumerate(z):
            nw = newton(zi)
            denom = 1 - nw * sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
            steps.append(nw / denom if denom != 0 else nw)
        z = [zi - s for zi, s in zip(z, steps)]
        if max(map(abs, steps)) < 1e-14 * max(1.0, max(map(abs, z))):
            break
    # Newton polish
    for _ in range(4):
        z = [zi - newton(zi) for zi in z]
    return z


def cluster_roots(roots):
    """Group roots within 1e-7 of each other into (value, multiplicity) pairs."""
    out = []
    left = list(roots)
    while left:
        r, rest = left[0], left[1:]
        members = [r] + [z for z in rest if abs(z - r) < 1e-7]
        left = [z for z in rest if not abs(z - r) < 1e-7]
        out.append((sum(members) / len(members), len(members)))
    return out
