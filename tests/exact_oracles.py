"""Test oracles for the complement T of the invariant span, and the dense
view of a class.

:func:`project` is the orthogonal projection onto T = S-perp: it solves
the S Gram system with the pairings of v by the LDL^T factor of the S
Gram (:func:`ldl_solve`) and subtracts the S-component.  From it
:func:`projected_t` builds the gammas, their Gram and the action of f_* on
T, the reference for :class:`surfauto.picard.TSpace`, which reads T from
the integer auxiliary classes and projects nothing.
"""

from fractions import Fraction
from operator import mul

from surfauto import exactmat as xm
from surfauto.picard import PicardLattice, pushforward_columns


def dense(lat, col):
    """The dense vector of a class of lat given as a column."""
    v = [0] * lat.dim
    for i, a in col:
        v[i] = a
    return v


def ldl_solve(factor, b):
    """The exact solution x of A x = b for the xm.LDL factor of A, as
    Fractions; ZeroDivisionError when the factor stopped at a zero pivot."""
    if not factor.complete:
        raise ZeroDivisionError("singular matrix")
    x = [Fraction(v) for v in b]
    for j, col in enumerate(factor.lower):
        xj = x[j]
        if xj:
            for i, l in col:
                x[i] -= l * xj
    for j, p in enumerate(factor.pivots):
        x[j] /= p
    for j in range(factor.size - 1, -1, -1):
        for i, l in factor.lower[j]:
            x[j] -= l * x[i]
    return x


def project(lat, v):
    """The projection of a dense v onto T = S-perp, as Fractions."""
    supports = [lat.strict[key] for key in lat.s_keys]
    rhs = [sum(x * lat.qdiag[i] * v[i] for i, x in support) for support in supports]
    out = [Fraction(x) for x in v]
    for c, support in zip(ldl_solve(lat.s_gram_factor(), rhs), supports):
        if c:
            for i, x in support:
                out[i] -= c * x
    return out


def _pair(lat, u, v):
    """The form on rational vectors, over the entries where both are nonzero."""
    return sum(a * q * b for a, q, b in zip(u, lat.qdiag, v) if a and b)


def projected_t(n, k):
    """(gammas, their Gram, the matrix of f_* on T in the gamma basis), by
    projecting the top fibers.  A gamma lies in T, so it pairs with a vector
    as with that vector's T-component: gamma-basis coordinates solve the
    Gram system with those pairings, and the Gram pairs gammas with top
    fibers."""
    lat = PicardLattice.build(n, k)
    tops = [dense(lat, lat.strict[("F", s, 2 * k + 1)]) for s in range(n)]
    gammas = [project(lat, top) for top in tops]
    gram = [[_pair(lat, a, top) for top in tops] for a in gammas]
    # the Gram is symmetric, so the columns of its inverse are its rows
    inverse = xm.frac_solve(gram, xm.identity(n))
    F = pushforward_columns(n, k)
    cols = []
    for top in tops:
        rhs = [_pair(lat, g, xm.col_apply(F, top)) for g in gammas]
        cols.append([sum(map(mul, row, rhs)) for row in inverse])
    return gammas, gram, xm.transpose(cols)
