"""Exact model of the Picard lattice of the blowup surface.

Basis ordering everywhere: e_0 first, then limbs s = 0..n-1, within a limb
levels j = 1..2k+1.  All arithmetic in this module is exact (python ints
and Fractions); the one float, the dynamical degree, is rounded once,
correctly, from exact signs of the entropy polynomial.

Classes and lattice maps are kept in the column form of exactmat: a class
is the zero-free sorted tuple of its (i, a), and a map the tuple of the
images of the basis vectors.  pushforward_columns is f_* in that form, and
pushforward_matrix its dense view, for dense oracles such as Berkowitz.
The form is read from the nonzero entries of a Gram (PicardLattice.gram):
no dim x dim matrix is built for a map or for the form.

The complement T = S-perp is read in n x n integer algebra from the n
auxiliary classes varrho_t (TSpace); no vector is projected onto it.

The exact objects of one (n, k) -- the lattice, the pushforward, its
characteristic polynomial, the LDL^T factor of the S Gram, the TSpace, the
action C of f_* on T and C's characteristic polynomial -- are built once per
process and shared.  They are immutable (tuples, and a read-only mapping for
the strict classes), so PicardLattice.build and restricted_action hand them
out as built; pushforward_matrix, the dense view, is a fresh list of lists.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from . import exactmat as xm
from .errors import DegenerateError, ExactIdentityError, ParamError


def check_nk(n, k):
    """ParamError unless n >= 2, k >= 2 is even and n k > k + 2 (Bedford-Kim)."""
    if n < 2 or k < 2 or k % 2:
        raise ParamError("need n >= 2 and even k >= 2")
    if n * k <= k + 2:
        raise ParamError(f"(n,k)=({n},{k}) excluded: the induced action has spectral radius 1")


@dataclass(frozen=True)
class PicardLattice:
    """Geometric basis, intersection form, and strict-transform classes."""

    n: int
    k: int
    dim: int
    qdiag: tuple          # diagonal of the intersection form: (1, -1, ..., -1)
    strict: dict          # ('sigma0') | ('F', s, j) | ('L', s) -> column; read-only
    s_keys: tuple         # basis keys of the invariant span S, sigma0 last

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, n, k):
        """The (n, k) lattice, built once and shared: its strict classes are
        columns in a read-only mapping."""
        return _lattice(n, k)

    @staticmethod
    def _idx_static(n, k, s, j):
        return 1 + s * (2 * k + 1) + (j - 1)

    def idx(self, s, j):
        return self._idx_static(self.n, self.k, s, j)

    def e0(self):
        return [1] + [0] * (self.dim - 1)

    # -- the form -------------------------------------------------------------

    def ip(self, u, v):
        """The form on two classes given as columns."""
        return self.gram((u, v)).get((0, 1), 0)

    def gram(self, vectors):
        """The nonzero entries (a, b) -> vectors[a] . vectors[b] of the Gram of
        columns, summed over the basis from the products of entries there."""
        at = {}
        for a, u in enumerate(vectors):
            for i, x in u:
                at.setdefault(i, []).append((a, x))
        G = {}
        for i, entries in at.items():
            q = self.qdiag[i]
            for a, x in entries:
                for b, y in entries:
                    G[a, b] = G.get((a, b), 0) + x * q * y
        return {ab: x for ab, x in G.items() if x}

    def gram_matrix(self, vectors):
        """The Gram of a few columns as a dense list of row lists, for a
        dense oracle."""
        G, m = self.gram(vectors), len(vectors)
        return [[G.get((a, b), 0) for b in range(m)] for a in range(m)]

    def is_isometry(self, cols):
        """A lattice map in column form preserves the form exactly when the
        Gram of its columns is the form: q_i at (i, i) and nothing else."""
        return self.gram(cols) == {(i, i): q for i, q in enumerate(self.qdiag)}

    def q_matrix(self):
        return [[self.qdiag[i] if i == j else 0 for j in range(self.dim)] for i in range(self.dim)]

    def s_gram(self):
        """The nonzero entries of the Gram of the S classes."""
        return self.gram([self.strict[key] for key in self.s_keys])

    def limb_gram(self, s):
        return self.gram_matrix([self.strict[("F", s, j)] for j in range(1, 2 * self.k + 1)])

    def s_gram_factor(self):
        """Exact LDL^T of the S Gram of the (n, k) lattice, in the order of
        s_keys.  sigma0 comes last: it meets F(s, 1) of every limb, so
        eliminating it first would fill the n x n block of those classes.
        Last, only its own row fills, and each limb, a chain with F(s, 1)
        attached at F(s, k+1), factors without fill.  The determinant and,
        by Sylvester's criterion, negative definiteness do not depend on
        the order."""
        return _s_gram_ldl(self.n, self.k)

    def s_negative_definite(self):
        """Exact test via leading principal minors, the prefix products of
        the LDL^T pivots: signs must alternate.  A zero pivot means False."""
        factor = self.s_gram_factor()
        return factor.complete and \
            all((m > 0) == (i % 2 == 1) for i, m in enumerate(factor.leading_minors()))

    def s_gram_det(self):
        """Product of the LDL^T pivots; None when a zero pivot stopped the
        factor early, so that the S Gram is not negative definite."""
        factor = self.s_gram_factor()
        return factor.leading_minors()[-1] if factor.complete else None

    def s_gram_det_formula(self):
        n, k = self.n, self.k
        return Fraction(1) - Fraction(n * k, k + 2), ((k + 2) * k) ** n

    # -- canonical class ------------------------------------------------------

    def canonical_class(self):
        """K, dense, checked two ways: -K as the weighted sum of the invariant
        configuration and as 3e_0 - sum(e).  Both must agree exactly."""
        n, k = self.n, self.k
        weights = {"sigma0": 3}
        for s in range(n):
            weights[("F", s, 1)] = 2
            for j in range(2, 2 * k + 1):
                weights[("F", s, j)] = min(j - 1, 2 * k + 1 - j)
        minus_k = [0] * self.dim
        for key, w in weights.items():
            for i, a in self.strict[key]:
                minus_k[i] += w * a
        std = [3] + [-1] * (self.dim - 1)
        if minus_k != std:
            raise ExactIdentityError("canonical class expressions disagree")
        return [-x for x in minus_k]


@functools.cache
def _lattice(n, k):
    """The shared (n, k) lattice; its strict classes are columns."""
    check_nk(n, k)
    dim = 1 + n * (2 * k + 1)
    idx = functools.partial(PicardLattice._idx_static, n, k)
    strict = {"sigma0": ((0, 1),) + tuple((idx(s, 1), -1) for s in range(n))}
    for s in range(n):
        strict[("F", s, 1)] = ((idx(s, 1), 1),) + tuple((idx(s, m), -1) for m in range(2, k + 2))
        for j in range(2, 2 * k + 1):
            strict[("F", s, j)] = ((idx(s, j), 1), (idx(s, j + 1), -1))
        strict[("F", s, 2 * k + 1)] = ((idx(s, 2 * k + 1), 1),)
        strict[("L", s)] = ((0, 1), (idx(s, 1), -1), (idx(s, 2), -1))
    s_keys = tuple([("F", s, j) for s in range(n) for j in range(1, 2 * k + 1)] + ["sigma0"])
    return PicardLattice(n=n, k=k, dim=dim, qdiag=tuple([1] + [-1] * (dim - 1)),
                         strict=MappingProxyType(strict), s_keys=s_keys)


@functools.cache
def _s_gram_ldl(n, k):
    lat = _lattice(n, k)
    return xm.ldl(len(lat.s_keys), lat.s_gram())


# -- the induced lattice automorphism -----------------------------------------


def _strict_order(n, k):
    return ["sigma0"] + [("F", s, j) for s in range(n) for j in range(1, 2 * k + 2)]


@functools.cache
def _strict_basis(n, k):
    """The strict-transform basis in the order _strict_order, as the columns
    of a unit lower-triangular integer matrix (xm.unit_lower_columns)."""
    lat = _lattice(n, k)
    return xm.unit_lower_columns([lat.strict[key] for key in _strict_order(n, k)])


def strict_image(n, k, key):
    """The key of PicardLattice.strict where f_* sends the class key: limb s
    goes to limb s+1, and the return limb n-1 -> 0 flips levels j -> 2k+2-j
    except level 1; the top fiber of the last limb goes to L(0), the class
    of {x1=0}, and L(n-1), the class of {x2=0}, to the top fiber of limb 0.
    sigma0 is fixed; any other key raises ParamError.  pushforward_columns
    and the chart layer's fiber targets (charts.fiber_target) read it."""
    if key == "sigma0":
        return key
    if key == ("L", n - 1):
        return ("F", 0, 2 * k + 1)
    if len(key) != 3 or key[0] != "F" or not (0 <= key[1] < n and 1 <= key[2] <= 2 * k + 1):
        raise ParamError(f"{key} is not a class the rule of f_* names")
    _, s, j = key
    if j == 2 * k + 1:
        return ("L", 0) if s == n - 1 else ("F", s + 1, j)
    if j == 1 or s < n - 1:
        return ("F", (s + 1) % n, j)
    return ("F", 0, 2 * k + 2 - j)


@functools.cache
def pushforward_columns(n, k):
    """The induced automorphism f_* in column form, built once per (n, k).

    strict_image sends each class key_t of the strict-transform basis to a
    strict class, and key_t = e_t + sum_{i>t} a_i e_i (_strict_basis), so
    f_*(e_t) = f_*(key_t) - sum_{i>t} a_i f_*(e_i), from the last t back.
    """
    lat, keys, lower = _lattice(n, k), _strict_order(n, k), _strict_basis(n, k)
    cols = [()] * lat.dim
    for t in reversed(range(lat.dim)):
        acc = dict(lat.strict[strict_image(n, k, keys[t])])
        for i, a in lower[t]:
            for r, b in cols[i]:
                acc[r] = acc.get(r, 0) - a * b
        cols[t] = tuple(sorted((r, x) for r, x in acc.items() if x))
    return tuple(cols)


def pushforward_matrix(n, k):
    """The matrix of f_* on the geometric basis, a fresh list of row lists:
    the dense view of pushforward_columns."""
    return xm.col_dense(pushforward_columns(n, k))


def chi_poly(n, k):
    """1 - k(x + ... + x^(n-1)) + x^n, descending integer coefficients."""
    check_nk(n, k)
    return [1] + [-k] * (n - 1) + [1]


def char_poly(M):
    """Exact characteristic polynomial (descending) of any square integer
    matrix, by Samuelson-Berkowitz.  The pushforward's own comes from its
    splitting (pushforward_char_poly); on it this is the cross-check."""
    return xm.charpoly(M)


def s_class_permutation(lat, cols):
    """The permutation a lattice map induces on the S classes of lat.

    cols is the map in column form.  Entry i is the position in lat.s_keys
    of the image of the class lat.s_keys[i].  Raises ExactIdentityError
    when an image is not an S class or two classes have the same image."""
    where = {lat.strict[key]: i for i, key in enumerate(lat.s_keys)}
    perm = []
    for key in lat.s_keys:
        i = where.get(xm.col_compose(cols, (lat.strict[key],))[0])
        if i is None:
            raise ExactIdentityError(f"the image of the S class {key} is not an S class")
        perm.append(i)
    if len(set(perm)) < len(perm):
        raise ExactIdentityError("the map sends two S classes to one")
    return perm


@functools.cache
def s_cycle_lengths(n, k):
    """Cycle lengths of the permutation f_* induces on the S classes, in the
    order of xm.perm_cycles on s_keys, so sigma0's fixed point comes last:
    (2, 4, 4, 4, 2, 1) at (2, 4); a tuple.  They are 1, n and 2n.

    Raises ExactIdentityError unless the S classes are a basis of a
    nondegenerate span(S), which the complete LDL^T of the S Gram proves."""
    if not _s_gram_ldl(n, k).complete:
        raise ExactIdentityError(f"(n,k)=({n},{k}): the S Gram is singular")
    perm = s_class_permutation(_lattice(n, k), pushforward_columns(n, k))
    return tuple(len(c) for c in xm.perm_cycles(perm))


@functools.cache
def _cycle_product(n, k):
    """prod (x^L - 1) over the cycle lengths L of s_cycle_lengths: the
    characteristic polynomial of f_* on span(S), descending; a tuple."""
    out = [1]
    for L in s_cycle_lengths(n, k):
        out = xm.poly_mul(out, [1] + [0] * (L - 1) + [-1])
    return tuple(out)


@functools.cache
def pushforward_char_poly(n, k):
    """det(x I - f_*), descending, from the invariant splitting; a tuple,
    computed once.

    The S Gram is nondegenerate, so Pic (x) Q = span(S) + T with T = S-perp,
    and the gammas are a basis of T.  f_* permutes the S classes, so in the
    basis [S classes, gammas] its matrix is block upper triangular: the
    permutation on span(S), and C = restricted_action(n, k), the gamma
    coordinates of the T-components of the images of the gammas.  Hence
    det(x I - f_*) = charpoly(C) * prod (x^L - 1) over the cycle lengths L
    of s_cycle_lengths (_cycle_product), charpoly(C) being
    restricted_char_poly.  Berkowitz on the full matrix
    (char_poly(pushforward_matrix(n, k))) gives the same polynomial and is
    the tests' cross-check."""
    return tuple(xm.poly_mul(restricted_char_poly(n, k), _cycle_product(n, k)))


def pushforward_det(n, k):
    """det f_* from the same splitting: det C = (-1)^n cp(0) (restricted_char_poly)
    times the sign of the S-class permutation, -1 to its number of even cycles."""
    even = sum(1 for L in s_cycle_lengths(n, k) if L % 2 == 0)
    return (-1) ** (n + even) * restricted_char_poly(n, k)[-1]


def char_poly_factor_check(n, k, cp=None):
    """Divide out the entropy factor and check that the cofactor is the
    product of x^L - 1 over the cycle type of f_* on the S classes, so that
    all its roots are roots of unity; returns (divisible, cofactor,
    residual), the residual 0.0 on a match and inf otherwise."""
    cp = cp or pushforward_char_poly(n, k)
    quo, rem = xm.poly_divmod(list(cp), chi_poly(n, k))
    if any(rem):
        return False, quo, float("inf")
    return True, quo, 0.0 if tuple(quo) == _cycle_product(n, k) else float("inf")


def _sign_at(coeffs, x):
    """The sign of a polynomial (descending integer coefficients) at a
    rational x = p/q, q > 0: the sign of q^deg times its value, by one
    integer Horner pass."""
    p, q = x.as_integer_ratio()
    acc, qi = coeffs[0], 1
    for c in coeffs[1:]:
        qi *= q
        acc = acc * p + c * qi
    return (acc > 0) - (acc < 0)


def spectral_radius(n, k):
    """The dynamical degree, the root of chi in (1, k + 1), correctly
    rounded to a float.

    chi(0) = 1 > 0, chi(1) = 2 - k(n - 1) < 0 and chi(k + 1) = k + 2 > 0,
    and chi has two sign changes, so by Descartes' rule it has one root in
    (1, oo), and that root lies in (1, k + 1).  Bisection over floats keeps
    chi(lo) < 0 < chi(hi) by exact signs until lo and hi are adjacent; the
    sign at their exact midpoint then picks the nearer.  It is never zero
    there: chi's only rational candidate roots are +-1."""
    chi = chi_poly(n, k)
    lo, hi = 1.0, float(k + 1)
    mid = (lo + hi) / 2
    while lo < mid < hi:
        if _sign_at(chi, mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return lo if _sign_at(chi, (Fraction(lo) + Fraction(hi)) / 2) > 0 else hi


def entropy(n, k):
    return math.log(spectral_radius(n, k))


def degree_sequence(n, k, m):
    """d_i = (M^i e0) . e0 = (M^i e0)_0 for i = 0..m, exact integers: m + 1
    terms from m applications of f_*."""
    F = pushforward_columns(n, k)
    v = _lattice(n, k).e0()
    out = [v[0]]
    for _ in range(m):
        v = xm.col_apply(F, v)
        out.append(v[0])
    return out


def degree_recurrence(n, k):
    """chi(x) (x^(2n) - 1), descending, of order 3n; it annihilates f_* and
    so the degree sequence.

    On T = S-perp f_* satisfies chi (restricted_action); on span(S) it
    permutes the S classes in cycles of lengths 1, n and 2n
    (s_cycle_lengths), so f_*^(2n) = 1 there.  It divides
    pushforward_char_poly, of order dim Pic, whose recurrence it implies."""
    return xm.poly_mul(chi_poly(n, k), [1] + [0] * (2 * n - 1) + [-1])


def degree_recurrence_residuals(n, k, m=None):
    """The residuals of d_0..d_m against degree_recurrence, m = 3n + 10 by
    default: m + 1 - 3n of them, eleven by default, all zero when d
    satisfies the recurrence."""
    d = degree_sequence(n, k, 3 * n + 10 if m is None else m)
    return xm.recurrence_residuals(degree_recurrence(n, k), d)


# -- the orthogonal complement of the invariant span ---------------------------


@functools.cache
def _varrho(n, k):
    """The auxiliary classes varrho_t, t = 0..n-1, in their two forms, as a
    pair (weights, classes) of tuples of integer tuples.

    The strict weights w_t come first: -k on sigma0, j - 1 on F(t, j) and
    -k min(max(j-1, 1), k) on F(i, j), i != t, the weight of F(s, j) at index
    lat.idx(s, j); that is, -k sigma0 - k sum_{i != t} (v_i + k F(i,2k+1))
    + u_t + 2k F(t,2k+1) with v_i = F(i,1) + sum_{j=2..k} (j-1) F(i,j)
    + k sum_{j>k} F(i,j) and u_t = sum_{j=2..2k} (j-1) F(t,j).  The class
    r_t = sum_j w_t[j] key_j on the geometric basis is read from them
    through _strict_basis."""
    own = [j - 1 for j in range(1, 2 * k + 2)]
    other = [-k * min(max(j - 1, 1), k) for j in range(1, 2 * k + 2)]
    weights, classes = [], []
    for t in range(n):
        w = [-k] + [x for i in range(n) for x in (own if i == t else other)]
        r = list(w)
        for wj, col in zip(w, _strict_basis(n, k)):
            for i, a in col:
                r[i] += a * wj
        weights.append(tuple(w))
        classes.append(tuple(r))
    return tuple(weights), tuple(classes)


class TSpace:
    """T = S-perp with the gamma basis, gamma_s = sum_t kM[t][s] varrho_t / kC,
    read from the n x n integer matrices R = (varrho_a . varrho_b) and
    P = (varrho_t . F(s, 2k+1)).

    kM is k times the closed form's M (x = 2/k - n + 2 on the diagonal, 1
    elsewhere) and C = 2(2-(n-2)k) - (n-1)k^2 its denominator; kMP = kM P is
    kC times the gamma Gram, in integers.  The constructor raises
    ExactIdentityError unless each varrho_t is orthogonal to S and
    C P = R M with det R != 0 (closed_form_checks).  Then the varrho_t are a
    basis of T (dim T = n: the S classes are part of the strict basis), and
    F(s, 2k+1) - gamma_s is orthogonal to them, so gamma_s is the projection
    of the top fiber.  t_space(n, k) is the shared instance."""

    def __init__(self, lat):
        n, k = lat.n, lat.k
        self.lat = lat
        diag = 2 - (n - 2) * k
        self.kM = tuple(tuple(diag if i == j else k for j in range(n)) for i in range(n))
        self.C = 2 * diag - (n - 1) * k * k
        _, self._rho = _varrho(n, k)
        self._rho_gram = lat.gram_matrix([xm.sparse(r) for r in self._rho])
        tops = [lat.idx(s, 2 * k + 1) for s in range(n)]
        self._rho_tops = [[lat.qdiag[i] * r[i] for i in tops] for r in self._rho]
        in_t, closed_form = self.closed_form_checks()
        if not in_t:
            raise ExactIdentityError(f"(n,k)=({n},{k}): an auxiliary class is not orthogonal to S")
        if not closed_form:
            raise ExactIdentityError(f"(n,k)=({n},{k}): the closed form of the gammas "
                                     "is not the projection of the top fibers")
        # gamma_a lies in T, so gamma_a . gamma_s = gamma_a . F(s, 2k+1); M is symmetric
        self.kMP = tuple(map(tuple, xm.mat_mul(self.kM, self._rho_tops)))
        self.gamma_gram = tuple(tuple(Fraction(x, k * self.C) for x in row) for row in self.kMP)
        # the rows of P^-1 are the columns of (P^T)^-1
        self._tops_inverse = xm.frac_solve(xm.transpose(self._rho_tops), xm.identity(n))

    def rho_pairings(self, v):
        """(varrho_t . v)_t for a class v given as a column."""
        q = self.lat.qdiag
        return [sum(x * q[i] * r[i] for i, x in v) for r in self._rho]

    def closed_form_checks(self):
        """(every varrho_t is orthogonal to S, C P = R M with det R != 0),
        the second in integers as C k P = R (k M)."""
        kC, R, P = self.lat.k * self.C, self._rho_gram, self._rho_tops
        return (not any(any(self.rho_pairings(self.lat.strict[key])) for key in self.lat.s_keys),
                xm.det_bareiss(R) != 0 and
                xm.mat_mul(R, self.kM) == [[kC * p for p in row] for row in P])

    def gamma_coords(self, v):
        """Gamma-basis coordinates of the T-component of a class v (a column):
        the solution c of P c = (varrho_t . v)_t, since sum_s c_s gamma_s
        pairs with each varrho_t as v does.  v is not projected."""
        rhs = self.rho_pairings(v)
        return [sum(map(mul, row, rhs)) for row in self._tops_inverse]

    def gram_proportionality(self):
        """Exact Gram of the gammas must be a single rational multiple of kM,
        the circulant-like matrix with diagonal 2-(n-2)k and off-diagonal k.
        Returns the scale, read off an off-diagonal entry, or None on
        mismatch."""
        scale = Fraction(self.gamma_gram[0][1], self.lat.k)
        return scale if all(g == scale * m for grow, mrow in zip(self.gamma_gram, self.kM)
                            for g, m in zip(grow, mrow)) else None


@functools.cache
def t_space(n, k):
    """The TSpace of the (n, k) lattice, built once."""
    return TSpace(_lattice(n, k))


@functools.cache
def restricted_action(n, k):
    """Matrix of the induced map on T in the gamma basis, exact.

    Must be the cyclic companion form gamma_s -> gamma_{s+1} with last
    column (-1, k, ..., k), whose characteristic polynomial is the entropy
    polynomial.  Built once per (n, k) and shared, as a tuple of row
    tuples."""
    ts = t_space(n, k)
    F = pushforward_columns(n, k)
    cols = [ts.gamma_coords(xm.col_compose(F, (ts.lat.strict[("F", s, 2 * k + 1)],))[0])
            for s in range(n)]
    return tuple(map(tuple, xm.int_rows(xm.transpose(cols), "restricted action on T")))


@functools.cache
def restricted_char_poly(n, k):
    """cp = det(x I - C), C = restricted_action(n, k), descending; a tuple,
    by Berkowitz once per (n, k).  Every fact of C is read from it: det C =
    (-1)^n cp(0), det(C - I) = (-1)^n cp(1), and the suites compare it with chi."""
    return tuple(char_poly(restricted_action(n, k)))


# -- closed-form coefficients of the gamma classes ----------------------------


def gamma_closed_form(n, k):
    """The four displayed rational coefficients of gamma_0, on the top-level
    and level-2k classes of limbs 0 and 1, against their exact values.

    Returns a report dict.  With x = 2/k - n + 2 and
    C = 2(2-(n-2)k) - (n-1)k^2,

        gamma_s = ( x*rho_s + sum_{t != s} rho_t ) / C,

    the projection of the top fiber, which t_space(n, k) proves or raises
    ExactIdentityError (TSpace.closed_form_checks).  A coefficient of gamma_0
    is sum_t kM[t][0] row_t[lat.idx(s, j)] / kC, read once from the strict
    weights of the varrho_t (exact_strict) and once from their geometric
    classes (exact_geometric); the limb-rotation symmetry of varrho_t and kM
    makes every other limb's report the same.  Mismatches are reported with
    both values, never patched.
    """
    check_nk(n, k)
    if k == 2 * n - 2:
        raise DegenerateError(f"(n,k)=({n},{k}): closed-form denominator k-2n+2 vanishes")
    ts = t_space(n, k)
    lat, kM, kC = ts.lat, ts.kM, k * ts.C

    den1 = Fraction(k * (k + 2) * (k - 2 * n + 2))
    den2 = Fraction(k * k * (k + 2) * (k - 2 * n + 2))
    displayed = {
        "top_same_limb": Fraction(-4 * (k * (n - 3) + 2 * (n - 2))) / den1,
        "top_other_limb": Fraction(-2 * (4 - k * k)) / den1,
        "level2k_same_limb": Fraction(2 * (k - (n - 2) * (k * k + 2 * k - 1))) / den2,
        "level2k_other_limb": Fraction(2 * (4 * k - 2 - k ** 3)) / den2,
    }
    at = {"top_same_limb": lat.idx(0, 2 * k + 1), "top_other_limb": lat.idx(1, 2 * k + 1),
          "level2k_same_limb": lat.idx(0, 2 * k), "level2k_other_limb": lat.idx(1, 2 * k)}

    def coefficients(rows):
        return {key: Fraction(sum(kM[t][0] * row[i] for t, row in enumerate(rows)), kC)
                for key, i in at.items()}

    weights, classes = _varrho(n, k)
    exact_geometric, exact_strict = coefficients(classes), coefficients(weights)
    return {
        "displayed": displayed,
        "exact_geometric": exact_geometric,
        "exact_strict": exact_strict,
        "displayed_matches": {
            key: (displayed[key] == exact_geometric[key], displayed[key] == exact_strict[key])
            for key in displayed
        },
    }


# -- minimality data -----------------------------------------------------------


def minimality_report(n, k):
    """Self-intersections of the invariant configuration; for n=2 also the
    profile after contracting the invariant line.  Both are read from the
    S Gram: the self-intersections are its diagonal, and the meets with
    sigma0, the last S class, its last row."""
    lat = _lattice(n, k)
    G, last = lat.s_gram(), len(lat.s_keys) - 1
    fibers = list(enumerate(lat.s_keys[:-1]))
    selfints = {"sigma0": G.get((last, last), 0)}
    selfints.update((key, G.get((i, i), 0)) for i, key in fibers)
    out = {"selfints": selfints}
    if n == 2:
        out["after_contraction"] = {key: selfints[key] + G.get((i, last), 0) ** 2
                                    for i, key in fibers}
    return out
