"""Exact integer / rational matrix and polynomial helpers.

Everything here is arbitrary-precision: python ints and Fractions only.
Matrices are lists of row lists, except lattice maps, which are kept in
the column form described below, as are the classes they act on.
Polynomials are coefficient lists in descending degree order with integer
entries unless noted.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import ExactIdentityError


def identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def transpose(A):
    return [list(r) for r in zip(*A)]


def mat_mul(A, B):
    """Exact product.  Zero entries of A are skipped: each row accumulates
    a * B[t] over the nonzero a = A[i][t] only."""
    p = len(B[0])
    out = []
    for row in A:
        acc = [0] * p
        for a, b in zip(row, B):
            if a:
                acc = [u + a * v for u, v in zip(acc, b)]
        out.append(acc)
    return out


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


# -- lattice maps in column form ------------------------------------------------
# A square integer matrix M is kept as the tuple of its columns: column j is
# the zero-free tuple of (i, a) with a = (M e_j)_i, sorted by i.  A basis
# permutation has one entry per column and a quadratic reflection changes
# four columns, so applying and composing them costs their nonzero entries.
# A class is one such column, and its image under M is col_compose(M, (v,))[0].


def sparse(v):
    """The zero-free (i, v[i]) of a vector, as a tuple: one column."""
    return tuple((i, a) for i, a in enumerate(v) if a)


def col_apply(cols, v):
    """M v for M in column form and a dense v."""
    out = [0] * len(cols)
    for col, x in zip(cols, v):
        if x:
            for i, a in col:
                out[i] += a * x
    return out


def col_compose(A, B):
    """A B in column form: column j is A applied to column j of B.  A column
    of B that is one basis vector e_t picks column t of A as it is."""
    out = []
    for col in B:
        if len(col) == 1 and col[0][1] == 1:
            out.append(A[col[0][0]])
            continue
        acc = {}
        for t, b in col:
            for i, a in A[t]:
                acc[i] = acc.get(i, 0) + a * b
        out.append(tuple(sorted((i, x) for i, x in acc.items() if x)))
    return tuple(out)


def col_dense(cols):
    """The dense view of a map in column form: a fresh list of row lists."""
    rows = [[0] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, a in col:
            rows[i][j] = a
    return rows


def perm_cycles(perm):
    """The cycles of the permutation i -> perm[i] of range(len(perm)), fixed
    points included.  Each cycle starts at its least element; cycles come in
    the order of those elements."""
    seen, cycles = set(), []
    for a in range(len(perm)):
        if a in seen:
            continue
        cyc = [a]
        seen.add(a)
        b = perm[a]
        while b != a:
            cyc.append(b)
            seen.add(b)
            b = perm[b]
        cycles.append(cyc)
    return cycles


def mat_eq(A, B):
    """Entrywise equality of values; rows may be lists or tuples."""
    return len(A) == len(B) and all(list(ra) == list(rb) for ra, rb in zip(A, B))


def det_bareiss(A):
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def charpoly(A):
    """Characteristic polynomial det(xI - A), descending coefficients.

    Samuelson-Berkowitz: division-free, exact over the integers, for any
    square matrix; O(d^4) operations on a d x d one.
    """
    n = len(A)
    C = [1]
    for i in range(1, n + 1):
        Mi = [row[:i - 1] for row in A[:i - 1]]
        R = A[i - 1][:i - 1]
        S = [A[r][i - 1] for r in range(i - 1)]
        t = [1, -A[i - 1][i - 1]]
        v = S[:]
        for _ in range(2, i + 1):
            t.append(-sum(map(mul, R, v)))
            v = mat_vec(Mi, v) if Mi else []
        Cn = [0] * (i + 1)
        for m in range(i + 1):
            lo = max(0, m - len(C) + 1)
            for l in range(lo, min(len(t), m + 1)):
                Cn[m] += t[l] * C[m - l]
        C = Cn
    return C


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_divmod(num, den):
    """Polynomial division with integer quotient; remainder returned as-is."""
    num = list(num)
    q = []
    while len(num) >= len(den) and any(num):
        c, r = divmod(num[0], den[0])
        if r != 0:
            break
        q.append(c)
        for i in range(len(den)):
            num[i] -= c * den[i]
        num.pop(0)
    while num and num[0] == 0 and len(num) >= len(den):
        q.append(0)
        num.pop(0)
    return q, num


def recurrence_residuals(coeffs, seq):
    """sum_t coeffs[t] seq[i + deg - t] for i = 0..len(seq) - deg - 1: the
    residuals of a sequence against the linear recurrence of a polynomial
    of degree deg, all zero when the polynomial annihilates it."""
    deg = len(coeffs) - 1
    terms = [(deg - t, c) for t, c in enumerate(coeffs) if c]
    return [sum(c * seq[i + s] for s, c in terms) for i in range(len(seq) - deg)]


def poly_eval(coeffs, x):
    out = 0 * x
    for c in coeffs:
        out = out * x + c
    return out


def poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [coeffs[i] * (n - i) for i in range(n)] if n > 0 else [0]


def frac_solve(A, rhs_cols):
    """Solve A X = B exactly over Fractions; B given as list of columns."""
    d = len(A)
    m = len(rhs_cols)
    M = [[Fraction(A[i][j]) for j in range(d)] +
         [Fraction(rhs_cols[c][i]) for c in range(m)] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if M[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(d):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [[M[i][d + c] for i in range(d)] for c in range(m)]


def unit_lower_columns(columns):
    """The part below the diagonal of a unit lower-triangular integer
    matrix in column form: column j without its diagonal entry.

    Raises ExactIdentityError unless each column j starts with (j, 1), so
    that its diagonal entry is 1 and nothing lies above it."""
    out = []
    for j, col in enumerate(columns):
        if col[:1] != ((j, 1),):
            raise ExactIdentityError(f"column {j} is not unit lower-triangular")
        out.append(col[1:])
    return tuple(out)


def int_rows(rows, what):
    """Rows of Fractions as lists of ints; ExactIdentityError naming what
    when an entry is not an integer."""
    out = []
    for row in rows:
        if any(x.denominator != 1 for x in row):
            raise ExactIdentityError(f"{what} is not integral: {row}")
        out.append([int(x) for x in row])
    return out


@dataclass(frozen=True)
class LDL:
    """Exact A = L D L^T of a symmetric matrix, in the given order, without
    pivoting.

    ``lower[j]`` holds the nonzero (i, L[i][j]) with i > j and ``pivots``
    the diagonal of D.  A zero pivot stops the factorization: it is kept as
    the last pivot, and ``lower`` is then shorter than ``size``."""

    size: int
    lower: tuple
    pivots: tuple

    @property
    def complete(self):
        """Every pivot is nonzero, so A is invertible."""
        return len(self.lower) == self.size

    def leading_minors(self):
        """The leading principal minors of A, as prefix products of the
        pivots, up to the first zero one."""
        return [int(m) for m in accumulate(self.pivots, mul)]


def ldl(size, entries):
    """Exact LDL^T of a symmetric size x size integer or rational matrix
    given by its nonzero entries, a mapping (i, j) -> A[i][j] (see LDL).

    Right-looking elimination on sparse columns: zero entries are neither
    stored nor visited, so a sparse A with little fill-in factors cheaply."""
    below = [{} for _ in range(size)]
    for (i, j), a in entries.items():
        if i >= j:
            below[j][i] = Fraction(a)
    diag = [below[j].pop(j, Fraction(0)) for j in range(size)]
    lower, pivots = [], []
    for j in range(size):
        p = diag[j]
        pivots.append(p)
        if p == 0:
            break
        col = sorted(below[j].items())
        lower.append(tuple((i, a / p) for i, a in col))
        for t, (i, a) in enumerate(col):
            f = a / p
            diag[i] -= f * a
            rest = below[i]
            for r, b in col[t + 1:]:
                v = rest.get(r, 0) - f * b
                if v:
                    rest[r] = v
                else:
                    rest.pop(r, None)
    return LDL(size=size, lower=tuple(lower), pivots=tuple(pivots))
