"""The plane map family, its parameters, and its combinatorics at infinity.

The maps have the form

    f(x, y) = (y, -x + c*y + sum_l a_l / y^l + 1 / y^k)

with even k, the sum over even l in [2, k-2], and jacobian determinant 1.
For an admissible c (see :func:`admissible_c`), the restriction of f to
the line at infinity is a rotation of period n and the map lifts to an
automorphism of an iterated blowup of the plane; the blowup data is
modelled in :mod:`surfauto.charts` and :mod:`surfauto.picard`.

Evaluation routines are generic over the scalar type, since only field
operations are used: python complex (the dynamics layer), mpmath numbers,
and the chart layer's Jets.  c is kept symbolic as a pair (j, sign).  Its
float value, the a_l and the indeterminacy floor DEFAULT_TOL are computed
once, when the params are made (:meth:`MapParams.coeffs`).  This module
imports no mpmath and knows no Jet: the chart layer's center table makes
its coefficients in both, at its working precision.  :func:`eval_f_proj`,
:func:`infinity_orbit`, :func:`center_series` and :func:`q_value` take a
MapCoeffs and evaluate in whatever scalar type it carries, so each reads c
and the a_l the same way; the -x of the unit jacobian is written into each
formula.  The affine formula is written once, on the coefficients, and
:func:`eval_f`, :func:`eval_f_inverse` and the orbit stepper share it.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .errors import (
    IndeterminacyError,
    NumericCheckError,
    OverflowEscape,
    ParamError,
    PoleError,
)
from .picard import check_nk

MAGNITUDE_CAP = 1e100
DEFAULT_TOL = 1e-9


def candidate_c(n):
    """Values of c for which w -> c - 1/w has period n on the line at
    infinity: 2*cos(j*pi/n) over 0 < j < n coprime to n, sorted descending,
    a set symmetric under negation (2*cos((n-j)*pi/n) = -2*cos(j*pi/n))."""
    if n < 2:
        raise ParamError("n must be >= 2")
    return sorted((2.0 * math.cos(math.pi * j / n) for j in range(1, n) if gcd(j, n) == 1),
                  reverse=True)


def _admissible(n, j, sign):
    """Whether c = sign*2*cos(j*pi/n), j coprime to n, is admissible.  With
    theta = j*pi/n the orbit w -> c - 1/w from w_1 = c is w_i =
    sin((i+1)*theta)/sin(i*theta): it reaches 0 at w_(n-1), and for odd n
    its midpoint w_((n-1)/2) = (-1)^(j+1) must be 1.  Sign -1 is index n - j."""
    return n % 2 == 0 or (j + (sign == -1)) % 2 == 1


def admissible_c(n):
    """The candidate_c(n) admitted by :func:`_admissible`: all phi(n) of
    them for even n, the phi(n)/2 with odd j for odd n; sorted descending."""
    if n < 2:
        raise ParamError("n must be >= 2")
    return sorted((2.0 * math.cos(math.pi * j / n) for j in range(1, n)
                   if gcd(j, n) == 1 and _admissible(n, j, 1)), reverse=True)


class MapCoeffs(NamedTuple):
    """The coefficients the map kernels use, in one scalar type."""

    k: int
    c: object
    a: tuple            # (l, a_l) pairs, ascending l
    floor: object       # indeterminacy floor of eval_f_proj

    @property
    def _next_y(self):
        """Second component of f, unchecked, as a function of (x, y): the one
        formula of the map, shared by eval_f, eval_f_inverse and the orbit
        stepper.  It binds k, c and the a_l when it is made: the stepper
        makes it once per orbit and MapParams once per member."""
        k, c, a, _ = self

        def next_y(x, y):
            yinv = 1 / y
            out = -x + c * y + yinv ** k
            for l, al in a:
                out = out + al * yinv ** l
            return out

        return next_y


@dataclass(frozen=True)
class MapParams:
    """One member of the family: (n, k, c, a-coefficients).

    c_spec is a (j, sign) pair meaning c = sign*2*cos(j*pi/n), stored
    symbolically and evaluated once, as a float (see :meth:`coeffs`).  The
    pair must pass :func:`_admissible`, else ParamError.  This is the one
    membership rule: everything built from a member trusts it.
    """

    n: int
    k: int
    c_spec: tuple
    a: dict = field(default_factory=dict)
    _coeffs: MapCoeffs = field(init=False, compare=False, repr=False)
    _next_y: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_nk(self.n, self.k)
        for l in self.a:
            if l % 2 != 0 or not (2 <= l <= self.k - 2):
                raise ParamError(f"a-index {l} must be even in [2, k-2]")
        if not isinstance(self.c_spec, tuple):
            raise ParamError("c must be given as (j, sign), not by value")
        j, sign = self.c_spec
        if gcd(j, self.n) != 1 or not (0 < j < self.n):
            raise ParamError(f"c index j={j} must be coprime to n and in (0, n)")
        if sign not in (1, -1):
            raise ParamError("c sign must be +1 or -1")
        if not _admissible(self.n, j, sign):
            raise ParamError(f"c = {sign}*2cos({j}*pi/{self.n}) is not admissible for n={self.n}")
        object.__setattr__(self, "_coeffs", MapCoeffs(
            self.k, sign * 2.0 * math.cos(math.pi * j / self.n), tuple(sorted(self.a.items())),
            DEFAULT_TOL))
        object.__setattr__(self, "_next_y", self._coeffs._next_y)

    def coeffs(self):
        """k, c as a float, the a_l and the indeterminacy floor DEFAULT_TOL:
        the python scalars every map routine outside the chart layer reads."""
        return self._coeffs

    # -- JSON parameter files ------------------------------------------------

    def to_json_dict(self):
        """The parameter file of this member; its "delta" is always the
        jacobian determinant 1."""
        j, sign = self.c_spec
        return {
            "n": self.n,
            "k": self.k,
            "c": {"j": j, "sign": "+" if sign > 0 else "-"},
            "a": {str(l): [complex(v).real, complex(v).imag] for l, v in sorted(self.a.items())},
            "delta": [1.0, 0.0],
        }

    @classmethod
    def from_json_dict(cls, d):
        """The member a parameter file describes: an object with the
        integers n and k, c as {"j": integer, "sign": "+" or "-"} (sign
        "+" when absent), and optionally a ({"l": value}, no l twice), each
        value a number or [re, im], and delta, the jacobian determinant,
        which must read as 1.  Anything else raises ParamError."""
        keys = set(d) if isinstance(d, dict) else set()
        if not ({"n", "k", "c"} <= keys <= {"n", "k", "c", "a", "delta"}
                and type(d["n"]) is int and type(d["k"]) is int):
            raise ParamError("parameters must be an object with the integers n and k, c, and "
                             f"optionally a and delta, got {d!r}")
        c = d["c"] if isinstance(d["c"], dict) else {}
        sign = c.get("sign", "+")
        if not (set(c) <= {"j", "sign"} and type(c.get("j")) is int and sign in ("+", "-")):
            raise ParamError(f'c must be {{"j": integer, "sign": "+" or "-"}}, got {d["c"]!r}')
        if _json_scalar(d.get("delta", 1.0), "delta") != 1:
            raise ParamError(f"the family has delta = 1, got delta = {d['delta']!r}")
        a = d.get("a", {})
        if not (isinstance(a, dict) and all(str(key).removeprefix("-").isdecimal() for key in a)):
            raise ParamError(f'a must be an object {{"l": value}} with integers l, got {a!r}')
        coeffs = {}
        for key, v in a.items():
            if int(key) in coeffs:
                raise ParamError(f"a gives a_{int(key)} twice")
            coeffs[int(key)] = _json_scalar(v, f"a_{key}")
        return cls(n=d["n"], k=d["k"], c_spec=(c["j"], 1 if sign == "+" else -1), a=coeffs)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _json_float(v, what):
    """A finite number other than a bool, as a float; else ParamError."""
    if type(v) in (int, float) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ParamError(f"{what} must be a finite number, got {v!r}")


def _json_scalar(v, what):
    """A number or an [re, im] pair of numbers: a float when im is 0, else a
    complex; anything else raises ParamError."""
    re, im = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    what = f"{what} (a number or [re, im])"
    z = complex(_json_float(re, what), _json_float(im, what))
    return z.real if z.imag == 0 else z


def figure1_params():
    """The shipped real example: n=2, k=4, c=0, a_2=-2.64."""
    return MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64})


# -- map evaluation ----------------------------------------------------------


def eval_f(p, pt):
    """One application of the map to an affine point (x, y).

    Raises PoleError for |y| below DEFAULT_TOL and OverflowEscape past the
    magnitude cap.  Works on any field-like scalars (complex, mpmath,
    jets).
    """
    x, y = pt
    if abs(y) < DEFAULT_TOL:
        raise PoleError(f"y={y} within tol of the pole line")
    out = p._next_y(x, y)
    if abs(out) > MAGNITUDE_CAP:
        raise OverflowEscape("image magnitude exceeds cap")
    return (y, out)


def eval_f_inverse(p, pt):
    """Inverse map, through the map's one formula: solving
    Y = next_y(x, X) for x gives f^-1(X, Y) = (next_y(Y, X), X), that is
    swap . f . swap."""
    X, Y = pt
    if abs(X) < DEFAULT_TOL:
        raise PoleError(f"x={X} within tol of the inverse pole line")
    out = p._next_y(Y, X)
    if abs(out) > MAGNITUDE_CAP:
        raise OverflowEscape("image magnitude exceeds cap")
    return (out, X)


def proj_normalize(P):
    """Divide homogeneous coordinates by their max-modulus entry: that entry
    becomes the exact unit of its type (on a jet, with zero partials) and
    the other two are multiplied by its reciprocal, one division in all.

    Only an exact zero is rejected: a tiny vector deep in the tower is
    legitimate, and its modulus may lie far below the smallest double."""
    mods = [abs(z) for z in P]
    m = max(mods)
    if m == 0:
        raise IndeterminacyError("zero projective vector")
    pivot = mods.index(m)
    inv = 1 / P[pivot]
    return tuple(one_like(z) if i == pivot else z * inv for i, z in enumerate(P))


def one_like(z):
    """The multiplicative unit in the scalar type of z, exact, with zero
    partials on a jet."""
    return z * 0 + 1


def proj_equal(P, Q, tol=DEFAULT_TOL):
    """Projective equality via vanishing cross products."""
    x0, x1, x2 = P
    y0, y1, y2 = Q
    cross = (x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x1 * y2 - x2 * y1)
    scale = max(max(abs(z) for z in P), max(abs(z) for z in Q))
    return all(abs(c) <= tol * scale * scale for c in cross)


def eval_f_proj(co, P):
    """The homogeneous degree-(k+1) form of the map with coefficients co
    (a MapCoeffs) on [x0:x1:x2], returned as built, unnormalised: the
    caller normalises (proj_normalize, as the chart layer's jet orbits do
    after every step) or rescales (the chart layer's lifted samples).

    Maps {x2=0} to [0:0:1] and acts on {x0=0} by [0:1:w] -> [0:1:c-1/w].
    Raises IndeterminacyError near [0:1:0], where all components vanish.
    """
    x0, x1, x2 = P
    k, c, a, floor = co
    # k and every l are even, so the form needs x2 only at even powers and
    # k+1, and x0 only at odd powers: build each once.  Scalars go on the
    # right of every product, so a jet never meets an mpmath number on its
    # left (mpmath would first try, and fail, to convert it).
    sq = x2 * x2
    x2p = {2: sq}
    for m in range(4, k + 1, 2):
        x2p[m] = x2p[m - 2] * sq
    sq = x0 * x0
    x0p = {1: x0}
    for m in range(3, k + 2, 2):
        x0p[m] = x0p[m - 2] * sq
    y0 = x0 * x2p[k]
    y1 = x2p[k] * x2
    terms = [x1 * x2p[k] * -1, y1 * c, x0p[k + 1]]
    for l, al in a:
        terms.append(x0p[l + 1] * x2p[k - l] * al)
    y2 = terms[0]
    for t in terms[1:]:
        y2 = y2 + t
    img = (y0, y1, y2)
    # indeterminate iff the image cancels to the noise floor of the largest
    # intermediate term (smallness alone is legitimate deep in the tower);
    # the moduli are compared in the scalar type, where they cannot underflow
    mods = [abs(z) for z in img]
    term_scale = max(mods[0], mods[1], *(abs(t) for t in terms))
    if max(mods) <= term_scale * floor:
        raise IndeterminacyError("projective image vanishes: input at the indeterminacy point")
    return img


# -- combinatorics at infinity ----------------------------------------------


def infinity_orbit(co, n):
    """The forward orbit of [0:0:1] along the line at infinity under the
    map with coefficients co (a MapCoeffs) and period n, the tuple
    (w_1, ..., w_{n-1}) in co's scalar type: iterate w -> c - 1/w from
    w_1 = c.  For a member, w_i = sin((i+1)*theta)/sin(i*theta) (see
    :func:`_admissible`), so no w_i before the last is 0 and the orbit ends
    at w_{n-1} = 0 up to rounding.
    """
    c = co.c
    w = [c]
    for _ in range(n - 2):
        w.append(c - 1 / w[-1])
    return tuple(w)


# -- pole coefficients -------------------------------------------------------


def q_value(co, x, y):
    """The normalizing polynomial y^k * (second component of f(x, y)) =
    1 + sum_l a_l y^(k-l) - x y^k + c y^(k+1), for the map with
    coefficients co (a MapCoeffs)."""
    k, c, a, _ = co
    out = 1 + c * y ** (k + 1) + -x * y ** k
    for l, al in a:
        out = out + al * y ** (k - l)
    return out


def center_series(co):
    """The series coefficients (b_0, ..., b_2k) of y^k / q(x, y) through
    order 2k, a tuple in the scalar type of the coefficients co (a
    MapCoeffs), by truncated series inversion of q.  The x-linear part of
    the order-2k coefficient is exactly 1 and is not stored; b_2k is its
    constant part.

    Coefficients are (constant, x-linear) pairs; x only enters q through
    -x*y^k, so no x^2 terms arise below the truncation order and products
    may drop them.
    """
    k, c, a, _ = co
    zero = c * 0
    u = {k - l: (al, zero) for l, al in a}
    u[k] = (zero, zero - 1)
    u[k + 1] = (c, zero)

    order = 2 * k
    v = [(zero + 1, zero)] + [None] * order
    for m in range(1, order + 1):
        c0 = zero
        c1 = zero
        for i, (a0, a1) in u.items():
            if 1 <= i <= m:
                b0, b1 = v[m - i]
                c0 = c0 + a0 * b0
                c1 = c1 + a0 * b1 + a1 * b0  # x^2 cross term dropped
        v[m] = (-c0, -c1)

    b = [zero] * k + [v[i][0] for i in range(k + 1)]
    # structural checks: pure-x normalization and parity
    if not abs(v[k][1] - 1) < 1e-9:
        raise NumericCheckError("x-linear part of the order-2k coefficient must be 1")
    for i in range(1, k):
        if not abs(v[i][1]) < 1e-9:
            raise NumericCheckError(f"order-{i} coefficient of the series depends on x")
    return tuple(b)
