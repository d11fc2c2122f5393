"""The chart layer's first-order jet, with two independent perturbation
directions.

:class:`Jet` holds the value and both partials as Gaussian-integer
mantissas with one shared binary exponent, rounded to a fixed number of bits
after every operation, so that each operation costs a handful of Python
integer products instead of mpmath's per-operation overhead.  Its modulus
(:class:`Modulus`) compares exactly, and :func:`richardson` extrapolates
Jets, value and partials at once.
"""

import math

import mpmath as mp

# Bits a Jet keeps beyond mpmath's precision at the same dps.
JET_GUARD_BITS = 12


def jet_bits(dps):
    """Mantissa width of a Jet at working precision dps: mpmath's binary
    precision at that dps plus JET_GUARD_BITS."""
    return mp.libmp.dps_to_prec(dps) + JET_GUARD_BITS


def _mpf_man_exp(t):
    """An mpmath raw mpf tuple as an exact pair (m, e) with value m * 2**e."""
    sign, man, exp, _ = t
    if not man and exp:
        raise ValueError("cannot make a Jet of an infinite or NaN mpf")
    return (-man if sign else man), exp


def _real_man_exp(x):
    """A real int, float or mpf as an exact pair (m, e) with x = m * 2**e."""
    if type(x) is int:
        return x, 0
    if hasattr(x, "_mpf_"):
        return _mpf_man_exp(x._mpf_)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot make a Jet of {x}")
    m, e = math.frexp(x)
    return int(m * 9007199254740992.0), e - 53


def _gauss(z):
    """z (int, float, complex, mpf or mpc) as an exact Gaussian integer and
    binary exponent: z = (re + i*im) * 2**e."""
    if hasattr(z, "_mpc_"):
        (re, er), (im, ei) = map(_mpf_man_exp, z._mpc_)
    elif isinstance(z, complex):
        (re, er), (im, ei) = _real_man_exp(z.real), _real_man_exp(z.imag)
    else:
        (re, er), (im, ei) = _real_man_exp(z), (0, 0)
    if not im:
        return re, 0, er
    if not re:
        return 0, im, ei
    e = min(er, ei)
    return re << (er - e), im << (ei - e), e


def _jet(ar, ai, xr, xi, yr, yi, e, bits):
    """Jet from mantissas of any width, rounded to nearest at `bits` bits."""
    s = max(ar.bit_length(), ai.bit_length(), xr.bit_length(), xi.bit_length(),
            yr.bit_length(), yi.bit_length()) - bits
    if s > 0:
        h = 1 << (s - 1)
        ar = (ar + h) >> s
        ai = (ai + h) >> s
        xr = (xr + h) >> s
        xi = (xi + h) >> s
        yr = (yr + h) >> s
        yi = (yi + h) >> s
        e += s
    return Jet(ar, ai, xr, xi, yr, yi, e, bits)


def _join(vr, vi, ev, xr, xi, yr, yi, ed, bits):
    """Jet from a value at exponent ev and partials at exponent ed."""
    if ev > ed:
        d = ev - ed
        return _jet(vr << d, vi << d, xr, xi, yr, yi, ed, bits)
    d = ed - ev
    return _jet(vr, vi, xr << d, xi << d, yr << d, yi << d, ev, bits)


def _to_float(m, e):
    """m * 2**e as a float; OverflowError when out of range."""
    n = m.bit_length()
    if n > 1000:  # float() of the mantissa itself would overflow
        m >>= n - 64
        e += n - 64
    return math.ldexp(float(m), e)


class Jet:
    """value + d/du*e1 + d/dv*e2 with complex value and partials, held as six
    Python ints (Gaussian-integer mantissas) and one binary exponent:

        value = (ar + i*ai) * 2**e,  d/du = (xr + i*xi) * 2**e,  d/dv = (yr + i*yi) * 2**e.

    Every operation rounds the six mantissas to nearest at `bits` bits,
    keeping the shared exponent, so the error of each operation is a few
    units in the last place of the jet's largest component.  Scalar operands
    (int, float, complex, mpf, mpc) are converted exactly; callers convert
    their constants once with :meth:`const`.  ``abs()`` gives the
    :class:`Modulus` of the value, ``complex()`` the value in double
    precision and :meth:`mpc` the value and partials in mpmath.
    """

    __slots__ = ("ar", "ai", "xr", "xi", "yr", "yi", "e", "bits")

    def __init__(self, ar, ai, xr, xi, yr, yi, e, bits):
        self.ar = ar
        self.ai = ai
        self.xr = xr
        self.xi = xi
        self.yr = yr
        self.yi = yi
        self.e = e
        self.bits = bits

    @classmethod
    def of(cls, a, dx, dy, bits):
        """The jet with value a and partials dx, dy (any scalars), exactly
        converted and then rounded to `bits` bits."""
        parts = [_gauss(z) for z in (a, dx, dy)]
        e = min((pe for re, im, pe in parts if re or im), default=0)
        (ar, ai), (xr, xi), (yr, yi) = ((re << (pe - e), im << (pe - e)) if re or im else (0, 0)
                                        for re, im, pe in parts)
        return _jet(ar, ai, xr, xi, yr, yi, e, bits)

    @classmethod
    def const(cls, z, bits):
        """A constant: the scalar z with zero partials."""
        re, im, e = _gauss(z)
        return _jet(re, im, 0, 0, 0, 0, e, bits)

    def _like(self, o):
        return o if type(o) is Jet else Jet.const(o, self.bits)

    def __add__(self, o):
        return _sum(self, self._like(o), False)

    __radd__ = __add__

    def __sub__(self, o):
        return _sum(self, self._like(o), True)

    def __rsub__(self, o):
        return _sum(self._like(o), self, True)

    def __mul__(self, o):
        ar, ai, xr, xi, yr, yi = self.ar, self.ai, self.xr, self.xi, self.yr, self.yi
        if type(o) is int:
            return _jet(ar * o, ai * o, xr * o, xi * o, yr * o, yi * o, self.e, self.bits)
        o = self._like(o)
        br, bi, pr, pi, qr, qi = o.ar, o.ai, o.xr, o.xi, o.yr, o.yi
        if not (pr or pi or qr or qi):  # a constant factor: no product rule
            if not (xr or xi or yr or yi):  # two constants: the value alone
                return _jet(ar * br - ai * bi, ar * bi + ai * br, 0, 0, 0, 0,
                            self.e + o.e, self.bits)
            return _jet(ar * br - ai * bi, ar * bi + ai * br,
                        xr * br - xi * bi, xr * bi + xi * br,
                        yr * br - yi * bi, yr * bi + yi * br,
                        self.e + o.e, self.bits)
        return _jet(ar * br - ai * bi, ar * bi + ai * br,
                    ar * pr - ai * pi + xr * br - xi * bi,
                    ar * pi + ai * pr + xr * bi + xi * br,
                    ar * qr - ai * qi + yr * br - yi * bi,
                    ar * qi + ai * qr + yr * bi + yi * br,
                    self.e + o.e, self.bits)

    __rmul__ = __mul__

    def reciprocal(self):
        """1/self: value 1/a and partials -d/a^2."""
        ar, ai, bits = self.ar, self.ai, self.bits
        norm = ar * ar + ai * ai
        if not norm:
            raise ZeroDivisionError("Jet division by a zero value")
        # conj(a) * 2**k // |a|^2 carries about bits + 2 significant bits
        k = bits + 2 + (norm.bit_length() + 1) // 2
        ir, ii = (ar << k) // norm, -((ai << k) // norm)
        ev = -k - self.e
        xr, xi, yr, yi = self.xr, self.xi, self.yr, self.yi
        if not (xr or xi or yr or yi):
            return _jet(ir, ii, 0, 0, 0, 0, ev, bits)
        sr, si = ir * ir - ii * ii, 2 * ir * ii      # 1/a^2 at exponent 2*ev
        t = max(sr.bit_length(), si.bit_length()) - bits
        if t > 0:
            sr >>= t
            si >>= t
        else:
            t = 0
        return _join(ir, ii, ev,
                     si * xi - sr * xr, -(sr * xi + si * xr),
                     si * yi - sr * yr, -(sr * yi + si * yr),
                     2 * ev + t + self.e, bits)

    def __truediv__(self, o):
        return self * self._like(o).reciprocal()

    def __rtruediv__(self, o):
        if type(o) is int and o == 1:
            return self.reciprocal()
        return self.reciprocal() * o

    def ldexp(self, d):
        """self * 2**d, exactly: the mantissas are kept, the exponent moves."""
        return Jet(self.ar, self.ai, self.xr, self.xi, self.yr, self.yi, self.e + d, self.bits)

    def __abs__(self):
        return Modulus(self.ar * self.ar + self.ai * self.ai, 2 * self.e)

    def __complex__(self):
        return complex(_to_float(self.ar, self.e), _to_float(self.ai, self.e))

    def mpc(self):
        """(value, d/du, d/dv) as mpmath numbers at the current precision."""
        e = self.e
        return tuple(mp.mpc(mp.mpf((re, e)), mp.mpf((im, e)))
                     for re, im in ((self.ar, self.ai), (self.xr, self.xi), (self.yr, self.yi)))

    def __repr__(self):
        a, dx, dy = (complex(_to_float(r, self.e), _to_float(i, self.e))
                     for r, i in ((self.ar, self.ai), (self.xr, self.xi), (self.yr, self.yi)))
        return f"Jet({a}, {dx}, {dy}, bits={self.bits})"


def _sum(a, b, negate):
    """a + b, or a - b when negate."""
    bits = a.bits
    ar, ai, xr, xi, yr, yi = a.ar, a.ai, a.xr, a.xi, a.yr, a.yi
    br, bi, pr, pi, qr, qi = b.ar, b.ai, b.xr, b.xi, b.yr, b.yi
    if negate:
        br, bi, pr, pi, qr, qi = -br, -bi, -pr, -pi, -qr, -qi
    d = a.e - b.e
    if d > 0:
        if d > 2 * bits:
            # b lies below the last kept bit of a, unless a is zero
            if ar or ai or xr or xi or yr or yi:
                return a
            return Jet(br, bi, pr, pi, qr, qi, b.e, bits)
        ar, ai, xr, xi, yr, yi = ar << d, ai << d, xr << d, xi << d, yr << d, yi << d
        e = b.e
    elif d < 0:
        if -d > 2 * bits:
            if br or bi or pr or pi or qr or qi:
                return Jet(br, bi, pr, pi, qr, qi, b.e, bits)
            return a
        d = -d
        br, bi, pr, pi, qr, qi = br << d, bi << d, pr << d, pi << d, qr << d, qi << d
        e = a.e
    else:
        e = a.e
    return _jet(ar + br, ai + bi, xr + pr, xi + pi, yr + qr, yi + qi, e, bits)


class Modulus:
    """|z| of a Jet's value, held exactly as its square: |z|^2 = n * 2**e.

    Compares exactly with other moduli and with ints, floats and mpf, and
    multiplies with another Modulus (|z| * |w| = |z*w|), so thresholds such
    as ``floor * scale`` never pass through a double and cannot underflow.
    """

    __slots__ = ("n", "e")

    def __init__(self, n, e):
        self.n = n
        self.e = e

    def __mul__(self, o):
        if type(o) is not Modulus:
            return NotImplemented
        return Modulus(self.n * o.n, self.e + o.e)

    def __float__(self):
        # about 106 bits of n, at an even exponent, which halves exactly
        n, e = self.n, self.e
        s = n.bit_length() - 106
        s += (e + s) & 1
        n = n >> s if s >= 0 else n << -s
        return math.ldexp(math.sqrt(n), (e + s) // 2)

    def _cmp(self, o):
        """Sign of |z| - o."""
        if type(o) is not Modulus:
            if o < 0:
                return 1
            m, e = _real_man_exp(o)
            o = Modulus(m * m, 2 * e)
        n1, n2 = self.n, o.n
        if not n1 or not n2:
            return (n1 > 0) - (n2 > 0)
        t1, t2 = n1.bit_length() + self.e, n2.bit_length() + o.e
        if t1 != t2:
            return 1 if t1 > t2 else -1
        d = self.e - o.e
        if d > 0:
            n1 <<= d
        else:
            n2 <<= -d
        return (n1 > n2) - (n1 < n2)

    def __lt__(self, o):
        return self._cmp(o) < 0

    def __le__(self, o):
        return self._cmp(o) <= 0

    def __gt__(self, o):
        return self._cmp(o) > 0

    def __ge__(self, o):
        return self._cmp(o) >= 0

    def __eq__(self, o):
        return self._cmp(o) == 0

    __hash__ = None


def richardson(eps, vals):
    """Neville extrapolation of the Jets vals(eps) to eps -> 0.

    eps and vals are two or more Jets each; value and partials extrapolate
    together, since the scheme is linear in vals.  Returns (limit, gap):
    the limit Jet and the change the last extrapolation order contributed
    to it, whose components are a practical convergence measure.
    """
    col = list(vals)
    for lev in range(1, len(col)):
        prev = col[0]
        col = [(col[i + 1] * eps[i] - col[i] * eps[i + lev]) / (eps[i] - eps[i + lev])
               for i in range(len(col) - 1)]
    return col[0], col[0] - prev
