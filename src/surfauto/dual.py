"""First-order dual numbers with two independent perturbation directions.

Used to push a full 2x2 Jacobian through compositions of chart maps and
map evaluations without finite differencing.  Components may be python
complex or mpmath numbers; arithmetic only uses +,-,*,/.
"""

import mpmath as mp


class Dual2:
    """a + dx*e1 + dy*e2 with e1^2 = e2^2 = e1*e2 = 0.

    A scalar operand costs one component operation per component, a Dual2
    operand the full product rule.  Keep the Dual2 on the left of a mixed
    product (``jet * c``, not ``c * jet``): with an mpmath scalar on the
    left, mpmath first tries and fails to convert the jet -- building its
    repr for the error message -- before Python falls back to ``__rmul__``.
    """

    __slots__ = ("a", "dx", "dy")

    def __init__(self, a, dx=0, dy=0):
        self.a = a
        self.dx = dx
        self.dy = dy

    def __add__(self, o):
        if isinstance(o, Dual2):
            return Dual2(self.a + o.a, self.dx + o.dx, self.dy + o.dy)
        return Dual2(self.a + o, self.dx, self.dy)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual2):
            return Dual2(self.a - o.a, self.dx - o.dx, self.dy - o.dy)
        return Dual2(self.a - o, self.dx, self.dy)

    def __rsub__(self, o):
        return Dual2(o - self.a, -self.dx, -self.dy)

    def __mul__(self, o):
        if isinstance(o, Dual2):
            a, oa = self.a, o.a
            return Dual2(a * oa, a * o.dx + self.dx * oa, a * o.dy + self.dy * oa)
        return Dual2(self.a * o, self.dx * o, self.dy * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Dual2):
            return Dual2(self.a / o, self.dx / o, self.dy / o)
        inv = 1 / o.a
        q = self.a * inv
        return Dual2(q, (self.dx - q * o.dx) * inv, (self.dy - q * o.dy) * inv)

    def __rtruediv__(self, o):
        inv = 1 / self.a
        q = o * inv
        r = -q * inv
        return Dual2(q, r * self.dx, r * self.dy)

    def __pow__(self, m):
        if not isinstance(m, int) or m < 0:
            raise TypeError("only nonnegative integer powers")
        if m == 0:
            return Dual2(self.a * 0 + 1)
        out = None
        base = self
        while m:
            if m & 1:
                out = base if out is None else out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def __neg__(self):
        return Dual2(-self.a, -self.dx, -self.dy)

    def __abs__(self):
        return abs(self.a)

    def __repr__(self):
        return f"Dual2({self.a!r}, {self.dx!r}, {self.dy!r})"


def value(x):
    """Scalar value of a possibly-dual number."""
    return x.a if isinstance(x, Dual2) else x


def richardson(eps, vals):
    """Neville extrapolation of vals(eps) to eps -> 0.

    Returns (limit, err_estimate): err is the change contributed by the
    last extrapolation order, a practical convergence measure.
    """
    eps = [mp.mpf(e) for e in eps]
    tbl = [list(vals)]
    m = len(vals)
    for lev in range(1, m):
        row = []
        for i in range(m - lev):
            e0, e1 = eps[i], eps[i + lev]
            row.append((e0 * tbl[lev - 1][i + 1] - e1 * tbl[lev - 1][i]) / (e0 - e1))
        tbl.append(row)
    limit = tbl[-1][0]
    err = abs(limit - tbl[-2][0]) if m >= 2 else mp.mpf(0)
    return limit, err
