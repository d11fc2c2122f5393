"""Test oracles for the package's jets and Jacobian.

:class:`Dual2` is a first-order jet over any scalar type that supports
+, -, * and /: over mpmath it is the reference the chart layer's
:class:`surfauto.dual.Jet` is checked against, and over python complex it
differentiates the map for :func:`jacobian_dual`, the reference for the
closed-form :func:`surfauto.jacobian`.  :func:`chart_ids` lists every
chart of a center table, the sweep of the chart round-trip tests.
"""

import numpy as np

from surfauto.charts import ChartId
from surfauto.mapfamily import eval_f


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


def jacobian_dual(p, pt):
    """Df at an affine point by forward-mode differentiation of eval_f."""
    x, y = pt
    xd = Dual2(complex(x), 1, 0)
    yd = Dual2(complex(y), 0, 1)
    fx, fy = eval_f(p, (xd, yd))
    return np.array([[fx.dx, fx.dy], [fy.dx, fy.dy]], dtype=complex)


def chart_ids(table):
    """Every chart of table, levels 0..2k+1 of every limb: level 0 of each
    limb first, then the tower levels limb by limb."""
    n, k = table.n, table.k
    return ([ChartId(s, 0) for s in range(n)]
            + [ChartId(s, j) for s in range(n) for j in range(1, 2 * k + 2)])
