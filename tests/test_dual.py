"""Dual2 arithmetic against closed-form partials, and the operand-order guard.

A Dual2 (a, dx, dy) is the first-order jet of a function of two variables
at the origin: value a, partials dx and dy.  Each operation must give the
value and partials of the corresponding operation on functions.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfauto as sa
from surfauto.charts import CenterTable, ChartId, ChartPoint, parabolic_check
from surfauto.dual import Dual2

DPS = 50
TOL = mp.mpf(10) ** (-(DPS - 10))

_part = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
_away = st.floats(min_value=0.25, max_value=4.0) | st.floats(min_value=-4.0, max_value=-0.25)


def _mpc(re, im):
    with mp.workdps(DPS):
        return mp.mpc(re, im)


scalars = st.builds(_mpc, _part, _part)
nonzero = st.builds(_mpc, _away, _part)
duals = st.builds(Dual2, scalars, scalars, scalars)
invertible = st.builds(Dual2, nonzero, scalars, scalars)


def _close(got, a, dx, dy):
    assert isinstance(got, Dual2)
    for g, w in ((got.a, a), (got.dx, dx), (got.dy, dy)):
        assert abs(g - w) <= TOL * (1 + abs(w)), (g, w)


@settings(deadline=None)
@given(duals, duals)
def test_dual_dual(u, v):
    with mp.workdps(DPS):
        _close(u + v, u.a + v.a, u.dx + v.dx, u.dy + v.dy)
        _close(u - v, u.a - v.a, u.dx - v.dx, u.dy - v.dy)
        _close(u * v, u.a * v.a, u.a * v.dx + u.dx * v.a, u.a * v.dy + u.dy * v.a)


@settings(deadline=None)
@given(duals, invertible)
def test_dual_over_dual(u, v):
    with mp.workdps(DPS):
        b2 = v.a * v.a
        _close(u / v, u.a / v.a, (u.dx * v.a - u.a * v.dx) / b2,
               (u.dy * v.a - u.a * v.dy) / b2)


@settings(deadline=None)
@given(duals, nonzero)
def test_dual_scalar(u, s):
    with mp.workdps(DPS):
        _close(u + s, u.a + s, u.dx, u.dy)
        _close(s + u, u.a + s, u.dx, u.dy)
        _close(u - s, u.a - s, u.dx, u.dy)
        _close(s - u, s - u.a, -u.dx, -u.dy)
        _close(u * s, u.a * s, u.dx * s, u.dy * s)
        _close(s * u, u.a * s, u.dx * s, u.dy * s)
        _close(u / s, u.a / s, u.dx / s, u.dy / s)


@settings(deadline=None)
@given(invertible, scalars)
def test_scalar_over_dual(u, s):
    with mp.workdps(DPS):
        a2 = u.a * u.a
        _close(s / u, s / u.a, -s * u.dx / a2, -s * u.dy / a2)
        _close(1 / u, 1 / u.a, -u.dx / a2, -u.dy / a2)


@settings(deadline=None)
@given(duals, st.integers(min_value=0, max_value=9))
def test_integer_power(u, m):
    with mp.workdps(DPS):
        lead = m * u.a ** (m - 1) if m else 0
        _close(u ** m, u.a ** m, lead * u.dx, lead * u.dy)


def test_power_rejects_non_integer():
    with pytest.raises(TypeError):
        Dual2(mp.mpc(1, 1)) ** 0.5


def test_fiber_check_keeps_jets_on_the_left(monkeypatch):
    """A scalar on the left of a jet makes mpmath build the jet's repr for
    a failed conversion; the kernel must never take that path."""
    p = sa.figure1_params()
    table = CenterTable.build(p)

    def no_repr(self):
        raise AssertionError("Dual2.__repr__ called: a scalar was the left operand of a jet")

    monkeypatch.setattr(Dual2, "__repr__", no_repr)
    r = parabolic_check(p, table, ChartId("tower", 0, 3), ChartPoint(1.1 + 0.2j, 0.0))
    assert r.max_deviation < 1e-6
    assert r.fix_residual < 1e-8
