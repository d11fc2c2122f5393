"""Dual2 arithmetic against closed-form partials, and the operand-order guard.

A Dual2 (a, dx, dy) is the first-order jet of a function of two variables
at the origin: value a, partials dx and dy.  Each operation must give the
value and partials of the corresponding operation on functions.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfauto as sa
from surfauto.charts import (EPS_SEQ, CenterTable, ChartId, ChartPoint, _lift_ladder, _lift_limit,
                             parabolic_check)
from surfauto.dual import Jet, jet_bits, richardson
from surfauto.errors import ExtrapolationError

from jet_oracles import Dual2

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


# -- the chart layer's Jet against Dual2 over mpmath --------------------------------

BITS = jet_bits(DPS)
_gap = st.integers(min_value=-3 * BITS, max_value=3 * BITS)
reals = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
plain = st.one_of(st.integers(-9, 9), reals, st.builds(complex, reals, reals), scalars)


def _pow2(k):
    return mp.ldexp(mp.mpf(1), k)


def _jet(d):
    return Jet.of(d.a, d.dx, d.dy, BITS)


def _scaled(d, shift):
    """d times 2**shift, exactly."""
    return Dual2(d.a * _pow2(shift), d.dx * _pow2(shift), d.dy * _pow2(shift))


def _size(d):
    """Largest component of a jet or scalar."""
    if isinstance(d, Dual2):
        return max(abs(d.a), abs(d.dx), abs(d.dy))
    return abs(mp.mpmathify(d))


def _jet_close(got, want, scale):
    """A Jet rounds all six mantissas at one shared exponent, so its error
    is a small multiple of 2^-BITS times the size of the operands (their
    sum for + and -, their product for * and /), however small the result."""
    assert isinstance(got, Jet)
    with mp.workdps(DPS):
        for g, w in zip(got.mpc(), (want.a, want.dx, want.dy)):
            assert abs(g - w) <= TOL * scale, (g, w)


@settings(deadline=None)
@given(duals, duals, _gap)
def test_jet_jet(u, v, shift):
    """+, - and * agree with Dual2, also when the exponents of the operands
    differ by more than the mantissa width."""
    v = _scaled(v, shift)
    ju, jv = _jet(u), _jet(v)
    with mp.workdps(DPS):
        add, mul = max(_size(u), _size(v)), _size(u) * _size(v)
        _jet_close(ju + jv, u + v, add)
        _jet_close(jv + ju, u + v, add)
        _jet_close(ju - jv, u - v, add)
        _jet_close(jv - ju, v - u, add)
        _jet_close(ju * jv, u * v, mul)
        _jet_close(jv * ju, u * v, mul)


@settings(deadline=None)
@given(duals, invertible, _gap)
def test_jet_over_jet(u, v, shift):
    v = _scaled(v, shift)
    with mp.workdps(DPS):
        inv = 1 / v
        _jet_close(_jet(u) / _jet(v), u / v, _size(u) * _size(inv))
        _jet_close(1 / _jet(v), inv, _size(inv))


@settings(deadline=None)
@given(duals, plain)
def test_jet_scalar_both_sides(u, s):
    j = _jet(u)
    with mp.workdps(DPS):
        m = mp.mpmathify(s)
        add, mul = max(_size(u), _size(s)), _size(u) * _size(s)
        _jet_close(j + s, u + m, add)
        _jet_close(s + j, u + m, add)
        _jet_close(j - s, u - m, add)
        _jet_close(s - j, m - u, add)
        _jet_close(j * s, u * m, mul)
        _jet_close(s * j, u * m, mul)
        if m != 0:
            _jet_close(j / s, u / m, _size(u) / abs(m))


@settings(deadline=None)
@given(invertible, plain)
def test_scalar_over_jet(u, s):
    with mp.workdps(DPS):
        _jet_close(s / _jet(u), mp.mpmathify(s) / u, _size(s) * _size(1 / u))


def test_jet_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        Jet.const(1, BITS) / Jet.of(0, 1, 1, BITS)


def _exact_sq(x):
    """x^2 as a Fraction, for x a float, int or mpf."""
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        x = Fraction(man) * Fraction(2) ** exp
    return Fraction(x) ** 2


def _jet_sq(j):
    return Fraction(j.ar ** 2 + j.ai ** 2) * Fraction(2) ** (2 * j.e)


def _order(a, b):
    return (a > b) - (a < b)


_near = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)


@settings(deadline=None)
@given(scalars, scalars, _near, _gap)
def test_modulus_ordering(z, w, x, shift):
    """abs() of a Jet compares exactly with floats, mpf and other moduli,
    at any scale."""
    with mp.workdps(DPS):
        jz = Jet.const(z * _pow2(shift), BITS)
        jw = Jet.const(w, BITS)
        xs = [x, x * _pow2(shift), float(abs(complex(z)))]
        xs.append(mp.mpf(xs[-1]))
    for y in xs:
        want = _order(_jet_sq(jz), _exact_sq(y))
        m = abs(jz)
        assert ((m < y), (m <= y), (m == y), (m >= y), (m > y)) == \
            (want < 0, want <= 0, want == 0, want >= 0, want > 0), (z, y)
    assert _order(abs(jz), abs(jw)) == _order(_jet_sq(jz), _jet_sq(jw))
    assert abs(jz) == abs(jz) and not abs(jz) < abs(jz)


def test_modulus_exact_values():
    five = abs(Jet.const(3 + 4j, BITS))
    assert five == 5 and five == 5.0 and five == mp.mpf(5)
    assert five < 5.000000000000001 and five > 4.999999999999999
    assert abs(Jet.const(0, BITS)) == 0 and not abs(Jet.const(0, BITS)) < 0.0
    tiny = Jet.const(mp.mpf("1e-400"), BITS)
    assert abs(tiny) > 0 and abs(tiny) < 1e-300
    assert complex(tiny) == 0j  # double precision underflows; the modulus does not
    # a product of moduli is the modulus of the product
    assert abs(tiny) * five == abs(tiny * 5)


def test_modulus_to_float():
    assert float(abs(Jet.const(3 + 4j, BITS))) == 5.0
    assert float(abs(Jet.const(0, BITS))) == 0.0
    with mp.workdps(DPS):
        for x in ("1e-200", "7.3e-320", "2.5e300", "0.1"):
            want = float(mp.mpf(x))
            got = float(abs(Jet.const(mp.mpf(x) * (0.6 - 0.8j), BITS)))
            assert abs(got - want) <= 1e-15 * want, x
        # below the smallest double the float is 0; the Modulus compares exactly
        assert float(abs(Jet.const(mp.mpf("1e-400"), BITS))) == 0.0


# -- Richardson extrapolation on Jets ----------------------------------------------------


def _ulps_close(got, want, scale, ulps=8):
    """got (a Jet) within `ulps` units in the last place at BITS bits of
    scale, in the value and both partials."""
    with mp.workdps(2 * DPS):
        for g, w in zip(got.mpc(), (want.a, want.dx, want.dy)):
            assert abs(g - w) <= ulps * mp.ldexp(scale, -BITS), (g, w)


@settings(deadline=None)
@given(duals, duals, duals)
def test_richardson_is_exact_on_quadratics(a, b, c):
    """Order-2 extrapolation over three lifts reproduces a for
    v(eps) = a + b eps + c eps^2, in the value and both partials, and its
    gap is what the order-1 extrapolant over the first two lifts misses,
    c eps0 eps1."""
    eps = [Jet.const(e, BITS) for e in EPS_SEQ]
    ja, jb, jc = _jet(a), _jet(b), _jet(c)
    vals = [ja + jb * e + jc * e * e for e in eps]
    lim, gap = richardson(eps, vals)
    with mp.workdps(2 * DPS):
        scale = max(_size(a), _size(b), _size(c), mp.mpf(2) ** -40)
        _ulps_close(lim, a, scale)
        e0, e1 = (mp.mpf(e) for e in EPS_SEQ[:2])
        _ulps_close(gap, Dual2(c.a * e0 * e1, c.dx * e0 * e1, c.dy * e0 * e1), scale)
        first, _ = richardson(eps[:2], vals[:2])
        _ulps_close(lim - first, Dual2(*gap.mpc()), scale)


def test_lift_ladder_extends_by_one_decade_per_limit():
    """The ladder's first limit is the order-2 extrapolant over the lifts
    of EPS_SEQ; its second is over the last three lifts after one more
    decade, EPS_SEQ[-1] / 10 at the table's dps.  Each component of a
    sample extrapolates on its own, and each pull takes one more sample."""
    table = CenterTable.build(sa.figure1_params())
    lifts = []

    def sample(eps):
        lifts.append(eps)
        return (1 / (1 - eps), eps * eps * eps + 2)

    def mantissas(z):
        return [getattr(z, slot) for slot in Jet.__slots__]

    with mp.workdps(table.dps):
        ladder = _lift_ladder(table, sample)
        first = next(ladder)
        assert len(lifts) == 3
        second = next(ladder)
        assert len(lifts) == 4
        eps = [Jet.const(e, table.bits) for e in EPS_SEQ]
        eps.append(Jet.const(mp.mpf(EPS_SEQ[-1]) / 10, table.bits))
        assert list(map(mantissas, lifts)) == list(map(mantissas, eps))
        vals = [(1 / (1 - e), e * e * e + 2) for e in eps]
        for i in range(2):
            want = richardson(eps[:3], [v[i] for v in vals[:3]])[0]
            assert mantissas(first[i]) == mantissas(want)
            want = richardson(eps[1:], [v[i] for v in vals[1:]])[0]
            assert mantissas(second[i]) == mantissas(want)
        assert abs(complex(second[0]) - 1) < 1e-14   # the cubic term leaves e0 e1 e2 = 1e-15


def test_extrapolation_error_reports_a_float():
    """A lift that never settles raises ExtrapolationError naming by how
    much, as a plain finite float."""
    table = CenterTable.build(sa.figure1_params())
    with pytest.raises(ExtrapolationError) as info:
        _lift_limit(table, 0.5, lambda xi, eps: xi + 1 / eps, "probe")
    msg = str(info.value)
    moved = float(msg.split("moving by ")[1].split(" >")[0])
    assert msg.startswith("probe ") and math.isfinite(moved) and moved > 1.0


@settings(deadline=None)
@given(scalars, scalars)
def test_jet_round_trips(z, w):
    """Conversion rounds at the jet's largest component only; a value held
    exactly converts to the same double as in mpmath."""
    with mp.workdps(DPS):
        _jet_close(Jet.const(z, BITS), Dual2(z, 0, 0), _size(z))
        _jet_close(Jet.of(z, 1, w, BITS), Dual2(z, 1, w), _size(Dual2(z, 1, w)))
        j = Jet.const(z, BITS)
        if j.mpc()[0] == z:
            assert complex(j) == complex(z)
    assert Jet.of(0.5 + 2j, -1, 3, BITS).mpc() == (0.5 + 2j, -1, 3)


def test_chart_kernel_keeps_jets_on_the_left(monkeypatch):
    """A scalar on the left of a Jet is converted on every operation; the
    kernel converts its constants once and keeps Jets on the left, so no Jet
    is ever formatted (mpmath formats the operand of a failed conversion)."""
    p = sa.figure1_params()
    table = CenterTable.build(p)

    def no_repr(self):
        raise AssertionError("Jet.__repr__ called")

    monkeypatch.setattr(Jet, "__repr__", no_repr)
    r = parabolic_check(table, ChartId(0, 3), ChartPoint(1.1 + 0.2j, 0.0))
    assert r.max_deviation < 1e-6
    assert r.fix_residual < 1e-8
