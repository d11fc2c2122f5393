import cmath
import dataclasses
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfauto as sa
from surfauto.charts import CenterTable, ChartPoint, _f_jet
from surfauto.dual import Jet, jet_bits
from surfauto.mapfamily import one_like, q_value

from jet_oracles import chart_ids


def hv_params():
    return sa.MapParams(n=3, k=2, c_spec=(1, 1))


def fig1():
    return sa.figure1_params()


# -- candidate / admissible c --------------------------------------------------

def test_candidate_c_small_n():
    assert sa.candidate_c(2) == pytest.approx([0.0], abs=1e-12)
    assert sa.candidate_c(3) == pytest.approx([1.0, -1.0], abs=1e-12)
    assert sa.candidate_c(4) == pytest.approx([math.sqrt(2), -math.sqrt(2)], abs=1e-12)


def test_admissible_c_counts_and_values():
    assert sa.admissible_c(2) == pytest.approx([0.0], abs=1e-12)
    assert sa.admissible_c(3) == pytest.approx([1.0], abs=1e-9)
    assert sa.admissible_c(4) == pytest.approx([math.sqrt(2), -math.sqrt(2)], abs=1e-12)
    phi = {2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4}
    for n, ph in phi.items():
        expected = ph if n % 2 == 0 else ph // 2
        assert len(sa.admissible_c(n)) == expected


def _midpoint_admissible_c(n):
    """Reference oracle, the float rule admissible_c used before its closed
    form: dedupe the candidates, then keep, for odd n, those whose orbit
    at infinity has midpoint w_((n-1)/2) within sqrt(1e-9) of 1."""
    cands = []
    for j in range(1, n):
        if math.gcd(j, n) == 1:
            v = 2.0 * math.cos(math.pi * j / n)
            if not any(abs(v - u) < 1e-12 for u in cands):
                cands.append(v)
    out = []
    for c in sorted(cands, reverse=True):
        w = c
        for _ in range((n - 1) // 2 - 1):
            w = c - 1.0 / w
        if n % 2 == 0 or abs(w - 1.0) < math.sqrt(1e-9):
            out.append(c)
    return out


def test_admissible_c_matches_midpoint_oracle():
    for n in range(2, 301):
        assert sa.admissible_c(n) == _midpoint_admissible_c(n), n


def test_parity_rule_matches_midpoint_oracle():
    # a (j, sign) member exists exactly when the oracle admits its c
    for n in range(2, 61):
        oracle = _midpoint_admissible_c(n)
        for j in range(1, n):
            if math.gcd(j, n) != 1:
                continue
            for sign in (1, -1):
                c = sign * 2 * math.cos(math.pi * j / n)
                admitted = any(abs(c - u) < 1e-9 for u in oracle)
                try:
                    sa.MapParams(n, 4, (j, sign))
                    accepted = True
                except sa.ParamError:
                    accepted = False
                assert accepted == admitted, (n, j, sign)


def test_copies_are_members_too():
    p = sa.MapParams(3, 4, (1, 1))
    with pytest.raises(sa.ParamError):
        dataclasses.replace(p, c_spec=(2, 1))    # c = -1: midpoint -1


def test_c_by_value_is_rejected():
    # c is given by (j, sign) alone, in code and in a parameter file
    for c in (math.sqrt(2), 1e-12, complex(math.sqrt(2))):
        with pytest.raises(sa.ParamError, match="not by value"):
            sa.MapParams(4, 4, c)
        with pytest.raises(sa.ParamError, match='c must be {"j": integer'):
            sa.MapParams.from_json_dict({"n": 4, "k": 4, "c": c.real})


def test_bad_params_rejected():
    with pytest.raises(sa.ParamError):
        sa.MapParams(n=2, k=2, c_spec=(1, 1))   # entropy would be zero
    with pytest.raises(sa.ParamError):
        sa.MapParams(n=3, k=2, c_spec=(2, 1))   # c = -1 not admissible
    with pytest.raises(sa.ParamError):
        sa.MapParams(n=3, k=4, c_spec=(1, 1), a={3: 1.0})  # odd index
    with pytest.raises(sa.ParamError):
        sa.MapParams(n=4, k=2, c_spec=(2, 1))   # j not coprime
    with pytest.raises(sa.ParamError, match="a gives a_2 twice"):
        sa.MapParams.from_json_dict({"n": 2, "k": 6, "c": {"j": 1}, "a": {"2": 0.5, "02": -1.0}})


# -- the map -------------------------------------------------------------------

def test_eval_f_figure1_point():
    p = fig1()
    out = sa.eval_f(p, (1.0, 1.0))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(-2.64, abs=1e-12)


def test_eval_f_hand_value():
    out = sa.eval_f(hv_params(), (0.0, 1.0))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(2.0, abs=1e-12)


def test_eval_f_fixed_point_is_fixed():
    p = fig1()
    recs = sa.fixed_points(p)
    z = recs[0].zeta
    img = sa.eval_f(p, (z, z))
    assert abs(img[0] - z) < 1e-10 and abs(img[1] - z) < 1e-10


def test_eval_f_pole_and_overflow():
    p = hv_params()
    with pytest.raises(sa.PoleError):
        sa.eval_f(p, (0.3, 1e-12))
    with pytest.raises(OverflowError):
        sa.eval_f(p, (3e100, 1.0))


def test_inverse_is_swap_conjugate():
    # s . f . s = f^-1 for the coordinate swap s, whatever c and the a_l
    members = (fig1(), sa.MapParams(3, 4, (1, 1), {2: 0.4}),
               sa.MapParams(2, 6, (1, 1), {2: 0.3 + 0.5j, 4: -0.7j}))
    for p in members:
        rng = random.Random(7)
        for _ in range(100):
            pt = (rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
                  rng.uniform(0.2, 2) + 1j * rng.uniform(-1, 1))
            via_inv = sa.eval_f_inverse(p, pt)
            swapped = sa.eval_f(p, (pt[1], pt[0]))
            expect = (swapped[1], swapped[0])
            assert abs(via_inv[0] - expect[0]) < 1e-10
            assert abs(via_inv[1] - expect[1]) < 1e-10


def test_inverse_round_trip_and_formula():
    p = fig1()
    a = -2.64
    rng = random.Random(3)
    for _ in range(20):
        pt = (rng.uniform(0.3, 2), rng.uniform(-2, 2))
        x, y = pt
        formula = (-y + a / x ** 2 + 1 / x ** 4, x)
        got = sa.eval_f_inverse(p, pt)
        assert abs(got[0] - formula[0]) < 1e-11
        assert abs(got[1] - formula[1]) < 1e-11
        back = sa.eval_f(p, got)
        assert abs(back[0] - pt[0]) < 1e-9 and abs(back[1] - pt[1]) < 1e-9
    z = sa.fixed_points(p)[0].zeta
    inv = sa.eval_f_inverse(p, (z, z))
    assert abs(inv[0] - z) < 1e-9 and abs(inv[1] - z) < 1e-9


_re = st.floats(min_value=-2.0, max_value=2.0)
_y_off = st.floats(min_value=0.5, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.5)


@settings(deadline=None)
@given(_re, _re, _y_off, _re)
def test_inverse_undoes_map_with_complex_a(xr, xi, yr, yi):
    # complex points and coefficients: swap . f . swap undoes f
    p = sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64 + 0.3j})
    pt = (complex(xr, xi), complex(yr, yi))
    back = sa.eval_f_inverse(p, sa.eval_f(p, pt))
    assert abs(back[0] - pt[0]) < 1e-11 and back[1] == pt[1]


def test_reversibility_random_points():
    p = hv_params()
    rng = random.Random(11)
    for _ in range(100):
        pt = (rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
        q = sa.eval_f(p, pt)
        r = sa.eval_f(p, (q[1], q[0]))
        assert abs(r[1] - pt[0]) < 1e-9 and abs(r[0] - pt[1]) < 1e-9


def test_jacobian_determinant_is_one():
    for p in (hv_params(), fig1()):
        rng = random.Random(5)
        for _ in range(100):
            pt = (rng.uniform(-2, 2) + 1j * rng.uniform(-0.5, 0.5),
                  rng.uniform(0.3, 2) + 1j * rng.uniform(-0.5, 0.5))
            J = sa.jacobian(p, pt)
            det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
            assert abs(det - 1) < 1e-9


# -- projective form -------------------------------------------------------------

def test_proj_collapses_pole_line():
    p = fig1()
    for x in (0.0, 1.3, -2.0 + 0.5j):
        img = sa.proj_normalize(sa.eval_f_proj(p.coeffs(), (1.0, x, 0.0)))
        assert sa.proj_equal(img, (0.0, 0.0, 1.0))


def test_proj_rotation_at_infinity():
    p = sa.MapParams(n=4, k=2, c_spec=(1, 1))
    c = p.coeffs().c
    for w in (0.7, -1.2, 2.0 + 1.0j):
        img = sa.proj_normalize(sa.eval_f_proj(p.coeffs(), (0.0, 1.0, w)))
        assert sa.proj_equal(img, (0.0, 1.0, c - 1.0 / w), tol=1e-12)


def test_proj_matches_affine_chart():
    p = hv_params()
    img = sa.proj_normalize(sa.eval_f_proj(p.coeffs(), (1.0, 1.0, 1.0)))
    aff = sa.eval_f(p, (1.0, 1.0))
    assert sa.proj_equal(img, (1.0, aff[0], aff[1]), tol=1e-12)
    rng = random.Random(31)
    for q in (hv_params(), fig1()):
        for _ in range(25):
            pt = (rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
                  rng.uniform(0.3, 2) + 1j * rng.uniform(-1, 1))
            img = sa.proj_normalize(sa.eval_f_proj(q.coeffs(), (1.0, pt[0], pt[1])))
            aff = sa.eval_f(q, pt)
            assert sa.proj_equal(img, (1.0, aff[0], aff[1]), tol=1e-10)


def test_proj_indeterminacy():
    p = hv_params()
    with pytest.raises(sa.IndeterminacyError):
        sa.eval_f_proj(p.coeffs(), (0.0, 1.0, 0.0))


def _deep(scalar, dps):
    """[2^-400 : 1 : 2^-500] for f with k = 4, c = 0 and no a_l: the image
    component x0^5 - x1*x2^4 cancels exactly, and the image is 2^-400 below
    its largest term, 2^-2000, which is far below the smallest double."""
    return tuple(scalar(mp.ldexp(mp.mpf(1), -m)) if m else scalar(mp.mpf(1))
                 for m in (400, 0, 500))


@pytest.mark.parametrize("kind", ["mpmath", "jet"])
def test_proj_indeterminacy_check_survives_underflow(kind):
    table = CenterTable.build(sa.MapParams(n=2, k=4, c_spec=(1, 1)))
    dps = table.dps
    scalar = (lambda x: x) if kind == "mpmath" else (lambda x: Jet.const(x, jet_bits(dps)))
    co = table.coeffs if kind == "mpmath" else table.jet.coeffs
    with mp.workdps(dps):
        with pytest.raises(sa.IndeterminacyError):
            sa.eval_f_proj(co, _deep(scalar, dps))
        # a tiny vector is still a point: normalising it does not underflow
        img = sa.proj_normalize(tuple(z * scalar(mp.ldexp(mp.mpf(3), -1200))
                                      for z in (scalar(mp.mpf(1)),) * 3))
        assert [complex(z) for z in img] == [1, 1, 1]


def _exact(z):
    """A Jet's value and partials as exact rationals."""
    return [Fraction(getattr(z, m)) * Fraction(2) ** z.e for m in ("ar", "ai", "xr", "xi", "yr", "yi")]


def test_proj_normalize_sets_the_pivot_to_an_exact_unit():
    """The largest entry becomes the unit of its type exactly (a Jet's with
    zero partials), the first of equal moduli is the pivot, and the other
    entries are divided by it."""
    for P, pivot in (((0.5, -2.0 + 1.0j, 1.0), 1), ((3.0, 0.0, -3.0), 0)):
        img = sa.proj_normalize(P)
        assert img[pivot] == 1 and type(img[pivot]) is type(P[pivot])
        for z, w in zip(img, P):
            assert abs(z - w / P[pivot]) < 1e-15
    with mp.workdps(50):
        P = (mp.mpf("0.3"), mp.mpc("0.1", "-0.7"), mp.mpf("-0.5"))
        img = sa.proj_normalize(P)
        assert img[1] == 1 and isinstance(img[1], mp.mpc)
        assert all(abs(z - w / P[1]) < mp.mpf(10) ** -48 for z, w in zip(img, P))
    bits = jet_bits(122)
    P = (Jet.of(0.3 + 0.2j, 1, 0.5, bits), Jet.of(-1.7 + 0.4j, 0.25, 1j, bits),
         Jet.of(0.9j, -2, 0, bits))
    img = sa.proj_normalize(P)
    assert _exact(img[1]) == [1, 0, 0, 0, 0, 0]
    with mp.workdps(122):
        for z, w in zip(img, P):
            assert all(abs(a - b) < mp.mpf(10) ** -120 for a, b in zip(z.mpc(), (w / P[1]).mpc()))


def test_proj_normalize_removes_a_jet_scale():
    """A Jet triple times a Jet scale with nonzero partials normalises to
    the unscaled triple's normal form: the pivot exactly, the other
    entries, value and partials, to within rounding at the Jet width (the
    scale's partials cancel only up to it)."""
    bits = jet_bits(122)
    rng = random.Random(3)

    def z():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    for trial in range(40):
        P = tuple(Jet.of(z(), z(), z(), bits) for _ in range(3))
        v = 2.0 ** rng.randint(-500, 500) * (1 if trial % 2 else z())
        scale = Jet.of(v, v * z(), v * z(), bits)
        want = sa.proj_normalize(P)
        got = sa.proj_normalize(tuple(x * scale for x in P))
        for g, w in zip(got, want):
            g, w = _exact(g), _exact(w)
            top = max(abs(x) for x in w)
            assert max(abs(a - b) for a, b in zip(g, w)) <= top * Fraction(2) ** (8 - bits)


def _unscaled(table, P, monkeypatch):
    """The map's Jet image before its power-of-two rescaling."""
    with monkeypatch.context() as m:
        m.setattr(Jet, "ldexp", lambda self, d: self)
        return _f_jet(table.jet, P)


def _desk34_points():
    """Jet points of the (3,4) desk instance on every chart, near the
    centers and down to v = 1e-7, with their table; the first three are
    affine points [1 : u : v]."""
    p = sa.MapParams(3, 4, c_spec=(1, 1), a={2: 0.4})
    table = CenterTable.build(p)
    rng = random.Random(11)
    pts = []
    with mp.workdps(table.dps):
        for cid in [None] + chart_ids(table):
            center = complex(table.beta.get((cid.s, cid.j), 0)) if cid else 0
            for dv in (-1, -4, -7):
                u = center + cmath.rect(rng.uniform(0.01, 0.5), rng.uniform(0, 2 * math.pi))
                v = cmath.rect(10.0 ** dv, rng.uniform(0, 2 * math.pi))
                pt = ChartPoint(Jet.of(u, 1, 0, table.bits), Jet.of(v, 0, 1, table.bits))
                pts.append(sa.chart_to_plane(table.jet, cid, pt) if cid
                           else (one_like(pt.u), pt.u, pt.v))
    return p, table, pts


def test_proj_jet_image_rescaled_by_a_power_of_two(monkeypatch):
    """On Jets the image is the homogeneous form times one exact power of
    two (mantissas kept), and its largest modulus lies in [1/2, 2)."""
    _, table, pts = _desk34_points()
    with mp.workdps(table.dps):
        for P in pts:
            img = _f_jet(table.jet, P)
            raw = _unscaled(table, P, monkeypatch)
            assert len({z.e - r.e for z, r in zip(img, raw)}) == 1
            for z, r in zip(img, raw):
                assert (z.ar, z.ai, z.xr, z.xi, z.yr, z.yi) == (r.ar, r.ai, r.xr, r.xi, r.yr, r.yi)
            top = max(abs(z) for z in img)
            assert 0.5 <= top < 2


def test_proj_jet_image_routes_after_underflow(monkeypatch):
    """A point scaled by 2^-300 has an image form of degree 5 below 1e-300
    in every entry, under the smallest double; rescaled, it is the image
    of the unscaled point exactly."""
    _, table, pts = _desk34_points()
    with mp.workdps(table.dps):
        for P in pts[::7]:
            tiny = tuple(z.ldexp(-300) for z in P)
            raw = _unscaled(table, tiny, monkeypatch)
            assert all(abs(z) < 1e-300 and complex(z) == 0 for z in raw)
            img = _f_jet(table.jet, tiny)
            want = _f_jet(table.jet, P)
            assert [z.mpc() for z in img] == [z.mpc() for z in want]


# -- orbit at infinity ------------------------------------------------------------

def test_orbit_n2():
    p = sa.MapParams(n=2, k=4, c_spec=(1, 1))
    w = sa.infinity_orbit(p.coeffs(), p.n)
    assert len(w) == 1
    assert abs(w[0]) < 1e-12


def test_orbit_n4():
    p = sa.MapParams(n=4, k=2, c_spec=(1, 1))
    w = CenterTable.build(p).w   # infinity_orbit in mpmath, on the table's coefficients
    r2 = math.sqrt(2)
    assert abs(complex(w[0]) - r2) < 1e-12
    assert abs(complex(w[1]) - r2 / 2) < 1e-12
    assert abs(complex(w[2])) < 1e-12
    assert abs(complex(w[0] * w[1]) - 1) < 1e-12


def test_orbit_n3():
    p = hv_params()
    w = sa.infinity_orbit(p.coeffs(), p.n)
    # w_1 is also the midpoint w_((n-1)/2) of this odd-n orbit, which is 1
    assert abs(complex(w[0]) - 1) < 1e-12
    assert abs(complex(w[1])) < 1e-9


def test_orbit_pairing_invariant():
    for n in (5, 7, 8):
        for c in sa.admissible_c(n):
            p = None
            for j in range(1, n):
                if math.gcd(j, n) == 1:
                    for sign in (1, -1):
                        if abs(sign * 2 * math.cos(math.pi * j / n) - c) < 1e-9:
                            p = sa.MapParams(n=n, k=4, c_spec=(j, sign))
            assert p is not None
            w = [complex(x) for x in CenterTable.build(p).w]
            for j in range(1, n - 1):
                assert abs(w[j - 1] * w[n - 1 - j - 1] - 1) < 1e-12


def test_orbit_rejects_inadmissible():
    p = sa.MapParams(n=5, k=2, c_spec=(1, 1))
    assert abs(sa.infinity_orbit(p.coeffs(), p.n)[-1]) < 1e-12
    # c = 2cos(2pi/5): the orbit closes, but its midpoint w_2 is -1, not 1
    with pytest.raises(sa.ParamError, match="not admissible"):
        sa.MapParams(n=5, k=2, c_spec=(2, 1))


# -- q and the b-coefficients -------------------------------------------------------

def test_q_constant_term():
    co = hv_params().coeffs()
    assert q_value(co, 0.0, 0.0) == pytest.approx(1.0)
    # k=2, no a: q = 1 - x y^2 + c y^3
    x, y = 0.7, 1.3
    assert q_value(co, x, y) == pytest.approx(1 - x * y ** 2 + 1.0 * y ** 3, abs=1e-12)


def test_q_index_bookkeeping_k4():
    co = fig1().coeffs()
    a2 = -2.64
    x, y = 0.4, 0.9
    expect = 1 + a2 * y ** 2 - x * y ** 4 + 0.0 * y ** 5
    assert q_value(co, x, y) == pytest.approx(expect, abs=1e-12)


def test_q_value_is_y_k_times_the_map():
    # q reads the coefficients as f does: y^k times the second component of f
    rng = random.Random(19)
    for p in (fig1(), sa.MapParams(n=4, k=4, c_spec=(1, -1), a={2: 0.4}),
              sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64 + 0.3j})):
        co = p.coeffs()
        for _ in range(10):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = complex(rng.uniform(0.3, 2), rng.uniform(-1, 1))
            assert abs(q_value(co, x, y) - y ** 4 * co._next_y(x, y)) < 1e-11


def test_b_series_k2():
    b = [complex(v) for v in sa.center_series(hv_params().coeffs())]
    assert b == pytest.approx([0, 0, 1, 0, 0], abs=1e-12)


def test_b_series_k4():
    a2 = -2.64
    b = [complex(v) for v in sa.center_series(fig1().coeffs())]
    assert b == pytest.approx([0, 0, 0, 0, 1, 0, -a2, 0, a2 ** 2], abs=1e-12)


def test_b_series_k6():
    a2, a4 = 0.31, -1.2
    p = sa.MapParams(n=2, k=6, c_spec=(1, 1), a={2: a2, 4: a4})
    b = [complex(v) for v in sa.center_series(p.coeffs())]
    expect = [0, 0, 0, 0, 0, 0, 1, 0, -a4, 0, a4 ** 2 - a2, 0, 2 * a2 * a4 - a4 ** 3]
    assert b == pytest.approx(expect, abs=1e-12)


def test_b_odd_indices_vanish():
    for p in (fig1(), sa.MapParams(n=2, k=6, c_spec=(1, 1), a={2: 1.1, 4: 0.3})):
        b = sa.center_series(p.coeffs())
        for i in range(1, 2 * p.k + 1, 2):
            assert abs(complex(b[i])) < 1e-12


def _poly_mul_trunc(P, Q, ymax):
    """Independent oracle: sparse bivariate multiply truncated in y."""
    out = {}
    for (ix, iy), a in P.items():
        for (jx, jy), b in Q.items():
            if iy + jy > ymax:
                continue
            key = (ix + jx, iy + jy)
            out[key] = out.get(key, 0) + a * b
    return {key: v for key, v in out.items() if abs(v) > 1e-12}


@pytest.mark.parametrize("params", [
    dict(n=3, k=2, c_spec=(1, 1)),
    dict(n=2, k=4, c_spec=(1, 1), a={2: -2.64}),
    dict(n=2, k=6, c_spec=(1, 1), a={2: 0.31, 4: -1.2}),
    dict(n=3, k=4, c_spec=(1, 1), a={2: 0.4}),
    dict(n=2, k=6, c_spec=(1, 1), a={2: 0.31 + 0.2j, 4: -1.2}),
])
def test_b_defining_identity(params):
    """q(x,y) * (series of y^k/q) = y^k through order 2k, in the constant
    and x-linear parts, checked with an independent polynomial multiply.
    The x-linear part of the series is x * y^2k."""
    p = sa.MapParams(**params)
    k = p.k
    c = p.coeffs().c
    q_dict = {(0, 0): 1.0, (1, k): -1.0, (0, k + 1): c}
    for l, al in p.a.items():
        q_dict[(0, k - l)] = q_dict.get((0, k - l), 0) + al
    b = [complex(v) for v in sa.center_series(p.coeffs())]
    series = {(0, i): b[i] for i in range(2 * k + 1) if abs(b[i]) > 0}
    series[(1, 2 * k)] = 1.0
    prod = _poly_mul_trunc(q_dict, series, 2 * k)
    assert prod.get((0, k), 0) == pytest.approx(1.0, abs=1e-10)
    for key, v in prod.items():
        if key != (0, k):
            assert abs(v) < 1e-10, (key, v)


# -- parameter files ------------------------------------------------------------

def test_json_round_trip(tmp_path):
    p = sa.MapParams(n=2, k=6, c_spec=(1, 1), a={2: 0.5 + 0.25j, 4: -1.0})
    d = p.to_json_dict()
    q = sa.MapParams.from_json_dict(d)
    assert (q.n, q.k, q.c_spec) == (p.n, p.k, p.c_spec)
    assert all(abs(complex(q.a[l]) - complex(p.a[l])) < 1e-15 for l in p.a)
    fp = tmp_path / "params.json"
    fp.write_text(json.dumps(d))
    r = sa.MapParams.load(fp)
    assert r.k == 6 and r.a[4] == -1.0


def test_json_delta_is_one():
    """A parameter file's delta, the jacobian determinant, is written as
    [1.0, 0.0] and read when absent or 1; any other value is refused."""
    d = fig1().to_json_dict()
    assert d["delta"] == [1.0, 0.0]
    for delta in (1, 1.0, [1.0, 0.0], [1, 0]):
        assert sa.MapParams.from_json_dict({**d, "delta": delta}) == fig1()
    del d["delta"]
    assert sa.MapParams.from_json_dict(d) == fig1()
    for delta in (0.5, -1, [1.0, 0.1], [-0.5, 0.8660254037844386]):
        with pytest.raises(sa.ParamError, match="the family has delta = 1"):
            sa.MapParams.from_json_dict({**d, "delta": delta})
    for delta in (True, "1", None, [1.0]):
        with pytest.raises(sa.ParamError, match="delta"):
            sa.MapParams.from_json_dict({**d, "delta": delta})
