import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import surfauto as sa
from surfauto.charts import (
    SIGMA1,
    CenterTable,
    ChartId,
    ChartPoint,
    reversor_transition_closed,
    reversor_transition_numeric,
)
from surfauto.dual import Jet, Modulus


@pytest.fixture(scope="module")
def hv():
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    return p, CenterTable.build(p)


@pytest.fixture(scope="module")
def fig1():
    p = sa.figure1_params()
    return p, CenterTable.build(p)


@pytest.fixture(scope="module")
def n4k2():
    p = sa.MapParams(n=4, k=2, c_spec=(1, 1))
    return p, CenterTable.build(p)


# -- center table ----------------------------------------------------------------

def test_centers_from_series(fig1):
    p, table = fig1
    b = [complex(v) for v in table.b]
    for j in range(1, 2 * p.k + 1):
        assert complex(table.beta[(0, j)]) == pytest.approx(b[j - 1], abs=1e-20)
        # centers vanish through level k (the chain of tangent intersections)
        if j <= p.k:
            assert abs(complex(table.beta[(0, j)])) < 1e-20
    assert complex(table.beta[(0, p.k + 1)]) == pytest.approx(1.0)


def test_centers_scale_along_limbs(n4k2):
    p, table = n4k2
    w = [complex(x) for x in table.w]
    for j in range(1, 2 * p.k + 1):
        for s in range(2, p.n):
            W = 1.0
            for t in range(1, s):
                W *= w[t - 1]
            sign = -1 if (1 - j) % 2 else 1
            expect = sign * W ** (j - 2) * complex(table.b[j - 1])
            assert complex(table.beta[(s, j)]) == pytest.approx(expect, abs=1e-15)


# -- chart maps --------------------------------------------------------------------

def test_fiber_points_blow_down_to_base_point(fig1):
    p, table = fig1
    with mp.workdps(table.dps):
        for j in range(1, 2 * p.k + 2):
            for u in (0.3, -1.7, 2.2 + 0.4j):
                P = sa.chart_to_plane(table, ChartId("tower", 0, j),
                                      ChartPoint(mp.mpmathify(u), mp.mpf(0)))
                assert sa.proj_equal(tuple(complex(z) for z in P), (0, 0, 1), tol=1e-12)


def test_level1_simple_chart(hv):
    p, table = hv
    with mp.workdps(table.dps):
        P = sa.chart_to_plane(table, ChartId("tower", 0, 1),
                              ChartPoint(mp.mpf(0), mp.mpf("0.25")))
        # (eta1, t1) = (0, t): plane point [t : 0 : 1]
        assert sa.proj_equal(tuple(complex(z) for z in P), (0.25, 0.0, 1.0), tol=1e-12)


def test_round_trips(hv):
    p, table = hv
    rng = random.Random(2)
    with mp.workdps(table.dps):
        for s in range(p.n):
            for j in range(1, 2 * p.k + 2):
                for _ in range(3):
                    u = mp.mpc(rng.uniform(-2, 2), rng.uniform(-1, 1))
                    v = mp.mpc(rng.uniform(0.02, 0.4))
                    cid = ChartId("tower", s, j)
                    P = sa.chart_to_plane(table, cid, ChartPoint(u, v))
                    back = sa.plane_to_chart(table, cid, P)
                    assert abs(back.u - u) < 1e-25
                    assert abs(back.v - v) < 1e-25


# the (3,4) desk instance: a middle limb and a nonzero a_2
DESK34 = CenterTable.build(sa.MapParams(3, 4, c_spec=(1, 1), a={2: 0.4}))
_away = st.floats(min_value=0.5, max_value=1.5) | st.floats(min_value=-1.5, max_value=-0.5)


@settings(deadline=None, max_examples=50)
@given(_away, st.floats(-2.0, 2.0), _away, st.floats(-0.5, 0.5), st.booleans())
@example(-1.0, 0.0, -1.0, 0.0, False)
@example(-1.0, 0.0, -1.0, 0.0, True)
def test_chart_round_trip_property(ur, ui, vr, vi, double):
    """plane_to_chart inverts chart_to_plane on every chart, at working
    precision and on the double-precision copy that routing uses.  Both
    coordinates stay off zero: the centers vanish through level k, so u = 0
    on a shallow level maps onto the blown-down base point.  Deeper levels
    contract curves of their own onto it (on level 2k-1 of the desk
    instance, 1 + v^2 u = 0, met at u = v = -1): there the plane point has
    x0 = 0 below the floor and the inversion must refuse it."""
    table = DESK34.double if double else DESK34
    tol = 1e-9 if double else mp.mpf(10) ** -60
    refused = ZeroDivisionError if double else sa.ChartDomainError
    with mp.workdps(table.dps):
        u, v = complex(ur, ui), complex(vr, vi)
        if not double:
            u, v = mp.mpmathify(u), mp.mpmathify(v)
        for cid in table.chart_ids:
            P = sa.chart_to_plane(table, cid, ChartPoint(u, v))
            if abs(P[0]) <= table.coeffs.floor:
                with pytest.raises(refused):
                    sa.plane_to_chart(table, cid, P)
                continue
            back = sa.plane_to_chart(table, cid, P)
            assert abs(back.u - u) <= tol * (1 + abs(u)), cid
            assert abs(back.v - v) <= tol * (1 + abs(v)), cid


def test_table_copies_hold_the_floor_in_their_type():
    """One floor per table copy: the map's indeterminacy floor as an mpf on
    the table, as the Modulus that Jet moduli compare with on .jet, and no
    floor on .double, where only an exact zero divisor fails.  The Jet copy
    holds the map coefficients at the table's dps as Jet constants."""
    p = sa.MapParams(3, 4, c_spec=(1, 1), a={2: 0.4})
    table = CenterTable.build(p)
    co = p.coeffs(table.dps)
    floor = co.floor
    assert table.coeffs == co

    def mantissas(z):
        return [getattr(z, slot) for slot in Jet.__slots__]

    def const(x):
        return mantissas(Jet.const(x, table.bits))

    jco = table.jet.coeffs
    assert jco.k == co.k == p.k
    assert [mantissas(x) for x in (jco.c, jco.neg_delta)] == [const(co.c), const(co.neg_delta)]
    assert [(l, mantissas(al)) for l, al in jco.a] == [(l, const(al)) for l, al in co.a]
    assert isinstance(jco.floor, Modulus) and jco.floor == floor
    assert table.double.coeffs.floor == 0.0
    affine = ChartId("affine")
    with mp.workdps(table.dps):
        with pytest.raises(sa.ChartDomainError):
            sa.plane_to_chart(table.jet, affine, (Jet.const(floor / 2, table.bits), 1, 1))
        sa.plane_to_chart(table.jet, affine, (Jet.const(floor * 2, table.bits), 1, 1))
    sa.plane_to_chart(table.double, affine, (1e-300, 1.0, 1.0))
    with pytest.raises(ZeroDivisionError):
        sa.plane_to_chart(table.double, affine, (0.0, 1.0, 1.0))


def test_plane_to_chart_domain_error(hv):
    p, table = hv
    with mp.workdps(table.dps):
        # base point of limb 0 is blown down: tower charts reject it
        with pytest.raises(sa.ChartDomainError):
            sa.plane_to_chart(table, ChartId("tower", 0, 3),
                              (mp.mpf(0), mp.mpf(0), mp.mpf(1)))


def test_plane_to_chart_rejects_levels_outside_the_tower(hv):
    p, table = hv
    with mp.workdps(table.dps):
        with pytest.raises(sa.ParamError):
            sa.plane_to_chart(table, ChartId("tower", 0, 2 * p.k + 2),
                              (mp.mpf("0.1"), mp.mpf("0.2"), mp.mpf(1)))


def test_sigma2_point_in_base_chart(hv):
    p, table = hv
    with mp.workdps(table.dps):
        # [1 : x : 0] in the limb-0 base chart (t, x)/x2 fails (x2 = 0);
        # the affine chart sees it fine
        with pytest.raises(sa.ChartDomainError):
            sa.plane_to_chart(table, ChartId("base", 0), (mp.mpf(1), mp.mpf(2), mp.mpf(0)))
        cp = sa.plane_to_chart(table, ChartId("affine"), (mp.mpf(1), mp.mpf(2), mp.mpf(0)))
        assert complex(cp.u) == pytest.approx(2.0)


# -- transitions -----------------------------------------------------------------

def _transition_pairs(p):
    out = []
    for s in range(p.n):
        for j in range(1, 2 * p.k + 2):
            out.append((s, j))
    return out


@pytest.mark.parametrize("fix", ["hv", "fig1", "n4k2"])
def test_closed_vs_numeric_all_fibers(fix, request):
    p, table = request.getfixturevalue(fix)
    rng = random.Random(17)
    worst = 0.0
    for (s, j) in _transition_pairs(p):
        for _ in range(3):
            xi = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.8, 0.8))
            tgt_c, closed = sa.fiber_transition_closed(table, s, j, xi)
            tgt_n, numeric, err = sa.fiber_transition_numeric(table, s, j, xi)
            assert tgt_c == tgt_n
            diff = abs(complex(closed) - complex(numeric))
            worst = max(worst, diff)
            assert diff < 1e-6, (s, j, xi, diff)
    assert worst < 1e-6


FIG1 = (sa.figure1_params(), CenterTable.build(sa.figure1_params()))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 1), st.integers(1, 9), st.floats(0.2, 2.5), st.floats(-1.0, 1.0))
def test_closed_vs_numeric_at_random_xi(s, j, re, im):
    """On figure 1, the closed-form fiber transition agrees with the route
    through the plane at any xi away from the poles of the flip branches."""
    p, table = FIG1
    xi = complex(re, im)
    poles = [0.0, 1.0] + [complex(b) for b in table.b[p.k + 1:]]
    assume(min(abs(xi - z) for z in poles) > 0.2)
    tgt_c, closed = sa.fiber_transition_closed(table, s, j, xi)
    tgt_n, numeric, err = sa.fiber_transition_numeric(table, s, j, xi)
    assert tgt_c == tgt_n
    assert abs(complex(closed) - complex(numeric)) < 1e-6, (s, j, xi)
    assert err < 1e-8


def test_named_transition_values(fig1, n4k2):
    p, table = fig1
    # sign flip limb 0 -> 1 at level 2
    tgt, val = sa.fiber_transition_closed(table, 0, 2, 1.7)
    assert tgt == ("fiber", 1, 2) and complex(val) == pytest.approx(-1.7)
    _, num, _ = sa.fiber_transition_numeric(table, 0, 2, 1.7)
    assert complex(num) == pytest.approx(-1.7, abs=1e-8)
    # entry from the contracted line: x + b_2k
    tgt, val = sa.fiber_transition_closed(table, "sigma2", None, 0.3)
    assert tgt == ("fiber", 0, 2 * p.k + 1)
    assert complex(val) == pytest.approx(0.3 + complex(table.b[2 * p.k]), abs=1e-12)
    _, num, _ = sa.fiber_transition_numeric(table, "sigma2", None, 0.3)
    assert complex(num) == pytest.approx(complex(val), abs=1e-7)
    # middle-limb multiplier w_2^(j-2) for n=4
    p4, t4 = n4k2
    tgt, val = sa.fiber_transition_closed(t4, 2, 3, 2.0)
    assert tgt == ("fiber", 3, 3)
    assert complex(val) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_middle_flip_and_exit(fig1):
    p, table = fig1
    k = p.k
    # middle branch xi/(xi-1) with its pole at the center value
    tgt, val = sa.fiber_transition_closed(table, p.n - 1, k + 1, 3.0)
    assert tgt == ("fiber", 0, k + 1) and complex(val) == pytest.approx(1.5)
    with pytest.raises(sa.PoleError):
        sa.fiber_transition_closed(table, p.n - 1, k + 1, 1.0)
    with pytest.raises(sa.PoleError):
        sa.fiber_transition_closed(table, p.n - 1, k - 1, 0.0)  # 1/xi branch
    # exit to the contracted line of the inverse
    tgt, val = sa.fiber_transition_closed(table, p.n - 1, 2 * k + 1, 0.7)
    assert tgt == SIGMA1
    assert complex(val) == pytest.approx(0.7 - complex(table.b[2 * k]), abs=1e-12)
    _, num, err = sa.fiber_transition_numeric(table, p.n - 1, 2 * k + 1, 0.7)
    assert complex(num) == pytest.approx(complex(val), abs=1e-7)


def test_flip_branches_are_mutually_inverse(fig1):
    p, table = fig1
    k = p.k
    for l in range(1, k):
        xi = 0.83 + 0.21j
        tgt1, v1 = sa.fiber_transition_closed(table, p.n - 1, k + 1 - l, xi)
        assert tgt1 == ("fiber", 0, k + 1 + l)
        tgt2, v2 = sa.fiber_transition_closed(table, p.n - 1, k + 1 + l, complex(v1))
        assert tgt2 == ("fiber", 0, k + 1 - l)
        assert complex(v2) == pytest.approx(xi, abs=1e-12)


def test_center_orbit_propagates_and_closes(hv, fig1, n4k2):
    for p, table in (hv, fig1, n4k2):
        k, n = p.k, p.n
        # centers propagate along limbs
        for s in range(n - 1):
            for j in range(2, 2 * k + 1):
                tgt, val = sa.fiber_transition_closed(table, s, j, table.beta[(s, j)])
                _, s2, j2 = tgt
                if j2 <= 2 * k:
                    assert abs(complex(val) - complex(table.beta[(s2, j2)])) < 1e-20
        # the nonzero centers return to themselves across the limb cycle
        for j in range(k + 1, 2 * k, 2):
            cur = table.b[j - 1]
            s = 0
            for _ in range(n - 1):
                tgt, cur = sa.fiber_transition_closed(table, s, j, cur)
                s = tgt[1]
            assert abs(complex(cur) - complex(table.b[j - 1])) < 1e-8


def test_full_cycle_identity_on_fibers(fig1):
    p, table = fig1
    n, k = p.n, p.k
    rng = random.Random(23)
    for j in range(1, 2 * k + 1):
        xi0 = complex(rng.uniform(1.2, 3.0), rng.uniform(0.2, 0.7))
        s, jj, val = 0, j, xi0
        # the fiber cycle has length n for the middle level and 2n otherwise;
        # the induced coordinate map is the identity after 2n hops in all
        # cases (the middle level carries an involution per cycle)
        for _ in range(2 * n):
            tgt, val = sa.fiber_transition_closed(table, s, jj, val)
            _, s, jj = tgt
        assert (s, jj) == (0, j)
        assert complex(val) == pytest.approx(xi0, abs=1e-10)


def test_n_step_multiplier(n4k2):
    p, table = n4k2
    n, k = p.n, p.k
    w = [complex(x) for x in table.w]
    wprod = 1.0
    for t in range(n - 2):
        wprod *= w[t]
    for j in range(2, 2 * k + 1):
        xi0 = 1.37 - 0.41j
        s, val = 0, xi0
        for _ in range(n - 1):
            tgt, val = sa.fiber_transition_closed(table, s, j, val)
            s = tgt[1]
        mult = (-1) ** ((1 - j) % 2) * wprod ** (j - 2)
        assert complex(val) == pytest.approx(mult * xi0, abs=1e-10)


def test_tampered_centers_break_transitions(fig1):
    p, table = fig1
    bad = table.tampered(0, p.k + 1, mp.mpf("1.25"))
    tgt, closed = sa.fiber_transition_closed(bad, 0, p.k + 2, 0.9)
    try:
        _, numeric, err = sa.fiber_transition_numeric(bad, 0, p.k + 2, 0.9)
        assert abs(complex(closed) - complex(numeric)) > 1e-6
    except sa.ExtrapolationError:
        pass  # corrupted geometry: the lift diverges instead of converging


# -- routing and parabolic checks ---------------------------------------------------

def test_route_prefers_deep_chart(fig1):
    p, table = fig1
    with mp.workdps(table.dps):
        cid = ChartId("tower", 0, 7)
        P = sa.chart_to_plane(table, cid, ChartPoint(mp.mpf("0.62"), mp.mpf("1e-4")))
        best = sa.route_chart(table, P)
    assert best == cid


def _reference_route(table, P):
    """route_chart as one plane_to_chart call per chart: every chart of
    table.chart_ids inverted on table.double with no floor, ranked by
    (-depth, margin), the first of equal keys kept."""
    Pf = tuple(complex(z) for z in P)
    x0, x1, x2 = Pf
    best, best_key = None, None
    for cid in table.chart_ids:
        try:
            u, v = sa.plane_to_chart(table.double, cid, Pf)
        except ZeroDivisionError:
            continue
        m = max(abs(u), abs(v))
        if m != m or m > 1e3:
            continue
        near = (cid.kind == "tower" and abs(v) < 0.05
                and abs(x0 / (x2 if cid.s == 0 else x1)) < 0.05)
        key = (-(cid.j if near else 0), m)
        if best_key is None or key < best_key:
            best_key, best = key, cid
    return best


ROUTE_TABLES = (CenterTable.build(sa.figure1_params()), DESK34)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 1), st.integers(0, 10 ** 6), st.floats(-7.0, 0.3),
       st.floats(0.0, 2 * math.pi), st.floats(-7.0, -0.3), st.floats(0.0, 2 * math.pi))
def test_route_walks_match_chart_by_chart_ranking(which, pick, du, phase_u, dv, phase_v):
    """Walking each limb once picks the chart that ranking every chart
    separately picks, for points near the centers and down to v = 1e-7."""
    table = ROUTE_TABLES[which]
    cid = table.chart_ids[pick % len(table.chart_ids)]
    with mp.workdps(table.dps):
        center = table.beta.get((cid.s, cid.j), 0) if cid.kind == "tower" else 0
        u = center + mp.mpf(10) ** du * mp.expjpi(phase_u / math.pi)
        v = mp.mpf(10) ** dv * mp.expjpi(phase_v / math.pi)
        P = sa.chart_to_plane(table, cid, ChartPoint(u, v))
        assert sa.route_chart(table, P) == _reference_route(table, P), cid


def test_route_affine_for_finite_points(fig1):
    p, table = fig1
    with mp.workdps(table.dps):
        best = sa.route_chart(table, (mp.mpf(1), mp.mpf("0.3"), mp.mpf("0.8")))
    assert best.kind == "affine"


def test_route_rejects_a_chart_past_the_double_range(fig1, monkeypatch):
    """A chart whose double-precision coordinates have a modulus past the
    float range (abs() raises OverflowError) is rejected, as a NaN one is."""
    p, table = fig1

    def route(u):
        monkeypatch.setattr("surfauto.charts.plane_to_chart", lambda dt, cid, P: (u, 0.0))
        with mp.workdps(table.dps):
            return sa.route_chart(table, (mp.mpf(1), mp.mpf("0.3"), mp.mpf("0.8")))

    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))
    assert route(complex(1.5e308, 1.5e308)) == route(complex("nan")) != ChartId("affine")


@pytest.mark.parametrize("fix", ["hv", "fig1"])
def test_parabolic_on_invariant_line(fix, request):
    p, table = request.getfixturevalue(fix)
    rep = sa.parabolic_check(table, ChartId("base", 0), ChartPoint(0.731, 0.0))
    assert rep.fix_residual < 1e-8
    assert rep.max_deviation < 1e-6
    du, dv = rep.diag_n
    assert min(abs(du - 1), abs(du + 1)) < 1e-6
    assert abs(dv - 1) < 1e-6


def test_parabolic_on_fibers(hv):
    p, table = hv
    for j in sa.parabolic_levels(p.k):
        for s in range(p.n):
            rep = sa.parabolic_check(table, ChartId("tower", s, j),
                                     ChartPoint(0.47 + 0.13j, 0.0))
            assert rep.fix_residual < 1e-8, (s, j, rep)
            assert rep.max_deviation < 1e-6, (s, j, rep)


def test_level_2_fixed_but_not_tangent(hv):
    p, table = hv
    rep = sa.parabolic_check(table, ChartId("tower", 0, 2), ChartPoint(0.47, 0.0))
    assert rep.fix_residual < 1e-8
    assert rep.max_deviation > 1e-3


def test_top_fiber_reported_only(hv):
    p, table = hv
    rep = sa.parabolic_check(table, ChartId("tower", 0, 2 * p.k + 1),
                             ChartPoint(0.47, 0.0))
    # outside the tangency configuration: nothing required, values reported
    assert rep.max_deviation >= 0.0


# -- the reversing symmetry on fibers ------------------------------------------------

def test_reversor_fiber_action(n4k2):
    p, table = n4k2
    for (s, j) in [(1, 2), (1, 3), (2, 4), (1, 1), (2, 1)]:
        xi = 1.21 - 0.37j
        tgt_c, closed = reversor_transition_closed(table, s, j, xi)
        tgt_n, numeric, err = reversor_transition_numeric(table, s, j, xi)
        assert tgt_c == tgt_n == ("fiber", p.n - 1 - s, j)
        assert abs(complex(closed) - complex(numeric)) < 1e-6, (s, j)
    # outer limbs swap with coordinates preserved
    for j in (1, 3, 5):
        _, closed = reversor_transition_closed(table, 0, j, 0.9)
        assert complex(closed) == pytest.approx(0.9)
