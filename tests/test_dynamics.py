import hashlib
import itertools
import math
import subprocess
import sys
from array import array

import numpy as np
import pytest

import surfauto as sa
import surfauto.dynamics as dyn
from surfauto.dynamics import fixed_point_polynomial

from jet_oracles import Dual2, jacobian_dual


def fig1():
    return sa.figure1_params()


def test_fixed_point_count_and_residuals():
    # fixed points are diagonal; with a complex a_l they are unclassified
    for p in (fig1(), sa.MapParams(n=3, k=2, c_spec=(1, 1)),
              sa.MapParams(n=2, k=6, c_spec=(1, 1), a={2: 0.4, 4: -0.7}),
              sa.MapParams(n=3, k=4, c_spec=(1, 1), a={2: 0.4}),
              sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64 + 0.3j})):
        recs = sa.fixed_points(p)
        if any(complex(al).imag for al in p.a.values()):
            assert all(r.type == "complex" for r in recs)
        assert sum(r.multiplicity for r in recs) == p.k + 1
        for r in recs:
            img = sa.eval_f(p, (r.zeta, r.zeta))
            assert abs(img[1] - r.zeta) < 1e-10
            J = sa.jacobian(p, (r.zeta, r.zeta))
            det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
            assert abs(det - 1) < 1e-9
            assert abs(r.eigenvalues[0] + r.eigenvalues[1] - r.trace) < 1e-9
            assert abs(r.eigenvalues[0] * r.eigenvalues[1] - 1) < 1e-9


def test_fixed_points_do_not_depend_on_the_order_of_the_a_l():
    # two equal members, their a_l given in either order, have the same
    # jacobian and so the same traces, eigenvalues and types
    a = {4: -1.445, 2: 1.189}
    p, q = (sa.MapParams(3, 6, c_spec=(1, 1), a=dict(items))
            for items in (a.items(), reversed(a.items())))
    assert p == q and list(p.a) != list(q.a)
    assert sa.fixed_points(p) == sa.fixed_points(q)
    for r in sa.fixed_points(p):
        assert sa.jacobian(p, (r.zeta, r.zeta)) == sa.jacobian(q, (r.zeta, r.zeta))


def test_zero_parameter_roots_on_circle():
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    c = complex(p.coeffs().c)
    for r in sa.fixed_points(p):
        assert abs(r.zeta ** (p.k + 1) - 1 / (2 - c)) < 1e-10


def test_figure1_fixed_point_census():
    recs = sa.fixed_points(fig1())
    real = [r for r in recs if abs(r.zeta.imag) < 1e-9]
    assert len(recs) == 5
    assert len(real) == 3
    kinds = sorted(r.type for r in real)
    assert kinds == ["elliptic", "saddle", "saddle"]


def test_trace_formula_at_zero_parameters():
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    c = complex(p.coeffs().c)
    for r in sa.fixed_points(p):
        assert abs(r.trace - (c - p.k * (2 - c))) < 1e-9


def test_jacobian_closed_form_vs_dual():
    p = fig1()
    rng = np.random.default_rng(9)
    for _ in range(20):
        pt = (rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
              rng.uniform(0.3, 2) + 1j * rng.uniform(-1, 1))
        A = np.array(sa.jacobian(p, pt), dtype=complex)
        B = jacobian_dual(p, pt)
        assert np.max(np.abs(A - B)) < 1e-10


def test_trace_multiset_reversor_invariance():
    # traces computed through f and through f^(-1) agree at fixed points
    p = fig1()
    for r in sa.fixed_points(p):
        z = r.zeta
        # Df^(-1) at a fixed point of an area-preserving map has equal trace
        xd, yd = Dual2(z, 1, 0), Dual2(z, 0, 1)
        gx, gy = sa.eval_f_inverse(p, (xd, yd))
        tr_inv = gx.dx + gy.dy
        assert abs(tr_inv - r.trace) < 1e-9


def test_trace_map_rank():
    assert sa.trace_map_rank(sa.MapParams(n=2, k=4, c_spec=(1, 1)))[0] == 1
    rank, agree = sa.trace_map_rank(sa.MapParams(n=2, k=6, c_spec=(1, 1)))
    assert rank == 2
    assert agree < 1e-5
    assert sa.trace_map_rank(sa.MapParams(n=3, k=2, c_spec=(1, 1)))[0] == 0
    assert sa.trace_map_rank(sa.MapParams(n=2, k=20, c_spec=(1, 1)))[0] == 9


def test_trace_map_rank_fd_agreement():
    rank, agree = sa.trace_map_rank(sa.MapParams(n=2, k=4, c_spec=(1, 1)))
    assert agree < 1e-5


def test_trace_set_separation():
    base = sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: 0.01})
    other = sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: 0.02})
    sep, dist = sa.trace_set_separation(base, other)
    assert sep and dist > 1e-8
    same, dist0 = sa.trace_set_separation(base, base)
    assert not same and dist0 < 1e-12


# figure 1's distance recorded with scipy.optimize.linear_sum_assignment on
# the same cost matrix, before the assignment moved into the package; the
# other two recorded when the roots came from the per-root Aberth loop (they
# moved by 2.5e-15 and 7.5e-15 from the vectorised one's), each equal to the
# largest entry of the min-sum permutation found by trying every one
@pytest.mark.parametrize("n, k, a, a_hat, dist", [
    (2, 4, {2: 0.01}, {2: 0.02}, 0.03065077181096076),
    (3, 4, {2: 0.4}, {2: 0.3}, 0.2812525621177791),
    (2, 6, {2: 0.1 + 0.2j, 4: -0.3j}, {2: 0.15 - 0.1j, 4: 0.2}, 1.875479414919081),
], ids=["figure-1", "3-4", "2-6-complex"])
def test_trace_set_separation_pinned(n, k, a, a_hat, dist):
    p, q = (sa.MapParams(n=n, k=k, c_spec=(1, 1), a=b) for b in (a, a_hat))
    sep, got = sa.trace_set_separation(p, q)
    assert sep and got == dist
    cost = [[abs(s - t) for t in dyn._traces_for(q)] for s in dyn._traces_for(p)]
    best = min(itertools.permutations(range(len(cost))),
               key=lambda perm: sum(row[j] for row, j in zip(cost, perm)))
    assert max(row[j] for row, j in zip(cost, best)) == dist


def test_min_sum_assignment_against_all_permutations():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        # entries rounded to 1-3 digits: ties, and several optimal assignments, are common
        cost = np.round(rng.uniform(0, 1, (m, m)), int(rng.integers(1, 4))).tolist()
        cols = dyn._min_sum_assignment(cost)
        assert sorted(cols) == list(range(m))
        best = min(sum(row[j] for row, j in zip(cost, perm))
                   for perm in itertools.permutations(range(m)))
        assert sum(row[j] for row, j in zip(cost, cols)) == pytest.approx(best, abs=1e-12)


def test_trace_set_separation_does_not_load_scipy():
    code = ("import sys\n"
            "import surfauto as sa\n"
            "p = sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: 0.01})\n"
            "sa.trace_set_separation(p, sa.figure1_params())\n"
            "sys.exit('scipy' in sys.modules)\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_orbit_of_fixed_point_is_constant():
    p = fig1()
    elliptic = [r for r in sa.fixed_points(p) if r.type == "elliptic"][0]
    z = elliptic.zeta.real
    orb = sa.iterate_orbit(p, (z, z), 200)
    assert orb.status == "completed"
    assert max(abs(v - z) for v in orb.seq) < 1e-8
    # at a saddle the roundoff amplifies along the unstable direction, so
    # constancy only holds over short horizons
    saddle = [r for r in sa.fixed_points(p) if r.type == "saddle"][0]
    z = saddle.zeta.real
    orb = sa.iterate_orbit(p, (z, z), 10)
    assert max(abs(v - z) for v in orb.seq) < 1e-8


def test_orbit_stays_real_and_bounded_near_elliptic_point():
    p = fig1()
    elliptic = [r for r in sa.fixed_points(p) if r.type == "elliptic"][0]
    z = elliptic.zeta.real
    orb = sa.iterate_orbit(p, (z + 1e-3, z + 1e-3), 10_000)
    assert orb.status == "completed"
    assert all(type(v) is float for v in orb.seq)
    assert max(map(abs, orb.seq)) < 10.0


def test_orbit_escape_and_pole_status():
    p = fig1()
    orb = sa.iterate_orbit(p, (0.3, 1e-13), 10)
    assert orb.status == "pole"
    # with the pole guard off, the kick past the cap reports escape
    orb = sa.iterate_orbit(p, (0.3, 1e-26), 10, pole_tol=0.0)
    assert orb.status == "escaped"


def test_complex_orbit_matches_eval_f():
    # a complex a_l takes the complex branch, which steps as eval_f does
    p = sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64 + 0.3j})
    orb = sa.iterate_orbit(p, (0.3, 0.7), 3)
    assert orb.status == "completed" and all(type(v) is complex for v in orb.seq)
    pt = (0.3, 0.7)
    # point i of the orbit is (seq[i], seq[i+1])
    for row in zip(orb.seq[1:], orb.seq[2:]):
        pt = sa.eval_f(p, pt)
        assert abs(row[0] - pt[0]) < 1e-12 and abs(row[1] - pt[1]) < 1e-12
    assert abs(orb.seq[2] - (-1.522823823406914 + 0.6122448979591837j)) < 1e-12


def test_orbit_reversor_identity():
    p = fig1()
    start = (0.35, -0.6)
    fwd = sa.iterate_orbit(p, start, 12)
    assert fwd.status == "completed"
    points = list(zip(fwd.seq, fwd.seq[1:]))
    # the swapped forward orbit, run backwards, is the swap of the original
    cur = (points[-1][1], points[-1][0])
    back = [cur]
    for _ in range(len(points) - 1):
        cur = sa.eval_f(p, cur)
        back.append(cur)
    swapped = np.array([[b[1], b[0]] for b in back])[::-1]
    assert np.max(np.abs(swapped - np.array(points))) < 1e-7


ORBIT_MEMBERS = {
    "figure1": sa.figure1_params(),
    "complex-a": sa.MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64 + 0.3j}),
    # its linear part stretches one coordinate to up to twice the other
    "n6-k4": sa.MapParams(n=6, k=4, c_spec=(1, 1)),
}


@pytest.mark.parametrize("member, start, steps, pole_tol, status, kind", [
    ("figure1", (0.35, -0.6), 500, 1e-12, "completed", "f"),
    ("complex-a", (0.3, 0.7), 50, 1e-12, "completed", "c"),
    ("figure1", (0.35, -0.6), 1000, 0.5, "pole", "f"),
    ("n6-k4", (0.0, 5.2e99), 300, 1e-12, "escaped", "f"),
])
def test_orbit_x_is_the_previous_y(member, start, steps, pole_tol, status, kind):
    # f(x, y) = (y, ...): the orbit's points are (seq[i], seq[i+1]), so each
    # point's x is the y of the point before; restarted from point i with
    # the steps left, the orbit continues bitwise
    p = ORBIT_MEMBERS[member]
    orb = sa.iterate_orbit(p, start, steps, pole_tol=pole_tol)
    assert orb.status == status and 2 < len(orb.seq) <= steps + 2
    assert all(type(v) is {"f": float, "c": complex}[kind] for v in orb.seq)
    i = len(orb.seq) // 2
    rest = sa.iterate_orbit(p, (orb.seq[i], orb.seq[i + 1]), steps - i, pole_tol=pole_tol)
    assert rest.status == status
    assert array("d", _parts(rest.seq)).tobytes() == array("d", _parts(orb.seq[i:])).tobytes()


def _parts(seq):
    return [part for v in seq for part in (v.real, v.imag)]


def _segment_distance(pts, q):
    """Distance from q to the piecewise-linear curve through pts."""
    pts = np.array(pts)
    a = pts[:-1]
    b = pts[1:]
    ab = b - a
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    t = np.clip(np.sum((q - a) * ab, axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(proj - q, axis=1)))


def test_unstable_manifold_basic():
    p = fig1()
    saddle = [r for r in sa.fixed_points(p) if r.type == "saddle"][0]
    line = sa.unstable_manifold(p, saddle, arclen=1.5, spacing=0.005)
    z = saddle.zeta.real
    assert math.dist(line.points[1], (z, z)) < 1e-5
    assert len(line.points) > 50
    assert line.arclength[-1] >= 1.0
    # invariance: images of early points land back on the polyline; near
    # the fixed point the stretch is the multiplier ~4.9, so only small
    # arclengths are guaranteed to map within the traced range
    for idx in np.searchsorted(line.arclength, [0.005, 0.01, 0.03]):
        q = line.points[idx]
        img = sa.eval_f(p, (q[0], q[1]))
        img = np.array([img[0], img[1]], dtype=float)
        assert _segment_distance(line.points, img) < 1e-4


def test_manifold_spacing_holds_for_both_saddles():
    # the fast saddle (multiplier ~36) stresses the batch joins
    p = fig1()
    for r in sa.fixed_points(p):
        if r.type != "saddle" or abs(r.zeta.imag) > 1e-9:
            continue
        line = sa.unstable_manifold(p, r, arclen=5.0, spacing=0.05)
        gaps = np.linalg.norm(np.diff(np.array(line.points[2:]), axis=0), axis=1)
        assert gaps.max() <= 0.05 + 1e-9
        assert line.arclength[-1] >= 4.0


def test_unstable_manifold_requires_saddle():
    p = fig1()
    elliptic = [r for r in sa.fixed_points(p) if r.type == "elliptic"][0]
    with pytest.raises(sa.NotSaddleError):
        sa.unstable_manifold(p, elliptic)


def test_manifold_leaves_island():
    # the saddle separatrices run far from the elliptic island
    p = fig1()
    recs = sa.fixed_points(p)
    elliptic = [r for r in recs if r.type == "elliptic"][0]
    saddle = [r for r in recs if r.type == "saddle"][0]
    line = sa.unstable_manifold(p, saddle, arclen=6.0, spacing=0.1)
    dist = np.linalg.norm(np.array(line.points) - [elliptic.zeta.real] * 2, axis=1)
    assert dist.max() > 1.0


def test_fixed_point_polynomial_lead_is_positive():
    # the lead 2 - c never vanishes: with c = +-2cos(j*pi/n) and 0 < j < n,
    # 2 - c >= 2 - 2cos(pi/n) > 0, so the polynomial keeps degree k + 1
    for n in range(2, 61):
        floor = 2 - 2 * math.cos(math.pi / n)
        assert floor > 0
        leads = []
        for j in range(1, n):
            for sign in (1, -1):
                try:
                    p = sa.MapParams(n, 4, (j, sign))
                except sa.ParamError:
                    continue
                leads.append(fixed_point_polynomial(p)[0])
        # each admissible c once as (j, +) and once as (n - j, -); the float
        # values of 2cos(pi/n) and -2cos((n-1)pi/n) may differ in the last bit
        assert len(leads) == 2 * len(sa.admissible_c(n))
        assert all(lead.imag == 0 and lead.real >= floor - 1e-15 for lead in leads), n


# -- manifold stop reasons and cost --------------------------------------------

def _real_saddles(p):
    return [r for r in sa.fixed_points(p) if r.type == "saddle" and abs(r.zeta.imag) < 1e-9]


def _points_digest(line):
    return hashlib.sha256(array("d", itertools.chain.from_iterable(line.points)).tobytes()).hexdigest()


# sha256 of unstable_manifold(fig1, saddle, arclen=5.0)'s points as float64
# x, y pairs, as traced (into an (m, 2) numpy array) before the level loop
# stopped at the arclength
MANIFOLD_DIGESTS = {
    -0.738: (154, "745484a28d26a5ba148af9b0a449dee72a3be754c401560d0e272564da3c0a42"),
    0.575: (147, "1b1fe8dc4d96a33b6777bf46a63a4c0f17c53aa3526ef79aaf3497fd8b4c1b00"),
}


def test_manifold_points_pinned():
    p = fig1()
    for r in _real_saddles(p):
        count, digest = MANIFOLD_DIGESTS[round(r.zeta.real, 3)]
        line = sa.unstable_manifold(p, r, arclen=5.0, spacing=0.05)
        assert line.stop == "arclength"
        assert len(line.points) == count
        assert _points_digest(line) == digest


def _with_hole(monkeypatch, center, radius):
    # the map fails on a small disc, as if the orbit left the window there
    inner = dyn.eval_f

    def eval_f(p, pt, *args, **kw):
        if (pt[0] - center[0]) ** 2 + (pt[1] - center[1]) ** 2 < radius ** 2:
            raise sa.PoleError("outside the window")
        return inner(p, pt, *args, **kw)

    monkeypatch.setattr(dyn, "eval_f", eval_f)


def test_manifold_left_window_pinned(monkeypatch):
    p = fig1()
    saddle = [r for r in _real_saddles(p) if r.zeta.real > 0][0]
    _with_hole(monkeypatch, (0.57, 0.78), 0.05)
    line = sa.unstable_manifold(p, saddle, arclen=5.0, spacing=0.05)
    assert line.stop == "left-window"
    assert len(line.points) == 68
    assert _points_digest(line) == \
        "3a036465e4ce2309bfde4a71bdaf6b38a38d3451004637e811d3aaf88cb21e3d"


def test_manifold_ends_where_the_curve_leaves_the_window(monkeypatch):
    # the map fails outside |x|, |y| <= 1.2: the trace ends at the first
    # escaped branch instead of running through the remaining levels
    # without emitting a point
    calls = []
    inner = dyn.eval_f

    def eval_f(p, pt, *args, **kw):
        calls.append(1)
        if abs(pt[0]) > 1.2 or abs(pt[1]) > 1.2:
            raise sa.PoleError("outside the window")
        return inner(p, pt, *args, **kw)

    monkeypatch.setattr(dyn, "eval_f", eval_f)
    p = fig1()
    saddle = [r for r in _real_saddles(p) if r.zeta.real > 0][0]
    line = sa.unstable_manifold(p, saddle, arclen=20.0, spacing=0.05)
    assert line.stop == "left-window"
    assert len(line.points) == 68
    assert _points_digest(line) == \
        "3a036465e4ce2309bfde4a71bdaf6b38a38d3451004637e811d3aaf88cb21e3d"
    assert len(calls) <= 10 * len(line.points)


def test_manifold_propagates_programming_errors(monkeypatch):
    # only a pole or an overflow ends a branch: any other error from the map
    # is a defect, and it must surface instead of ending the trace
    def eval_f(*args, **kw):
        raise TypeError("unsupported operand")

    p = fig1()
    saddle = _real_saddles(p)[0]
    monkeypatch.setattr(dyn, "eval_f", eval_f)
    with pytest.raises(TypeError):
        sa.unstable_manifold(p, saddle, arclen=2.0)


def test_manifold_stops_at_max_points():
    p = fig1()
    saddle = _real_saddles(p)[0]
    full = sa.unstable_manifold(p, saddle, arclen=5.0)
    line = sa.unstable_manifold(p, saddle, arclen=5.0, max_points=40)
    assert line.stop == "max-points"
    assert line.points == full.points[:40]


def test_manifold_ends_when_a_level_exhausts_the_guard(monkeypatch):
    # a level that runs out of pops ends the trace instead of leaving a gap
    # to the next level
    p = fig1()
    saddle = _real_saddles(p)[0]
    full = sa.unstable_manifold(p, saddle, arclen=5.0, spacing=0.05)
    monkeypatch.setattr(dyn, "LEVEL_GUARD", 40)
    line = sa.unstable_manifold(p, saddle, arclen=5.0, spacing=0.05)
    assert line.stop == "guard"
    assert line.arclength[-1] < 5.0
    assert line.points == full.points[:len(line.points)]
    gaps = np.linalg.norm(np.diff(np.array(line.points[2:]), axis=0), axis=1)
    assert gaps.max() <= 0.05 + 1e-9


def test_manifold_cost_per_emitted_point(monkeypatch):
    # refinement stops once the curve reaches the arclength, so the cost
    # follows the points emitted, not the size of the last level
    calls = []
    inner = dyn.eval_f

    def eval_f(*args, **kw):
        calls.append(1)
        return inner(*args, **kw)

    monkeypatch.setattr(dyn, "eval_f", eval_f)
    p = fig1()
    for r in _real_saddles(p):
        calls.clear()
        line = sa.unstable_manifold(p, r, arclen=20.0)
        assert line.stop == "arclength" and line.arclength[-1] >= 20.0
        assert len(calls) <= 10 * len(line.points)
