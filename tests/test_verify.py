import contextlib
import hashlib
import itertools
import math
import os
import time
import weakref
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import pytest

import surfauto as sa
import surfauto.charts as charts
import surfauto.dynamics as dynamics
import surfauto.verify as verify
from surfauto import exactmat as xm
from surfauto import picard
from surfauto.cli import main
from surfauto.errors import SurfautoError
from surfauto.picard import degree_recurrence_residuals
from surfauto.verify import (
    chart_suite,
    factorization_suite,
    fixed_point_suite,
    fork_map,
    lattice_suite,
    parabolic_suite,
    worst,
)

FIGURE1 = Path(__file__).resolve().parents[1] / "demos" / "figure1.json"


def _set_cpus(monkeypatch, cpus):
    """Make fork_map see `cpus` CPUs in this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lattice_suite_passes():
    rep = lattice_suite(2, 4)
    assert rep.overall == "pass"
    ids = {c.id for c in rep.checks}
    assert "negative-definite" in ids and "degree-recurrence" in ids
    # the displayed-coefficient comparison is a report, not a failure
    reports = [c for c in rep.checks if c.status == "report"]
    assert any(c.id == "gamma-displayed-coefficients" for c in reports)


def test_lattice_suite_degenerate_case_reports():
    rep = lattice_suite(3, 4)
    assert rep.overall == "pass"
    assert any(c.id == "gamma-closed-form" and c.status == "report" for c in rep.checks)


def test_chart_suite_passes_quick():
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    rep = chart_suite(p, n_xi=4)
    assert rep.overall == "pass"


def test_chart_suite_negative_control():
    # corrupting one blowup center must break the chart suite
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    rep = chart_suite(p, sa.CenterTable.build(p).tampered(0, p.k + 1, mp.mpf(1.21)), n_xi=2)
    assert rep.overall == "fail"


def test_chart_suite_reports_a_stopped_reversor_transition(monkeypatch):
    # a reversor lift that does not converge fails its check, with the
    # extrapolation error in the detail, instead of stopping the suite; the
    # same in this process alone and dealt to children, which inherit the patch
    numeric = charts.reversor_transition_numeric

    def stalls_at_1_2(table, s, j, xi):
        if (s, j) == (1, 2):
            raise sa.ExtrapolationError("reversor extrapolants keep moving by 1.0 > 1e-08")
        return numeric(table, s, j, xi)

    monkeypatch.setattr(charts, "reversor_transition_numeric", stalls_at_1_2)
    p = sa.MapParams(n=3, k=4, c_spec=(1, 1), a={2: 0.4})
    table = sa.CenterTable.build(p)
    for cpus in (1, 3):
        _set_cpus(monkeypatch, cpus)
        checks = {c.id: c for c in chart_suite(p, table, n_xi=1).checks}
        reversor = checks["reversor-fiber-action"]
        assert reversor.status == "fail"
        assert reversor.detail == ("failures: [(1, 2, 'reversor extrapolants keep moving by "
                                   "1.0 > 1e-08')]")
        assert checks["fiber-transitions"].status == "pass"


def test_sampled_checks_without_samples_fail():
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    charts = {c.id: c for c in chart_suite(p, n_xi=0).checks}
    parabolic = {c.id: c for c in parabolic_suite(p, points_per_fiber=0).checks}
    sampled = [charts["fiber-transitions"]] + [
        parabolic[cid] for cid in ("invariant-line-fixed", "invariant-line-tangent",
                                   "invariant-line-half-diagonal", "fibers-fixed",
                                   "fibers-tangent")]
    for c in sampled:
        assert (c.status, c.residual, c.detail) == ("fail", None, "no samples"), c.id
    # the checks that do not sample are unaffected
    assert charts["orbit-closure"].status == "pass"
    assert parabolic["top-fiber-outside-configuration"].status == "report"


@pytest.mark.parametrize("values, expected", [
    ([], 0.0), ([math.nan, 2.0], math.nan), ([2.0, math.nan], math.nan),
    ([1.0, math.inf, 2.0], math.inf), ([0.5, 2.0, 1e-3], 2.0)])
def test_worst_is_the_largest_value_and_nan_when_one_is(values, expected):
    got = worst(iter(values))
    assert got == expected or math.isnan(got) and math.isnan(expected)


NAN_MEMBER = sa.MapParams(n=3, k=2, c_spec=(1, 1))
TRACE_MEMBER = sa.MapParams(n=2, k=4, c_spec=(1, 1))   # a = 0 and k = 4: trace-rank runs


def _nth(n, pred):
    """A test of a call's arguments that holds at the n-th call pred holds for."""
    seen = itertools.count(1)
    return lambda args: pred(args) and next(seen) == n


def _corrupt(monkeypatch, module, name, hit, corrupt):
    """Make module.name return corrupt(result) at the calls whose arguments
    hit holds for."""
    real = getattr(module, name)

    def patched(*args):
        out = real(*args)
        return corrupt(out) if hit(args) else out

    monkeypatch.setattr(module, name, patched)


def _result(module, name, corrupt):
    return lambda monkeypatch, table: _corrupt(monkeypatch, module, name, lambda args: True,
                                               corrupt)


def _closed_value(pick):
    """NaN for the value of the fiber_transition_closed call pick(table) picks."""
    return lambda monkeypatch, table: _corrupt(monkeypatch, charts, "fiber_transition_closed",
                                               pick(table), lambda out: (out[0], math.nan))


def _report(pick, field):
    """NaN for one field of the first parabolic_check report whose job pick holds for."""
    return lambda monkeypatch, table: _corrupt(monkeypatch, charts, "parabolic_check",
                                               _nth(1, pick),
                                               lambda r: replace(r, **{field: math.nan}))


def _nan_orbit_end(monkeypatch, table):
    table.jet   # built first: the lifts run on the true orbit
    object.__setattr__(table, "w", table.w[:-1] + (mp.nan,))


def _nan_jacobian_entry(monkeypatch, table):
    # Df's lower-left entry at the first fixed point: fixed_points reads
    # only the trace of Df, so the suite's determinant alone meets the NaN
    z = dynamics.fixed_points(TRACE_MEMBER)[0].zeta
    _corrupt(monkeypatch, dynamics, "jacobian", lambda args: args[1] == (z, z),
             lambda J: (J[0], (math.nan, J[1][1])))


SUITES = {
    "lattice": lambda table: lattice_suite(2, 4),
    "charts": lambda table: chart_suite(NAN_MEMBER, table, n_xi=1),
    "parabolic": lambda table: parabolic_suite(NAN_MEMBER, table, points_per_fiber=1),
    "fixed-points": lambda table: fixed_point_suite(TRACE_MEMBER),
}
# each bounded check: its suite, and how one of its values becomes NaN
NAN_CASES = {
    "cofactor-unit-modulus": ("lattice", _result(verify, "char_poly_factor_check",
                                                 lambda out: out[:2] + (math.nan,))),
    "degree-ratio": ("lattice", _result(verify, "spectral_radius", lambda out: math.nan)),
    "orbit-closure": ("charts", _nan_orbit_end),
    # beta(0, 2) is b_1, which only center-propagation passes
    "center-propagation": ("charts", _closed_value(
        lambda t: _nth(1, lambda args: args[3] is t.beta[(0, 2)]))),
    # b_k is beta(0, k+1): center-propagation passes it first, the cycle second
    "center-cycle-closure": ("charts", _closed_value(
        lambda t: _nth(2, lambda args: args[3] is t.b[t.k]))),
    "cycle-identity": ("charts", _closed_value(
        lambda t: _nth(1, lambda args: args[3] == 1.43 + 0.29j))),
    "invariant-line-fixed": ("parabolic", _report(lambda args: args[1].j == 0, "fix_residual")),
    "invariant-line-tangent": ("parabolic", _report(lambda args: args[1].j == 0,
                                                    "max_deviation")),
    "fibers-fixed": ("parabolic", _report(lambda args: args[1].j != 0, "fix_residual")),
    "fibers-tangent": ("parabolic", _report(lambda args: args[1].j != 0, "max_deviation")),
    "residuals": ("fixed-points", _result(dynamics, "fixed_points",
                                          lambda recs: [replace(recs[0], residual=math.nan)]
                                          + recs[1:])),
    "jacobian-determinant": ("fixed-points", _nan_jacobian_entry),
    "trace-rank-fd-agreement": ("fixed-points", _result(dynamics, "trace_map_rank",
                                                        lambda out: (out[0], math.nan))),
}


@pytest.mark.parametrize("cid", list(NAN_CASES))
def test_a_nan_value_fails_its_bounded_check(monkeypatch, cid):
    # max(worst, nan) keeps worst: a NaN value must fail its check with a
    # NaN residual, not be dropped
    suite, make_nan = NAN_CASES[cid]
    _set_cpus(monkeypatch, 1)   # every job runs here, where the patches count calls
    table = sa.CenterTable.build(NAN_MEMBER)
    make_nan(monkeypatch, table)
    checks = {c.id: c for c in SUITES[suite](table).checks}
    assert checks[cid].status == "fail" and math.isnan(checks[cid].residual), checks[cid]
    if cid.startswith("fibers-"):
        # the first fiber job is on F^1_0
        assert checks["fibers-tangent"].detail == "failing fibers: [(0, 1)]"


def test_degree_recurrence_has_terms_beyond_dim_41(monkeypatch):
    """At (4,6), dim Pic 53, forty terms of d left no residual against a
    recurrence of order dim Pic.  The recurrence now has order 3n: by
    default 3n + 10 terms leave eleven residuals on any (n, k), and the
    suite's one sequence of max(40, 3n + 10) terms leaves 29 at (4,6).  All
    must vanish."""
    assert degree_recurrence_residuals(4, 6) == [0] * 11
    assert degree_recurrence_residuals(4, 6, 40) == [0] * 29
    check_residuals, seen = xm.recurrence_residuals, []

    def spy(coeffs, seq):
        seen.append(check_residuals(coeffs, seq))
        return seen[-1]

    monkeypatch.setattr(xm, "recurrence_residuals", spy)
    check = next(c for c in lattice_suite(4, 6).checks if c.id == "degree-recurrence")
    assert check.status == "pass"
    assert seen == [[0] * 29]


def test_empty_degree_recurrence_fails(monkeypatch):
    monkeypatch.setattr(xm, "recurrence_residuals", lambda coeffs, seq: [])
    check = next(c for c in lattice_suite(2, 4).checks if c.id == "degree-recurrence")
    assert check.status == "fail"


def test_one_characteristic_polynomial_per_nk(monkeypatch, capsys):
    # lattice_suite, factorization_suite and `surfauto spectrum` read every
    # fact of C = restricted_action(n, k) from one Berkowitz run, and no
    # determinant is taken of C or C - I
    n, k = 4, 6
    charpolys, dets = [], []
    charpoly, det_bareiss = xm.charpoly, xm.det_bareiss
    monkeypatch.setattr(xm, "charpoly", lambda A: charpolys.append(A) or charpoly(A))
    monkeypatch.setattr(xm, "det_bareiss", lambda A: dets.append(A) or det_bareiss(A))
    picard.restricted_char_poly.cache_clear()
    assert lattice_suite(n, k).overall == factorization_suite(n, k).overall == "pass"
    assert main(["spectrum", "--n", str(n), "--k", str(k)]) == 0
    C = picard.restricted_action(n, k)
    assert charpolys == [C]
    CmI = [[C[i][j] - (i == j) for j in range(n)] for i in range(n)]
    assert not any(xm.mat_eq(A, C) or xm.mat_eq(A, CmI) for A in dets)


def test_factorization_suite():
    for nk in [(2, 4), (3, 2)]:
        rep = factorization_suite(*nk)
        assert rep.overall == "pass"


def test_parabolic_suite_quick():
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    rep = parabolic_suite(p, points_per_fiber=2)
    assert rep.overall == "pass"
    reports = {c.id for c in rep.checks if c.status == "report"}
    assert "top-fiber-outside-configuration" in reports


def test_fixed_point_suite():
    rep = fixed_point_suite(sa.figure1_params())
    assert rep.overall == "pass"
    assert any(c.id == "real-census" for c in rep.checks)


def test_fixed_point_suite_zero_a_spellings_agree():
    # a_2 = 0 spelled out is the same member as no a at all: the trace-rank
    # checks run on both
    def verdicts(a):
        return [(c.id, c.status) for c in fixed_point_suite(sa.MapParams(2, 4, (1, 1), a)).checks]

    assert verdicts({2: 0.0}) == verdicts({})
    assert ("trace-rank", "pass") in verdicts({})


def _pieces(x):
    """Item x's pieces: x % 4 of them (none, one or several), each
    (x, j, pid of the process that made it)."""
    for j in range(x % 4):
        yield x, j, os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_keeps_item_order(monkeypatch, cpus):
    _set_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    got = list(fork_map(_pieces, range(12)))
    _assert_no_children()
    assert [(x, j) for x, j, _ in got] == [(x, j) for x in range(12) for j in range(x % 4)]
    # round-robin: item x runs in share x % cpus, share 0 in this process
    assert len(forks) == cpus - 1
    pids = [os.getpid(), *forks]
    assert all(pid == pids[x % cpus] for x, _, pid in got)
    for share in range(cpus):
        assert any(x % cpus == share for x, _, _ in got)


def test_fork_map_one_item_never_forks(monkeypatch):
    _set_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    assert list(fork_map(lambda x: (x + 1,), [41])) == [42]
    assert list(fork_map(range, [3])) == [0, 1, 2]
    assert list(fork_map(lambda x: (x,), [])) == []
    assert forks == []


def test_fork_map_reraises_a_child_exception(monkeypatch):
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        bad = cpus + 1      # in the first child's share, or this process's with one CPU

        def fn(x):
            yield x, 0
            yield x, 1
            if x == bad:
                raise ValueError(f"bad item {x}")

        got = []
        with pytest.raises(ValueError, match=f"bad item {bad}"):
            got.extend(fork_map(fn, range(bad + 3)))
        # every piece before the exception arrives before it, its item's own too
        assert got == [(x, j) for x in range(bad + 1) for j in range(2)], cpus
        _assert_no_children()


def test_fork_map_reraises_a_piece_a_child_cannot_send(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def fn(x):
        yield x
        if x == 1:      # in the child's share: a generator cannot be pickled
            yield (y for y in ())

    got = []
    with pytest.raises(TypeError, match="cannot pickle"):
        got.extend(fork_map(fn, range(4)))
    assert got == [0, 1]
    _assert_no_children()


def test_fork_map_child_exiting_without_results(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def fn(x):
        yield x
        if x == 1:      # in the child's share, after one piece
            os._exit(3)

    with pytest.raises(SurfautoError, match="status 3"):
        list(fork_map(fn, range(4)))
    _assert_no_children()


def test_fork_map_interrupt_leaves_no_child(monkeypatch):
    _set_cpus(monkeypatch, 3)

    def fn(x):
        if x == 0:      # this process's own share
            raise KeyboardInterrupt
        time.sleep(60)  # the children's shares; they are killed, not waited for
        yield x

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        list(fork_map(fn, range(3)))
    _assert_no_children()
    assert time.perf_counter() - t0 < 30


def test_fork_map_consumer_stopping_early_leaves_no_child(monkeypatch):
    def fn(x):
        if x:
            time.sleep(60)  # the children's shares; they are killed, not waited for
        yield from range(3)

    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="consumer failed"):
            with contextlib.closing(fork_map(fn, range(3))) as pieces:
                for _ in pieces:
                    raise RuntimeError("consumer failed")
        _assert_no_children()
        assert time.perf_counter() - t0 < 30


def test_fork_map_streams_each_result(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def fn(x):
        if x == 3:      # the child's second item keeps it busy
            time.sleep(60)
        yield x

    t0 = time.perf_counter()
    with contextlib.closing(fork_map(fn, range(4))) as pieces:
        # item 1 arrives while the child is still on item 3
        assert [next(pieces) for _ in range(3)] == [0, 1, 2]
    _assert_no_children()
    assert time.perf_counter() - t0 < 30


def test_fork_map_child_runs_a_whole_item_ahead(monkeypatch, tmp_path):
    # a child that wrote each piece as soon as it made it would block once its
    # pipe's buffer (64 KiB on Linux) was full, until this process read item 1
    # at its turn: it would not finish item 1 while item 0 waits for it
    _set_cpus(monkeypatch, 2)
    marker = tmp_path / "item-1-built"
    piece = bytes(16384)

    def fn(x):
        if x == 0:      # this process's item
            deadline = time.monotonic() + 10
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            yield marker.exists()
        else:           # the child's item: 1 MiB of pieces, then the marker
            yield from [piece] * 64
            marker.touch()

    got = list(fork_map(fn, range(2)))
    assert got[0] is True, "the child stalled in the middle of its item"
    assert got[1:] == [piece] * 64
    _assert_no_children()


class _Result:
    """A piece a weakref can point to."""


def test_fork_map_holds_no_result_it_has_yielded(monkeypatch):
    parent = os.getpid()
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        refs, checks = [], []

        def fn(x):
            for _ in range(3):
                if os.getpid() == parent:   # this process's share: every piece before is gone
                    assert all(ref() is None for ref in refs), "fork_map still holds a piece"
                    checks.append(len(refs))
                yield _Result()

        for piece in fork_map(fn, range(6)):
            refs.append(weakref.ref(piece))
            del piece       # the consumer keeps nothing
        assert len(refs) == 18
        # this process made each of its pieces when its consumer asked for it,
        # after every piece before it, the children's among them
        assert checks == [3 * x + j for x in range(0, 6, cpus) for j in range(3)], cpus
        _assert_no_children()


# sha256 of figure 1's charts.json at its defaults, as tests/test_cli.py pins it
CHARTS_FIGURE1 = "a3dda3259b75f943251ef0a4d311fa2d4e17fe53b1f07cb5f4c017484e951d3f"


@pytest.mark.parametrize("member", ["figure1", "desk-3-4", "charts-figure1"])
def test_suites_serial_and_forked_agree(monkeypatch, tmp_path, member):
    if member == "charts-figure1":
        # `surfauto charts` forks once
        def run(cpus):
            out = tmp_path / str(cpus)
            assert main(["charts", "--params", str(FIGURE1), "--out", str(out)]) == 0
            return hashlib.sha256((out / "charts.json").read_bytes()).hexdigest()
        forks_per_cpu = 1
    else:
        # the chart and parabolic suites fork once each
        p = sa.figure1_params() if member == "figure1" else \
            sa.MapParams(3, 4, c_spec=(1, 1), a={2: 0.4})
        table = sa.CenterTable.build(p)

        def run(cpus):
            return [chart_suite(p, table=table, n_xi=2).to_json_dict(),
                    parabolic_suite(p, table=table, points_per_fiber=2).to_json_dict()]
        forks_per_cpu = 2
    got = {}
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        got[cpus] = run(cpus)
        _assert_no_children()
        assert len(forks) == forks_per_cpu * (cpus - 1)
    assert got[1] == got[2]
    if member == "charts-figure1":
        assert got[1] == CHARTS_FIGURE1
    else:
        assert [s["overall"] for s in got[1]] == ["pass", "pass"]


def test_chart_suite_negative_control_forked(monkeypatch):
    # the tampered table is the one the children check: their share of the
    # fiber transitions fails exactly as in one process
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    table = sa.CenterTable.build(p).tampered(0, p.k + 1, mp.mpf(1.21))
    got = {}
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        got[cpus] = chart_suite(p, table, n_xi=2)
        _assert_no_children()
    assert got[2].overall == "fail"
    assert got[2].to_json_dict() == got[1].to_json_dict()
