import contextlib
import hashlib
import os
import time
from pathlib import Path

import mpmath as mp
import pytest

import surfauto as sa
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


def test_chart_suite_nonunit_delta_member_closes():
    # membership is decided once, by MapParams at 1e-9: a delta != 1 member
    # whose |w_{n-1}| is 1e-12 builds its table and passes orbit-closure
    p = sa.MapParams.from_json_dict({"n": 2, "k": 4, "c": 1e-12, "delta": 0.5})
    table = sa.CenterTable.build(p)
    assert abs(complex(table.w[-1])) == pytest.approx(1e-12, rel=1e-9)
    checks = {c.id: c for c in chart_suite(p, table, n_xi=1).checks}
    assert checks["orbit-closure"].status == "pass"
    assert checks["orbit-closure"].residual == pytest.approx(1e-12, rel=1e-9)
    assert checks["series-defining-identity"].status == "pass"


def test_chart_suite_negative_control():
    # corrupting one blowup center must break the chart suite
    p = sa.MapParams(n=3, k=2, c_spec=(1, 1))
    rep = chart_suite(p, sa.CenterTable.build(p).tampered(0, p.k + 1, mp.mpf(1.21)), n_xi=2)
    assert rep.overall == "fail"


def test_chart_suite_reports_a_stopped_reversor_transition():
    # the reversor's closed form is that of delta = 1: on this delta != 1
    # member one of its lifts does not converge, and the check fails with
    # the extrapolation error in its detail instead of stopping the suite
    p = sa.MapParams.from_json_dict({"n": 3, "k": 4, "c": 0.7071067811865476, "delta": 0.5})
    checks = {c.id: c for c in chart_suite(p, n_xi=1).checks}
    reversor = checks["reversor-fiber-action"]
    assert reversor.status == "fail"
    assert "(1, 1, 'reversor extrapolants keep moving by" in reversor.detail
    assert checks["fiber-transitions"].status == "fail"


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


def test_degree_recurrence_has_terms_beyond_dim_41(monkeypatch):
    """At (4,6), dim Pic 53, forty terms of d leave no residual at all; the
    suite must take enough terms to check some, and all must vanish."""
    import surfauto.verify as verify

    assert degree_recurrence_residuals(4, 6, 40) == []
    seen = []

    def spy(n, k, m):
        seen.append(degree_recurrence_residuals(n, k, m))
        return seen[-1]

    monkeypatch.setattr(verify, "degree_recurrence_residuals", spy)
    check = next(c for c in lattice_suite(4, 6).checks if c.id == "degree-recurrence")
    assert check.status == "pass"
    assert seen == [[0] * 11]


def test_empty_degree_recurrence_fails(monkeypatch):
    import surfauto.verify as verify

    monkeypatch.setattr(verify, "degree_recurrence_residuals", lambda n, k, m: [])
    check = next(c for c in lattice_suite(2, 4).checks if c.id == "degree-recurrence")
    assert check.status == "fail"


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


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_keeps_item_order(monkeypatch, cpus):
    _set_cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    got = list(fork_map(lambda x: (x * x, os.getpid()), range(10)))
    _assert_no_children()
    assert [v for v, _ in got] == [x * x for x in range(10)]
    # round-robin: item i runs in share i % cpus, share 0 in this process
    pids = [pid for _, pid in got]
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert len(forks) == cpus - 1
    for share, pid in enumerate(forks, 1):
        assert set(pids[share::cpus]) == {pid}


def test_fork_map_one_item_never_forks(monkeypatch):
    _set_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    assert list(fork_map(lambda x: x + 1, [41])) == [42]
    assert list(fork_map(lambda x: x, [])) == []
    assert forks == []


def test_fork_map_reraises_a_child_exception(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def fn(x):
        if x == 3:      # item 3 is in the child's share
            raise ValueError(f"bad item {x}")
        return x

    got = []
    with pytest.raises(ValueError, match="bad item 3"):
        got.extend(fork_map(fn, range(6)))
    # the results before item 3 arrive before its exception
    assert got == [0, 1, 2]
    _assert_no_children()


def test_fork_map_child_exiting_without_results(monkeypatch):
    _set_cpus(monkeypatch, 2)
    with pytest.raises(SurfautoError, match="status 3"):
        list(fork_map(lambda x: os._exit(3) if x == 1 else x, range(4)))
    _assert_no_children()


def test_fork_map_interrupt_leaves_no_child(monkeypatch):
    _set_cpus(monkeypatch, 3)

    def fn(x):
        if x == 0:      # this process's own share
            raise KeyboardInterrupt
        time.sleep(60)  # the children's shares; they are killed, not waited for
        return x

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        list(fork_map(fn, range(3)))
    _assert_no_children()
    assert time.perf_counter() - t0 < 30


def test_fork_map_consumer_stopping_early_leaves_no_child(monkeypatch):
    _set_cpus(monkeypatch, 3)

    def fn(x):
        if x:
            time.sleep(60)  # the children's shares; they are killed, not waited for
        return x

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="consumer failed"):
        with contextlib.closing(fork_map(fn, range(3))) as results:
            for _ in results:
                raise RuntimeError("consumer failed")
    _assert_no_children()
    assert time.perf_counter() - t0 < 30


def test_fork_map_streams_each_result(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def fn(x):
        if x == 3:      # the child's second item keeps it busy
            time.sleep(60)
        return x

    t0 = time.perf_counter()
    with contextlib.closing(fork_map(fn, range(4))) as results:
        # item 1 arrives while the child is still on item 3
        assert [next(results) for _ in range(3)] == [0, 1, 2]
    _assert_no_children()
    assert time.perf_counter() - t0 < 30


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
