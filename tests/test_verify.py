import mpmath as mp

import surfauto as sa
from surfauto.picard import degree_recurrence_residuals
from surfauto.verify import (
    chart_suite,
    factorization_suite,
    fixed_point_suite,
    lattice_suite,
    parabolic_suite,
)


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
