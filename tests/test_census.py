"""The exact claims beyond the desk instances.

On every admissible (n, k) with dim Pic <= 120 the lattice and
factorization suites must pass; with dim Pic <= 60 the characteristic
polynomial and determinant of f_* from the splitting span(S) + T must also
agree with dense Berkowitz and Bareiss on the full matrix, and on those
and the wide census below T, read from the auxiliary classes varrho_t,
must give the gammas, their Gram and the action of f_* of the projection
oracle.  With dim Pic <= 60, chi (x^(2n) - 1), the degree recurrence of
order 3n, must divide that characteristic polynomial, and the S Gram
factor with sigma0 last must give the determinant of dense Bareiss and
the negative-definite verdict of the sigma0-first order.  On every
admissible (n, k) with n <= 8 and k <= 24 the integer
identity behind T holds: each varrho_t is orthogonal to S, C < 0,
det R != 0 and C P = R M.  On all admissible (n, k) with n <= 8 and k <= 12 the
characteristic polynomial must be chi times the cyclotomic cofactor of the
pinned cycle type, and chi must pass an exact Salem test.  The chart layer
(the chart and parabolic suites, at one sample per fiber) must pass on four
instances beyond the desk: (4,4), (3,6), (2,10) and (5,4).  On every census
instance f_* sends each fiber class where the chart layer's transitions
send the fiber.

``data/t_space_census.json`` holds, for each instance of T_CENSUS,
``t_reflections(n, k)`` and, where k != 2n - 2, the displayed and exact
coefficients of ``gamma_closed_form(n, k)`` and their comparison, as
recorded when gamma was built densely and read through the strict basis by
forward substitution; a Fraction is pinned as its text.

Admissible means n >= 2, even k >= 2 and n k > k + 2 (Bedford-Kim,
Thm. 1); dim Pic = 1 + n (2k + 1).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from surfauto import exactmat as xm
from surfauto import picard, verify
from surfauto.charts import SIGMA1, CenterTable, fiber_target, fiber_transition_closed
from surfauto.errors import ExactIdentityError
from surfauto.mapfamily import MapParams
from surfauto.picard import (
    PicardLattice,
    chi_poly,
    gamma_closed_form,
    pushforward_char_poly,
    pushforward_columns,
    pushforward_det,
    pushforward_matrix,
    restricted_action,
    s_class_permutation,
    s_cycle_lengths,
    t_space,
)
from surfauto.reflections import t_reflections
from surfauto.verify import chart_suite, factorization_suite, lattice_suite, parabolic_suite

from exact_oracles import dense, projected_t


def _admissible(max_dim):
    return [(n, k) for n in range(2, max_dim) for k in range(2, max_dim, 2)
            if n * k > k + 2 and 1 + n * (2 * k + 1) <= max_dim]


CENSUS = _admissible(60)
SUITE_CENSUS = _admissible(120)
WIDE = [(n, k) for n in range(2, 9) for k in range(2, 13, 2) if n * k > k + 2]
T_CENSUS = sorted(set(CENSUS) | set(WIDE))
IDENTITY_GRID = [(n, k) for n in range(2, 9) for k in range(2, 25, 2) if n * k > k + 2]
CHART_CENSUS = [(4, 4), (3, 6), (2, 10), (5, 4)]
T_PINNED = json.loads((Path(__file__).parent / "data" / "t_space_census.json").read_text())


def _ids(instances):
    return [f"{n}-{k}" for n, k in instances]


def test_census_size():
    assert len(CENSUS) == 22
    assert (3, 2) in CENSUS and (2, 14) in CENSUS and (11, 2) in CENSUS
    assert len(SUITE_CENSUS) == 66 and set(CENSUS) < set(SUITE_CENSUS)
    assert (23, 2) in SUITE_CENSUS and (7, 8) in SUITE_CENSUS and (2, 28) in SUITE_CENSUS
    assert len(WIDE) == 41 and (8, 12) in WIDE
    assert len(T_CENSUS) == 45 and len(IDENTITY_GRID) == 83


@pytest.mark.parametrize("nk", SUITE_CENSUS, ids=_ids(SUITE_CENSUS))
def test_exact_suites_pass(nk, monkeypatch):
    check_residuals, seen = xm.recurrence_residuals, []

    def spy(coeffs, seq):
        seen.append(check_residuals(coeffs, seq))
        return seen[-1]

    monkeypatch.setattr(xm, "recurrence_residuals", spy)
    for suite in (lattice_suite, factorization_suite):
        rep = suite(*nk)
        assert rep.overall == "pass", [c.to_json_dict() for c in rep.checks if c.status == "fail"]
    # the lattice suite checks the degree recurrence on at least ten residuals
    assert len(seen) == 1 and len(seen[0]) >= 10


@pytest.mark.parametrize("nk", CHART_CENSUS, ids=_ids(CHART_CENSUS))
def test_chart_layer_suites_pass(nk):
    p = MapParams(*nk, c_spec=(1, 1))
    table = CenterTable.build(p)
    for rep in (chart_suite(p, table, n_xi=1), parabolic_suite(p, table, points_per_fiber=1)):
        assert rep.overall == "pass", [c.to_json_dict() for c in rep.checks if c.status == "fail"]


# -- one fiber rule for the lattice and the charts ------------------------------------

@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_lattice_and_charts_agree_on_the_fiber_rule(nk):
    """f_* sends each strict fiber class F(s, j) to the class that
    charts.fiber_target names, SIGMA1 being L(0), the class of {x1=0}; and
    it sends L(n-1), the class of {x2=0}, to the "sigma2" target of the
    closed-form transitions, F(0, 2k+1)."""
    n, k = nk
    lat = PicardLattice.build(n, k)
    F = pushforward_columns(n, k)
    for s in range(n):
        for j in range(1, 2 * k + 2):
            tgt = fiber_target(n, k, s, j)
            key = ("L", 0) if tgt == SIGMA1 else ("F",) + tgt[1:]
            assert xm.col_compose(F, (lat.strict[("F", s, j)],))[0] == lat.strict[key], (s, j)
    table = CenterTable.build(MapParams(n, k, c_spec=(1, 1)))
    tgt, _ = fiber_transition_closed(table, "sigma2", None, 0.37)
    assert tgt == ("fiber", 0, 2 * k + 1)
    assert xm.col_compose(F, (lat.strict[("L", n - 1)],))[0] == lat.strict[("F", 0, 2 * k + 1)]


# -- the splitting against dense elimination --------------------------------------------

def _cycle_type(n, k):
    """sigma0 fixed, two n-cycles and k - 1 cycles of length 2n."""
    return sorted([1, n, n] + [2 * n] * (k - 1))


@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_splitting_matches_berkowitz_and_bareiss(nk):
    M = pushforward_matrix(*nk)
    assert pushforward_char_poly(*nk) == tuple(xm.charpoly(M))
    assert pushforward_det(*nk) == xm.det_bareiss(M)
    assert sorted(s_cycle_lengths(*nk)) == _cycle_type(*nk)


@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_restricted_char_poly_gives_det_c_and_det_c_minus_i(nk):
    n, k = nk
    C = restricted_action(n, k)
    CmI = [[C[i][j] - (i == j) for j in range(n)] for i in range(n)]
    cp = picard.restricted_char_poly(n, k)
    assert cp == tuple(xm.charpoly(C))
    assert (-1) ** n * cp[-1] == xm.det_bareiss(C)
    assert (-1) ** n * xm.poly_eval(cp, 1) == xm.det_bareiss(CmI)
    verdict = next(c.status for c in lattice_suite(n, k).checks
                   if c.id == "no-invariant-T-classes")
    assert verdict == ("pass" if xm.det_bareiss(CmI) != 0 else "fail")


@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_minimality_report_matches_the_form(nk):
    n, k = nk
    lat = PicardLattice.build(n, k)
    sigma0 = lat.strict["sigma0"]
    selfints = {"sigma0": lat.ip(sigma0, sigma0)}
    for s in range(n):
        for j in range(1, 2 * k + 1):
            v = lat.strict[("F", s, j)]
            selfints[("F", s, j)] = lat.ip(v, v)
    want = {"selfints": selfints}
    if n == 2:
        want["after_contraction"] = {key: v + lat.ip(lat.strict[key], sigma0) ** 2
                                     for key, v in selfints.items() if key != "sigma0"}
    got = picard.minimality_report(n, k)
    assert got == want and list(got["selfints"]) == list(selfints)


def test_s_image_outside_the_s_classes_raises():
    n, k = 2, 4
    lat = PicardLattice.build(n, k)
    F = pushforward_columns(n, k)
    assert sorted(len(c) for c in xm.perm_cycles(
        s_class_permutation(lat, F))) == _cycle_type(n, k)
    # the image of e^2 on limb 0 picks up e0, and so do those of F(0, 1) and
    # F(0, 2), the S classes through e^2
    j = lat.idx(0, 2)
    col = dict(F[j])
    col[0] = col.get(0, 0) + 1
    F = F[:j] + (tuple(sorted(col.items())),) + F[j + 1:]
    with pytest.raises(ExactIdentityError, match=r"\('F', 0, 1\) is not an S class"):
        s_class_permutation(lat, F)


# -- the degree recurrence of order 3n ----------------------------------------------------

@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_degree_recurrence_divides_the_char_poly(nk):
    """chi (x^(2n) - 1), the recurrence the lattice suite checks, divides
    det(x I - f_*), so the recurrence of order dim Pic follows from it."""
    n, k = nk
    recurrence = picard.degree_recurrence(n, k)
    assert recurrence == xm.poly_mul(chi_poly(n, k), _x_power_minus_one(2 * n))
    _, rem = xm.poly_divmod(list(pushforward_char_poly(n, k)), recurrence)
    assert not any(rem)


@pytest.mark.parametrize("nk", [(2, 4), (3, 4), (4, 6), (5, 10)],
                         ids=_ids([(2, 4), (3, 4), (4, 6), (5, 10)]))
def test_chi_alone_leaves_nonzero_residuals(nk):
    """Without the factor x^(2n) - 1 of span(S) the recurrence fails on
    every residual: the degrees see the S classes."""
    n, k = nk
    res = xm.recurrence_residuals(chi_poly(n, k), picard.degree_sequence(n, k, 3 * n + 10))
    assert len(res) == 2 * n + 11 and all(res)


@pytest.mark.parametrize("at", [0, 20, 40])
def test_a_changed_degree_fails_the_recurrence(monkeypatch, at):
    def changed(n, k, m):
        d = picard.degree_sequence(n, k, m)
        d[at] += 1
        return d

    monkeypatch.setattr(verify, "degree_sequence", changed)
    checks = {c.id: c.status for c in lattice_suite(3, 4).checks}
    assert checks["degree-recurrence"] == "fail"


# -- the S Gram factor with sigma0 last (CENSUS holds the desk instances) -----------------

def _sigma0_first(lat):
    """The nonzero entries of the S Gram with sigma0 moved from last to first."""
    last = len(lat.s_keys) - 1
    return {((i + 1) % (last + 1), (j + 1) % (last + 1)): x for (i, j), x in lat.s_gram().items()}


def _alternates(factor):
    return all((m > 0) == (i % 2 == 1) for i, m in enumerate(factor.leading_minors()))


@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_sigma0_last_factor_keeps_determinant_and_verdict(nk):
    lat = PicardLattice.build(*nk)
    assert lat.s_keys[-1] == "sigma0"
    G = lat.gram_matrix([lat.strict[key] for key in lat.s_keys])
    assert lat.s_gram_det() == xm.det_bareiss(G)
    first = xm.ldl(len(G), _sigma0_first(lat))
    assert first.complete and first.leading_minors()[-1] == lat.s_gram_det()
    assert lat.s_negative_definite() and _alternates(first)


@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
@pytest.mark.parametrize("where", ["first", "middle", "sigma0", "off-diagonal"])
def test_a_tampered_s_gram_is_not_negative_definite(monkeypatch, nk, where):
    """One changed entry (a positive diagonal entry, or an entry of
    sigma0's row past the square root of the product of the two diagonal
    entries) makes the S Gram indefinite, and the sigma0-last factor sees it."""
    lat = PicardLattice.build(*nk)
    entries, last = dict(lat.s_gram()), len(lat.s_keys) - 1
    if where == "off-diagonal":
        entries[last, 0] = entries[0, last] = entries[0, 0] * entries[last, last] + 1
    else:
        i = {"first": 0, "middle": last // 2, "sigma0": last}[where]
        entries[i, i] = -entries[i, i]
    monkeypatch.setattr(PicardLattice, "s_gram_factor",
                        lambda self: xm.ldl(len(self.s_keys), entries))
    assert not lat.s_negative_definite()


# -- T from the auxiliary classes ---------------------------------------------------------

@pytest.mark.parametrize("nk", T_CENSUS, ids=_ids(T_CENSUS))
def test_t_space_matches_projection(nk):
    n, k = nk
    gammas, gram, action = projected_t(n, k)
    assert list(map(list, t_space(n, k).gamma_gram)) == gram
    assert list(map(list, restricted_action(n, k))) == action
    x, C = Fraction(2, k) - n + 2, 2 * (2 - (n - 2) * k) - (n - 1) * k * k
    _, rho = picard._varrho(n, k)
    for s, gamma in enumerate(gammas):
        weights = [x if t == s else 1 for t in range(n)]
        assert [sum(w * r[i] for w, r in zip(weights, rho)) / C
                for i in range(len(gamma))] == gamma


@pytest.mark.parametrize("nk", IDENTITY_GRID, ids=_ids(IDENTITY_GRID))
def test_auxiliary_classes_give_the_projection(nk):
    """Each varrho_t is orthogonal to S, C < 0, det R != 0 and C P = R M,
    with R the Gram of the varrho_t, P[t][s] = varrho_t . F(s, 2k+1) and M
    the closed form's weights, x = 2/k - n + 2 on the diagonal, 1 elsewhere."""
    n, k = nk
    lat = PicardLattice.build(n, k)
    _, rho = picard._varrho(n, k)
    assert all(sum(a * lat.qdiag[i] * r[i] for i, a in lat.strict[key]) == 0
               for r in rho for key in lat.s_keys)
    x, C = Fraction(2, k) - n + 2, 2 * (2 - (n - 2) * k) - (n - 1) * k * k
    assert C < 0
    rho_cols = [xm.sparse(r) for r in rho]
    R = [[lat.ip(a, b) for b in rho_cols] for a in rho_cols]
    assert xm.det_bareiss(R) != 0
    P = [[lat.ip(r, lat.strict[("F", s, 2 * k + 1)]) for s in range(n)] for r in rho_cols]
    M = [[x if i == j else 1 for j in range(n)] for i in range(n)]
    assert [[C * p for p in row] for row in P] == xm.mat_mul(R, M)


@pytest.mark.parametrize("nk", T_CENSUS, ids=_ids(T_CENSUS))
def test_two_forms_of_varrho_agree(nk):
    """The strict weights w_t of varrho_t, the weight of F(s, j) at index
    lat.idx(s, j), recompose its geometric class r_t from the strict
    classes, dense here and apart from _strict_basis."""
    n, k = nk
    lat = PicardLattice.build(n, k)
    keys = ["sigma0"] + [("F", s, j) for s in range(n) for j in range(1, 2 * k + 2)]
    assert all(lat.idx(*key[1:]) == i for i, key in enumerate(keys) if i)
    strict = [dense(lat, lat.strict[key]) for key in keys]
    for w, r in zip(*picard._varrho(n, k)):
        assert [sum(wj * v[i] for wj, v in zip(w, strict)) for i in range(lat.dim)] == list(r)


def _plain(obj):
    """obj as its pin reads it back: tuples become lists, Fractions text."""
    return json.loads(json.dumps(obj, default=str))


@pytest.mark.parametrize("nk", T_CENSUS, ids=_ids(T_CENSUS))
def test_t_space_reports_pinned(nk):
    n, k = nk
    pin = T_PINNED[f"{n},{k}"]
    assert _plain(t_reflections(n, k)) == pin["t_reflections"]
    assert ("gamma_closed_form" in pin) == (k != 2 * n - 2)
    if k != 2 * n - 2:
        g, want = gamma_closed_form(n, k), pin["gamma_closed_form"]
        assert _plain({key: g[key] for key in want}) == want


# -- the wide census: cofactor and Salem test ----------------------------------------------

def _x_power_minus_one(m):
    return [1] + [0] * (m - 1) + [-1]


def _reciprocal_trace_poly(q):
    """R with q(x) = x^m R(x + 1/x), for a palindromic q of degree 2m
    (descending coefficients); R is returned descending."""
    m = (len(q) - 1) // 2
    assert len(q) == 2 * m + 1 and list(q) == list(reversed(q))
    # P_j(y) = x^j + x^-j in y = x + 1/x, ascending: P_0 = 2, P_1 = y
    P = [[2], [0, 1]]
    while len(P) <= m:
        nxt = [0] + P[-1]
        for i, c in enumerate(P[-2]):
            nxt[i] -= c
        P.append(nxt)
    R = [0] * (m + 1)
    R[0] = q[m]
    for j in range(1, m + 1):
        for i, c in enumerate(P[j]):
            R[i] += q[m - j] * c
    return R[::-1]


def _rem(a, b):
    """Remainder of a by b over the rationals, descending, no leading zeros."""
    a = [Fraction(x) for x in a]
    while len(a) >= len(b):
        c = a[0] / b[0]
        a = [x - c * y for x, y in zip(a, list(b) + [0] * (len(a) - len(b)))][1:]
        while a and a[0] == 0:
            a.pop(0)
    return a


def _sturm_sequence(p):
    seq = [[Fraction(c) for c in p], [Fraction(c) for c in xm.poly_derivative(p)]]
    while True:
        r = _rem(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append([-c for c in r])


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _salem_counts(chi):
    """(roots of R above 2, roots of R in (-2, 2), degree of R), counted
    exactly by Sturm sequences, where chi / (x + 1)^[n odd] = x^m R(x + 1/x).
    Each root y of R in (-2, 2) is a pair of conjugate roots of chi on the
    unit circle; the one above 2 is lambda + 1/lambda."""
    q = chi
    if len(chi) % 2 == 0:            # odd degree: -1 is a root
        q, rem = xm.poly_divmod(chi, [1, 1])
        assert not any(rem)
    R = _reciprocal_trace_poly(q)
    seq = _sturm_sequence(R)
    at_minus_two, at_two = ([xm.poly_eval(p, x) for p in seq] for x in (-2, 2))
    assert at_minus_two[0] != 0 and at_two[0] != 0
    at_infinity = [p[0] for p in seq]
    above = _sign_changes(at_two) - _sign_changes(at_infinity)
    inside = _sign_changes(at_minus_two) - _sign_changes(at_two)
    return above, inside, len(R) - 1


def test_salem_counts_of_known_polynomials():
    # x^4 - x^3 - x^2 - x + 1: a Salem number of degree 4
    assert _salem_counts([1, -1, -1, -1, 1]) == (1, 1, 2)
    # (x^2 + 1)(x^2 - 3x + 1): a root at i is inside, 3 +- sqrt(5) over 2 outside
    assert _salem_counts(xm.poly_mul([1, 0, 1], [1, -3, 1])) == (1, 1, 2)
    # x^4 - 5x^2 + 1 has two roots above 1 in modulus: R = y^2 - 7, roots +-sqrt 7
    assert _salem_counts([1, 0, -5, 0, 1]) == (1, 0, 2)


@pytest.mark.parametrize("nk", WIDE, ids=_ids(WIDE))
def test_char_poly_is_chi_times_cyclotomic_and_chi_is_salem(nk):
    n, k = nk
    chi = chi_poly(n, k)
    quo, rem = xm.poly_divmod(list(pushforward_char_poly(n, k)), chi)
    assert not any(rem)
    cofactor = [1]
    for L in _cycle_type(n, k):
        cofactor = xm.poly_mul(cofactor, _x_power_minus_one(L))
    assert quo == cofactor
    above, inside, degree = _salem_counts(chi)
    assert (above, inside) == (1, degree - 1)
