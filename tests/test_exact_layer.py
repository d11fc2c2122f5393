"""The exact layer: pinned verdicts, the LDL^T factor of the S Gram, shared
per-(n, k) objects, and typed errors.

``data/exact_suites_desk.json`` holds ``lattice_suite(n, k).to_json_dict()``
and ``factorization_suite(n, k).to_json_dict()`` of the five desk instances
as recorded before the exact objects were built once per (n, k) and the
dense rational inverses were replaced; every status, residual and detail
string must stay the same.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfauto as sa
from surfauto import exactmat as xm
from surfauto.picard import PicardLattice, TSpace, pushforward_matrix
from surfauto.reflections import quadratic_root
from surfauto.verify import factorization_suite, lattice_suite

from exact_oracles import dense, ldl_solve, project

DESK = [(2, 4), (2, 6), (3, 2), (3, 4), (4, 2)]
PINNED = json.loads((Path(__file__).parent / "data" / "exact_suites_desk.json").read_text())


@pytest.mark.parametrize("nk", DESK, ids=[f"{n}-{k}" for n, k in DESK])
@pytest.mark.parametrize("name, suite", [("lattice", lattice_suite),
                                         ("factorizations", factorization_suite)],
                         ids=["lattice", "factorizations"])
def test_desk_suites_pinned(nk, name, suite):
    assert suite(*nk).to_json_dict() == PINNED[f"{nk[0]},{nk[1]}"][name]


def test_cached_objects_are_not_aliased():
    """The dense pushforward is a fresh list per call; the shared lattice
    and restricted action are handed out as built and cannot be changed."""
    M = pushforward_matrix(2, 4)
    expect = [row[:] for row in M]
    M[0][0] += 7
    M.append([0])
    assert pushforward_matrix(2, 4) == expect

    lat = PicardLattice.build(2, 4)
    assert PicardLattice.build(2, 4) is lat
    with pytest.raises(TypeError):
        lat.strict["sigma0"][0] = 99
    with pytest.raises(TypeError):
        lat.strict[("L", 0)] = ()
    with pytest.raises(AttributeError):
        lat.strict.pop(("L", 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.strict = {}
    C = sa.restricted_action(2, 4)
    assert sa.restricted_action(2, 4) is C
    with pytest.raises(TypeError):
        C[0][0] = 7
    with pytest.raises(TypeError):
        C[0] = (7, 7)
    assert lattice_suite(2, 4).to_json_dict() == PINNED["2,4"]["lattice"]


# -- LDL^T of the S Gram ----------------------------------------------------------------

def _entries(A):
    """The nonzero entries (i, j) -> A[i][j] of a dense matrix."""
    return {(i, j): x for i, row in enumerate(A) for j, x in enumerate(row) if x}


def _s_gram_dense(lat):
    """The S Gram as a dense matrix, checked against its nonzero entries."""
    G = lat.gram_matrix([lat.strict[key] for key in lat.s_keys])
    assert _entries(G) == lat.s_gram()
    return G


@pytest.mark.parametrize("nk", DESK, ids=[f"{n}-{k}" for n, k in DESK])
def test_ldl_minors_and_determinant_match_bareiss(nk):
    lat = PicardLattice.build(*nk)
    G = _s_gram_dense(lat)
    factor = xm.ldl(len(G), lat.s_gram())
    assert factor.complete
    reference = [xm.det_bareiss([row[:m] for row in G[:m]]) for m in range(1, len(G) + 1)]
    assert factor.leading_minors() == reference
    assert lat.s_gram_factor().leading_minors() == reference
    assert lat.s_gram_det() == reference[-1] == xm.det_bareiss(G)
    assert isinstance(lat.s_gram_det(), int)


@pytest.mark.parametrize("nk", DESK, ids=[f"{n}-{k}" for n, k in DESK])
def test_ldl_solve_matches_fraction_elimination(nk):
    lat = PicardLattice.build(*nk)
    G = _s_gram_dense(lat)
    b = [(3 * i * i - 7 * i + 1) % 11 - 5 for i in range(len(G))]
    assert ldl_solve(xm.ldl(len(G), lat.s_gram()), b) == xm.frac_solve(G, [b])[0]


def test_ldl_zero_pivot_stops_the_factor():
    factor = xm.ldl(2, _entries([[0, 1], [1, 0]]))
    assert not factor.complete
    assert factor.leading_minors() == [0]
    with pytest.raises(ZeroDivisionError):
        ldl_solve(factor, [1, 1])
    factor = xm.ldl(2, _entries([[-2, 1], [1, -2]]))
    assert factor.complete and factor.leading_minors() == [-2, 3]
    assert ldl_solve(factor, [1, 0]) == [Fraction(-2, 3), Fraction(-1, 3)]


def test_recurrence_residuals():
    fib = [0, 1, 1, 2, 3, 5, 8]
    assert xm.recurrence_residuals([1, -1, -1], fib) == [0] * 5
    assert xm.recurrence_residuals([1, 0, -1], fib) == [1, 1, 2, 3, 5]
    assert xm.recurrence_residuals([1, -1, -1], fib[:2]) == []


def test_projection_agrees_with_dense_solve():
    lat = PicardLattice.build(3, 4)
    ts = TSpace(lat)
    v = lat.strict[("L", 1)]
    G = _s_gram_dense(lat)
    rhs = [lat.ip(lat.strict[key], v) for key in lat.s_keys]
    coef = xm.frac_solve(G, [rhs])[0]
    expect = [Fraction(x) for x in dense(lat, v)]
    for c, key in zip(coef, lat.s_keys):
        expect = [a - c * b for a, b in zip(expect, dense(lat, lat.strict[key]))]
    assert project(lat, dense(lat, v)) == expect
    assert ts.gamma_coords(v) == ts.gamma_coords(xm.sparse(expect))


# -- exactmat kernels -------------------------------------------------------------------

small_matrices = st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda inner: st.integers(1, 5).flatmap(lambda p: st.tuples(
        st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=inner,
                          max_size=inner), min_size=m, max_size=m),
        st.lists(st.lists(st.integers(-9, 9), min_size=p, max_size=p),
                 min_size=inner, max_size=inner)))))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_mat_mul_matches_dense_product(AB):
    A, B = AB
    dense = [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
             for i in range(len(A))]
    assert xm.mat_mul(A, B) == dense


def _det_by_elimination(M):
    """det M by Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        pivot = next((r for r in range(c, len(M)) if M[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


square_matrices = st.integers(1, 8).flatmap(lambda d: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=d, max_size=d),
    min_size=d, max_size=d))


@settings(max_examples=60, deadline=None)
@given(square_matrices)
def test_charpoly_is_det_of_t_minus_a(A):
    # Berkowitz against elimination at d + 1 points, which fix a degree-d polynomial
    d = len(A)
    cp = xm.charpoly(A)
    assert len(cp) == d + 1
    for t in range(d + 1):
        tI_minus_A = [[t * (i == j) - A[i][j] for j in range(d)] for i in range(d)]
        assert sum(c * t ** (d - i) for i, c in enumerate(cp)) == _det_by_elimination(tI_minus_A)


def test_mat_eq_compares_values():
    assert xm.mat_eq(((1, 0), (0, 1)), [[1, 0], [0, 1]])
    assert xm.mat_eq([[Fraction(2)]], [[2]])
    assert not xm.mat_eq([[1, 0]], [[1, 0], [0, 1]])
    assert not xm.mat_eq([[1, 0]], [[1]])


def test_unit_lower_columns_are_checked():
    cols = (((0, 1), (1, 2)), ((1, 1), (2, -3)), ((2, 1),))    # a unit lower matrix
    assert xm.unit_lower_columns(cols) == (((1, 2),), ((2, -3),), ())
    with pytest.raises(sa.ExactIdentityError):
        xm.unit_lower_columns((((0, 2),), ((1, 1),)))      # diagonal entry not 1
    with pytest.raises(sa.ExactIdentityError):
        xm.unit_lower_columns((((0, 1),), ((0, 1), (1, 1))))  # entry above the diagonal
    with pytest.raises(sa.ExactIdentityError):
        xm.unit_lower_columns((((0, 1),), ((2, 1),)))      # diagonal entry 0


# -- typed errors -------------------------------------------------------------------------

def test_exact_identity_error_is_a_package_error():
    assert issubclass(sa.ExactIdentityError, sa.SurfautoError)
    assert not issubclass(sa.ExactIdentityError, AssertionError)


def test_canonical_class_raises_typed_error():
    lat = PicardLattice.build(2, 4)
    strict = dict(lat.strict)
    strict["sigma0"] = ((0, 2),) + strict["sigma0"][1:]
    with pytest.raises(sa.ExactIdentityError):
        dataclasses.replace(lat, strict=strict).canonical_class()


def test_lattice_suite_reports_canonical_class_failure(monkeypatch):
    def broken(self):
        raise sa.ExactIdentityError("canonical class expressions disagree")

    monkeypatch.setattr(PicardLattice, "canonical_class", broken)
    checks = {c.id: c.status for c in lattice_suite(2, 4).checks}
    assert checks["canonical-class"] == "fail"
    assert checks["canonical-square"] == "pass"


def test_incomplete_s_gram_factor_has_no_determinant(monkeypatch):
    # a zero pivot leaves the determinant unread: gram-determinant fails
    monkeypatch.setattr(PicardLattice, "s_gram_factor",
                        lambda self: xm.ldl(2, {(0, 1): 1, (1, 0): 1}))
    lat = PicardLattice.build(2, 4)
    assert not lat.s_negative_definite()
    assert lat.s_gram_det() is None
    checks = {c.id: c for c in lattice_suite(2, 4).checks}
    assert checks["negative-definite"].status == "fail"
    assert checks["gram-determinant"].status == "fail"
    assert checks["gram-determinant"].detail == "det = None"


def test_quadratic_root_rejects_a_non_root():
    lat = PicardLattice.build(2, 4)
    with pytest.raises(sa.ExactIdentityError, match="root square -8"):
        quadratic_root(lat, [(0, 1)] * 3)       # e0 - 3 e^1_0: square 1 - 9, not -2
