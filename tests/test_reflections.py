from collections import Counter

import pytest

import surfauto as sa
from surfauto import exactmat as xm
from surfauto import reflections
from surfauto.errors import ExactIdentityError
from surfauto.picard import PicardLattice
from surfauto.reflections import basis_map, quadratic_reflection

DESK = [(2, 4), (2, 6), (3, 2), (3, 4), (4, 2)]


def _identity(lat):
    return basis_map(lat, lambda s, j: (s, j))


def _cycle_lengths(P):
    """The cycle lengths of a basis permutation in column form."""
    return sorted(len(c) for c in xm.perm_cycles([col[0][0] for col in P]))


def test_generators_are_isometries_and_involutions():
    for (n, k) in [(3, 2), (2, 4)]:
        lat = PicardLattice.build(n, k)
        gens = sa.weyl_generators(n, k)
        for g in gens.values():
            assert lat.is_isometry(g)
            assert lat.gram_matrix(g) == lat.q_matrix()
        J = gens["J"]
        assert xm.col_compose(J, J) == _identity(lat)
        # J(e0) = 2 e0 - e^1 - e^(k+1) - e^(2k+1) on limb 0
        img = xm.col_apply(J, lat.e0())
        expect = [0] * lat.dim
        expect[0] = 2
        for j in (1, k + 1, 2 * k + 1):
            expect[lat.idx(0, j)] = -1
        assert img == expect
        # the limb shift has order n: e0 fixed, 2k + 1 cycles of length n
        sig = gens["sigma_h"]
        assert _cycle_lengths(sig) == [1] + [n] * (2 * k + 1)
        if n > 2:
            assert sig != _identity(lat)


def test_vertical_permutation_orders():
    n, k = 2, 4
    lat = PicardLattice.build(n, k)
    gens = sa.weyl_generators(n, k)
    # two k-cycles, the rest fixed: order k, not k/2
    assert _cycle_lengths(gens["tau_v"]) == [1] * (lat.dim - 2 * k) + [k, k]
    # the reversal of two blocks of length k - 1: an involution
    phi = gens["phi_v"]
    assert phi != _identity(lat)
    assert xm.col_compose(phi, phi) == _identity(lat)


@pytest.mark.parametrize("nk", [(3, 2), (4, 2)])
def test_weyl_factorization_literal_for_k2(nk):
    res = sa.weyl_factorization_check(*nk)
    assert res["literal_identity"]
    assert res["matched_variant"]["tau_limb"] == 0
    assert res["repaired"] is None


@pytest.mark.parametrize("nk", [(2, 4), (2, 6), (3, 4)])
def test_weyl_factorization_repaired_for_k4plus(nk):
    res = sa.weyl_factorization_check(*nk)
    assert not res["literal_identity"]
    rep = res["repaired"]
    assert rep is not None and rep["verified"]
    assert rep["reflection_count"] == nk[1]   # k reflections, not k/2+1
    assert rep["reflection_triples"]


def test_weyl_check_builds_each_generator_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("basis_map", "quadratic_reflection"):
        monkeypatch.setattr(reflections, name, counted(name, getattr(reflections, name)))
    monkeypatch.setattr(xm, "col_compose", counted("col_compose", xm.col_compose))
    n, k = 4, 6
    assert not sa.weyl_factorization_check(n, k)["literal_identity"]
    # seven generators: sigma_h in two directions, tau_v and phi_v on two
    # limbs each, and J; the descent chain adds its k reflections.  Four
    # shared prefixes of k + 1 products, one phi_v product per placement,
    # and the chain's k descent steps and k recomposition steps
    assert calls == {"basis_map": 6, "quadratic_reflection": 1 + k,
                     "col_compose": 4 * (k + 1) + 8 + 2 * k}


def test_noether_chain_recomposes():
    for (n, k) in DESK:
        triples, residual, mats = sa.noether_chain(n, k)
        lat = PicardLattice.build(n, k)
        M = sa.pushforward_matrix(n, k)
        acc = mats[-1]
        for R in reversed(mats[:-1]):
            acc = xm.col_compose(R, acc)
        assert xm.col_dense(acc) == M
        # each factor is an exact involution isometry
        for R in mats[:-1]:
            assert xm.col_compose(R, R) == _identity(lat)
            assert lat.is_isometry(R)
            assert lat.gram_matrix(R) == lat.q_matrix()


def test_quadratic_reflection_root():
    lat = PicardLattice.build(2, 4)
    R = quadratic_reflection(lat, [(0, 2), (1, 3), (1, 7)])
    assert xm.col_compose(R, R) == _identity(lat)


# -- T-space Coxeter picture -----------------------------------------------------

def test_coxeter_factorization():
    for (n, k) in DESK:
        res = sa.coxeter_factorization_check(n, k)
        assert res["identity"], (n, k)
        assert res["order"] == "left-to-right"
        assert res["cartan_ok"]
        assert res["rho_last_column_ok"]
        assert res["involutions_ok"]
        assert res["char_poly_ok"]


def test_coxeter_n2_trace():
    data = sa.t_reflections(2, 4)
    comp = xm.mat_mul(data["taus"][0], data["rhos"][1])
    assert comp[0][0] + comp[1][1] == 4


def test_a_non_integral_t_reflection_names_its_root(monkeypatch):
    class Form:
        kMP = ((1, 0), (0, 2))

    monkeypatch.setattr(reflections, "t_space", lambda n, k: Form)
    with pytest.raises(ExactIdentityError, match=r"root \[-2, 4\] is not integral"):
        sa.t_reflections(2, 4)


# -- the reversing symmetry --------------------------------------------------------

def test_rho_pushforward_properties():
    for (n, k) in DESK:
        res = sa.reversibility_check(n, k)
        assert res["involution"]
        assert res["isometry"]
        assert res["conjugates_to_inverse"]
        if n == 2:
            assert res["dihedral"]


def test_rho_swaps_limbs():
    n, k = 4, 2
    lat = PicardLattice.build(n, k)
    R = sa.rho_pushforward(n, k)
    for s in range(n):
        for j in range(1, 2 * k + 2):
            # the image of the basis vector e(s, j) is its column
            assert R[lat.idx(s, j)] == ((lat.idx(n - 1 - s, j), 1),)


def test_rho_fixes_invariant_line_class():
    for (n, k) in [(2, 4), (3, 2)]:
        lat = PicardLattice.build(n, k)
        R = sa.rho_pushforward(n, k)
        assert xm.col_compose(R, (lat.strict["sigma0"],))[0] == lat.strict["sigma0"]
        # swaps the two contracted lines
        assert xm.col_compose(R, (lat.strict[("L", 0)],))[0] == lat.strict[("L", n - 1)]
