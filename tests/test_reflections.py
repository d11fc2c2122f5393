from collections import Counter

import pytest

import surfauto as sa
from surfauto import exactmat as xm
from surfauto import reflections
from surfauto.errors import ExactIdentityError
from surfauto.picard import PicardLattice
from surfauto.reflections import act, quadratic_root

DESK = [(2, 4), (2, 6), (3, 2), (3, 4), (4, 2)]


def _basis(lat):
    """The basis vectors as columns: the identity map in column form."""
    return tuple(((j, 1),) for j in range(lat.dim))


def _columns(lat, *word):
    """The map a word of roots and relabellings acts as, in column form."""
    return tuple(act(lat, word, _basis(lat)))


def _cycle_lengths(perm):
    """The cycle lengths of a relabelling."""
    return sorted(len(c) for c in xm.perm_cycles(perm))


def test_generators_are_isometries_and_involutions():
    for (n, k) in [(3, 2), (2, 4)]:
        lat = PicardLattice.build(n, k)
        gens = sa.weyl_generators(n, k)
        J = gens["J"]
        for g in [J, *gens["sigma_h"].values(), *gens["tau_v"].values(),
                  *gens["phi_v"].values()]:
            cols = _columns(lat, g)
            assert lat.is_isometry(cols)
            assert lat.gram_matrix(cols) == lat.q_matrix()
        assert _columns(lat, J, J) == _basis(lat)
        # J(e0) = 2 e0 - e^1 - e^(k+1) - e^(2k+1) on limb 0
        img = xm.col_apply(_columns(lat, J), lat.e0())
        expect = [0] * lat.dim
        expect[0] = 2
        for j in (1, k + 1, 2 * k + 1):
            expect[lat.idx(0, j)] = -1
        assert img == expect
        # the limb shift has order n: e0 fixed, 2k + 1 cycles of length n
        for sig in gens["sigma_h"].values():
            assert _cycle_lengths(sig) == [1] + [n] * (2 * k + 1)
            if n > 2:
                assert sig != tuple(range(lat.dim))


def test_vertical_permutation_orders():
    n, k = 2, 4
    lat = PicardLattice.build(n, k)
    gens = sa.weyl_generators(n, k)
    for limb in (0, n - 1):
        # two k-cycles, the rest fixed: order k, not k/2
        assert _cycle_lengths(gens["tau_v"][limb]) == [1] * (lat.dim - 2 * k) + [k, k]
        # the reversal of two blocks of length k - 1: an involution
        phi = gens["phi_v"][limb]
        assert phi != tuple(range(lat.dim))
        assert _columns(lat, phi, phi) == _basis(lat)


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

    for name in ("weyl_generators", "relabelling", "quadratic_root", "act"):
        monkeypatch.setattr(reflections, name, counted(name, getattr(reflections, name)))
    n, k = 4, 6
    assert not sa.weyl_factorization_check(n, k)["literal_identity"]
    # seven generators: sigma_h in two directions, tau_v and phi_v on two
    # limbs each, and J; the descent chain adds its k roots.  One action
    # per word, one per descent step and one for the recomposition
    assert calls == {"weyl_generators": 1, "relabelling": 6, "quadratic_root": 1 + k,
                     "act": 8 + k + 1}


def test_noether_chain_recomposes():
    for (n, k) in DESK:
        triples, residual = sa.noether_chain(n, k)
        lat = PicardLattice.build(n, k)
        roots = [quadratic_root(lat, triple) for triple in triples]
        # the residue P, read from its cycles
        perm = list(range(lat.dim))
        for cyc in residual:
            idx = [lat.idx(*slot) for slot in cyc]
            for a, b in zip(idx, idx[1:] + idx[:1]):
                perm[a] = b
        P = tuple(((i, 1),) for i in perm)
        # M = R_1 ... R_r . P
        assert xm.col_dense(tuple(act(lat, roots[::-1], P))) == sa.pushforward_matrix(n, k)
        # each factor is an exact involution isometry
        for r in roots:
            assert lat.ip(r, r) == -2
            R = _columns(lat, r)
            assert _columns(lat, r, r) == _basis(lat)
            assert lat.is_isometry(R)
            assert lat.gram_matrix(R) == lat.q_matrix()


def test_quadratic_reflection_root():
    lat = PicardLattice.build(2, 4)
    r = quadratic_root(lat, [(0, 2), (1, 3), (1, 7)])
    assert r == ((0, 1), (lat.idx(0, 2), -1), (lat.idx(1, 3), -1), (lat.idx(1, 7), -1))
    assert _columns(lat, r, r) == _basis(lat)


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
    assert R[0] == 0
    for s in range(n):
        for j in range(1, 2 * k + 2):
            # the relabelling sends the basis index of e(s, j) to that of e(n-1-s, j)
            assert R[lat.idx(s, j)] == lat.idx(n - 1 - s, j)


def test_rho_fixes_invariant_line_class():
    for (n, k) in [(2, 4), (3, 2)]:
        lat = PicardLattice.build(n, k)
        R = sa.rho_pushforward(n, k)
        assert next(act(lat, [R], [lat.strict["sigma0"]])) == lat.strict["sigma0"]
        # swaps the two contracted lines
        assert next(act(lat, [R], [lat.strict[("L", 0)]])) == lat.strict[("L", n - 1)]
