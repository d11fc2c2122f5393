import math
from fractions import Fraction

import pytest

import surfauto as sa
from surfauto import exactmat as xm
from surfauto import picard
from surfauto.picard import TSpace, degree_recurrence_residuals
from surfauto.verify import lattice_suite

from exact_oracles import dense, project

DESK = [(2, 4), (2, 6), (3, 2), (3, 4), (4, 2)]


@pytest.fixture(scope="module")
def lattices():
    return {nk: sa.PicardLattice.build(*nk) for nk in DESK}


@pytest.fixture(scope="module")
def pushforwards():
    return {nk: sa.pushforward_matrix(*nk) for nk in DESK}


# -- lattice structure -------------------------------------------------------------

def test_dimensions(lattices):
    lat = lattices[(3, 2)]
    assert lat.dim == 16                       # 1 + 3*5
    assert len(lat.s_keys) == 13               # 1 + 3*4


def test_limb_gram_matches_chain_matrix(lattices):
    for (n, k), lat in lattices.items():
        A = lat.limb_gram(0)
        for i in range(2 * k):
            assert A[i][i] == (-k - 1 if i == 0 else -2)
        for i in range(1, 2 * k - 1):
            assert A[i][i + 1] == A[i + 1][i] == 1
        # the only contact of the first curve is at slot k+1
        for j in range(1, 2 * k):
            expected = 1 if j == k else 0      # 0-based: slot k is level k+1
            assert A[0][j] == expected


def test_sigma0_intersections(lattices):
    for (n, k), lat in lattices.items():
        s0 = lat.strict["sigma0"]
        assert lat.ip(s0, s0) == 1 - n
        for s in range(n):
            assert lat.ip(s0, lat.strict[("F", s, 1)]) == 1
            for j in range(2, 2 * k + 1):
                assert lat.ip(s0, lat.strict[("F", s, j)]) == 0


def test_negative_definiteness(lattices):
    for lat in lattices.values():
        assert lat.s_negative_definite()


def test_s_gram_determinant_formula(lattices):
    for (n, k), lat in lattices.items():
        det = lat.s_gram_det()
        lead, power = lat.s_gram_det_formula()
        assert Fraction(det) == lead * power
        assert det < 0


def test_canonical_class(lattices):
    for (n, k), lat in lattices.items():
        K = lat.canonical_class()
        assert K == [-3] + [1] * (lat.dim - 1)
        assert lat.ip(xm.sparse(K), xm.sparse(K)) == 9 - n * (2 * k + 1)


def test_canonical_decomposition_coefficients():
    # solve the anticanonical class in the configuration basis and check
    # the fiber weights 2, 1, 2, 3, ..., k, k-1, ..., 1 with k in the middle
    for (n, k) in [(2, 4), (3, 2)]:
        lat = sa.PicardLattice.build(n, k)
        minus_k = [3] + [-1] * (lat.dim - 1)
        order = ["sigma0"] + [("F", s, j) for s in range(n) for j in range(1, 2 * k + 2)]
        A = xm.transpose([dense(lat, lat.strict[key]) for key in order])
        coords = xm.frac_solve(A, [minus_k])[0]
        pos = {key: i for i, key in enumerate(order)}
        assert coords[pos["sigma0"]] == 3
        for s in range(n):
            assert coords[pos[("F", s, 1)]] == 2
            assert coords[pos[("F", s, k + 1)]] == k
            for j in range(2, 2 * k + 1):
                expect = j - 1 if j <= k + 1 else 2 * k + 1 - j
                assert coords[pos[("F", s, j)]] == expect
            assert coords[pos[("F", s, 2 * k + 1)]] == 0


# -- the induced automorphism --------------------------------------------------------

def test_isometry_and_canonical_invariance(lattices, pushforwards):
    for nk in DESK:
        lat, M = lattices[nk], pushforwards[nk]
        Q = lat.q_matrix()
        assert xm.mat_eq(xm.mat_mul(xm.transpose(M), xm.mat_mul(Q, M)), Q)
        K = lat.canonical_class()
        assert xm.mat_vec(M, K) == K
        assert xm.det_bareiss(M) in (1, -1)


def test_exceptional_class_images(lattices, pushforwards):
    for nk in DESK:
        n, k = nk
        lat, M = lattices[nk], pushforwards[nk]
        # the class of {x2=0} maps to the top fiber of limb 0
        assert xm.mat_vec(M, dense(lat, lat.strict[("L", n - 1)])) == \
            dense(lat, lat.strict[("F", 0, 2 * k + 1)])
        # and the top fiber of the last limb maps to the class of {x1=0}
        assert xm.mat_vec(M, dense(lat, lat.strict[("F", n - 1, 2 * k + 1)])) == \
            dense(lat, lat.strict[("L", 0)])


def test_degree_sequence_start(pushforwards):
    for (n, k), M in pushforwards.items():
        d = sa.degree_sequence(n, k, 3)
        assert d[0] == 1
        assert d[1] == k + 1


def test_char_poly_product_structure(pushforwards):
    """Independent oracle: the characteristic polynomial must equal
    (x-1)(x^n-1)^2 (x^2n - 1)^(k-1) * chi, built by polynomial multiply."""
    for (n, k), M in pushforwards.items():
        cp = sa.char_poly(M)
        pred = [1, -1]
        xn = [1] + [0] * (n - 1) + [-1]
        pred = xm.poly_mul(pred, xn)
        pred = xm.poly_mul(pred, xn)
        x2n = [1] + [0] * (2 * n - 1) + [-1]
        for _ in range(k - 1):
            pred = xm.poly_mul(pred, x2n)
        pred = xm.poly_mul(pred, sa.chi_poly(n, k))
        assert cp == pred or cp == [-c for c in pred]


def test_char_poly_division_and_cofactor(pushforwards):
    for (n, k), M in pushforwards.items():
        divides, cofactor, worst = sa.char_poly_factor_check(n, k, sa.char_poly(M))
        assert divides
        assert worst < 1e-9


CYCLE_TYPE_2_4 = [1, 2, 2, 4, 4, 4]    # the cycle lengths of f_* on the S classes at (2, 4)


def _cycle_product(lengths, plus_one=()):
    """The product of x^L - 1 over lengths, with x^L + 1 at the positions in
    plus_one."""
    out = [1]
    for i, L in enumerate(lengths):
        out = xm.poly_mul(out, [1] + [0] * (L - 1) + [1 if i in plus_one else -1])
    return out


def test_factor_check_accepts_only_the_cycle_type_cofactor():
    n, k = 2, 4
    chi = sa.chi_poly(n, k)
    cofactor = _cycle_product(CYCLE_TYPE_2_4)
    assert sa.char_poly_factor_check(n, k, xm.poly_mul(chi, cofactor)) == (True, cofactor, 0.0)
    # not divisible by chi
    cp = xm.poly_mul(chi, cofactor)
    cp[-1] += 1
    divides, _, worst = sa.char_poly_factor_check(n, k, cp)
    assert not divides and worst == math.inf
    # divisible, but one x^4 - 1 of the cofactor is x^4 + 1: its roots lie on
    # the unit circle, yet they are not those of the cycle type
    other = _cycle_product(CYCLE_TYPE_2_4, plus_one={3})
    assert sa.char_poly_factor_check(n, k, xm.poly_mul(chi, other)) == (True, other, math.inf)


def test_lattice_suite_fails_a_wrong_cofactor(monkeypatch):
    n, k = 2, 4
    wrong = tuple(xm.poly_mul(sa.chi_poly(n, k), _cycle_product(CYCLE_TYPE_2_4, plus_one={3})))
    monkeypatch.setattr(picard, "pushforward_char_poly", lambda n_, k_: wrong)
    checks = {c.id: c for c in lattice_suite(n, k).checks}
    assert checks["entropy-factor-divides"].status == "pass"
    assert checks["cofactor-unit-modulus"].status == "fail"
    assert checks["cofactor-unit-modulus"].residual == math.inf


def test_chi_poly_values():
    assert sa.chi_poly(3, 2) == [1, -2, -2, 1]
    assert sa.chi_poly(2, 4) == [1, -4, 1]
    # (x+1)(x^2-3x+1) == chi_{3,2}
    assert xm.poly_mul([1, 1], [1, -3, 1]) == sa.chi_poly(3, 2)
    for n, k in DESK:
        assert xm.poly_eval(sa.chi_poly(n, k), 1) == 2 - k * (n - 1)


def test_spectral_radius_values():
    assert sa.spectral_radius(3, 2) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    for k in (4, 6):
        assert sa.spectral_radius(2, k) == pytest.approx((k + math.sqrt(k * k - 4)) / 2,
                                                         abs=1e-12)
    # largest real root cross-checked against the numpy eigenvalue oracle
    import numpy as np
    for (n, k) in DESK:
        lam = sa.spectral_radius(n, k)
        rr = np.roots(sa.chi_poly(n, k))
        assert lam == pytest.approx(max(r.real for r in rr if abs(r.imag) < 1e-9), abs=1e-9)
        assert lam > 1


def test_spectral_radius_is_correctly_rounded():
    """lambda is the float nearest the root of chi in (1, oo): chi, which is
    negative below that root and positive above it there, must be negative
    at the exact midpoint to the float below and positive at the one to the
    float above.  Evaluated in Fractions, apart from the bisection."""
    pairs = [(n, k) for n in range(2, 21) for k in range(2, 41, 2) if n * k > k + 2]
    assert len(pairs) == 379
    for n, k in pairs:
        lam = sa.spectral_radius(n, k)
        chi = sa.chi_poly(n, k)
        below = (Fraction(math.nextafter(lam, 0)) + Fraction(lam)) / 2
        above = (Fraction(lam) + Fraction(math.nextafter(lam, math.inf))) / 2
        assert xm.poly_eval(chi, below) < 0 < xm.poly_eval(chi, above), (n, k)
    # an approximate complex root solver misrounds these two by one ulp; the
    # correctly rounded root is also the float of d_40 / d_39 there
    for (n, k), text in [((6, 4), "0x1.3fe6cbb640fe0p+2"), ((7, 18), "0x1.2fffff93e3c0ep+4")]:
        assert sa.spectral_radius(n, k).hex() == text
        d = sa.degree_sequence(n, k, 40)
        assert d[40] / d[39] == float.fromhex(text)


def test_entropy_value():
    assert sa.entropy(3, 2) == pytest.approx(0.962423650119, abs=1e-12)


def test_degree_growth(pushforwards):
    for (n, k), M in pushforwards.items():
        res = degree_recurrence_residuals(n, k, 40)
        assert all(r == 0 for r in res)
        d = sa.degree_sequence(n, k, 40)
        lam = sa.spectral_radius(n, k)
        assert abs(d[40] / d[39] - lam) < 1e-6
        assert all(x > 0 for x in d)


# -- the complement T ------------------------------------------------------------------

def test_projection_kills_s(lattices):
    lat = lattices[(3, 2)]
    for key in lat.s_keys:
        assert all(x == 0 for x in project(lat, dense(lat, lat.strict[key])))


def test_line_class_projection(lattices):
    for (n, k), lat in lattices.items():
        ts = TSpace(lat)
        for s in range(n):
            coords = ts.gamma_coords(lat.strict[("L", s)])
            expect = [Fraction(k)] * n
            expect[s] = Fraction(-1)
            assert coords == expect


def test_gamma_gram_proportionality(lattices):
    for (n, k), lat in lattices.items():
        ts = TSpace(lat)
        scale = ts.gram_proportionality()
        assert scale is not None and scale != 0
    # a Gram off the kM pattern in one entry has no scale
    ts.gamma_gram = (ts.gamma_gram[0][:-1] + (ts.gamma_gram[0][-1] + 1,),) + ts.gamma_gram[1:]
    assert ts.gram_proportionality() is None


def test_restricted_action_matrix():
    C = sa.restricted_action(2, 4)
    assert C == ((0, -1), (1, 4))
    for (n, k) in DESK:
        C = sa.restricted_action(n, k)
        cp = xm.charpoly(C)
        chi = sa.chi_poly(n, k)
        assert cp == chi or cp == [-c for c in chi]


def test_restricted_action_commutes(lattices, pushforwards):
    for nk in DESK:
        n, k = nk
        lat, M = lattices[nk], pushforwards[nk]
        ts = TSpace(lat)
        C = sa.restricted_action(n, k)
        for s in range(n):
            img = xm.mat_vec(M, dense(lat, lat.strict[("F", s, 2 * k + 1)]))
            lhs = ts.gamma_coords(xm.sparse(img))
            e = [Fraction(0)] * n
            e[s] = Fraction(1)
            rhs = xm.mat_vec(C, e)
            assert lhs == rhs


def test_restricted_eigenvalue_matches_spectral_radius():
    import numpy as np
    for (n, k) in DESK:
        C = np.array(sa.restricted_action(n, k), dtype=float)
        lam = max(np.linalg.eigvals(C).real)
        assert lam == pytest.approx(sa.spectral_radius(n, k), abs=1e-9)


def test_no_invariant_classes_in_T():
    for (n, k) in DESK:
        C = sa.restricted_action(n, k)
        CmI = [[C[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert xm.det_bareiss(CmI) != 0


# -- closed-form gamma coefficients ------------------------------------------------------

def test_gamma_closed_form_ok_cases():
    for (n, k) in [(2, 4), (2, 6), (3, 2), (4, 2)]:
        rep = sa.gamma_closed_form(n, k)
        assert sa.t_space(n, k).closed_form_checks() == (True, True)
        # the four displayed coefficients disagree with the exact projection
        # in at least one reading; the report carries both sides
        assert set(rep["displayed"]) == set(rep["exact_geometric"])
        assert all(isinstance(v, tuple) for v in rep["displayed_matches"].values())


def test_gamma_closed_form_degenerate():
    with pytest.raises(sa.DegenerateError):
        sa.gamma_closed_form(3, 4)


def test_a_changed_auxiliary_class_is_refused(monkeypatch):
    """One changed entry of one varrho_t breaks its orthogonality to S, and
    varrho_0 + varrho_1 in place of varrho_0, still in T, breaks C P = R M:
    TSpace refuses both."""
    n, k = 3, 2
    lat = sa.PicardLattice.build(n, k)
    weights, rho = picard._varrho(n, k)

    def use(classes):
        monkeypatch.setattr(picard, "_varrho", lambda n, k: (weights, classes))

    for i in (0, lat.idx(1, 1), lat.idx(1, 2 * k + 1), lat.dim - 1):
        changed = list(rho[1])
        changed[i] += 1
        use((rho[0], tuple(changed), rho[2]))
        with pytest.raises(sa.ExactIdentityError, match="not orthogonal to S"):
            TSpace(lat)
    use((tuple(a + b for a, b in zip(rho[0], rho[1])),) + rho[1:])
    with pytest.raises(sa.ExactIdentityError, match="not the projection"):
        TSpace(lat)
    use(rho)
    assert TSpace(lat).closed_form_checks() == (True, True)


# -- minimality -------------------------------------------------------------------------

def test_minimality_selfintersections():
    for (n, k) in DESK:
        rep = sa.minimality_report(n, k)
        if n > 2:
            assert all(v <= -2 for v in rep["selfints"].values())
        else:
            assert rep["selfints"]["sigma0"] == -1
            after = rep["after_contraction"]
            assert all(v <= -2 for v in after.values())
            for s in range(n):
                assert after[("F", s, 1)] == -k
