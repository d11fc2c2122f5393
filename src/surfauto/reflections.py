"""Reflection-group factorizations of the induced lattice automorphism.

Two pictures: the full lattice, where the map factors into the quadratic
involution J (reflection in e0 - e^1 - e^(k+1) - e^(2k+1) on one limb) and
basis permutations; and the n-dimensional complement T, where it is a
Coxeter element of the reflection group with Cartan matrix 2 on the
diagonal and -k off it.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import exactmat as xm
from .errors import ExactIdentityError
from .picard import (
    PicardLattice,
    chi_poly,
    inverse_isometry,
    pushforward_matrix,
    restricted_action,
    t_space,
)


@dataclass(frozen=True)
class NamedIsometry:
    label: str
    matrix: tuple  # tuple of row tuples

    def rows(self):
        return [list(r) for r in self.matrix]


def _freeze(M):
    return tuple(tuple(r) for r in M)


def _perm_matrix(lat, emap):
    """Permutation of the geometric basis; e0 fixed."""
    M = [[0] * lat.dim for _ in range(lat.dim)]
    M[0][0] = 1
    for s in range(lat.n):
        for j in range(1, 2 * lat.k + 2):
            s2, j2 = emap(s, j)
            M[lat.idx(s2, j2)][lat.idx(s, j)] = 1
    return M


def reflection_in(lat, root):
    """x -> x + (root . x) root for a root of square -2; exact isometry."""
    if lat.ip(root, root) != -2:
        raise ExactIdentityError(f"root square {lat.ip(root, root)}, expected -2")
    M = []
    for col in range(lat.dim):
        e = [0] * lat.dim
        e[col] = 1
        d = lat.ip(root, e)
        M.append([e[i] + d * root[i] for i in range(lat.dim)])
    return xm.transpose(M)


def quadratic_reflection(lat, triple):
    """Reflection in e0 - e_a - e_b - e_c for three basis slots (s, j)."""
    root = [0] * lat.dim
    root[0] = 1
    for (s, j) in triple:
        root[lat.idx(s, j)] = -1
    return reflection_in(lat, root)


def _tau_perm(k):
    """Two descending cycles on the level blocks [2, k+1] and [k+2, 2k+1]."""
    t = {1: 1}
    for cyc in (list(range(2 * k + 1, k + 1, -1)), list(range(k + 1, 1, -1))):
        for i, a in enumerate(cyc):
            t[a] = cyc[(i + 1) % len(cyc)]
    return t


def _phi_perm(k):
    """Reversal of the level blocks [3, k+1] and [k+3, 2k+1]."""
    p = {j: j for j in range(1, 2 * k + 2)}
    for lo, hi in ((3, k + 1), (k + 3, 2 * k + 1)):
        for i in range((hi - lo + 1) // 2):
            p[lo + i], p[hi - i] = hi - i, lo + i
    return p


def weyl_generators(n, k):
    """The named isometries of the full-lattice factorization.

    J reflects in e0 - e^1_0 - e^(k+1)_0 - e^(2k+1)_0; sigma_h shifts limbs
    s -> s+1; tau_v and phi_v permute levels inside a single limb (built
    here on limb 0; the checker also tries the last limb, since the source
    formulas are ambiguous about the placement).
    """
    lat = PicardLattice.build(n, k)
    J = quadratic_reflection(lat, [(0, 1), (0, k + 1), (0, 2 * k + 1)])
    sig = _perm_matrix(lat, lambda s, j: ((s + 1) % n, j))
    tau = _tau_perm(k)
    phi = _phi_perm(k)
    tau_v = _perm_matrix(lat, lambda s, j: (s, tau[j] if s == 0 else j))
    phi_v = _perm_matrix(lat, lambda s, j: (s, phi[j] if s == 0 else j))
    return {
        "J": NamedIsometry("J", _freeze(J)),
        "sigma_h": NamedIsometry("sigma_h", _freeze(sig)),
        "tau_v": NamedIsometry("tau_v", _freeze(tau_v)),
        "phi_v": NamedIsometry("phi_v", _freeze(phi_v)),
    }


def _is_basis_permutation(lat, M):
    for row in M:
        if any(x not in (0, 1) for x in row) or sum(row) != 1:
            return False
    return all(sum(M[i][j] for i in range(lat.dim)) == 1 for j in range(lat.dim)) and M[0][0] == 1


def _perm_cycles(lat, M):
    """The nontrivial cycles of a basis permutation, in (s, j) labels."""
    perm = [next(r for r in range(lat.dim) if M[r][col] == 1) for col in range(lat.dim)]

    def lab(i):
        return ((i - 1) // (2 * lat.k + 1), (i - 1) % (2 * lat.k + 1) + 1)

    return [[lab(i) for i in cyc] for cyc in xm.perm_cycles(perm) if len(cyc) > 1]


def noether_chain(n, k):
    """Factor the induced automorphism into quadratic reflections by degree
    descent: repeatedly reflect at the three largest multiplicities of the
    image of e0 until the degree drops to 1; the residue is a basis
    permutation.

    Returns (triples, residual_cycles, matrices) with the exact identity
    M = J_1 ... J_r . P.
    """
    lat = PicardLattice.build(n, k)
    M = pushforward_matrix(n, k)
    cur = [row[:] for row in M]
    triples = []
    mats = []
    while cur[0][0] > 1:
        col0 = [cur[i][0] for i in range(lat.dim)]
        mults = sorted(((-col0[i], i) for i in range(1, lat.dim)), reverse=True)
        chosen = [i for (m, i) in mults[:3]]
        msum = sum(m for (m, i) in mults[:3])
        d = cur[0][0]
        if 2 * d - msum >= d:
            raise ExactIdentityError("degree descent stalled; not a Cremona-type isometry")

        def lab(i):
            return ((i - 1) // (2 * k + 1), (i - 1) % (2 * k + 1) + 1)

        triple = [lab(i) for i in chosen]
        R = quadratic_reflection(lat, triple)
        cur = xm.mat_mul(R, cur)
        triples.append(triple)
        mats.append(R)
    if not _is_basis_permutation(lat, cur):
        raise ExactIdentityError("descent residue is not a basis permutation")
    # rebuild and verify: M = R_1 ... R_r . P
    acc = [row[:] for row in cur]
    for R in reversed(mats):
        acc = xm.mat_mul(R, acc)
    if not xm.mat_eq(acc, M):
        raise ExactIdentityError("reflection chain does not recompose the pushforward")
    return triples, _perm_cycles(lat, cur), mats + [cur]


def weyl_factorization_check(n, k):
    """Test the named-generator factorization; on failure report a repaired,
    exactly verified reflection chain.

    The literal identity tried is  f = phi_v . J . (tau_v . J)^(k/2) . sigma_h
    (composition right to left), with tau_v / phi_v placed on limb 0 or the
    last limb and the limb shift in either direction.  For k = 2 one of
    these passes.  For k >= 4 none does: the minimal number of quadratic
    reflections is k, not k/2 + 1 (verified by exhaustive search at k = 4),
    so the repaired result is the degree-descent chain of k reflections
    times a basis permutation, regrouped in the same shape with per-slot
    level permutations.
    """
    lat = PicardLattice.build(n, k)
    M = pushforward_matrix(n, k)
    J = quadratic_reflection(lat, [(0, 1), (0, k + 1), (0, 2 * k + 1)])
    tau = _tau_perm(k)
    phi = _phi_perm(k)
    matched_variant = None
    for sig_dir in (1, -1):
        sig = _perm_matrix(lat, lambda s, j, d=sig_dir: ((s + d) % n, j))
        for tau_limb in (0, n - 1):
            tv = _perm_matrix(lat, lambda s, j, L=tau_limb: (s, tau[j] if s == L else j))
            for phi_limb in (0, n - 1):
                pv = _perm_matrix(lat, lambda s, j, L=phi_limb: (s, phi[j] if s == L else j))
                seq = [pv, J] + [tv, J] * (k // 2) + [sig]
                comp = xm.identity(lat.dim)
                for A in seq:
                    comp = xm.mat_mul(comp, A)
                if xm.mat_eq(comp, M):
                    matched_variant = {
                        "sigma_direction": sig_dir,
                        "tau_limb": tau_limb,
                        "phi_limb": phi_limb,
                    }
    result = {
        "literal_identity": matched_variant is not None,
        "matched_variant": matched_variant,
        "reflection_count_literal": k // 2 + 1,
        "repaired": None,
    }
    if matched_variant is None:
        triples, residual, mats = noether_chain(n, k)
        result["repaired"] = {
            "reflection_triples": triples,
            "reflection_count": len(triples),
            "residual_permutation": residual,
            "verified": True,
        }
    return result


# -- the T-space picture -------------------------------------------------------


def t_reflections(n, k):
    """Reflections in the roots alpha_s = lambda_s - gamma_s and in the
    differences gamma_s - gamma_{s+1}, as exact matrices in the gamma basis,
    plus the Cartan matrix."""
    G = t_space(n, k).gamma_gram

    def gram_times(v):
        return [sum(G[i][j] * v[j] for j in range(n)) for i in range(n)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def refl(root):
        g_root = gram_times(root)           # g_root[s] = form(root, e_s): G is symmetric
        rr = dot(root, g_root)
        cols = [[int(i == s) - 2 * g_root[s] / rr * root[i] for i in range(n)]
                for s in range(n)]
        out = []
        for row in xm.transpose(cols):
            if any(x.denominator != 1 for x in row):
                raise ExactIdentityError(f"T reflection is not integral: {row}")
            out.append([int(x) for x in row])
        return out

    alphas = []
    for s in range(n):
        a = [Fraction(k)] * n
        a[s] = Fraction(-2)
        alphas.append(a)
    rhos = [refl(a) for a in alphas]
    taus = []
    for s in range(n - 1):
        r = [Fraction(0)] * n
        r[s], r[s + 1] = Fraction(1), Fraction(-1)
        taus.append(refl(r))
    g_alphas = [gram_times(a) for a in alphas]
    cartan = [[Fraction(2 * dot(alphas[i], g_alphas[j]), dot(alphas[i], g_alphas[i]))
               for j in range(n)] for i in range(n)]
    cartan = [[int(x) if x.denominator == 1 else x for x in row] for row in cartan]
    return {"rhos": rhos, "taus": taus, "cartan": cartan}


def coxeter_factorization_check(n, k):
    """Verify that rho_{n-1} tau_{n-2} ... tau_0 realizes the restricted
    action on T exactly, as a Coxeter element of the T reflection group.

    Both application orders of the word are tried; the one that matches is
    reported (the source composes the word left to right)."""
    C = restricted_action(n, k)
    data = t_reflections(n, k)
    rho_last, taus = data["rhos"][n - 1], data["taus"]
    word = [rho_last] + list(reversed(taus))  # rho_{n-1}, tau_{n-2}, ..., tau_0
    right_to_left = xm.identity(n)
    for A in word:
        right_to_left = xm.mat_mul(right_to_left, A)
    left_to_right = xm.identity(n)
    for A in reversed(word):
        left_to_right = xm.mat_mul(left_to_right, A)
    order = None
    if xm.mat_eq(left_to_right, C):
        order = "left-to-right"
    elif xm.mat_eq(right_to_left, C):
        order = "right-to-left"
    expected_cartan = [[2 if i == j else -k for j in range(n)] for i in range(n)]
    return {
        "identity": order is not None,
        "order": order,
        "cartan_ok": xm.mat_eq(data["cartan"], expected_cartan),
        "rho_last_column_ok": all(data["rhos"][n - 1][i][n - 1] == (k if i < n - 1 else -1)
                                  for i in range(n)),
        "involutions_ok": all(xm.mat_eq(xm.mat_mul(A, A), xm.identity(n))
                              for A in data["rhos"] + data["taus"]),
        "char_poly_ok": xm.charpoly(C) in (chi_poly(n, k),
                                           [-c for c in chi_poly(n, k)]),
    }


# -- the reversing symmetry -----------------------------------------------------


def rho_pushforward(n, k):
    """Induced action of the coordinate swap (x,y) -> (y,x): limb s goes to
    limb n-1-s with levels fixed; exact permutation isometry."""
    lat = PicardLattice.build(n, k)
    return _perm_matrix(lat, lambda s, j: (n - 1 - s, j))


def reversibility_check(n, k):
    """rho^2 = Id and rho f rho = f^(-1), exactly; for n = 2 also the
    infinite-dihedral relation (rho f)^2 = Id."""
    lat = PicardLattice.build(n, k)
    M = pushforward_matrix(n, k)
    R = rho_pushforward(n, k)
    Minv = inverse_isometry(lat, M)
    out = {
        "involution": xm.mat_eq(xm.mat_mul(R, R), xm.identity(lat.dim)),
        "isometry": xm.mat_eq(xm.mat_mul(xm.transpose(R), xm.mat_mul(lat.q_matrix(), R)),
                              lat.q_matrix()),
        "conjugates_to_inverse": xm.mat_eq(xm.mat_mul(R, xm.mat_mul(M, R)), Minv),
    }
    if n == 2:
        RF = xm.mat_mul(R, M)
        out["dihedral"] = xm.mat_eq(xm.mat_mul(RF, RF), xm.identity(lat.dim))
    return out
