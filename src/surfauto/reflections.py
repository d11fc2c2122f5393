"""Reflection-group factorizations of the induced lattice automorphism.

Two pictures: the full lattice, where the map factors into the quadratic
involution J (reflection in e0 - e^1 - e^(k+1) - e^(2k+1) on one limb) and
basis permutations; and the n-dimensional complement T, where it is a
Coxeter element of the reflection group with Cartan matrix 2 on the
diagonal and -k off it.

On the full lattice a quadratic reflection is kept as its root, a column
of square -2, and a basis permutation as a relabelling, the tuple of the
image of each basis index: act applies words of them to classes in the
column form of exactmat, and no generator is built as a dim-column map.
"""

from fractions import Fraction
from functools import reduce
from itertools import islice

from . import exactmat as xm
from .errors import ExactIdentityError
from .picard import (
    PicardLattice,
    chi_poly,
    pushforward_columns,
    restricted_action,
    restricted_char_poly,
    t_space,
)


def quadratic_root(lat, triple):
    """The root e0 - e_a - e_b - e_c of three basis slots (s, j), as a
    column: the quadratic reflection based there.  A repeated slot gives a
    square other than -2, which raises."""
    idx = [lat.idx(*slot) for slot in triple]
    root = ((0, 1),) + tuple((i, -idx.count(i)) for i in sorted(set(idx)))
    square = lat.ip(root, root)
    if square != -2:
        raise ExactIdentityError(f"root square {square}, expected -2")
    return root


def relabelling(lat, emap):
    """The basis permutation fixing e0 and sending e(s, j) to e(emap(s, j)),
    as the tuple of the image of each basis index."""
    return (0,) + tuple(lat.idx(*emap(s, j)) for s in range(lat.n)
                        for j in range(1, 2 * lat.k + 2))


def act(lat, word, cols):
    """Yield the image of each column of cols under word, a sequence of
    roots and relabellings applied first to last.  A root r acts as
    x -> x + (r . x) r, changing only the columns that meet it; a
    relabelling p sends e_i to e_p[i].  Images are columns: zero-free and
    sorted."""
    letters = [(None, w) if isinstance(w[0], int) else ({i: a * lat.qdiag[i] for i, a in w}, w)
               for w in word]
    for x in cols:
        for rq, w in letters:
            if rq is None:
                x = tuple(sorted([(w[i], a) for i, a in x]))
                continue
            rx = 0
            for i, a in x:
                if i in rq:
                    rx += rq[i] * a
            if rx:
                acc = dict(x)
                for i, a in w:
                    acc[i] = acc.get(i, 0) + rx * a
                x = tuple(sorted([(i, a) for i, a in acc.items() if a]))
        yield x


def _tau(k, j):
    """Two descending cycles on the level blocks [2, k+1] and [k+2, 2k+1]."""
    return j if j == 1 else j + k - 1 if j in (2, k + 2) else j - 1


def _phi(k, j):
    """Reversal of the level blocks [3, k+1] and [k+3, 2k+1]."""
    return k + 4 - j if 3 <= j <= k + 1 else 3 * k + 4 - j if j >= k + 3 else j


def weyl_generators(n, k):
    """The generators of the full-lattice factorization: J, the reflection
    in e0 - e^1_0 - e^(k+1)_0 - e^(2k+1)_0, as its root, and the
    relabellings sigma_h, the limb shift s -> s + d keyed by d = +-1, and
    tau_v and phi_v, which permute the levels of one limb, keyed by that
    limb, 0 or n-1 (the source formulas are ambiguous about the placement)."""
    lat = PicardLattice.build(n, k)
    return {
        "J": quadratic_root(lat, [(0, 1), (0, k + 1), (0, 2 * k + 1)]),
        "sigma_h": {d: relabelling(lat, lambda s, j: ((s + d) % n, j)) for d in (1, -1)},
        "tau_v": {t: relabelling(lat, lambda s, j: (s, _tau(k, j) if s == t else j))
                  for t in (0, n - 1)},
        "phi_v": {t: relabelling(lat, lambda s, j: (s, _phi(k, j) if s == t else j))
                  for t in (0, n - 1)},
    }


def _slot(k, i):
    """The (s, j) label of basis index i >= 1."""
    return ((i - 1) // (2 * k + 1), (i - 1) % (2 * k + 1) + 1)


def _descent_triple(dim, col0):
    """The indices of the three largest m_i in the column d e0 - sum m_i e_i,
    and their sum.  Indices rank by (m_i, i) over all i in 1..dim-1, so ties
    go to the larger index: the nonzero entries compete with the three
    largest indices whose entry is zero."""
    mults = {i: -a for i, a in col0 if i}
    zeros = islice((i for i in range(dim - 1, 0, -1) if i not in mults), 3)
    top = sorted([(m, i) for i, m in mults.items()] + [(0, i) for i in zeros],
                 reverse=True)[:3]
    return [i for _, i in top], sum(m for m, _ in top)


def noether_chain(n, k):
    """Factor the induced automorphism into quadratic reflections by degree
    descent: repeatedly reflect at the three largest multiplicities of the
    image of e0 until the degree drops to 1; the residue is a basis
    permutation P.

    Returns (triples, residual_cycles) once M = R_1 ... R_r . P holds
    exactly: P reflected in the roots of R_r, ..., R_1 gives back M.
    """
    lat = PicardLattice.build(n, k)
    M = pushforward_columns(n, k)
    cur, triples, roots = M, [], []
    while (d := dict(cur[0]).get(0, 0)) > 1:
        chosen, msum = _descent_triple(lat.dim, cur[0])
        if 2 * d - msum >= d:
            raise ExactIdentityError("degree descent stalled; not a Cremona-type isometry")
        triples.append([_slot(k, i) for i in chosen])
        roots.append(quadratic_root(lat, triples[-1]))
        cur = tuple(act(lat, roots[-1:], cur))
    # the residue must send each e_j to one e_perm[j], bijectively, fixing e0
    perm = [col[0][0] if len(col) == 1 and col[0][1] == 1 else None for col in cur]
    if None in perm or len(set(perm)) < len(perm) or perm[0] != 0:
        raise ExactIdentityError("descent residue is not a basis permutation")
    if tuple(act(lat, roots[::-1], cur)) != M:
        raise ExactIdentityError("reflection chain does not recompose the pushforward")
    residual = [[_slot(k, i) for i in cyc] for cyc in xm.perm_cycles(perm) if len(cyc) > 1]
    return triples, residual


def weyl_factorization_check(n, k):
    """Test the named-generator factorization; on failure report a repaired,
    exactly verified reflection chain.

    The literal identity tried is  f = phi_v . J . (tau_v . J)^(k/2) . sigma_h
    (composition right to left), with tau_v / phi_v placed on limb 0 or the
    last limb and the limb shift in either direction: eight words.  Each
    acts on one basis vector at a time and stops at its first image that
    is not the column of f_*.
    When several match, the last in loop order (sigma direction 1 then -1,
    tau limb and then phi limb 0 then n-1) is reported: at k = 2 phi_v is
    the identity, so both phi limbs match and (3, 2) reports phi_limb 2.
    For k >= 4 no word matches: the minimal number of quadratic reflections
    is k, not k/2 + 1 (verified by exhaustive search at k = 4), so the
    repaired result is the degree-descent chain of k reflections times a
    basis permutation, regrouped in the same shape with per-slot level
    permutations.
    """
    lat = PicardLattice.build(n, k)
    M = pushforward_columns(n, k)
    g = weyl_generators(n, k)
    matched_variant = None
    for sig_dir in (1, -1):
        for tau_limb in (0, n - 1):
            for phi_limb in (0, n - 1):
                word = [g["sigma_h"][sig_dir], *[g["J"], g["tau_v"][tau_limb]] * (k // 2),
                        g["J"], g["phi_v"][phi_limb]]
                images = act(lat, word, (((j, 1),) for j in range(lat.dim)))
                if all(x == col for x, col in zip(images, M)):
                    matched_variant = dict(sigma_direction=sig_dir, tau_limb=tau_limb,
                                           phi_limb=phi_limb)
    result = {
        "literal_identity": matched_variant is not None,
        "matched_variant": matched_variant,
        "reflection_count_literal": k // 2 + 1,
        "repaired": None,
    }
    if matched_variant is None:
        triples, residual = noether_chain(n, k)
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
    differences gamma_s - gamma_{s+1}, as exact integer matrices in the gamma
    basis, plus the Cartan matrix.

    Reflections and Cartan entries are ratios of values of the form, so they
    do not change when the form is scaled, even by a negative factor: they
    are read from TSpace.kMP, the integer kC times the gamma Gram (C < 0 at
    (2, 4)).  Reflection entries are integer quotients, and a remainder
    raises ExactIdentityError naming the root; a Cartan entry that is not an
    integer stays a Fraction, for the check to report."""
    G = t_space(n, k).kMP

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def refl(root):
        g_root = xm.mat_vec(G, root)        # g_root[s] = form(root, e_s): G is symmetric
        rr = dot(root, g_root)
        quo = [[divmod(2 * g_root[s] * root[i], rr) for s in range(n)] for i in range(n)]
        if any(rem for row in quo for _, rem in row):
            raise ExactIdentityError(f"the T reflection in the root {root} is not integral")
        return [[(i == s) - q for s, (q, _) in enumerate(row)] for i, row in enumerate(quo)]

    alphas = [[-2 if i == s else k for i in range(n)] for s in range(n)]
    rhos = [refl(a) for a in alphas]
    taus = [refl([(i == s) - (i == s + 1) for i in range(n)]) for s in range(n - 1)]
    g_alphas = [xm.mat_vec(G, a) for a in alphas]
    cartan = [[Fraction(2 * dot(alphas[i], g_alphas[j]), dot(alphas[i], g_alphas[i]))
               for j in range(n)] for i in range(n)]
    cartan = [[int(x) if x.denominator == 1 else x for x in row] for row in cartan]
    return {"rhos": rhos, "taus": taus, "cartan": cartan}


def coxeter_factorization_check(n, k):
    """Verify that rho_{n-1} tau_{n-2} ... tau_0 realizes the restricted
    action on T exactly, as a Coxeter element of the T reflection group,
    with the word composed left to right, as in the source."""
    C = restricted_action(n, k)
    data = t_reflections(n, k)
    rho_last, taus = data["rhos"][n - 1], data["taus"]
    word = [rho_last] + list(reversed(taus))  # rho_{n-1}, tau_{n-2}, ..., tau_0
    left_to_right = reduce(xm.mat_mul, reversed(word))
    order = "left-to-right" if xm.mat_eq(left_to_right, C) else None
    expected_cartan = [[2 if i == j else -k for j in range(n)] for i in range(n)]
    return {
        "identity": order is not None,
        "order": order,
        "cartan_ok": xm.mat_eq(data["cartan"], expected_cartan),
        "rho_last_column_ok": all(data["rhos"][n - 1][i][n - 1] == (k if i < n - 1 else -1)
                                  for i in range(n)),
        "involutions_ok": all(xm.mat_eq(xm.mat_mul(A, A), xm.identity(n))
                              for A in data["rhos"] + data["taus"]),
        "char_poly_ok": restricted_char_poly(n, k) == tuple(chi_poly(n, k)),
    }


# -- the reversing symmetry -----------------------------------------------------


def rho_pushforward(n, k):
    """Induced action of the coordinate swap (x,y) -> (y,x): limb s goes to
    limb n-1-s with levels fixed; a relabelling."""
    return relabelling(PicardLattice.build(n, k), lambda s, j: (n - 1 - s, j))


def reversibility_check(n, k):
    """rho^2 = Id and rho f rho = f^(-1), exactly; for n = 2 also the
    infinite-dihedral relation (rho f)^2 = Id.  rho is read as a
    relabelling; its isometry is read from the Gram of its columns."""
    lat = PicardLattice.build(n, k)
    R = rho_pushforward(n, k)
    RM = tuple(act(lat, [R], pushforward_columns(n, k)))
    out = {
        "involution": all(R[i] == j for j, i in enumerate(R)),
        "isometry": lat.is_isometry(((i, 1),) for i in R),
        # rho f rho = f^(-1) exactly when rho f rho f = Id: column j of
        # (rho f)^2 is rho f applied to column j of rho f
        "conjugates_to_inverse": all(xm.col_compose(RM, (col,))[0] == ((j, 1),)
                                     for j, col in enumerate(RM)),
    }
    if n == 2:
        # (rho f)^2 = rho f rho f: the same identity, read as a relation
        out["dihedral"] = out["conjugates_to_inverse"]
    return out
