"""Lattice maps in column form: the Weyl, Noether and reversor outputs pinned
on the census, and the column form against its dense oracle.

``data/weyl_census.json`` holds, for each of the 22 census instances of
``test_census.py``, ``weyl_factorization_check(n, k)``, the triples and
residual cycles of ``noether_chain(n, k)``, ``reversibility_check(n, k)``
and the exit code and sha256 of the file ``surfauto weyl`` writes, as
recorded when every factor was a dense dim Pic x dim Pic matrix.  Dense
``xm.mat_vec`` and ``xm.mat_mul`` are the oracle of the column form.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfauto import exactmat as xm
from surfauto import reflections
from surfauto.cli import main
from surfauto.errors import ExactIdentityError
from surfauto.picard import (
    PicardLattice,
    _strict_order,
    pushforward_columns,
    pushforward_matrix,
)
from surfauto.reflections import (
    _descent_triple,
    act,
    noether_chain,
    quadratic_root,
    relabelling,
    reversibility_check,
    weyl_factorization_check,
)

from exact_oracles import dense
from test_census import CENSUS, _ids

PINNED = json.loads((Path(__file__).parent / "data" / "weyl_census.json").read_text())

# sha256 of the surfauto weyl file at dim Pic 397, recorded as above; the
# one at (20, 24), dim Pic 981, is a CI smoke step
WEYL_12_16_DIGEST = "8bc624c33d7acf39f80360d260e62863032a3906e1cccf54475c7af6bc44d393"


def _weyl_file(n, k, tmp_path, capsys):
    rc = main(["weyl", "--n", str(n), "--k", str(k), "--out", str(tmp_path)])
    capsys.readouterr()
    return rc, (tmp_path / f"weyl_{n}_{k}.json").read_bytes()


def _plain(obj):
    """obj as JSON reads it back: tuples become lists."""
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("nk", CENSUS, ids=_ids(CENSUS))
def test_weyl_noether_reversor_pinned(nk, tmp_path, capsys):
    pin = PINNED[f"{nk[0]},{nk[1]}"]
    assert _plain(weyl_factorization_check(*nk)) == pin["weyl_factorization_check"]
    triples, residual = noether_chain(*nk)
    assert _plain({"triples": triples, "residual_cycles": residual}) == pin["noether_chain"]
    assert _plain(reversibility_check(*nk)) == pin["reversibility_check"]
    rc, text = _weyl_file(*nk, tmp_path, capsys)
    assert {"exit_code": rc, "sha256": hashlib.sha256(text).hexdigest()} == pin["cli_weyl"]


def test_weyl_file_pinned_at_dim_397(tmp_path, capsys):
    rc, text = _weyl_file(12, 16, tmp_path, capsys)
    assert rc == 0
    assert hashlib.sha256(text).hexdigest() == WEYL_12_16_DIGEST


def test_reversibility_check_builds_no_dim_by_dim_list():
    # at dim Pic 981 one dense dim x dim list of row lists takes 7.7 MB
    # for its row slots alone: the check reads the form from the nonzero
    # entries of the Gram of rho's columns
    PicardLattice.build(20, 24)
    pushforward_columns(20, 24)
    tracemalloc.start()
    try:
        assert all(reversibility_check(20, 24).values())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000, peak


def test_weyl_check_holds_no_map_per_factor():
    # the descent chain kept its k reflections as dim-column maps: 22.8 MB
    # at (2, 200), dim Pic 803; as roots the check holds one product of
    # the chain beside f_*
    PicardLattice.build(2, 200)
    pushforward_columns(2, 200)
    tracemalloc.start()
    try:
        assert weyl_factorization_check(2, 200)["repaired"]["reflection_count"] == 200
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


# -- the column form against dense products ---------------------------------------------

def _columns(A):
    """A dense square matrix in column form."""
    return tuple(xm.sparse(col) for col in zip(*A))


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
square_pairs = st.integers(1, 6).flatmap(lambda d: st.tuples(
    *[st.lists(st.lists(_entries, min_size=d, max_size=d), min_size=d, max_size=d)] * 2,
    st.lists(st.integers(-9, 9), min_size=d, max_size=d)))


@settings(max_examples=80, deadline=None)
@given(square_pairs)
def test_apply_and_compose_match_dense(ABv):
    A, B, v = ABv
    cols_a, cols_b = _columns(A), _columns(B)
    assert xm.col_dense(cols_a) == A
    assert xm.col_apply(cols_a, v) == xm.mat_vec(A, v)
    AB = xm.col_compose(cols_a, cols_b)
    assert AB == _columns(xm.mat_mul(A, B))        # zero-free and sorted by row
    assert xm.col_dense(AB) == xm.mat_mul(A, B)


def _configuration_image(n, k, key):
    """The class f_* sends the strict transform key to: the limb shift, the
    level flip j -> 2k+2-j on the return limb, {x2=0} to the top fiber of
    limb 0 and the top fiber of the last limb to {x1=0}."""
    if key == "sigma0":
        return key
    _, s, j = key
    if j == 2 * k + 1:
        return ("L", 0) if s == n - 1 else ("F", s + 1, j)
    if j == 1 or s < n - 1:
        return ("F", (s + 1) % n, j)
    return ("F", 0, 2 * k + 2 - j)


@pytest.mark.parametrize("nk", [(2, 4), (3, 2), (3, 4), (4, 2), (2, 10)],
                         ids=["2-4", "3-2", "3-4", "4-2", "2-10"])
def test_pushforward_columns_send_the_configuration(nk):
    # the strict transforms are a basis, so their images fix f_*
    n, k = nk
    lat = PicardLattice.build(n, k)
    F = pushforward_columns(n, k)
    M = pushforward_matrix(n, k)
    assert xm.col_dense(F) == M
    for key in _strict_order(n, k):
        image = lat.strict[_configuration_image(n, k, key)]
        assert xm.col_compose(F, (lat.strict[key],))[0] == image
        v = dense(lat, lat.strict[key])
        assert xm.col_apply(F, v) == xm.mat_vec(M, v) == dense(lat, image)


# -- quadratic reflections -------------------------------------------------------------

def _slots(n, k):
    return [(s, j) for s in range(n) for j in range(1, 2 * k + 2)]


reflection_cases = st.sampled_from([(2, 4), (3, 2), (3, 4), (4, 2)]).flatmap(
    lambda nk: st.tuples(st.just(nk), st.permutations(_slots(*nk)).map(lambda p: p[:3])))


@settings(max_examples=60, deadline=None)
@given(reflection_cases)
def test_quadratic_reflection_is_an_involutive_isometry(case):
    (n, k), triple = case
    lat = PicardLattice.build(n, k)
    r = quadratic_root(lat, triple)
    basis = tuple(((j, 1),) for j in range(lat.dim))
    R = tuple(act(lat, [r], basis))
    assert tuple(act(lat, [r, r], basis)) == basis
    assert lat.is_isometry(R)
    assert lat.gram_matrix(R) == lat.q_matrix()
    # x -> x + (r . x) r on dense vectors, r = e0 - e_a - e_b - e_c
    root = lat.e0()
    for slot in triple:
        root[lat.idx(*slot)] = -1
    for x in ([int(i == j) for i in range(lat.dim)] for j in range(lat.dim)):
        r_x = lat.ip(xm.sparse(root), xm.sparse(x))
        assert xm.col_apply(R, x) == [a + r_x * b for a, b in zip(x, root)]


@settings(max_examples=30, deadline=None)
@given(reflection_cases, st.integers(0, 2), st.integers(0, 2))
def test_repeated_slot_raises(case, i, j):
    (n, k), triple = case
    triple = list(triple)
    triple[(i + 1 + j % 2) % 3] = triple[i]
    lat = PicardLattice.build(n, k)
    with pytest.raises(ExactIdentityError, match="expected -2"):
        quadratic_root(lat, triple)


def _dense_letter(lat, letter):
    """The dense matrix of a root's reflection or of a relabelling."""
    if isinstance(letter[0], int):
        return [[int(letter[j] == i) for j in range(lat.dim)] for i in range(lat.dim)]
    r = dense(lat, letter)
    return [[int(i == j) + r[i] * r[j] * lat.qdiag[j] for j in range(lat.dim)]
            for i in range(lat.dim)]


def _letter(nk, draw):
    """A root of three distinct slots, or the relabelling of a slot permutation."""
    slots = _slots(*nk)
    lat = PicardLattice.build(*nk)
    if draw(st.booleans()):
        return quadratic_root(lat, draw(st.permutations(slots))[:3])
    image = dict(zip(slots, draw(st.permutations(slots))))
    return relabelling(lat, lambda s, j: image[s, j])


@st.composite
def words_and_columns(draw):
    nk = draw(st.sampled_from([(2, 4), (3, 2), (3, 4)]))
    dim = PicardLattice.build(*nk).dim
    word = [_letter(nk, draw) for _ in range(draw(st.integers(0, 5)))]
    cols = draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), max_size=4))
    return nk, word, cols


@settings(max_examples=60, deadline=None)
@given(words_and_columns())
def test_act_matches_the_dense_product(case):
    (n, k), word, cols = case
    lat = PicardLattice.build(n, k)
    images = list(act(lat, word, [xm.sparse(v) for v in cols]))
    # the letters act first to last: the dense product has the last leftmost
    product = xm.identity(lat.dim)
    for letter in word:
        product = xm.mat_mul(_dense_letter(lat, letter), product)
    assert len(images) == len(cols)
    for v, image in zip(cols, images):
        assert image == xm.sparse(xm.mat_vec(product, v))     # zero-free and sorted by index


# -- degree descent ------------------------------------------------------------------

descent_columns = st.integers(4, 12).flatmap(lambda dim: st.tuples(
    st.just(dim), st.lists(st.integers(-3, 3), min_size=dim - 1, max_size=dim - 1)))


@settings(max_examples=100, deadline=None)
@given(descent_columns)
def test_descent_triple_ranks_every_index(case):
    # the three largest (m_i, i) over all i >= 1, zero entries included
    dim, tail = case
    col0 = xm.sparse([5] + tail)
    ranked = sorted(((-a, i) for i, a in enumerate(tail, start=1)), reverse=True)[:3]
    assert _descent_triple(dim, col0) == ([i for _, i in ranked], sum(m for m, _ in ranked))


def test_noether_chain_raises_when_the_descent_stalls(monkeypatch):
    # f(e0) = 3 e0 - e_1 - ... - e_8 has square 1, but its three largest
    # multiplicities sum to 3, so a reflection cannot lower the degree
    F = list(pushforward_columns(2, 4))
    F[0] = ((0, 3),) + tuple((i, -1) for i in range(1, 9))
    monkeypatch.setattr(reflections, "pushforward_columns", lambda n, k: tuple(F))
    with pytest.raises(ExactIdentityError, match="stalled"):
        noether_chain(2, 4)
