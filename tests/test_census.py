"""The exact claims on every admissible (n, k) with dim Pic <= 60, not only
the desk instances: the lattice and factorization suites must pass.

Admissible means n >= 2, even k >= 2 and n k > k + 2 (Bedford-Kim,
Thm. 1); dim Pic = 1 + n (2k + 1).
"""

import pytest

from surfauto.verify import factorization_suite, lattice_suite

MAX_DIM = 60
CENSUS = [(n, k) for n in range(2, MAX_DIM) for k in range(2, MAX_DIM, 2)
          if n * k > k + 2 and 1 + n * (2 * k + 1) <= MAX_DIM]


def test_census_size():
    assert len(CENSUS) == 22
    assert (3, 2) in CENSUS and (2, 14) in CENSUS and (11, 2) in CENSUS


@pytest.mark.parametrize("nk", CENSUS, ids=[f"{n}-{k}" for n, k in CENSUS])
def test_exact_suites_pass(nk):
    for suite in (lattice_suite, factorization_suite):
        rep = suite(*nk)
        assert rep.overall == "pass", [c.to_json_dict() for c in rep.checks if c.status == "fail"]
