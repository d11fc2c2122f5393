"""The Picard lattice of the blowup surface, exactly.

Everything here is integer or rational arithmetic: the geometric basis
(one class per blowup plus the line class), the strict transforms of the
exceptional fibers, the invariant span S and its negative-definite Gram
matrix, the anticanonical class, and the rank-n complement T where all the
interesting spectral data lives.
"""

from fractions import Fraction

import surfauto as sa
from surfauto import exactmat as xm
from surfauto.picard import TSpace

n, k = 3, 2
lat = sa.PicardLattice.build(n, k)
print(f"Pic dimension: {lat.dim}   (1 + n(2k+1) = {1 + n * (2 * k + 1)})")
print(f"invariant span S dimension: {len(lat.s_keys)}")

A = lat.limb_gram(0)
print("one limb of the intersection form (chain of fibers):")
for row in A:
    print("   ", row)

print("negative definite:", lat.s_negative_definite())
det = lat.s_gram_det()
lead, power = lat.s_gram_det_formula()
print(f"det Gram(S) = {det} = (1 - nk/(k+2)) ((k+2)k)^n = {lead * power}")

K = lat.canonical_class()
print("canonical class K has K.K =", lat.ip(xm.sparse(K), xm.sparse(K)), "= 9 - #blowups")

M = sa.pushforward_matrix(n, k)
Q = lat.q_matrix()
print("pushforward preserves the form:",
      xm.mat_eq(xm.mat_mul(xm.transpose(M), xm.mat_mul(Q, M)), Q))
print("pushforward fixes K:", xm.mat_vec(M, K) == K)

ts = TSpace(lat)
print("\nThe complement T and its gamma basis:")
for s in range(n):
    coords = ts.gamma_coords(lat.strict[("L", s)])
    print(f"   projection of the line class L_{s} in gamma coordinates: {coords}")
print("Gram(gamma) proportional to the (2-(n-2)k / k) pattern with scale",
      ts.gram_proportionality())

C = sa.restricted_action(n, k)
print("restricted action on T:", C)
print("its characteristic polynomial:", xm.charpoly(C),
      " = entropy polynomial:", sa.chi_poly(n, k))

rep = sa.gamma_closed_form(2, 4)
print("\nclosed form of gamma via the auxiliary classes (n=2, k=4):",
      sa.t_space(2, 4).closed_form_checks()[1])
print("displayed coefficient comparison (exact projection wins on mismatch):")
for key, (geo, strict) in rep["displayed_matches"].items():
    print(f"   {key}: displayed={rep['displayed'][key]}  "
          f"exact={rep['exact_geometric'][key]}  matches: {geo or strict}")
