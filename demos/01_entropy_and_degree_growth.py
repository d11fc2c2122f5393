"""Entropy and degree growth of the map family.

The maps f(x,y) = (y, -x + c y + sum a_l / y^l + 1/y^k) lift to
automorphisms of an iterated blowup of the plane.  Their topological
entropy is log of the spectral radius of the induced action on the Picard
lattice, and that spectral radius is the largest root of

    1 - k (x + x^2 + ... + x^(n-1)) + x^n.

This script walks the chain: the exact pushforward matrix, its
characteristic polynomial, the entropy factor, and the degree sequence
d_m = deg f^m, whose growth rate converges to the same number.
"""

import math

import surfauto as sa
from surfauto import exactmat as xm

for (n, k) in [(3, 2), (2, 4), (4, 2)]:
    print(f"== (n, k) = ({n}, {k})")
    lam = sa.spectral_radius(n, k)
    print(f"   entropy polynomial: {sa.chi_poly(n, k)}")
    print(f"   spectral radius lambda = {lam:.12f}")
    print(f"   entropy = log lambda = {math.log(lam):.12f}")

    M = sa.pushforward_matrix(n, k)
    cp = sa.char_poly(M)
    divides, cofactor, worst = sa.char_poly_factor_check(n, k, cp)
    print(f"   char poly degree {len(cp) - 1}; entropy factor divides: {divides}; "
          f"cofactor a product of x^L - 1 (roots of unity): {worst == 0.0}")

    d = sa.degree_sequence(n, k, 24)
    print(f"   degrees d_0..d_12: {d[:13]}")
    print(f"   d_24/d_23 = {d[24]/d[23]:.12f}  (lambda = {lam:.12f})")

    # the degrees satisfy the exact linear recurrence of the char poly
    deg = len(cp) - 1
    residuals = [sum(cp[t] * d[i + deg - t] for t in range(deg + 1))
                 for i in range(0, 24 - deg + 1)]
    print(f"   recurrence residuals all zero: {all(r == 0 for r in residuals)}")
    print()

# the Hietarinta-Viallet case (3, 2): the entropy factor splits off a
# quadratic with the golden-mean-squared root
print("(3,2) factorization check:",
      xm.poly_mul([1, 1], [1, -3, 1]) == sa.chi_poly(3, 2),
      "-> lambda = (3+sqrt(5))/2 =", (3 + math.sqrt(5)) / 2)
