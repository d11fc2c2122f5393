"""Inside the blowup tower: centers, fiber transitions, tangency.

The lift of the map to the blowup surface permutes the exceptional fibers
in closed cycles, acting on each fiber coordinate by an explicit Mobius
map.  This script shows the machinery: the table of blowup centers (built
from the series coefficients of y^k over the pole normal form), the
closed-form transitions checked against an independent route through the
plane (lift off the fiber, apply the homogeneous map, re-express in the
target chart, extrapolate the lift to zero), the center cycle that makes
the lifted map an automorphism, and the tangent-to-identity behavior of
the (2n)-th iterate along the invariant configuration.
"""

import surfauto as sa
from surfauto.charts import CenterTable, ChartId, ChartPoint

p = sa.MapParams(n=4, k=2, c_spec=(1, 1))
table = CenterTable.build(p)

print("orbit at infinity:", [complex(w) for w in table.w])
print("series coefficients b:", [complex(b) for b in table.b])
print("nonzero blowup centers:")
for (s, j), v in sorted(table.beta.items()):
    if abs(complex(v)) > 1e-12:
        print(f"   limb {s}, level {j}: {complex(v)}")

print("\nclosed-form vs plane-route transitions:")
for (s, j, xi) in [(0, 2, 1.7), (2, 3, 2.0), (3, 3, 0.8), (3, 5, 0.7)]:
    tgt, closed = sa.fiber_transition_closed(table, s, j, xi)
    tgt2, numeric, err = sa.fiber_transition_numeric(table, s, j, xi)
    print(f"   ({s},{j}) xi={xi}: -> {tgt}  closed={complex(closed):.9f}  "
          f"|closed - numeric| = {abs(complex(closed) - complex(numeric)):.2e}")

print("\nthe center value 1 returns to itself across the limb cycle:")
cur, s = table.b[p.k], 0
print(f"   start at limb 0, level {p.k + 1}, value {complex(cur)}")
for _ in range(p.n - 1):
    tgt, cur = sa.fiber_transition_closed(table, s, p.k + 1, cur)
    s = tgt[1]
    print(f"   -> limb {s}: value {complex(cur)}")

print("\ntangency of the (2n)-th iterate:")
rep = sa.parabolic_check(table, ChartId(0, 0), ChartPoint(0.62, 0.0))
print(f"   on the invariant line: half-way differential diag {rep.diag_n}, "
      f"full deviation {rep.max_deviation:.2e}")
for j in sa.parabolic_levels(p.k):
    rep = sa.parabolic_check(table, ChartId(1, j), ChartPoint(0.47 + 0.1j, 0.0))
    print(f"   fiber level {j}: |Df^(2n) - Id| = {rep.max_deviation:.2e}, "
          f"fix residual {rep.fix_residual:.2e}")
rep = sa.parabolic_check(table, ChartId(1, 2), ChartPoint(0.47, 0.0))
print(f"   level 2 (outside the configuration): fixed pointwise "
      f"({rep.fix_residual:.1e}) but not tangent ({rep.max_deviation:.2f})")
