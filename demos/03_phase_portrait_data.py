"""Phase-portrait data for the real area-preserving example.

The shipped parameter set (n=2, k=4, c=0, a_2=-2.64) is real and
reversible: orbits of real seeds stay real, and the map is conjugate to
its inverse by the coordinate swap, so stable manifolds are mirror images
of unstable ones across the diagonal.  This script emits the raw data for
a portrait: fixed points with their types, orbits near the elliptic
island, and arcs of the unstable manifolds of both real saddles.

Writes orbits.csv and manifolds.json into demos/output/.
"""

import json
from pathlib import Path

import surfauto as sa

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)
p = sa.figure1_params()

records = sa.fixed_points(p)
print("fixed points:")
for r in records:
    print(f"   {r.type:9s} zeta = {r.zeta:.12f}   trace = {r.trace:.6f}")

elliptic = [r for r in records if r.type == "elliptic"][0]
saddles = [r for r in records if r.type == "saddle"]

rows = ["seed_id,step,x,y"]
z = elliptic.zeta.real
for sid, offset in enumerate((2e-3, 8e-3, 2e-2, 5e-2)):
    orb = sa.iterate_orbit(p, (z + offset, z + offset), 4000)
    # point i of the orbit is (seq[i], seq[i+1])
    print(f"   orbit at offset {offset:g}: {orb.status}, {len(orb.seq) - 1} points, "
          f"max radius {max(abs(v - z) for v in orb.seq):.3f}")
    for i, (x, y) in enumerate(zip(orb.seq, orb.seq[1:])):
        rows.append(f"{sid},{i},{x:.15e},{y:.15e}")
(out_dir / "orbits.csv").write_text("\n".join(rows) + "\n")
print(f"wrote {out_dir / 'orbits.csv'}")

manifolds = []
for r in saddles:
    line = sa.unstable_manifold(p, r, arclen=12.0, spacing=0.02)
    manifolds.append({
        "meta": {key: (float(v) if isinstance(v, (int, float)) else v)
                 for key, v in line.meta.items()},
        "points": [[float(x), float(y)] for x, y in line.points],
    })
    print(f"   unstable manifold at {r.zeta.real:.6f}: {len(line.points)} points, "
          f"arclength {line.arclength[-1]:.2f}")
    # the stable manifold is the swap of the same polyline
(out_dir / "manifolds.json").write_text(json.dumps(manifolds))
print(f"wrote {out_dir / 'manifolds.json'}")
print("stable manifolds: swap the two columns (the map is reversible)")
