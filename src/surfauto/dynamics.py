"""Fixed points, multipliers, trace separation, orbits, and unstable
manifolds of the plane maps."""

import cmath
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

from .errors import NotSaddleError, NumericCheckError, ParamError, PoleError
from .mapfamily import MAGNITUDE_CAP, eval_f
from .polyroots import aberth_roots, cluster_roots

_ELLIPTIC_MARGIN = 1e-9


@dataclass
class FixedPointRecord:
    zeta: complex
    trace: complex
    eigenvalues: tuple
    type: str            # saddle | elliptic | parabolic | complex
    residual: float      # max |f(zeta, zeta) - (zeta, zeta)|, over max(1, f's largest term)
    multiplicity: int = 1


def fixed_point_polynomial(p):
    """(2-c) z^(k+1) - sum_j a_j z^(k-j) - 1, descending coefficients.

    The diagonal fixed-point equation cleared of denominators: f(x, y) =
    (y, .) puts every fixed point on the diagonal.  With c = +-2cos(j*pi/n)
    and 0 < j < n, |c| < 2, so the leading coefficient is positive unless
    the double c rounds to 2, which raises ParamError."""
    lead = 2 - complex(p.coeffs().c)
    if lead == 0:
        j, sign = p.c_spec
        raise ParamError(f"c = {sign}*2cos({j}*pi/{p.n}) rounds to 2 in double precision")
    coeffs = [lead] + [0.0] * p.k + [-1.0]
    for l, al in p.coeffs().a:
        # a_l z^(k-l): position k+1-(k-l) from the left
        coeffs[l + 1] = -complex(al)
    return coeffs


def jacobian(p, pt):
    """Df at an affine point as its rows ((0, 1), (-1, d2)), d2 the complex
    closed-form partial with its a_l terms in ascending l; determinant is 1
    identically."""
    x, y = pt
    if abs(y) < 1e-12:
        raise PoleError("jacobian undefined on the pole line")
    d2 = complex(p.coeffs().c)
    for l, al in p.coeffs().a:
        d2 -= l * complex(al) / y ** (l + 1)
    d2 -= p.k / y ** (p.k + 1)
    return ((0, 1), (-1, d2))


def _classify(zeta, trace):
    if abs(zeta.imag) > 1e-9 or abs(trace.imag) > 1e-9:
        return "complex"
    t = trace.real
    if abs(t) < 2 - _ELLIPTIC_MARGIN:
        return "elliptic"
    if abs(t) > 2 + _ELLIPTIC_MARGIN:
        return "saddle"
    return "parabolic"


def fixed_points(p):
    """All k+1 diagonal fixed points with multiplier data, sorted by
    (Re, Im); each is validated by evaluating the map, its residual kept.

    The residual is |f(zeta) - zeta| over max(1, M), M the largest of the
    terms |zeta|, |c zeta|, |a_l zeta^-l| and |zeta^-k| that f's second
    component sums: an accurate root leaves a rounding error of that size."""
    co = p.coeffs()
    records = []
    for zeta, mult in cluster_roots(aberth_roots(fixed_point_polynomial(p))):
        img = eval_f(p, (zeta, zeta))
        w = abs(1 / zeta)
        scale = max(1.0, abs(zeta), abs(co.c * zeta), w ** p.k,
                    *(abs(al) * w ** l for l, al in co.a))
        res = max(abs(img[0] - zeta), abs(img[1] - zeta)) / scale
        if not res <= 1e-10:
            raise NumericCheckError(f"fixed-point residual {res} (relative) at {zeta}")
        J = jacobian(p, (zeta, zeta))
        tr = J[0][0] + J[1][1]
        disc = cmath.sqrt(tr * tr - 4)
        ev = ((tr + disc) / 2, (tr - disc) / 2)
        records.append(FixedPointRecord(zeta=zeta, trace=tr, eigenvalues=ev,
                                        type=_classify(zeta, tr), residual=res,
                                        multiplicity=mult))
    records.sort(key=lambda r: (r.zeta.real, r.zeta.imag))
    found = sum(r.multiplicity for r in records)
    if found != p.k + 1:
        raise NumericCheckError(f"{found} fixed points counted with multiplicity, "
                                f"expected k + 1 = {p.k + 1}")
    return records


def _traces_for(p):
    return sorted((r.trace for r in fixed_points(p) for _ in range(r.multiplicity)),
                  key=lambda z: (z.real, z.imag))


FD_STEP = 1e-6   # central-difference step in each a_l


def trace_map_rank(p):
    """Rank of the parameter-to-traces map at a = 0, two ways.

    Analytic matrix: (k - l) / zeta^(l+1) over the k+1 fixed points and the
    k/2 - 1 active parameter slots.  The finite-difference matrix recomputes
    the trace multiset under perturbed a_l with roots matched by proximity.
    Returns (rank, max entrywise difference between the two matrices).
    """
    if any(abs(complex(v)) > 1e-14 for _, v in p.coeffs().a):
        raise ParamError("trace rank is evaluated at the zero parameter point")
    k = p.k
    params = [l for l in range(2, k - 1) if l % 2 == 0]
    if not params:
        return 0, 0.0
    zetas = [r.zeta for r in fixed_points(p)]
    analytic = [[(k - l) / z ** (l + 1) for l in params] for z in zetas]
    agree = 0.0
    for col, l in enumerate(params):
        tp = _match_traces(zetas, replace(p, a={l: FD_STEP}))
        tm = _match_traces(zetas, replace(p, a={l: -FD_STEP}))
        agree = max(agree, *(abs(row[col] - (a - b) / (2 * FD_STEP))
                             for row, a, b in zip(analytic, tp, tm)))
    import mpmath

    sv = mpmath.svd_c(mpmath.matrix(analytic), compute_uv=False)
    rank = sum(1 for s in sv if s > 1e-8 * max(sv))
    return rank, agree


def _match_traces(ref_zetas, p):
    recs = fixed_points(p)
    zs = [r.zeta for r in recs]
    out = []
    for z0 in ref_zetas:
        i = min(range(len(zs)), key=lambda i: abs(zs[i] - z0))
        out.append(recs[i].trace)
    return out


def trace_set_separation(p, p_hat):
    """Whether two parameter choices have distinguishable trace multisets.

    Optimal matching distance: the largest |t_i - t_hat_j| over a min-sum
    assignment of the two multisets; returns (separated, distance)."""
    if (p.n, p.k) != (p_hat.n, p_hat.k):
        raise ParamError("trace separation compares members of one family")
    t2 = _traces_for(p_hat)
    cost = [[abs(a - b) for b in t2] for a in _traces_for(p)]
    dist = max(row[j] for row, j in zip(cost, _min_sum_assignment(cost)))
    return dist > 1e-8, dist


def _min_sum_assignment(cost):
    """The column assigned to each row by a min-sum assignment of the square
    matrix cost (a list of rows): Kuhn-Munkres with potentials, O(m^3).

    Row potentials u and column potentials v keep cost[i][j] - u[i] - v[j]
    nonnegative; each row joins along a shortest augmenting path in those
    reduced costs.  Index 0 of u, v and the column arrays is the free slot
    the new row starts from; rows and columns count from 1."""
    m = len(cost)
    u, v = [0.0] * (m + 1), [0.0] * (m + 1)
    row_of = [0] * (m + 1)     # row assigned to each column, 0 when none
    way = [0] * (m + 1)        # previous column on the augmenting path
    for i in range(1, m + 1):
        row_of[0], j0 = i, 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while row_of[j0]:
            used[j0] = True
            i0, step, j1 = row_of[j0], math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < step:
                        step, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += step
                    v[j] -= step
                else:
                    minv[j] -= step
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = [0] * m
    for j in range(1, m + 1):
        cols[row_of[j] - 1] = j - 1
    return cols


# -- orbits and manifolds -------------------------------------------------------


@dataclass
class OrbitResult:
    """A forward orbit as its one-dimensional sequence.

    Since f(x, y) = (y, ...), point i of the orbit is (seq[i], seq[i+1]): an
    orbit of m points holds m + 1 numbers, Python floats when the data are
    real and complex otherwise."""

    seq: list
    status: str          # completed | escaped | pole


def iterate_orbit(p, pt0, m, pole_tol=1e-12):
    """Forward orbit of an affine point, at most m steps; stops before the
    step from a point on the pole line (|y| < pole_tol) and at the first
    image past the magnitude cap, which is not kept.  Real data (real point
    and coefficients) stay real exactly.

    Each step appends f's second component, ``MapCoeffs._next_y``, to
    ``seq = [x0, y0, y1, ...]``; the x of the next point is the y already
    stored, the same Python object.  So only the seed's y is tested against
    the cap before the first step: every later x is a y the step before
    tested.  Restarted from the last point of an orbit of real data or of
    complex coefficients, it continues that orbit exactly."""
    co = p.coeffs()
    # c is a float (MapParams takes it by (j, sign) only)
    real = all(complex(v).imag == 0 for v in (pt0[0], pt0[1], *(al for _, al in co.a)))
    x, y = (float(complex(pt0[0]).real), float(complex(pt0[1]).real)) if real \
        else (complex(pt0[0]), complex(pt0[1]))
    if real:
        co = co._replace(a=tuple((l, float(complex(v).real)) for l, v in co.a))
    seq = [x, y]
    if m and abs(y) > MAGNITUDE_CAP:
        return OrbitResult(seq=seq, status="escaped")
    status = "completed"
    next_y, append = co._next_y, seq.append
    for _ in range(m):
        if abs(y) < pole_tol:
            status = "pole"
            break
        x, y = y, next_y(x, y)
        if abs(y) > MAGNITUDE_CAP:
            status = "escaped"
            break
        append(y)
    return OrbitResult(seq=seq, status=status)


@dataclass
class Polyline:
    points: list         # (x, y) tuples of floats
    arclength: list      # cumulative, from 0.0 at points[0]
    stop: str            # arclength | max-points | left-window | guard | depth
    meta: dict = field(default_factory=dict)


LEVEL_GUARD = 200_000  # interval pops allowed in one refinement level
MAX_DEPTH = 400        # deepest iterate of the fundamental segment
SEED_SCALE = 1e-6      # distance of the fundamental segment from the saddle


def unstable_manifold(p, fp, arclen=20.0, spacing=0.05, max_points=1_000_000):
    """Trace the unstable manifold of a saddle by iterating a fundamental
    segment along the unstable eigenvector, refining in seed space until
    consecutive image points are closer than `spacing`.

    The stable manifold is the coordinate swap of the result (the family is
    reversible).  Escaped or pole-hitting branches are truncated, and
    `Polyline.stop` says why the trace ended.
    """
    if fp.type != "saddle":
        raise NotSaddleError(f"fixed point {fp.zeta} is {fp.type}")
    z = fp.zeta.real
    # Df = [[0, 1], [-1, d2]] maps (1, lam) to lam * (1, lam): the unit
    # eigenvector of the multiplier off the unit circle, signed so that its
    # largest entry, lam's, is positive (the sign LAPACK's eig gives it)
    lam = max(fp.eigenvalues, key=abs).real
    h = math.copysign(math.hypot(1.0, lam), lam)
    vec = (1 / h, lam / h)
    x0, p1 = (z, z), (z + SEED_SCALE * vec[0], z + SEED_SCALE * vec[1])

    def step(q):
        try:
            img = eval_f(p, q)
        except (PoleError, OverflowError):  # OverflowError covers OverflowEscape
            return None
        if max(abs(img[0]), abs(img[1])) > 1e6:
            return None
        return (img[0].real, img[1].real)

    def dist(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return math.sqrt(dx * dx + dy * dy)

    # fundamental domain [p1, f(p1)] with p1 on the eigenvector: successive
    # image batches then join exactly (f^i of the s=1 end is f^(i+1) of s=0)
    fp1 = step(p1)
    if fp1 is None:
        raise NotSaddleError("seed segment leaves the finite window immediately")
    seg = (fp1[0] - p1[0], fp1[1] - p1[1])

    def manifold_point(s, iters):
        q = (p1[0] + s * seg[0], p1[1] + s * seg[1])
        for _ in range(iters):
            q = step(q)
            if q is None:
                return None
        return q

    pts = [x0, p1]
    total = dist(p1, x0)
    stop = "arclength" if total >= arclen else "max-points" if len(pts) >= max_points else None
    iters = 0
    while stop is None:
        # refine the fundamental seed interval at this iterate depth; the
        # stack pops intervals left to right, so each accepted one is the
        # next point of the curve and is emitted at once
        stack = [(0.0, manifold_point(0.0, iters), 1.0, manifold_point(1.0, iters))]
        pops = 0
        while stack and stop is None:
            if pops == LEVEL_GUARD:
                stop = "guard"
                break
            pops += 1
            sa_, qa, sb, qb = stack.pop()
            if qa is None or qb is None:
                # the branch escapes (pole kick or magnitude cap): the curve
                # leaves the window here, and the trace ends rather than
                # jumping the gap
                stop = "left-window"
                break
            if dist(qb, qa) <= spacing or (sb - sa_) < 1e-14:
                d = dist(qa, pts[-1])
                if d == 0.0:
                    continue
                pts.append(qa)
                total += d
                if total >= arclen:
                    stop = "arclength"
                elif len(pts) >= max_points:
                    stop = "max-points"
                continue
            sm = 0.5 * (sa_ + sb)
            qm = manifold_point(sm, iters)
            stack.append((sm, qm, sb, qb))
            stack.append((sa_, qa, sm, qm))
        iters += 1
        if stop is None and iters > MAX_DEPTH:
            stop = "depth"
    arc = list(accumulate((dist(b, a) for a, b in zip(pts, pts[1:])), initial=0.0))
    return Polyline(points=pts, arclength=arc, stop=stop,
                    meta={"fixed_point": [z, z],
                          "eigenvalue": lam,
                          "seed_scale": SEED_SCALE,
                          "spacing": spacing})
