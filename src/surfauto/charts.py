"""Local coordinate charts of the iterated blowup tower and the induced
fiber-to-fiber maps.

Tower layout: over each of the n orbit points at infinity (limb s) sits a
chain of 2k+1 exceptional fibers F^j_s.  Level-1 charts are (eta_1, t_1)
with the fiber at t_1 = 0; level j >= 2 charts are (xi_j, x_j) with the
fiber at x_j = 0 and the recursion

    xi_{j}   = xi_{j+1} * x  +  beta(s, j),      x constant down the tower,

seeded by (xi_1, x_1) = (t_1, eta_1).  The blowup center on F^j_s is at
fiber coordinate beta(s, j) = (+-) (w_1...w_{s-1})^(j-2) * b_{j-1}; the
shift to b_{j-1} (not b_j) is what makes the exceptional curve land on the
next center at every level, which is the whole point of the construction.

Numeric work runs at a working precision scaled to the tower depth:
inverting a depth-j chart near a fiber at transverse distance eps cancels
roughly j*log10(1/eps) digits, which double precision cannot survive for
k >= 4.  The centers and the closed forms are computed in mpmath.  Jet
orbits and lifted samples run on Jets (Python-integer jets of
jet_bits(dps) bits, see :mod:`surfauto.dual`) through the same generic
chart and map functions, from the lift to the Richardson-extrapolated
limit; only limits become mpmath numbers again.  Every chart function
takes a CenterTable alone: it holds the centers and its member's map
coefficients, and its .jet and .double copies convert both.  Projective
points are never normalised by a Jet division: chart_to_plane and
eval_f_proj return their triples as built, and _f_jet rescales the image
by a power of two.  Chart routing alone runs in double precision, one walk
up each limb of the tower.
"""

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import mpmath as mp

from .dual import Jet, jet_bits, richardson
from .errors import ChartDomainError, ExtrapolationError, ParamError, PoleError
from .mapfamily import MapCoeffs, center_series, eval_f_proj, infinity_orbit
from .picard import strict_image


class ChartId(NamedTuple):
    """kind: 'tower' (limb s, level j), 'base' (pre-blowup chart at limb s),
    or 'affine' (the finite chart [1:x:y])."""

    kind: str
    s: int = 0
    j: int = 0


class ChartPoint(NamedTuple):
    """u: coordinate along the fiber (xi_j, eta_1, or the base-curve
    coordinate); v: transverse coordinate (x_j, t_1, or t).  v = 0 lies on
    the blown-down locus."""

    u: object
    v: object


def default_dps(k):
    """Working precision, in decimal digits, for full-depth chart inversions.

    Budgeted, not measured, for lifts down to eps = 1e-7 (the last decade
    _lift_limit extends to): inverting level j <= 2k+3 at transverse
    distance eps cancels about j*log10(1/eps) digits, and 45 more are kept.
    mpmath runs at this dps and Jets at jet_bits(dps) bits, mpmath's
    precision there plus a guard: about 420 bits for k = 4 and 700 for
    k = 10."""
    digits_lost = (2 * k + 3) * 7
    return max(60, digits_lost + 45)


@dataclass(frozen=True)
class CenterTable:
    """Blowup centers beta(s, j), the orbit and series data they come from,
    and the map coefficients at dps."""

    n: int
    k: int
    dps: int
    w: tuple          # w_1 .. w_{n-1}
    b: tuple          # b_0 .. b_2k
    beta: dict        # (s, j) -> center on F^j_s, 1 <= j <= 2k
    coeffs: MapCoeffs  # its floor is the chart-inversion floor (see plane_to_chart)

    @classmethod
    def build(cls, p):
        """The table of the member p at default_dps(p.k).  Membership was
        decided when p was made, so closure is not decided again here:
        chart_suite's orbit-closure check reports |w_{n-1}|."""
        dps = default_dps(p.k)
        with mp.workdps(dps):
            co = p.coeffs(dps)
            w = infinity_orbit(co, p.n)
            b = center_series(co)
            beta = {}
            for s in range(p.n):
                W = mp.mpf(1)
                for t in range(1, s):
                    W *= w[t - 1]
                for j in range(1, 2 * p.k + 1):
                    base = b[j - 1]
                    if s == 0:
                        beta[(s, j)] = base
                    else:
                        sign = -1 if (1 - j) % 2 else 1
                        beta[(s, j)] = sign * W ** (j - 2) * base
        return cls(n=p.n, k=p.k, dps=dps, w=w, b=b, beta=beta, coeffs=co)

    @cached_property
    def bits(self):
        """Mantissa width of the Jets that run on this table."""
        return jet_bits(self.dps)

    @cached_property
    def jet(self):
        """The same table with w, the centers and the map coefficients as
        Jet constants, the floor as the Modulus that Jet moduli compare with:
        the copy that jet orbits and lifted samples run on."""
        const = partial(Jet.const, bits=self.bits)
        return self._converted(const, abs(const(self.coeffs.floor)))

    @cached_property
    def double(self):
        """The same table in python complex with no floor: the
        double-precision copy that chart routing inverts with."""
        return self._converted(complex, 0.0)

    def _converted(self, to, floor):
        co = self.coeffs
        return replace(self, w=tuple(map(to, self.w)),
                       beta={key: to(v) for key, v in self.beta.items()},
                       coeffs=co._replace(c=to(co.c), neg_delta=to(co.neg_delta),
                                          a=tuple((l, to(al)) for l, al in co.a), floor=floor))

    @cached_property
    def chart_ids(self):
        """Every chart: affine, the base chart of each limb, every tower level."""
        ids = [ChartId("affine")]
        ids += [ChartId("base", s) for s in range(self.n)]
        ids += [ChartId("tower", s, j) for s in range(self.n) for j in range(1, 2 * self.k + 2)]
        return tuple(ids)

    def tampered(self, s, j, value):
        """Copy with one center overridden; negative-control hook for the
        verification suite."""
        beta = dict(self.beta)
        beta[(s, j)] = value
        return replace(self, beta=beta)


def chart_to_plane(table, cid, pt):
    """Compose the blowdown maps into homogeneous coordinates.

    Points with v = 0 land exactly on the blown-down image (the limb base
    point for tower charts).  The triple is returned as built, unnormalised:
    each branch has an exact 1 among its entries.  Scalars may be mpmath
    numbers, or Jets with table.jet, or python complex with table.double.
    """
    u, v = pt.u, pt.v
    if cid.kind == "affine":
        return (_one(u), u, v)
    s = cid.s
    if cid.kind == "base":
        t1, along = v, u
    else:
        j = cid.j
        if j == 1:
            t1, e1 = v, u
        else:
            xi, x = u, v
            for m in range(j - 1, 0, -1):
                xi = xi * x + table.beta[(s, m)]
            t1, e1 = xi, x
        if s == 0:
            return (t1, t1 * e1, _one(t1))
        return (t1, _one(t1), t1 * e1 + table.w[s - 1])
    if s == 0:
        return (t1, along, _one(t1))
    return (t1, _one(t1), along)


def _one(sample):
    """Multiplicative unit matching the scalar type of sample."""
    return sample * 0 + 1


def plane_to_chart(table, cid, P):
    """Invert chart_to_plane; ChartDomainError when a division degenerates.

    A divisor below table.coeffs.floor degenerates: the map's
    indeterminacy floor 10^-(dps-8) (MapParams.coeffs), far below any
    legitimate transverse scale at the working precision, so only genuinely
    blown-down points trip it.  Scalars may be mpmath numbers, Jets (with
    table.jet, whose floor is a Modulus) or python complex (with
    table.double, which has no floor: an exact zero divisor raises
    ZeroDivisionError instead).
    """
    if cid.kind == "affine":
        x0, x1, x2 = P
        _check_divisor(x0, table.coeffs.floor, cid)
        r = 1 / x0
        return ChartPoint(x1 * r, x2 * r)
    level = 0 if cid.kind == "base" else cid.j
    for depth, pt in enumerate(_limb_walk(table, cid.s, P, cid)):
        if depth == level:
            return pt
    raise ParamError(f"chart {cid} outside the tower")


def _limb_walk(table, s, P, cid):
    """The coordinates of P in the charts of limb s, shallowest first: the
    base chart (depth 0), then tower levels 1 .. 2k+1 (depth j).

    Each level past the first is one more step of xi <- (xi - beta(s, m)) / x,
    so a reader that stops at level j has walked the limb once, up to j.
    A divisor below table.coeffs.floor raises ChartDomainError naming cid."""
    floor = table.coeffs.floor
    x0, x1, x2 = P
    den, num = (x2, x1) if s == 0 else (x1, x2)
    _check_divisor(den, floor, cid)
    r = 1 / den
    t, along = x0 * r, num * r
    yield ChartPoint(along, t)
    if s:
        along = along - table.w[s - 1]
    _check_divisor(t, floor, cid)
    x = along / t
    yield ChartPoint(x, t)
    # every level divides by the same x: one reciprocal, then products
    _check_divisor(x, floor, cid)
    xinv = 1 / x
    xi = t
    for m in range(1, 2 * table.k + 1):
        xi = (xi - table.beta[(s, m)]) * xinv
        yield ChartPoint(xi, x)


def _check_divisor(b, floor, cid):
    # abs() of a Jet is the exact modulus of its value
    if abs(b) < floor:
        raise ChartDomainError(f"division by {b} in chart {cid}")


# -- the fiber-to-fiber transition table --------------------------------------

SIGMA1 = ("sigma1",)
POLE_TOL = 1e-12   # closed-form flip branches raise PoleError this close to a pole


def fiber_target(n, k, s, j):
    """Where the fiber F^j_s, or with s = "sigma2" the line {x2=0}, is sent:
    picard.strict_image in chart terms, ('fiber', s', j') or SIGMA1 for
    L(0), the line {x1=0}.  ParamError for a fiber outside the tower."""
    kind, *at = strict_image(n, k, ("L", n - 1) if s == "sigma2" else ("F", s, j))
    return SIGMA1 if kind == "L" else ("fiber", *at)


def fiber_transition_closed(table, s, j, xi):
    """Closed form of the induced map on fiber coordinates.

    Source (s, j) is a fiber of the tower, or s = "sigma2" (j unused) with
    the coordinate x of [1:x:0].  Returns (target, value); target is
    ('fiber', s', j') or SIGMA1 (value z meaning [1:0:z]).
    """
    n, k = table.n, table.k
    b = table.b
    tgt = fiber_target(n, k, s, j)
    if s == "sigma2":
        return tgt, xi + b[2 * k]
    if s == 0 and n > 1:
        if j == 1:
            return tgt, -xi
        sign = -1 if (1 - j) % 2 else 1
        return tgt, sign * xi
    if 1 <= s <= n - 2:
        ws = table.w[s - 1]
        if j == 1:
            return tgt, xi / ws
        return tgt, ws ** (j - 2) * xi
    # s = n - 1: return over the flip to limb 0
    if j == 1:
        return tgt, xi
    if j == 2 * k + 1:
        return tgt, xi - b[2 * k]
    if j == k + 1:
        if abs(xi - 1) < POLE_TOL:
            raise PoleError("xi = 1 is the pole of the middle flip branch")
        return tgt, xi / (xi - 1)
    if j <= k:
        l = k + 1 - j
        if abs(xi) < POLE_TOL:
            raise PoleError("xi = 0 is the pole of this flip branch")
        return tgt, b[k + l] + 1 / xi
    l = j - k - 1
    if abs(xi - b[k + l]) < POLE_TOL:
        raise PoleError(f"xi = b_{k+l} is the pole of the inverse flip branch")
    return tgt, 1 / (xi - b[k + l])


EPS_SEQ = (1e-3, 1e-4, 1e-5)   # lifts off the fiber, before any extension
CONV_TOL = 1e-8                 # agreement required of successive extrapolants


def fiber_transition_numeric(table, s, j, xi):
    """Transition recomputed through the plane: lift off the fiber, apply
    the homogeneous map, re-express in the target chart, extrapolate the
    lift to zero.  Independent of the closed forms except for the target
    chart, which comes from the cycle scheme.

    Source (s, j) is a fiber of the tower, or s = "sigma2" as in
    fiber_transition_closed.  Convergence: successive order-2 extrapolants
    (over a sliding window of EPS_SEQ, extended by further decades when
    needed) must agree below CONV_TOL; otherwise ExtrapolationError."""
    source = s == "sigma2"
    tgt = fiber_target(table.n, table.k, s, j)
    jt = table.jet

    def sample(xi, eps):
        if source:
            P = (_one(xi), xi, eps)
        else:
            P = chart_to_plane(jt, ChartId("tower", s, j), ChartPoint(xi, eps))
        Q = _f_jet(jt, P)
        if tgt == SIGMA1:
            z0, z1, z2 = Q
            return z2 / z0
        _, s2, j2 = tgt
        return plane_to_chart(jt, ChartId("tower", s2, j2), Q).u

    return (tgt,) + _lift_limit(table, xi, sample, "transition")


def _f_jet(jt, P):
    """eval_f_proj of the Jet point P on the Jet table jt, rescaled without a
    division: one exact power-of-two shift of every exponent puts the
    largest modulus in [1/2, 2), where it converts to a double."""
    img = eval_f_proj(jt.coeffs, P)
    top = max(abs(z) for z in img)
    shift = -((top.n.bit_length() + top.e) // 2)
    return tuple(z.ldexp(shift) for z in img)


def _lift_limit(table, xi, sample, what):
    """Limit of sample(xi, eps) as the lift eps off the fiber goes to 0.

    sample runs on Jet constants of table.bits bits and returns a Jet.
    Order-2 Richardson over the last three lifts, on the Jets, extended by
    up to two decades until successive extrapolants agree below CONV_TOL;
    only the final limit's value becomes an mpmath number.  Returns
    (limit, last change) or raises ExtrapolationError."""
    bits = table.bits
    with mp.workdps(table.dps):
        xi = Jet.const(xi, bits)
        eps_mp = mp.mpf(EPS_SEQ[-1])
        eps = [Jet.const(e, bits) for e in EPS_SEQ]
        vals = [sample(xi, e) for e in eps]
        lim, _ = richardson(eps, vals)
        for _ in range(2):  # extend by up to two decades
            prev = lim
            eps_mp /= 10
            eps.append(Jet.const(eps_mp, bits))
            vals.append(sample(xi, eps[-1]))
            lim, _ = richardson(eps[-3:], vals[-3:])
            gap = abs(lim - prev)
            if gap < CONV_TOL:
                return lim.mpc()[0], float(gap)
    raise ExtrapolationError(f"{what} extrapolants keep moving by {float(gap)} > {CONV_TOL}")


# -- chart routing and parabolic checks ---------------------------------------

_ROUTE_CAP = 1e3


def route_chart(table, P):
    """Chart with the largest inversion margin for the plane point P.

    A chart accepts the point when its coordinates there stay moderate
    (within _ROUTE_CAP); among accepting charts the deepest tower level
    wins, since it fully resolves the infinitely-near structure the point
    is close to, with smaller coordinates breaking ties, then the order of
    table.chart_ids.  A point merely near a blowup center looks innocuous
    in the shallow chart but the deeper levels stay moderate exactly as far
    as the structure goes.  Candidates are ranked by the chart inversion
    itself, run in double precision on table.double with no floor (an
    exact zero divisor rejects the chart and, on a limb, every deeper
    level): one walk per limb reads all of its levels.  Selection runs in
    double precision, values never do.
    """
    Pf = tuple(_downcast(z) for z in P)
    dt = table.double
    n, levels = table.n, 2 * table.k + 1
    keys = []   # (-depth, margin, index in table.chart_ids) of accepting charts

    def rank(u, v, depth, index):
        try:
            m = max(abs(u), abs(v))
        except OverflowError:   # a modulus past the double range: rejected, as NaN is
            return
        if m <= _ROUTE_CAP:  # NaN fails this too
            keys.append((-depth, m, index))

    try:
        u, v = plane_to_chart(dt, ChartId("affine"), Pf)
        rank(u, v, 0, 0)
    except ZeroDivisionError:
        pass
    for s in range(n):
        walk = _limb_walk(dt, s, Pf, ChartId("base", s))
        first = 1 + n + s * levels  # index of level 1 of limb s
        try:
            along, t = next(walk)
            rank(along, t, 0, 1 + s)
            # depth counts only when the point is genuinely near the
            # blown-up structure: small base offset |t| and small
            # transverse coordinate
            near = abs(t) < 0.05
            for j, (u, v) in enumerate(walk, 1):
                rank(u, v, j if near and abs(v) < 0.05 else 0, first + j - 1)
        except ZeroDivisionError:
            pass
    if not keys:
        raise ChartDomainError("no chart accepts this point")
    return table.chart_ids[min(keys)[2]]


def _downcast(z):
    try:
        return complex(z)
    except (OverflowError, ValueError):
        return complex(float("inf"), 0)


@dataclass
class ParabolicReport:
    """Outcome of a tangency check at one point."""

    max_deviation: float     # max |Df^(2n) - Id| entrywise
    fix_residual: float      # |f^(2n)(pt) - pt| in chart coordinates
    diag_n: tuple | None     # Df^n diagonal when on the invariant line
    converged: bool


def _jet_orbit(table, cid, u0, v0, steps):
    """Route a 2-jet through `steps` map applications, ending in the start
    chart.  Runs on Jets and returns the final coordinates as Jets (value,
    d/du0, d/dv0).  For a base-chart start it also returns the half-way
    point, forced back into the start chart so the half-way differential is
    readable there, as a pair of mpmath triples; otherwise None."""
    jt = table.jet
    u = Jet.of(u0, 1, 0, table.bits)
    v = Jet.of(v0, 0, 1, table.bits)
    half = steps // 2 - 1 if cid.kind == "base" else None
    cur = cid
    mid = None
    for step in range(steps):
        P = chart_to_plane(jt, cur, ChartPoint(u, v))
        Q = _f_jet(jt, P)
        cur = cid if step in (steps - 1, half) else route_chart(table, Q)
        u, v = plane_to_chart(jt, cur, Q)
        if step == half:
            mid = (u.mpc(), v.mpc())
    return u, v, mid


def parabolic_check(table, cid, pt):
    """Check that f^(2n) fixes a point of the invariant configuration and is
    tangent to the identity there.

    For points on the invariant line (base chart, v = 0) the jet runs
    directly: the line is not blown down, so no lift is needed and the
    half-way differential (expected diag(+-1, 1)) is also reported.  For
    fiber points the transverse coordinate is lifted to each eps in
    EPS_SEQ and the final jets, value and Jacobian together, are
    Richardson-extrapolated to the fiber.
    """
    steps = 2 * table.n
    with mp.workdps(table.dps):
        if cid.kind == "base":
            u, v, mid = _jet_orbit(table, cid, pt.u, 0, steps)
            (ua, udx, udy), (va, vdx, vdy) = u.mpc(), v.mpc()
            dev = max(abs(udx - 1), abs(udy), abs(vdx), abs(vdy - 1))
            fix = max(abs(ua - pt.u), abs(va))
            mu, mv = mid
            # (transverse, along) multipliers: expected (+-1, 1)
            diag = (complex(mv[2]), complex(mu[1]))
            return ParabolicReport(float(dev), float(fix), diag, True)
        eps = [Jet.const(e, table.bits) for e in EPS_SEQ]
        ends = [_jet_orbit(table, cid, pt.u, e, steps) for e in EPS_SEQ]
        u_lim, u_gap = richardson(eps, [u for u, _, _ in ends])
        v_lim, v_gap = richardson(eps, [v for _, v, _ in ends])
        (ua, udx, udy), (va, vdx, vdy) = u_lim.mpc(), v_lim.mpc()
        dev = max(abs(udx - 1), abs(udy), abs(vdx), abs(vdy - 1))
        fix = max(abs(ua - pt.u), abs(va))
        # the gaps' values are the u and v errors, their partials the
        # Jacobian's
        converged = max(abs(g) for g in u_gap.mpc() + v_gap.mpc()) < CONV_TOL
    return ParabolicReport(float(dev), float(fix), None, converged)


def parabolic_levels(k):
    """Tower levels belonging to the tangent-to-identity configuration:
    level 1 and levels 3..2k-1.  Levels 2, 2k and 2k+1 are excluded."""
    return [1] + list(range(3, 2 * k))


# -- the reversing symmetry on fibers ------------------------------------------


def reversor_transition_closed(table, s, j, xi):
    """Fiber action of the coordinate swap: F^j_s -> F^j_{n-1-s}.

    Limbs 0 and n-1 exchange with coordinates preserved.  For middle limbs
    the multiplier is -(-w_s)^(j-2) at levels j >= 2 and -1/w_s at level 1
    (equivalently -(-w')^(2-j) with w' the target limb's orbit value)."""
    n = table.n
    tgt = ("fiber", n - 1 - s, j)
    if s in (0, n - 1):
        return tgt, xi
    ws = table.w[s - 1]
    if j == 1:
        return tgt, -xi / ws
    return tgt, -(-ws) ** (j - 2) * xi


def reversor_transition_numeric(table, s, j, xi):
    """Swap-action on fibers computed through the plane, as an independent
    check of the closed form."""
    tgt = ("fiber", table.n - 1 - s, j)
    jt = table.jet

    def sample(xi, eps):
        x0, x1, x2 = chart_to_plane(jt, ChartId("tower", s, j), ChartPoint(xi, eps))
        return plane_to_chart(jt, ChartId("tower", tgt[1], tgt[2]), (x0, x2, x1)).u

    return (tgt,) + _lift_limit(table, xi, sample, "reversor")
