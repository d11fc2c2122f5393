"""Local coordinate charts of the iterated blowup tower and the induced
fiber-to-fiber maps.

Tower layout: over each of the n orbit points at infinity (limb s) sits a
chain of 2k+1 exceptional fibers F^j_s, and ChartId(s, j) is limb s's chart
at level j.  Level 0 is the chart (along, t) before any blowup, with the
line at infinity at t = 0; level-1 charts are (eta_1, t_1) with the fiber
at t_1 = 0; level j >= 2 charts are (xi_j, x_j) with the fiber at x_j = 0
and the recursion

    xi_{j}   = xi_{j+1} * x  +  beta(s, j),      x constant down the tower,

seeded by (xi_1, x_1) = (t_1, eta_1).  The blowup center on F^j_s is at
fiber coordinate beta(s, j) = (+-) (w_1...w_{s-1})^(j-2) * b_{j-1}; the
shift to b_{j-1} (not b_j) is what makes the exceptional curve land on the
next center at every level, which is the whole point of the construction.

Numeric work runs at a working precision scaled to the tower depth:
inverting a depth-j chart near a fiber at transverse distance eps cancels
roughly j*log10(1/eps) digits, which double precision cannot survive for
k >= 4.  The CenterTable alone decides it: its dps, the map coefficients
and floor it makes in mpmath at that dps, and its Jet width.  Jet orbits
and lifted samples run on Jets (Python-integer jets of jet_bits(dps) bits,
see :mod:`surfauto.dual`) through the same generic chart and map
functions, from the lift to the limit of one Richardson ladder
(_lift_ladder); only limits become mpmath numbers again.  Every chart
function takes a CenterTable alone: it holds the centers and its member's
map coefficients, and its .jet copy converts both.  A jet orbit stays in
the plane: each image is normalised by one Jet division (proj_normalize),
and only its end points are read in a chart.  A lifted sample is one map
step, so _f_jet rescales its image by a power of two instead of dividing.
"""

from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import islice
from typing import NamedTuple

import mpmath as mp

from .dual import Jet, jet_bits, richardson
from .errors import ChartDomainError, ExtrapolationError, ParamError, PoleError
from .mapfamily import (MapCoeffs, center_series, eval_f_proj, infinity_orbit, one_like,
                        proj_normalize)
from .picard import strict_image


class ChartId(NamedTuple):
    """The chart of limb s, 0 <= s < n, at level j: j = 0 before any blowup,
    1 <= j <= 2k+1 the tower levels."""

    s: int
    j: int


class ChartPoint(NamedTuple):
    """u: coordinate along the fiber (xi_j, eta_1, or, at level 0, along the
    line at infinity); v: transverse coordinate (x_j, t_1, or t).  v = 0
    lies on the blown-down locus."""

    u: object
    v: object


def default_dps(k):
    """Working precision, in decimal digits, for full-depth chart inversions.

    Budgeted, not measured, for lifts down to eps = 1e-7 (the last decade
    _lifted_transition extends to): inverting level j <= 2k+3 at transverse
    distance eps cancels about j*log10(1/eps) digits, and 45 more are kept.
    mpmath runs at this dps and Jets at jet_bits(dps) bits, mpmath's
    precision there plus a guard: about 420 bits for k = 4 and 700 for
    k = 10."""
    digits_lost = (2 * k + 3) * 7
    return max(60, digits_lost + 45)


@dataclass(frozen=True)
class CenterTable:
    """Blowup centers beta(s, j), the orbit and series data they come from,
    and the map coefficients at dps: the one owner of the chart layer's
    precision."""

    n: int
    k: int
    dps: int
    w: tuple          # w_1 .. w_{n-1}
    b: tuple          # b_0 .. b_2k
    beta: dict        # (s, j) -> center on F^j_s, 1 <= j <= 2k
    coeffs: MapCoeffs  # its floor is the chart-inversion floor (see plane_to_chart)

    @classmethod
    def build(cls, p):
        """The table of the member p at default_dps(p.k): c, the a_l and
        the map's indeterminacy floor 10^-(dps-8) in mpmath at that dps.
        Membership was decided when p was made, so closure is not decided
        again here: chart_suite's orbit-closure check reports |w_{n-1}|."""
        dps = default_dps(p.k)
        c_j, c_sign = p.c_spec
        with mp.workdps(dps):
            co = MapCoeffs(p.k, c_sign * 2 * mp.cos(mp.pi * c_j / p.n),
                           tuple((l, mp.mpmathify(v)) for l, v in p.coeffs().a),
                           mp.mpf(10) ** (-(dps - 8)))
            w = infinity_orbit(co, p.n)
            b = center_series(co)
            beta = {}
            for s in range(p.n):
                W = mp.mpf(1)
                for t in range(1, s):
                    W *= w[t - 1]
                for j in range(1, 2 * p.k + 1):
                    sign = -1 if (1 - j) % 2 else 1
                    beta[(s, j)] = sign * W ** (j - 2) * b[j - 1] if s else b[j - 1]
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
        co = self.coeffs
        return replace(self, w=tuple(map(const, self.w)),
                       beta={key: const(v) for key, v in self.beta.items()},
                       coeffs=co._replace(c=const(co.c), a=tuple((l, const(al)) for l, al in co.a),
                                          floor=abs(const(co.floor))))

    def tampered(self, s, j, value):
        """Copy with one center overridden; negative-control hook for the
        verification suite."""
        beta = dict(self.beta)
        beta[(s, j)] = value
        return replace(self, beta=beta)


def _check_chart(table, cid):
    """(s, j) of cid, or ParamError for a chart outside table's tower."""
    s, j = cid
    if not (0 <= s < table.n and 0 <= j <= 2 * table.k + 1):
        raise ParamError(f"chart {cid} outside the tower")
    return s, j


def chart_to_plane(table, cid, pt):
    """Compose the blowdown maps into homogeneous coordinates.

    Points with v = 0 land exactly on the blown-down image (the limb base
    point for tower charts).  The triple is returned as built, unnormalised,
    with an exact 1 among its entries.  Scalars may be mpmath numbers, or
    Jets with table.jet.
    """
    s, j = _check_chart(table, cid)
    u, v = pt
    if j == 0:
        t1, along = v, u
    else:
        # (eta_1, t_1) at level 1; deeper, (xi, x) walks down to (t_1, eta_1)
        t1, e1 = (v, u) if j == 1 else (u, v)
        for m in range(j - 1, 0, -1):
            t1 = t1 * e1 + table.beta[(s, m)]
        along = t1 * e1 + table.w[s - 1] if s else t1 * e1
    if s == 0:
        return (t1, along, one_like(t1))
    return (t1, one_like(t1), along)


def plane_to_chart(table, cid, P):
    """Invert chart_to_plane; ChartDomainError when a division degenerates.

    A tower chart is reached by a walk up its limb: the level-0 chart, then
    one more step of xi <- (xi - beta(s, m)) / x per level, every level
    dividing by the same x.  A divisor below table.coeffs.floor
    degenerates: the map's indeterminacy floor 10^-(dps-8)
    (CenterTable.build), far below any legitimate transverse scale at the
    working precision, so only genuinely blown-down points trip it.
    Scalars may be mpmath numbers or Jets (with table.jet, whose floor is a
    Modulus).
    """
    s, j = _check_chart(table, cid)
    floor = table.coeffs.floor
    x0, x1, x2 = P
    den, num = (x2, x1) if s == 0 else (x1, x2)
    _check_divisor(den, floor, cid)
    r = 1 / den
    t, along = x0 * r, num * r
    if j == 0:
        return ChartPoint(along, t)
    if s:
        along = along - table.w[s - 1]
    _check_divisor(t, floor, cid)
    x = along / t
    if j == 1:
        return ChartPoint(x, t)
    _check_divisor(x, floor, cid)
    xinv = 1 / x
    xi = t
    for m in range(1, j):
        xi = (xi - table.beta[(s, m)]) * xinv
    return ChartPoint(xi, x)


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
    return _lifted_transition(table, s, j, xi, fiber_target(table.n, table.k, s, j),
                              _f_jet, "transition")


def _lifted_transition(table, s, j, xi, tgt, image, what):
    """The point xi of the fiber (s, j), or [1:xi:0] with s = "sigma2",
    carried through the plane to the target tgt: lifted off the fiber by
    eps, sent by image(jt, P) on the Jet table jt, read in the target chart
    (z2/z0 for SIGMA1), and extrapolated to eps = 0.

    The samples run on Jet constants of table.bits bits.  Up to two more
    limits are pulled from the lift ladder until successive ones agree
    below CONV_TOL; only the final limit's value becomes an mpmath number.
    Returns (tgt, limit, last change) or raises ExtrapolationError, whose
    text names `what`."""
    jt = table.jet

    def sample(eps):
        if s == "sigma2":
            P = (one_like(xi), xi, eps)
        else:
            P = chart_to_plane(jt, ChartId(s, j), ChartPoint(xi, eps))
        Q = image(jt, P)
        if tgt == SIGMA1:
            z0, z1, z2 = Q
            return (z2 / z0,)
        _, s2, j2 = tgt
        return (plane_to_chart(jt, ChartId(s2, j2), Q).u,)

    with mp.workdps(table.dps):
        xi = Jet.const(xi, table.bits)
        ladder = _lift_ladder(table, sample)
        (lim,) = next(ladder)
        for (nxt,) in islice(ladder, 2):
            gap, lim = abs(nxt - lim), nxt
            if gap < CONV_TOL:
                return tgt, lim.mpc()[0], float(gap)
    raise ExtrapolationError(f"{what} extrapolants keep moving by {float(gap)} > {CONV_TOL}")


def _f_jet(jt, P):
    """eval_f_proj of the Jet point P on the Jet table jt, rescaled without a
    division: one exact power-of-two shift of every exponent puts the
    largest modulus in [1/2, 2), where it converts to a double."""
    img = eval_f_proj(jt.coeffs, P)
    top = max(abs(z) for z in img)
    shift = -((top.n.bit_length() + top.e) // 2)
    return tuple(z.ldexp(shift) for z in img)


def _lift_ladder(table, sample):
    """Richardson limits of sample(eps) as the lift eps goes to the fiber,
    one per pull: order 2 over the lifts of EPS_SEQ, then over the last
    three after each further decade.  sample maps a Jet constant to a tuple
    of Jets; the caller holds mp.workdps(table.dps)."""
    eps_mp = mp.mpf(EPS_SEQ[-1])
    eps = [Jet.const(e, table.bits) for e in EPS_SEQ]
    vals = [sample(e) for e in eps]
    while True:
        yield tuple(richardson(eps[-3:], col)[0] for col in zip(*vals[-3:]))
        eps_mp /= 10
        eps.append(Jet.const(eps_mp, table.bits))
        vals.append(sample(eps[-1]))


# -- parabolic checks -----------------------------------------------------------


@dataclass
class ParabolicReport:
    """Outcome of a tangency check at one point."""

    max_deviation: float     # max |Df^(2n) - Id| entrywise
    fix_residual: float      # |f^(2n)(pt) - pt| in chart coordinates
    diag_n: tuple | None     # Df^n diagonal when on the invariant line


def _jet_orbit(table, cid, u0, v0):
    """Carry a 2-jet through the 2n map steps of f^(2n) from the start chart
    back to it; v0 is a Jet constant lift, or 0.  The orbit stays in the
    plane: each image is normalised (proj_normalize, one Jet division),
    which keeps the partials of the scale from building up, and only the
    end point, and the half-way point of a level-0 start, are read in the
    start chart.  Returns the final coordinates as Jets (value, d/du0,
    d/dv0) and the half-way point as a pair of mpmath triples, or None."""
    jt = table.jet
    u = Jet.of(u0, 1, 0, table.bits)
    v = v0 + Jet.of(0, 0, 1, table.bits)
    half = table.n - 1 if cid.j == 0 else None
    Q = chart_to_plane(jt, cid, ChartPoint(u, v))
    mid = None
    for step in range(2 * table.n):
        Q = proj_normalize(eval_f_proj(jt.coeffs, Q))
        if step == half:
            mid = tuple(z.mpc() for z in plane_to_chart(jt, cid, Q))
    u, v = plane_to_chart(jt, cid, Q)
    return u, v, mid


def parabolic_check(table, cid, pt):
    """Check that f^(2n) fixes a point of the invariant configuration and is
    tangent to the identity there.

    For points on the invariant line (level 0, v = 0) the jet runs
    directly: the line is not blown down, so no lift is needed and the
    half-way differential (expected diag(+-1, 1)) is also reported.  For
    fiber points the final jets, value and Jacobian together, are the
    lift ladder's first limit.
    """
    with mp.workdps(table.dps):
        if cid.j == 0:
            u, v, (mu, mv) = _jet_orbit(table, cid, pt.u, 0)
            # (transverse, along) multipliers: expected (+-1, 1)
            diag = (complex(mv[2]), complex(mu[1]))
        else:
            u, v = next(_lift_ladder(table, lambda eps: _jet_orbit(table, cid, pt.u, eps)[:2]))
            diag = None
        (ua, udx, udy), (va, vdx, vdy) = u.mpc(), v.mpc()
        dev = max(abs(udx - 1), abs(udy), abs(vdx), abs(vdy - 1))
        fix = max(abs(ua - pt.u), abs(va))
    return ParabolicReport(float(dev), float(fix), diag)


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
    return _lifted_transition(table, s, j, xi, ("fiber", table.n - 1 - s, j),
                              lambda jt, P: (P[0], P[2], P[1]), "reversor")
