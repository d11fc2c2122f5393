"""Verification suites aggregating every computable claim about one family
member, producing machine-readable verdicts for the CLI and tests.

The exact suites need only the lattice layer.  The chart-layer suites
import :mod:`surfauto.charts` (and so mpmath) and the fixed-point suite
:mod:`surfauto.dynamics` when they run; a suite that deals its jobs
through fork_map imports them before it forks."""
import contextlib
import math
import os
import pickle
import random
import signal
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactmat as xm
from .errors import ExactIdentityError, ExtrapolationError, PoleError, SurfautoError
from .mapfamily import q_value
from .picard import (
    PicardLattice,
    char_poly_factor_check,
    chi_poly,
    degree_recurrence,
    degree_sequence,
    gamma_closed_form,
    minimality_report,
    pushforward_columns,
    pushforward_det,
    restricted_char_poly,
    spectral_radius,
    strict_image,
    t_space,
)
from .reflections import coxeter_factorization_check, reversibility_check, weyl_factorization_check


@dataclass
class CheckResult:
    id: str
    status: str              # pass | fail | report
    residual: float | None = None
    bound: float | None = None
    detail: str = ""

    def to_json_dict(self):
        return {"id": self.id, "status": self.status, "residual": self.residual,
                "bound": self.bound, "detail": self.detail}


@dataclass
class VerdictReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, cid, ok, residual=None, bound=None, detail=""):
        self.checks.append(CheckResult(cid, "pass" if ok else "fail",
                                       residual, bound, detail))

    def report(self, cid, residual=None, detail=""):
        self.checks.append(CheckResult(cid, "report", residual, None, detail))

    @property
    def overall(self):
        return "pass" if all(c.status != "fail" for c in self.checks) else "fail"

    def to_json_dict(self):
        return {"suite": self.suite, "overall": self.overall,
                "checks": [c.to_json_dict() for c in self.checks]}


def _exact(rep, cid, condition, detail=""):
    rep.add(cid, bool(condition), residual=0.0 if condition else None, detail=detail)


def _sampled(rep, cid, samples, ok, residual=None, bound=None, detail=""):
    """A check over `samples` sample points; one that measured nothing
    fails.  Without a residual it is exact, as in _exact."""
    if not samples:
        rep.add(cid, False, bound=bound, detail="no samples")
    elif residual is None:
        _exact(rep, cid, ok, detail)
    else:
        rep.add(cid, ok, residual=residual, bound=bound, detail=detail)


def fork_map(fn, items):
    """Yield the pieces of fn(x) for each x in items, in item order, with the
    items dealt round-robin between this process and one forked child for
    each further CPU in its affinity mask.

    fn(x) is an iterable of pieces, any number of them (a function of one
    result returns it as the one piece of a tuple, or yields it).  fn must
    be pure: what it changes in a child stays there.  This process runs its
    own items lazily, taking each piece from fn(x) as its consumer asks for
    it.  A child first builds and pickles all of an item's pieces, so that
    it runs a whole item ahead of this process rather than wait on its
    pipe's buffer (64 KiB on Linux), which fills while this process runs
    its own item.  Then it writes into its pipe the item's piece count and
    the exception that stopped fn(x), if one did, then each piece, dropping
    each once it is written, and flushes; after an exception it stops, and
    it leaves with os._exit.  This process reads a child's pieces when that item's
    turn comes, so pieces arrive one at a time and a child's exception is
    raised in its item's place, after every earlier piece.  Memory: the
    generator keeps no reference to a piece once it has yielded it; a child
    holds the pieces of the item it is building or writing.  When the
    generator raises, or is closed before the end (a consumer that may stop
    early, by an error or an interrupt, closes it with contextlib.closing),
    the children still running are killed; every child is reaped before it
    finishes.  With one CPU or one item, or on a platform without
    os.sched_getaffinity (Linux has it, and os.fork), it is the pieces of
    map(fn, items)."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    width = min(cpus, len(items))
    children = []   # (pid, read end of its pipe), in share order, until reaped
    try:
        for share in range(1, width):
            pipe_r, pipe_w = (os.fdopen(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            pid = os.fork()
            if pid == 0:
                pipe_r.close()
                _serve_share(fn, items[share::width], pipe_w)
            pipe_w.close()
            children.append((pid, pipe_r))
        for i, x in enumerate(items):
            if i % width == 0:
                yield from fn(x)
                continue
            child = pid, pipe_r = children[i % width - 1]
            try:
                count, exc = pickle.load(pipe_r)
                for _ in range(count):
                    yield pickle.load(pipe_r)
            except EOFError:    # it exited early; reap it here, the rest below
                children.remove(child)
                pipe_r.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise SurfautoError(f"worker process {pid} exited with status {status} "
                                    "before sending all its results") from None
            if exc is not None:
                raise exc
    finally:
        for pid, pipe_r in children:
            pipe_r.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _serve_share(fn, share, pipe_w):
    """In a forked child: for each x of share, pickle each piece of fn(x)
    as it is made (a piece that cannot be pickled stops fn(x) as its own
    exception would), then write into pipe_w the pieces' count and the
    exception that stopped fn(x) (or None), then each piece, dropping it
    once written; stop after an exception, and exit without returning."""
    status = 1
    try:
        for x in share:
            pieces, exc = [], None
            try:
                for piece in fn(x):
                    pieces.append(pickle.dumps(piece))
            except BaseException as e:  # the parent re-raises it after these pieces
                exc = e
            pipe_w.write(pickle.dumps((len(pieces), exc)))
            pieces.reverse()
            while pieces:
                pipe_w.write(pieces.pop())
            pipe_w.flush()
            if exc is not None:
                break
        pipe_w.close()
        status = 0
    finally:
        os._exit(status)


def lattice_suite(n, k):
    """Exact checks of the lattice model and the induced automorphism."""
    rep = VerdictReport(suite="lattice")
    lat = PicardLattice.build(n, k)
    _exact(rep, "dimension", lat.dim == 1 + n * (2 * k + 1),
           f"dim Pic = {lat.dim}")
    _exact(rep, "negative-definite", lat.s_negative_definite())
    lead, power = lat.s_gram_det_formula()
    det = lat.s_gram_det()
    _exact(rep, "gram-determinant", det is not None and Fraction(det) == lead * power,
           f"det = {det}")
    try:
        K = lat.canonical_class()
        _exact(rep, "canonical-class", True, "both expressions agree")
    except ExactIdentityError:
        rep.add("canonical-class", False)
        K = [-3] + [1] * (lat.dim - 1)
    K_col = xm.sparse(K)
    _exact(rep, "canonical-square", lat.ip(K_col, K_col) == 9 - n * (2 * k + 1))

    F = pushforward_columns(n, k)
    _exact(rep, "isometry", lat.is_isometry(F))
    _exact(rep, "canonical-invariance", xm.col_apply(F, K) == K)
    _exact(rep, "unimodular", pushforward_det(n, k) in (1, -1))
    sigma2 = ("L", n - 1)
    _exact(rep, "exceptional-image",
           xm.col_compose(F, (lat.strict[sigma2],))[0] == lat.strict[strict_image(n, k, sigma2)])

    divides, cofactor, worst = char_poly_factor_check(n, k)
    _exact(rep, "entropy-factor-divides", divides)
    rep.add("cofactor-unit-modulus", worst < 1e-9, residual=worst, bound=1e-9)

    # one sequence: at least ten terms past the recurrence's order 3n
    d = degree_sequence(n, k, max(40, 3 * n + 10))
    _exact(rep, "degree-start", d[0] == 1 and d[1] == k + 1, f"d1 = {d[1]}")
    res = xm.recurrence_residuals(degree_recurrence(n, k), d)
    _exact(rep, "degree-recurrence", res and all(r == 0 for r in res))
    lam = spectral_radius(n, k)
    ratio_err = abs(d[40] / d[39] - lam)
    rep.add("degree-ratio", ratio_err < 1e-6, residual=ratio_err, bound=1e-6)

    ts = t_space(n, k)
    _exact(rep, "line-class-projection",
           all(ts.gamma_coords(lat.strict[("L", s)]) == [-1 if i == s else k for i in range(n)]
               for s in range(n)))
    scale = ts.gram_proportionality()
    _exact(rep, "gamma-gram-proportional", scale is not None,
           f"scale = {scale}")
    cp = restricted_char_poly(n, k)
    _exact(rep, "restricted-charpoly", cp == tuple(chi_poly(n, k)))
    # det(C - I) = (-1)^n cp(1): no class of T is fixed
    _exact(rep, "no-invariant-T-classes", xm.poly_eval(cp, 1) != 0)

    mini = minimality_report(n, k)
    if n > 2:
        _exact(rep, "minimality", all(v <= -2 for v in mini["selfints"].values()))
    else:
        ok = mini["selfints"]["sigma0"] == -1 and \
            all(v <= -2 for v in mini["after_contraction"].values())
        _exact(rep, "minimality-after-contraction", ok)

    if k != 2 * n - 2:
        # t_space(n, k) above raised unless its closed-form checks both hold
        _exact(rep, "gamma-closed-form", True)
        g = gamma_closed_form(n, k)
        mismatches = {key: val for key, val in g["displayed_matches"].items()
                      if not (val[0] or val[1])}
        if mismatches:
            rep.report("gamma-displayed-coefficients",
                       detail="displayed values differ from the exact projection: "
                              + "; ".join(f"{key}: displayed={g['displayed'][key]}, "
                                          f"exact_geometric={g['exact_geometric'][key]}, "
                                          f"exact_strict={g['exact_strict'][key]}"
                                          for key in mismatches))
        else:
            rep.report("gamma-displayed-coefficients", detail="all displayed values match")
    else:
        rep.report("gamma-closed-form", detail="degenerate denominator k = 2n-2; skipped")
    return rep


def compare_transitions(table, jobs):
    """Each transition job (kind, s, j, xi), kind "fiber" or "reversor", as
    (closed form, route through the plane) in python complex, or as the text
    of the PoleError or ExtrapolationError that stopped it; in job order,
    through fork_map."""
    from .charts import (fiber_transition_closed, fiber_transition_numeric,
                         reversor_transition_closed, reversor_transition_numeric)

    def compare(job):
        kind, s, j, xi = job
        closed_form, through_plane = (
            (fiber_transition_closed, fiber_transition_numeric) if kind == "fiber"
            else (reversor_transition_closed, reversor_transition_numeric))
        try:
            _, closed = closed_form(table, s, j, xi)
            _, numeric, _ = through_plane(table, s, j, xi)
        except (PoleError, ExtrapolationError) as exc:
            yield str(exc)
        else:
            yield complex(closed), complex(numeric)

    return list(fork_map(compare, jobs))


def transition_gap(result, tol):
    """The one transition rule, for chart_suite and `surfauto charts`: a
    compare_transitions result as (|closed - numeric| or its error text,
    failed), failed when the job stopped or the difference is not below tol
    (a NaN is not)."""
    gap = result if isinstance(result, str) else abs(result[0] - result[1])
    return gap, isinstance(gap, str) or not gap < tol


def worst_gap(gaps):
    """The residual of transition_gap's gaps, for chart_suite and `surfauto
    charts`: the largest difference, 0.0 when there is none (error texts are
    skipped), and NaN when one difference is NaN, which max would drop."""
    diffs = [g for g in gaps if not isinstance(g, str)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)


def _transition_check(rep, cid, jobs, results, tol):
    """The check `cid` over transition jobs and their results: it passes when
    no job fails transition_gap.  The first failures, as (s, j, difference
    or error text), go in the detail."""
    gaps = [transition_gap(r, tol) for r in results]
    worst = worst_gap(g for g, _ in gaps)
    failures = [(s, j, g) for (_, s, j, _), (g, failed) in zip(jobs, gaps) if failed]
    _sampled(rep, cid, len(jobs), not failures, residual=worst, bound=tol,
             detail=f"failures: {failures[:4]}" if failures else "")


CHART_SEED = 1234


def chart_suite(p, table=None, n_xi=20, tol=1e-6):
    """Numeric verification of the blowup tower: transitions, centers,
    defining series identity, orbit invariants."""
    from .charts import CenterTable, fiber_transition_closed

    rep = VerdictReport(suite="charts")
    table = table or CenterTable.build(p)
    n, k = p.n, p.k

    co = p.coeffs()
    w = [complex(x) for x in table.w]
    ok = abs(w[-1]) < 1e-9
    pair_ok = all(abs(w[j - 1] * w[n - 1 - j - 1] - 1) < 1e-9 for j in range(1, n - 1))
    rep.add("orbit-closure", ok, residual=abs(w[-1]), bound=1e-9)
    _exact(rep, "orbit-pairing", pair_ok)

    b = [complex(x) for x in table.b]
    ok = all(abs(b[i]) < 1e-12 for i in range(k)) and abs(b[k] - 1) < 1e-12
    _exact(rep, "series-low-orders", ok)
    _exact(rep, "series-odd-vanish",
           all(abs(b[i]) < 1e-12 for i in range(1, 2 * k + 1, 2)))
    # q * series = y^k through order 2k (constant and x-linear parts; the
    # x-linear part of the series is x * y^2k)
    rng = random.Random(CHART_SEED)
    worst = 0.0
    for _ in range(5):
        xv = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        yv = complex(rng.uniform(0.05, 0.2))
        series = sum(b[i] * yv ** i for i in range(2 * k + 1)) + xv * yv ** (2 * k)
        prod = complex(q_value(co, xv, yv)) * series
        worst = max(worst, abs(prod - yv ** k) / abs(yv) ** (2 * k + 1))
    rep.add("series-defining-identity", worst < 10.0, residual=worst,
            detail="residual scaled by the truncation order")

    rng = random.Random(CHART_SEED + 1)
    fibers = [("fiber", s, j, complex(rng.uniform(0.3, 2.5), rng.uniform(-0.8, 0.8)))
              for s in range(n) for j in range(1, 2 * k + 2) for _ in range(n_xi)]
    entry = [("fiber", "sigma2", None, 0.37)]   # entry coordinate of the contracted line
    # the reversor's action on middle-limb fibers
    reversor = [("reversor", s, j, 1.37 - 0.21j)
                for s in range(1, n - 1) for j in (1, 2, min(3, 2 * k + 1))]
    m = len(fibers)
    results = compare_transitions(table, fibers + entry + reversor)
    _transition_check(rep, "fiber-transitions", fibers, results[:m], tol)
    _transition_check(rep, "contracted-line-entry", entry, results[m:m + 1], tol)

    # centers propagate and the nonzero ones close up over the limb cycle
    worst = 0.0
    for s in range(n - 1):
        for j in range(2, 2 * k + 1):
            tgt, val = fiber_transition_closed(table, s, j, table.beta[(s, j)])
            _, s2, j2 = tgt
            if j2 <= 2 * k:
                worst = max(worst, abs(complex(val) - complex(table.beta[(s2, j2)])))
    rep.add("center-propagation", worst < 1e-12, residual=worst, bound=1e-12)
    worst = 0.0
    for j in range(k + 1, 2 * k, 2):
        cur = table.b[j - 1]
        s = 0
        for _ in range(n - 1):
            tgt, cur = fiber_transition_closed(table, s, j, cur)
            s = tgt[1]
        worst = max(worst, abs(complex(cur) - complex(table.b[j - 1])))
    rep.add("center-cycle-closure", worst < 1e-8, residual=worst, bound=1e-8)

    # full-cycle identity on every fiber of the scheme
    worst = 0.0
    for j in range(2, 2 * k + 1):
        xi0 = 1.43 + 0.29j
        s, jj, val = 0, j, xi0
        for _ in range(2 * n):
            tgt, val = fiber_transition_closed(table, s, jj, val)
            _, s, jj = tgt
        worst = max(worst, abs(complex(val) - xi0)) if (s, jj) == (0, j) else float("inf")
    rep.add("cycle-identity", worst < 1e-8, residual=worst, bound=1e-8)

    if reversor:
        _transition_check(rep, "reversor-fiber-action", reversor, results[m + 1:], tol)
    return rep


def factorization_suite(n, k):
    """Exact reflection-group identities."""
    rep = VerdictReport(suite="factorizations")
    weyl = weyl_factorization_check(n, k)
    if weyl["literal_identity"]:
        _exact(rep, "weyl-factorization", True,
               f"literal form holds: {weyl['matched_variant']}")
    else:
        repaired = weyl["repaired"]
        _exact(rep, "weyl-factorization", repaired is not None and repaired["verified"],
               f"literal form fails; repaired chain of {repaired['reflection_count']} "
               f"reflections verified exactly")
        rep.report("weyl-literal-discrepancy",
                   detail="the stated k/2+1 reflection count is k=2 specific; "
                          f"the verified factorization uses {repaired['reflection_count']}")
    cox = coxeter_factorization_check(n, k)
    _exact(rep, "coxeter-element", cox["identity"], f"order: {cox['order']}")
    _exact(rep, "cartan-matrix", cox["cartan_ok"])
    _exact(rep, "last-reflection-column", cox["rho_last_column_ok"])
    _exact(rep, "reflections-involutive", cox["involutions_ok"])
    _exact(rep, "coxeter-charpoly", cox["char_poly_ok"])
    rev = reversibility_check(n, k)
    _exact(rep, "reversor-involution", rev["involution"])
    _exact(rep, "reversor-conjugates-inverse", rev["conjugates_to_inverse"])
    if n == 2:
        _exact(rep, "infinite-dihedral", rev["dihedral"])
    return rep


FIX_TOL = 1e-8   # |f^(2n)(pt) - pt| in chart coordinates
DEV_TOL = 1e-6   # max |Df^(2n) - Id| entrywise


def parabolic_suite(p, table=None, points_per_fiber=10):
    """Tangent-to-identity checks on the invariant line and the interior
    fibers; the excluded top fibers are measured and reported only."""
    from .charts import CenterTable, ChartId, ChartPoint, parabolic_check, parabolic_levels

    rep = VerdictReport(suite="parabolic")
    table = table or CenterTable.build(p)
    n, k = p.n, p.k
    rng = random.Random(5150)
    line = [(ChartId(0, 0), ChartPoint(rng.uniform(0.3, 1.8) * rng.choice([1, -1]), 0.0))
            for _ in range(points_per_fiber)]
    levels = parabolic_levels(k)
    fibers = [(ChartId(s, j), ChartPoint(complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5)),
                                         0.0))
              for j in levels for s in range(n) for _ in range(points_per_fiber)]
    # outside the configuration: measured, not required
    outside = [(ChartId(0, 2 * k + 1), ChartPoint(0.9, 0.0)),
               (ChartId(0, 2), ChartPoint(0.9, 0.0))]
    reports = list(fork_map(lambda job: (parabolic_check(table, *job),),
                            line + fibers + outside))

    worst_dev, worst_fix, diag_ok = 0.0, 0.0, True
    for r in reports[:len(line)]:
        worst_dev = max(worst_dev, r.max_deviation)
        worst_fix = max(worst_fix, r.fix_residual)
        if r.diag_n is None:
            diag_ok = False
        else:
            dt, da = r.diag_n
            diag_ok = diag_ok and min(abs(dt - 1), abs(dt + 1)) < DEV_TOL \
                and abs(da - 1) < DEV_TOL
    _sampled(rep, "invariant-line-fixed", len(line), worst_fix < FIX_TOL,
             residual=worst_fix, bound=FIX_TOL)
    _sampled(rep, "invariant-line-tangent", len(line), worst_dev < DEV_TOL,
             residual=worst_dev, bound=DEV_TOL)
    _sampled(rep, "invariant-line-half-diagonal", len(line), diag_ok)

    worst_dev, worst_fix = 0.0, 0.0
    bad = []
    for (cid, _), r in zip(fibers, reports[len(line):]):
        worst_dev = max(worst_dev, r.max_deviation)
        worst_fix = max(worst_fix, r.fix_residual)
        if r.max_deviation >= DEV_TOL or r.fix_residual >= FIX_TOL:
            bad.append((cid.s, cid.j))
    _sampled(rep, "fibers-fixed", len(fibers), worst_fix < FIX_TOL, residual=worst_fix,
             bound=FIX_TOL)
    _sampled(rep, "fibers-tangent", len(fibers), worst_dev < DEV_TOL, residual=worst_dev,
             bound=DEV_TOL, detail=f"failing fibers: {sorted(set(bad))}" if bad else "")

    top, level2 = reports[-2:]
    rep.report("top-fiber-outside-configuration", residual=top.max_deviation,
               detail=f"fix residual {top.fix_residual:.3e}")
    rep.report("level-2-transverse-multiplier", residual=level2.max_deviation,
               detail=f"fixed pointwise to {level2.fix_residual:.3e}, not tangent")
    return rep


def fixed_point_suite(p):
    """Fixed points, multipliers, and the parameter-dependence rank."""
    from .dynamics import fixed_points, jacobian, trace_map_rank

    rep = VerdictReport(suite="fixed-points")
    recs = fixed_points(p)
    _exact(rep, "count", sum(r.multiplicity for r in recs) == p.k + 1,
           f"{len(recs)} distinct")
    # fixed_points measured each |f(zeta) - zeta| relative to f's largest
    # term there, and raised on one above 1e-10
    worst = max(r.residual for r in recs)
    rep.add("residuals", worst < 1e-10, residual=worst, bound=1e-10)
    worst = 0.0
    for r in recs:
        J = jacobian(p, (r.zeta, r.zeta))
        det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
        worst = max(worst, abs(det - 1))
    rep.add("jacobian-determinant", worst < 1e-9, residual=worst, bound=1e-9)

    if (p.n, p.k) == (2, 4) and abs(complex(p.coeffs().c)) < 1e-12 \
            and abs(complex(p.a.get(2, 0)) + 2.64) < 1e-12:
        real = [r for r in recs if abs(r.zeta.imag) < 1e-9]
        kinds = sorted(r.type for r in real)
        _exact(rep, "real-census", len(real) == 3 and kinds == ["elliptic", "saddle", "saddle"],
               f"{len(real)} real: {kinds}")

    if not any(p.a.values()) and p.k in (4, 6):
        rank, agree = trace_map_rank(p)
        rep.add("trace-rank", rank == p.k // 2 - 1, residual=float(rank),
                detail=f"rank {rank}, expected {p.k // 2 - 1}")
        rep.add("trace-rank-fd-agreement", agree < 1e-5, residual=agree, bound=1e-5)
    return rep

