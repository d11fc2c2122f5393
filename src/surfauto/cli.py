"""Command-line interface: verification suites and data emission.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or configuration error, 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE stopped) when the reader of standard output went
away, which ends the command without a traceback.  All numeric output uses
fixed digit counts so identical configurations produce byte-identical
files.

Each command imports the layer it runs when it runs: the exact-layer
commands (spectrum, degrees, weyl, cn) load no mpmath, verify, charts
and parabolic load the chart layer (mpmath), and the plane dynamics
(fixed-points, orbit, unstable, and verify's fixed-point suite) load
surfauto.dynamics, which computes in Python floats and complex numbers.
A command that deals jobs to forked children through fork_map imports
their code before it forks.
"""

import argparse
import functools
import json
import math
import os
import random
import sys
from contextlib import closing, nullcontext
from pathlib import Path

from .errors import ParamError, SurfautoError
from .mapfamily import MapParams, _json_float, admissible_c
from .picard import (
    char_poly_factor_check,
    chi_poly,
    degree_sequence,
    pushforward_char_poly,
    spectral_radius,
)
from .reflections import coxeter_factorization_check, reversibility_check, weyl_factorization_check
from .verify import (chart_suite, compare_transitions, factorization_suite, fixed_point_suite,
                     fork_map, lattice_suite, parabolic_suite)

USAGE_ERROR = 2
CHECK_FAILURE = 1
READER_GONE = 141


def _fmt(x):
    return f"{x:.12f}"


def _fmt_complex(z):
    z = complex(z)
    return [float(_fmt(z.real)), float(_fmt(z.imag))]


def _poly_str(coeffs):
    return [str(c) for c in coeffs]


def _write_json(payload, path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _check_out(out):
    """A file at --out or on the way to it is a usage error, raised before
    the command runs and so before it makes anything."""
    nearest = next(path for path in (Path(out), *Path(out).parents) if path.exists())
    if not nearest.is_dir():
        raise ParamError(f"--out {out}: {nearest} is not a directory")


def _out_path(args, name):
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return Path(args.out) / name
    return None


def _load_params(path):
    try:
        return MapParams.load(path)
    except (OSError, ValueError) as exc:
        raise ParamError(f"cannot read parameter file: {exc}") from exc


def _nk_from(args):
    """(n, k) for the commands that read nothing else of a member: each of
    --n and --k overrides its value in the --params file."""
    n, k = args.n, args.k
    if args.params:
        p = _load_params(args.params)
        n = p.n if n is None else n
        k = p.k if k is None else k
    if n is None or k is None:
        raise ParamError("need --params or both --n and --k")
    return n, k


def _params_from(args):
    """The member the flags describe: each flag that is given overrides its
    value in the --params file; without a file c defaults to 2cos(pi/n)."""
    if args.params:
        p = _load_params(args.params)
        d = p.to_json_dict()
    elif args.n is None or args.k is None:
        raise ParamError("need --params or both --n and --k")
    else:
        p, d = None, {"c": {"j": 1, "sign": "+"}}
    original = dict(d)
    if args.n is not None:
        d["n"] = args.n
    if args.k is not None:
        d["k"] = args.k
    if args.c_j is not None or args.c_sign:
        c = d["c"]
        d["c"] = {"j": c["j"] if args.c_j is None else args.c_j,
                  "sign": args.c_sign or c["sign"]}
    if args.a:
        d["a"] = _parse_a(args.a)
    return p if d == original else MapParams.from_json_dict(d)


def _parse_a(items):
    """The --a items idx=re[,im] as {"idx": [re, im]}; anything else is a
    usage error."""
    out = {}
    for item in items:
        idx, _, val = item.partition("=")
        try:
            l = int(idx)
        except ValueError:
            raise ParamError(f"--a expects idx=re[,im], got {item!r}") from None
        if str(l) in out:
            raise ParamError(f"--a gives a_{l} twice")
        parts = val.split(",")
        try:
            re_part, im_part = map(float, parts if len(parts) == 2 else parts + ["0"])
        except ValueError:
            raise ParamError(f"--a expects re[,im], got {val!r}") from None
        out[str(l)] = [re_part, im_part]
    return out


def _non_negative(value, flag):
    if not 0 <= value < math.inf:
        raise ParamError(f"{flag} must be finite and >= 0, got {value}")
    return value


def _positive(value, flag):
    if value < 1:
        raise ParamError(f"{flag} must be >= 1, got {value}")
    return value


def _check_line(c):
    """One check of a verdict report as `[status] id residual=... detail`."""
    res = "" if c.residual is None else f" residual={c.residual:.3e}"
    return f"[{c.status}] {c.id}{res} {c.detail}".rstrip()


# -- subcommands ------------------------------------------------------------------


def cmd_spectrum(args):
    n, k = _nk_from(args)
    chi = chi_poly(n, k)
    lam = spectral_radius(n, k)
    cp = pushforward_char_poly(n, k)
    divides, cofactor, worst = char_poly_factor_check(n, k)
    payload = {
        "n": n, "k": k,
        "entropy_polynomial": _poly_str(chi),
        "lambda": _fmt(lam),
        "entropy": _fmt(math.log(lam)),
        "char_poly": _poly_str(cp),
        "cofactor": _poly_str(cofactor),
        "cofactor_roots_unit_modulus_residual": _fmt(worst),
    }
    print(f"lambda = {_fmt(lam)}")
    print(f"entropy = {_fmt(math.log(lam))}")
    path = _out_path(args, f"spectrum_{n}_{k}.json")
    if path:
        _write_json(payload, path)
    return 0


def cmd_cn(args):
    vals = admissible_c(args.n)
    print(", ".join(f"{v:.11f}" for v in vals))
    path = _out_path(args, f"cn_{args.n}.json")
    if path:
        _write_json({"n": args.n, "c": [f"{v:.11f}" for v in vals]}, path)
    return 0


def cmd_verify(args):
    from .charts import CenterTable

    tol = _non_negative(args.tol, "--tol")
    n_xi = _positive(args.n_xi, "--n-xi")
    points = _positive(args.points, "--points")
    p = _params_from(args)
    table = CenterTable.build(p)
    suites = [
        lattice_suite(p.n, p.k),
        chart_suite(p, table=table, n_xi=n_xi, tol=tol),
        factorization_suite(p.n, p.k),
        parabolic_suite(p, table=table, points_per_fiber=points),
        fixed_point_suite(p),
    ]
    payload = {"params": p.to_json_dict(),
               "suites": [s.to_json_dict() for s in suites]}
    overall = all(s.overall == "pass" for s in suites)
    payload["overall"] = "pass" if overall else "fail"
    for s in suites:
        print(f"{s.suite}: {s.overall}")
        for c in s.checks:
            if c.status != "pass":
                print("  " + _check_line(c))
    _write_json(payload, _out_path(args, "verify.json"))
    return 0 if overall else CHECK_FAILURE


def cmd_fixed_points(args):
    from .dynamics import fixed_points

    p = _params_from(args)
    recs = fixed_points(p)
    rows = [{
        "zeta": _fmt_complex(r.zeta),
        "trace": _fmt_complex(r.trace),
        "eigenvalues": [_fmt_complex(e) for e in r.eigenvalues],
        "type": r.type,
        "multiplicity": r.multiplicity,
    } for r in recs]
    payload = {"params": p.to_json_dict(), "fixed_points": rows,
               "real_count": sum(1 for r in recs if abs(r.zeta.imag) < 1e-9)}
    print(f"{len(recs)} fixed points, {payload['real_count']} real")
    for row in rows:
        print(f"  {row['type']:9s} zeta={row['zeta']} trace={row['trace']}")
    if args.format == "csv":
        lines = ["type,zeta_re,zeta_im,trace_re,trace_im,multiplicity"]
        for row in rows:
            lines.append(f"{row['type']},{row['zeta'][0]},{row['zeta'][1]},"
                         f"{row['trace'][0]},{row['trace'][1]},{row['multiplicity']}")
        text = "\n".join(lines) + "\n"
        path = _out_path(args, "fixed_points.csv")
        if path:
            path.write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    path = _out_path(args, "fixed_points.json")
    if path:
        _write_json(payload, path)
    return 0


def _load_seeds(args, p):
    if args.seeds:
        try:
            data = json.loads(Path(args.seeds).read_text())
        except (OSError, ValueError) as exc:
            raise ParamError(f"cannot read seed file: {exc}") from exc
        if not isinstance(data, list):
            raise ParamError(f"cannot read seed file {args.seeds}: expected a list of [x, y] seeds")
        if not data:
            raise ParamError(f"no seeds in {args.seeds}")
        seeds = []
        for s in data:
            x, y = s if isinstance(s, list) and len(s) == 2 else (None, None)
            try:
                seeds.append((_json_float(x, "x"), _json_float(y, "y")))
            except ParamError:
                raise ParamError(f"each seed must be [x, y] with finite numbers x and y, "
                                 f"got {s!r}") from None
        return seeds
    from .dynamics import fixed_points

    recs = [r for r in fixed_points(p) if r.type == "elliptic"]
    if recs:
        z = recs[0].zeta.real
        return [(z + 1e-3 * i, z + 1.3e-3 * i) for i in range(1, 6)]
    return [(0.1, 0.1)]


ORBIT_BLOCK = 4096  # CSV rows per block of bytes an orbit job yields


def _orbit_rows(p, sid, seed, steps):
    """Yield the orbit of seed `sid` as its CSV rows, ASCII bytes, in blocks
    of ORBIT_BLOCK rows, then as the pair of its status and row count.
    Each block is stepped by one iterate_orbit from the point the block
    before stopped at, formatted and yielded before the next is stepped, so
    the job holds one block's floats or bytes, never the whole orbit or the
    seed's text.  A block's numbers are formatted by one bytes `%`
    (``%.15e``) when the orbit is real; bytes `%` has no complex conversion,
    so a complex orbit's are formatted by one `str.format` (``{:.15e}``,
    the same text for a float) and encoded.  One bytes `%` builds the
    block's (step, x, y) rows."""
    from .dynamics import iterate_orbit

    start, pt = 0, seed
    row = b"%d,%%d,%%s,%%s\n" % sid
    while pt is not None:
        orb = iterate_orbit(p, pt, min(ORBIT_BLOCK, steps - start))
        seq, status = orb.seq, orb.status
        # all ORBIT_BLOCK steps taken: the last point is the next block's first row
        full = len(seq) - 2 == ORBIT_BLOCK
        rows = len(seq) - 1 - full
        # row start + i is (seq[i], seq[i+1]); iterate_orbit keeps a real orbit all floats
        if isinstance(seq[0], float):
            txt = (b"%.15e," * (rows + 1) % tuple(seq[:rows + 1])).split(b",")
        else:
            txt = ("{:.15e}," * (rows + 1)).format(*seq[:rows + 1]).encode().split(b",")
        cells = [None] * (3 * rows)
        cells[0::3] = range(start, start + rows)
        cells[1::3] = txt[:rows]
        cells[2::3] = txt[1:rows + 1]
        block = row * rows % tuple(cells)
        pt = (seq[-2], seq[-1]) if full else None
        start += rows
        del orb, seq, txt, cells  # not kept while the block is written
        yield block
        del block  # written: not kept while the next block is stepped
    yield status, start


def cmd_orbit(args):
    """Write the CSV rows of each seed's orbit, as bytes, to orbits.csv in
    --out or else, decoded, to standard output, then print each seed's
    status."""
    from . import dynamics  # imported here, before fork_map forks, not in each child

    steps = _non_negative(args.steps, "--steps")
    p = _params_from(args)
    seeds = _load_seeds(args, p)
    path = _out_path(args, "orbits.csv")
    statuses = []
    rows = 0
    # the header is still in the file's BufferedWriter or in stdout's buffer
    # when fork_map forks: its children leave through os._exit, so they never
    # flush it
    with open(path, "wb") if path else nullcontext() as fh, \
            closing(fork_map(lambda job: _orbit_rows(p, *job, steps),
                             enumerate(seeds))) as pieces:
        write = fh.write if path else (lambda data: sys.stdout.write(data.decode()))
        write(b"seed_id,step,x,y\n")
        # each seed's blocks of rows, written as they arrive, then its status and row count
        for piece in pieces:
            if isinstance(piece, bytes):
                write(piece)
            else:
                statuses.append(piece[0])
                rows += piece[1]
            del piece  # not kept while the next block is stepped or read
    if path:
        print(f"wrote {path} ({rows} rows)")
    print(json.dumps({"statuses": dict(enumerate(statuses))}, sort_keys=True))
    return 0


def cmd_unstable(args):
    if not (0 < args.arclen < math.inf and 0 < args.spacing < math.inf):
        raise ParamError(f"--arclen and --spacing must be finite and > 0, "
                         f"got {args.arclen} and {args.spacing}")
    from .dynamics import fixed_points, unstable_manifold

    p = _params_from(args)
    saddles = [r for r in fixed_points(p) if r.type == "saddle"]
    if not saddles:
        print("error: no real saddle fixed points", file=sys.stderr)
        return USAGE_ERROR
    payload = {"params": p.to_json_dict(), "manifolds": []}
    for r in saddles:
        line = unstable_manifold(p, r, arclen=args.arclen, spacing=args.spacing)
        payload["manifolds"].append({
            "meta": {key: (float(v) if isinstance(v, (int, float)) else v)
                     for key, v in line.meta.items()},
            "points": [[float(f"{x:.15e}"), float(f"{y:.15e}")] for x, y in line.points],
        })
        print(f"saddle at {r.zeta.real:.12f}: {len(line.points)} points, "
              f"arclength {line.arclength[-1]:.3f}, stop {line.stop}")
    path = _out_path(args, "unstable.json")
    if path:
        _write_json(payload, path)
    return 0


def cmd_charts(args):
    from .charts import CenterTable
    from .verify import transition_gap, worst_gap

    tol = _non_negative(args.tol, "--tol")
    p = _params_from(args)
    rng = random.Random(314)
    jobs = [("fiber", s, j, complex(rng.uniform(0.4, 2.0), rng.uniform(-0.6, 0.6)))
            for s in range(p.n) for j in range(1, 2 * p.k + 2)]
    records, gaps = [], []
    ok = True
    for (_, s, j, xi), result in zip(jobs, compare_transitions(CenterTable.build(p), jobs)):
        rec = {"chart": [s, j], "xi": _fmt_complex(xi)}
        gap, failed = transition_gap(result, tol)
        ok = ok and not failed
        gaps.append(gap)
        if isinstance(gap, str):
            rec["error"] = gap
        else:
            closed, numeric = result
            rec.update(closed=_fmt_complex(closed), numeric=_fmt_complex(numeric),
                       abs_err=float(f"{gap:.3e}"))
        records.append(rec)
    worst = worst_gap(gaps)
    payload = {"params": p.to_json_dict(), "records": records,
               "worst": float(f"{worst:.3e}"), "overall": "pass" if ok else "fail"}
    print(f"{len(records)} transitions, worst |closed - numeric| = {worst:.3e}")
    _write_json(payload, _out_path(args, "charts.json"))
    return 0 if ok else CHECK_FAILURE


def cmd_parabolic(args):
    points = _positive(args.points, "--points")
    p = _params_from(args)
    rep = parabolic_suite(p, points_per_fiber=points)
    for c in rep.checks:
        print(_check_line(c))
    _write_json(rep.to_json_dict(), _out_path(args, "parabolic.json"))
    return 0 if rep.overall == "pass" else CHECK_FAILURE


def cmd_weyl(args):
    n, k = _nk_from(args)
    weyl = weyl_factorization_check(n, k)
    cox = coxeter_factorization_check(n, k)
    rev = reversibility_check(n, k)
    repaired = weyl["repaired"]
    verdict = {
        "literal_identity": weyl["literal_identity"],
        "repaired_phi": None if repaired is None else {
            "reflection_triples": [[list(t) for t in triple]
                                   for triple in repaired["reflection_triples"]],
            "residual_permutation": [[list(x) for x in cyc]
                                     for cyc in repaired["residual_permutation"]],
            "reflection_count": repaired["reflection_count"],
        },
        "coxeter_identity": cox["identity"],
        "dihedral": rev["conjugates_to_inverse"],
    }
    _write_json(verdict, _out_path(args, f"weyl_{n}_{k}.json"))
    ok = (weyl["literal_identity"] or (repaired and repaired["verified"])) \
        and cox["identity"] and verdict["dihedral"]
    return 0 if ok else CHECK_FAILURE


def cmd_degrees(args):
    m = _non_negative(args.m, "--m")
    n, k = _nk_from(args)
    d = degree_sequence(n, k, m)
    lam = spectral_radius(n, k)
    ratio = d[m] / d[m - 1] if m >= 1 else float("nan")
    payload = {"n": n, "k": k, "degrees": [str(x) for x in d],
               "ratio": _fmt(ratio), "lambda": _fmt(lam)}
    print("d =", ", ".join(str(x) for x in d[: min(len(d), 12)]),
          "..." if len(d) > 12 else "")
    print(f"growth ratio d_{m}/d_{m-1} = {_fmt(ratio)} (lambda = {_fmt(lam)})")
    path = _out_path(args, f"degrees_{n}_{k}.json")
    if path:
        _write_json(payload, path)
    return 0


# each subcommand registers only the flags it reads
_FLAGS = {
    "--n": {"type": int},
    "--k": {"type": int},
    "--c-j": {"dest": "c_j", "type": int},
    "--c-sign": {"dest": "c_sign", "choices": ["+", "-"]},
    "--a": {"action": "append", "help": "coefficient as idx=re[,im]; repeatable"},
    "--params": {"help": "JSON parameter file"},
    "--out": {"help": "output directory"},
}
_MEMBER_FLAGS = tuple(_FLAGS)                      # one member of the family
_NK_FLAGS = ("--n", "--k", "--params", "--out")    # its (n, k) only


@functools.cache
def build_parser():
    """The surfauto parser, built on the first call and shared."""
    ap = argparse.ArgumentParser(prog="surfauto",
                                 description="rational surface automorphism toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help, flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    add("spectrum", cmd_spectrum, "entropy data for (n, k)", _NK_FLAGS)

    sp = add("cn", cmd_cn, "admissible rotation parameters for n", ("--out",))
    sp.add_argument("--n", type=int, required=True)

    sp = add("verify", cmd_verify, "run all verification suites", _MEMBER_FLAGS)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--n-xi", dest="n_xi", type=int, default=20)

    sp = add("fixed-points", cmd_fixed_points, "fixed points and multipliers", _MEMBER_FLAGS)
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = add("orbit", cmd_orbit, "forward orbits to CSV", _MEMBER_FLAGS)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--seeds", help="JSON file with [[x, y], ...]")

    sp = add("unstable", cmd_unstable, "trace unstable manifolds of real saddles", _MEMBER_FLAGS)
    sp.add_argument("--arclen", type=float, default=20.0)
    sp.add_argument("--spacing", type=float, default=0.05)

    sp = add("charts", cmd_charts, "fiber transitions: closed vs numeric", _MEMBER_FLAGS)
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = add("parabolic", cmd_parabolic, "tangent-to-identity suite", _MEMBER_FLAGS)
    sp.add_argument("--points", type=int, default=10)

    add("weyl", cmd_weyl, "reflection factorization verdict", _NK_FLAGS)

    sp = add("degrees", cmd_degrees, "degree growth sequence", _NK_FLAGS)
    sp.add_argument("--m", type=int, default=20)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout now writes to os.devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return READER_GONE
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SurfautoError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
