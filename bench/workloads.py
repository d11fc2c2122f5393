"""One benchmark process: set up a workload, run one pass over it, gate it.

Started by ``run.py`` in a fresh interpreter, with ``src`` on PYTHONPATH and
the BLAS/OpenMP thread counts set to 1.  Protocol on standard output:

    @@ready                  -- surfauto is imported and the inputs exist
    @@speed {json}           -- reference-kernel timings taken right after set-up
    @@result {json}          -- after the pass (omitted with --setup-only)

Anything else on standard output is ignored.  The CLI is called in this
process through ``surfauto.cli.main``, with its standard output captured.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

# The figure-1 instance (demos/figure1.json) and the (3,4) desk instance.
FIGURE1 = {"n": 2, "k": 4, "c": {"j": 1, "sign": "+"}, "a": {"2": [-2.64, 0.0]},
           "delta": [1.0, 0.0]}
DESK34 = {"n": 3, "k": 4, "c": {"j": 1, "sign": "+"}, "a": {"2": [0.4, 0.0]},
          "delta": [1.0, 0.0]}
EXACT_NK = (4, 6)
DEGREES_M = 40
ORBIT_SEEDS = 20
ORBIT_STEPS = 50_000
ORBIT_RADIUS = 0.05
ARCLEN = 20.0          # the default arclength of surfauto unstable


# -- host speed ----------------------------------------------------------------------
# The host is shared and its speed drifts by tens of percent within a minute.
# A fixed pure-Python kernel, timed right after set-up and every
# PROBE_INTERVAL_S during a pass, measures the speed the program ran at;
# run.py rescales times to a fixed reference speed with it.

PROBE_INTERVAL_S = 0.05
SETUP_PROBES = 40


def reference_kernel():
    """Fixed work independent of surfauto: small-integer Fraction arithmetic
    in the interpreter, about 0.4 ms."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


def time_kernel():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel on SIGALRM every PROBE_INTERVAL_S of wall
    time while active; the samples include the kernel's own time, which the
    caller subtracts from the pass."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# -- inputs ----------------------------------------------------------------------


def elliptic_fixed_point(params):
    """The real elliptic fixed point of a delta = 1 parameter file, found
    here with numpy and without surfauto: x = y = z solves
    (2 - c) z^(k+1) - sum a_l z^(k-l) - 1 = 0, and the fixed point is
    elliptic when |trace Df| < 2."""
    k = params["k"]
    sign = 1 if params["c"]["sign"] == "+" else -1
    c = sign * 2 * math.cos(math.pi * params["c"]["j"] / params["n"])
    a = {int(l): v[0] for l, v in params["a"].items()}
    coeffs = [2 - c] + [0.0] * k + [-1.0]
    for l, al in a.items():
        coeffs[l + 1] = -al
    found = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-9:
            continue
        z = z.real
        trace = c - sum(l * al / z ** (l + 1) for l, al in a.items()) - k / z ** (k + 1)
        if abs(trace) < 2:
            found.append(z)
    if len(found) != 1:
        raise ValueError(f"expected one real elliptic fixed point, found {found}")
    return found[0]


def orbit_seeds(seed, center):
    """ORBIT_SEEDS points drawn uniformly within ORBIT_RADIUS of (center, center)."""
    rng = random.Random(seed)
    return [[center + rng.uniform(-ORBIT_RADIUS, ORBIT_RADIUS),
             center + rng.uniform(-ORBIT_RADIUS, ORBIT_RADIUS)] for _ in range(ORBIT_SEEDS)]


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return str(path)


def setup_inputs(workload, seed, work):
    """Write the workload's input files into ``work``; return what the pass needs."""
    if workload == "verify-desk":
        return {"figure1": write_json(work / "figure1.json", FIGURE1),
                "desk-3-4": write_json(work / "desk34.json", DESK34)}
    if workload == "exact-scale":
        return {}
    if workload == "dynamics-figure1":
        seeds = orbit_seeds(seed, elliptic_fixed_point(FIGURE1))
        return {"params": write_json(work / "figure1.json", FIGURE1),
                "seeds_file": write_json(work / "seeds.json", seeds), "seeds": seeds}
    raise ValueError(f"unknown workload {workload!r}")


# -- one pass --------------------------------------------------------------------


class Pass:
    """Runs the calls of one workload pass and records their raw results."""

    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer

    def call(self, fn, *args, span=None):
        """Call ``fn(*args)`` with standard output captured, as a span named
        ``span`` when tracing; an exception is recorded as the call's
        failure, not raised."""
        buf = io.StringIO()
        record = {"value": None, "error": None}
        try:
            with contextlib.redirect_stdout(buf):
                if self.tracer is not None and span is not None:
                    record["value"] = self.tracer.run_span(span, fn, args)
                else:
                    record["value"] = fn(*args)
        except Exception as exc:  # the gate reports it as a failed operation
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["stdout"] = buf.getvalue()
        return record

    def cli(self, name, argv):
        from surfauto import cli
        out = self.work / "out" / name
        rec = self.call(cli.main, argv + ["--out", str(out)], span=f"cli.{argv[0]}")
        rec["out"] = out
        return rec


def run_verify_desk(ps, inputs):
    return {name: ps.cli(name, ["verify", "--params", inputs[name]])
            for name in ("figure1", "desk-3-4")}


def run_exact_scale(ps, inputs):
    from surfauto import verify
    n, k = EXACT_NK
    return {
        "lattice": ps.call(verify.lattice_suite, n, k),
        "factorizations": ps.call(verify.factorization_suite, n, k),
        "spectrum": ps.cli("spectrum", ["spectrum", "--n", str(n), "--k", str(k)]),
        "degrees": ps.cli("degrees", ["degrees", "--n", str(n), "--k", str(k),
                                      "--m", str(DEGREES_M)]),
    }


def run_dynamics(ps, inputs):
    params = inputs["params"]
    return {
        "fixed-points": ps.cli("fixed-points", ["fixed-points", "--params", params]),
        "unstable": ps.cli("unstable", ["unstable", "--params", params]),
        "orbit": ps.cli("orbit", ["orbit", "--params", params, "--steps", str(ORBIT_STEPS),
                                  "--seeds", inputs["seeds_file"]]),
    }


RUNNERS = {"verify-desk": run_verify_desk, "exact-scale": run_exact_scale,
           "dynamics-figure1": run_dynamics}


# -- correctness gate --------------------------------------------------------------
# Each operation is (name, ok, reason).  An operation fails when its status is
# fail, its call exits nonzero or raises, or its output fails the check.

MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError)


def call_failure(rec):
    if rec["error"]:
        return rec["error"]
    if rec["value"] != 0:
        return f"exit code {rec['value']}"
    return None


def checked_op(name, rec, check):
    """One operation for one CLI call: ``check(rec)`` returns None or the
    reason the output is wrong."""
    why = call_failure(rec)
    if not why:
        try:
            why = check(rec)
        except MALFORMED as exc:
            why = f"malformed output: {type(exc).__name__}: {exc}"
    return (name, not why, why or "")


def verdict_ops(prefix, suites, expected):
    """One operation per expected verdict check: same status as at the seed
    commit, and a pass residual within its stated bound.  A check the seed
    commit did not have may not fail, so a suite whose expected checks all
    pass or report also has ``overall == "pass"``."""
    got = {s["suite"]: {c["id"]: c for c in s["checks"]} for s in suites}
    ops = []
    for suite, checks in expected.items():
        for cid, status in checks.items():
            name = f"{prefix}:{suite}:{cid}"
            c = got.get(suite, {}).get(cid)
            if c is None:
                ops.append((name, False, "check missing"))
            elif c["status"] != status:
                ops.append((name, False, f"status {c['status']}, expected {status}"))
            elif (c["status"] == "pass" and c["residual"] is not None and c["bound"] is not None
                  and not c["residual"] <= c["bound"]):
                ops.append((name, False, f"residual {c['residual']} above bound {c['bound']}"))
            else:
                ops.append((name, True, ""))
    for suite, checks in got.items():
        for cid, c in checks.items():
            if cid not in expected.get(suite, {}) and c["status"] == "fail":
                ops.append((f"{prefix}:{suite}:{cid}", False, "new check fails"))
    return ops


def suite_ops(prefix, expected, failure, read_suites):
    """verdict_ops on ``read_suites()``; every expected check fails instead
    when the call failed or its output is malformed."""
    if not failure:
        try:
            return verdict_ops(prefix, read_suites(), expected)
        except MALFORMED as exc:
            failure = f"malformed output: {type(exc).__name__}: {exc}"
    return [(f"{prefix}:{suite}:{cid}", False, failure)
            for suite, checks in expected.items() for cid in checks]


def load_json(path):
    return json.loads(Path(path).read_text())


def gate_verify_desk(calls, inputs, expected):
    return [op for name, rec in calls.items()
            for op in suite_ops(name, expected[name], call_failure(rec),
                                lambda: load_json(rec["out"] / "verify.json")["suites"])]


def entropy_lambda(n, k):
    """Largest root of 1 - k (x + ... + x^(n-1)) + x^n, computed here with numpy."""
    coeffs = [1] + [-k] * (n - 1) + [1]
    return max(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)


def gate_exact_scale(calls, inputs, expected):
    ops = []
    for suite in ("lattice", "factorizations"):
        rec = calls[suite]
        ops += suite_ops("suites-4-6", {suite: expected["suites-4-6"][suite]}, rec["error"],
                         lambda: [rec["value"].to_json_dict()])
    n, k = EXACT_NK
    lam = entropy_lambda(n, k)

    def spectrum(rec):
        payload = load_json(rec["out"] / f"spectrum_{n}_{k}.json")
        if abs(float(payload["lambda"]) - lam) > 1e-10:
            return f"lambda {payload['lambda']} differs from {lam:.12f}"
        if not float(payload["cofactor_roots_unit_modulus_residual"]) <= 1e-9:
            return "cofactor roots off the unit circle"
        return None

    def degrees(rec):
        d = [int(x) for x in load_json(rec["out"] / f"degrees_{n}_{k}.json")["degrees"]]
        if len(d) != DEGREES_M + 1 or d[0] != 1 or min(d) <= 0:
            return "degree sequence has the wrong length or sign"
        if abs(d[-1] / d[-2] - lam) > 1e-9:
            return f"growth ratio {d[-1] / d[-2]} differs from lambda {lam}"
        return None

    ops.append(checked_op("spectrum", calls["spectrum"], spectrum))
    ops.append(checked_op("degrees", calls["degrees"], degrees))
    return ops


def gate_dynamics(calls, inputs, expected):
    k = FIGURE1["k"]
    z = elliptic_fixed_point(FIGURE1)

    def fixed_points(rec):
        rows = load_json(rec["out"] / "fixed_points.json")["fixed_points"]
        mult = sum(r["multiplicity"] for r in rows)
        if mult != k + 1:
            return f"multiplicities sum to {mult}, expected {k + 1}"
        if not any(r["type"] == "elliptic" and abs(r["zeta"][0] - z) < 1e-9 for r in rows):
            return f"elliptic fixed point {z} not reported"
        return None

    def unstable(rec):
        manifolds = load_json(rec["out"] / "unstable.json")["manifolds"]
        lengths = [float(np.sum(np.linalg.norm(np.diff(np.array(m["points"]), axis=0), axis=1)))
                   for m in manifolds]
        if len(lengths) != 2:
            return f"{len(lengths)} manifolds, expected one per real saddle (2)"
        if min(lengths) < ARCLEN * (1 - 1e-12):
            return f"manifold arclengths {lengths} short of {ARCLEN}"
        return None

    return [checked_op("fixed-points", calls["fixed-points"], fixed_points),
            checked_op("unstable", calls["unstable"], unstable),
            checked_op("orbit", calls["orbit"], lambda rec: check_orbits(rec, inputs["seeds"]))]


def check_orbits(rec, seeds):
    statuses = json.loads(rec["stdout"].strip().splitlines()[-1])["statuses"]
    if len(statuses) != len(seeds) or set(statuses.values()) != {"completed"}:
        return f"orbit statuses {statuses}"
    rows = 0
    with open(rec["out"] / "orbits.csv") as fh:
        if fh.readline().strip() != "seed_id,step,x,y":
            return "orbits.csv header"
        for line in fh:
            sid, step, x, y = line.split(",")
            x, y = float(x), float(y)
            if step == "0" and (abs(x - seeds[int(sid)][0]) > 1e-15
                                or abs(y - seeds[int(sid)][1]) > 1e-15):
                return f"orbit {sid} does not start at its seed"
            if not (math.isfinite(x) and math.isfinite(y)):
                return f"orbit {sid} has a non-finite point"
            rows += 1
    if rows != len(seeds) * (ORBIT_STEPS + 1):
        return f"orbits.csv has {rows} rows, expected {len(seeds) * (ORBIT_STEPS + 1)}"
    return None


GATES = {"verify-desk": gate_verify_desk, "exact-scale": gate_exact_scale,
         "dynamics-figure1": gate_dynamics}


def digests(out_root):
    """sha256 of every output file: a report of byte-identity, not a gate."""
    return {str(path.relative_to(out_root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_root.rglob("*")) if path.is_file()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True, help="scratch directory of this process")
    ap.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import surfauto
    import surfauto.cli  # noqa: F401  (every workload goes through the CLI or its suites)
    if Path(surfauto.__file__).resolve().parent.parent != args.src.resolve():
        sys.exit(f"surfauto imported from {surfauto.__file__}, not from {args.src}")
    args.work.mkdir(parents=True, exist_ok=True)
    inputs = setup_inputs(args.workload, args.seed, args.work)
    print("@@ready", flush=True)
    probes = [time_kernel() for _ in range(SETUP_PROBES)]
    print("@@speed " + json.dumps({"kernel_s": sum(probes) / len(probes)}), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    ps = Pass(args.work, tracer)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        calls = RUNNERS[args.workload](ps, inputs)
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = json.loads((BENCH_DIR / "expected_verdicts.json").read_text())
    ops = GATES[args.workload](calls, inputs, expected)
    samples = probe.samples or [time_kernel()]    # a pass shorter than one interval
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "probe_s": sum(probe.samples),
              "probe_kernel_s": sum(samples) / len(samples),
              "ops": [list(op) for op in ops],
              "digests": digests(args.work / "out") if (args.work / "out").exists() else {}}
    if tracer is not None:
        result["trace"] = {"calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
                           "spans": tracer.spans}
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
