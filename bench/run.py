"""The surfauto benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload verify-desk --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

Each pass over a workload runs in a fresh single-threaded interpreter
(``workloads.py``), one at a time, so at most one CPU is busy.  With
``--trace 0`` the run makes set-up samples and untraced passes for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it makes
one untraced and one traced pass and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layertrace import LAYERS, layer_name  # noqa: E402

WORKLOADS = ("verify-desk", "exact-scale", "dynamics-figure1")
SETUP_SAMPLES = 8          # set-up-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 170
# Times are reported at a fixed reference speed: the speed at which the
# reference kernel of workloads.py takes this long (its typical time on the
# 2-vCPU Xeon host of the baseline).  See README.md, "Host speed".
REFERENCE_KERNEL_S = 4.0e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

CLI_SUBCOMMANDS = ("verify", "spectrum", "degrees", "fixed-points", "unstable", "orbit")
SUITES = ("lattice", "factorization", "chart", "parabolic", "fixed_point")
SOURCE_MODULES = ("cli", "verify", "picard", "exactmat", "reflections", "mapfamily",
                  "charts", "dual", "dynamics", "polyroots", "errors")
# (per-layer metric, unit); each layer's note on what it moves is in README.md
PER_LAYER = (
    [(f"cli.{sub}.wall_s", "s") for sub in CLI_SUBCOMMANDS] + [("cli.self_s", "s")]
    + [(f"verify.{suite}_suite.wall_s", "s") for suite in SUITES]
    + [(f"{layer_name(module, q)}.{stat}", unit)
       for module in ("picard", "exactmat", "mapfamily", "charts", "dynamics", "polyroots")
       for q in LAYERS[module] for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"reflections.{q}.self_s", "s") for q in LAYERS["reflections"]]
    + [("dual.richardson.calls", "count"), ("charts.richardson_per_limit", "calls/limit"),
       ("dynamics.manifold_points", "count"), ("dynamics.evals_per_point", "evals/point"),
       ("trace.overhead_s", "s"), ("fail_ratio", "ratio")]
    + [(f"sloc.{module}", "lines") for module in SOURCE_MODULES] + [("sloc.total", "lines")]
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation of the program)."""


# -- child processes -----------------------------------------------------------------


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(workload, seed, work, trace=0, setup_only=False):
    """Run one benchmark process to completion.  Returns (setup, duration_s,
    result).  setup["raw_s"] runs from just before the process starts until
    it reports that surfauto is imported and the inputs are written;
    setup["kernel_s"] is the reference kernel's time measured right after."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--src", str(ROOT / "src"),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    setup = {}
    result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                setup["raw_s"] = time.perf_counter() - t0
            elif line.startswith("@@speed "):
                setup["kernel_s"] = json.loads(line[len("@@speed "):])["kernel_s"]
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    duration_s = time.perf_counter() - t0
    if rc != 0 or len(setup) != 2 or (result is None and not setup_only):
        raise BenchError(f"{workload} process exited with code {rc} ({' '.join(cmd)})")
    return setup, duration_s, result


def measure(workload, seed, seconds, trace, work):
    """All processes of one run.  Returns (setup samples, untraced pass
    results, traced pass result or None)."""
    n_proc = itertools.count()

    def run(**kw):
        path = work / str(next(n_proc))
        try:
            return spawn(workload, seed, path, **kw)
        finally:
            shutil.rmtree(path, ignore_errors=True)   # orbits.csv alone is 60 MB

    run(setup_only=True)    # warm-up: byte-compilation and file caches
    setups = [run(setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    passes, durations = [], []
    while True:
        setup, duration_s, result = run()
        setups.append(setup)
        passes.append(result)
        durations.append(duration_s)
        # --trace 1 needs one untraced pass as the overhead baseline; otherwise
        # passes continue while the next one is expected to end within --seconds
        if trace or sum(durations) + statistics.median(durations) > seconds:
            break
    traced = run(trace=1)[2] if trace else None
    return setups, passes, traced


# -- metrics -------------------------------------------------------------------------


def at_reference(seconds, kernel_s):
    """A time measured while the reference kernel took kernel_s, rescaled to
    the reference speed (kernel time REFERENCE_KERNEL_S)."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def pass_wall_s(result):
    """Wall time of a pass at the reference speed, the probe's own time removed."""
    return at_reference(result["wall_s"] - result["probe_s"], result["probe_kernel_s"])


def end_to_end(setups, passes):
    return {"setup_s": statistics.median(at_reference(s["raw_s"], s["kernel_s"]) for s in setups),
            "wall_s": statistics.median(pass_wall_s(p) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def raw_times(setups, passes):
    """The same medians as measured, before rescaling, and the kernel times used."""
    return {"setup_s": statistics.median(s["raw_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_kernel_ms": 1e3 * statistics.median(s["kernel_s"] for s in setups),
            "pass_kernel_ms": 1e3 * statistics.median(p["probe_kernel_s"] for p in passes)}


def span_total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def per_layer(traced, untraced, fail_ratio, sloc):
    tr = traced["trace"]
    calls, self_s, spans = tr["calls"], tr["self_s"], tr["spans"]
    m = {}
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = span_total(spans, f"cli.{sub}")
    m["cli.self_s"] = sum(s["self_s"] for s in spans if s["name"].startswith("cli."))
    for suite in SUITES:
        m[f"verify.{suite}_suite.wall_s"] = span_total(spans, f"verify.{suite}_suite")
    for name, unit in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if name not in m and stat == "calls":
            m[name] = calls.get(stem, 0)
        elif name not in m and stat == "self_s":
            m[name] = self_s.get(stem, 0.0)
    limits = sum(calls.get(f"charts.{f}", 0) for f in
                 ("fiber_transition_numeric", "reversor_transition_numeric", "parabolic_check"))
    m["charts.richardson_per_limit"] = calls.get("dual.richardson", 0) / limits if limits else 0.0
    manifolds = [s for s in spans if s["name"] == "dynamics.unstable_manifold"]
    points = sum(s.get("points", 0) for s in manifolds)
    evals = sum(s["calls"].get("mapfamily.eval_f", 0) for s in manifolds)
    m["dynamics.manifold_points"] = points
    m["dynamics.evals_per_point"] = evals / points if points else 0.0
    m["trace.overhead_s"] = pass_wall_s(traced) - pass_wall_s(untraced)
    m["fail_ratio"] = fail_ratio
    m.update(sloc)
    for name, _ in PER_LAYER:
        m.setdefault(name, 0.0)     # a layer the workload never enters
    return m


def source_lines():
    """Non-blank, non-comment lines of each source module and of the package."""
    def count(path):
        return sum(1 for line in path.read_text().splitlines()
                   if line.strip() and not line.strip().startswith("#"))
    pkg = ROOT / "src" / "surfauto"
    sloc = {f"sloc.{m}": count(pkg / f"{m}.py") if (pkg / f"{m}.py").exists() else 0
            for m in SOURCE_MODULES}
    sloc["sloc.total"] = sum(count(path) for path in pkg.rglob("*.py"))
    return sloc


def environment():
    import mpmath.libmp
    import numpy
    return {"python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0))}


# -- one run -------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, work):
    setups, passes, traced = measure(workload, seed, seconds, trace, work)
    ops = [op for p in passes + ([traced] if traced else []) for op in p["ops"]]
    failed = [op for op in ops if not op[1]]
    sloc = source_lines()
    if trace:
        metrics = per_layer(traced, passes[0], len(failed) / len(ops), sloc)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(setups, passes)
        units = END_TO_END
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "inputs": ("orbit seeds drawn from --seed; the map instance is fixed"
                   if workload == "dynamics-figure1" else
                   "fixed instances; --seed changes nothing, and the suites' internal "
                   "sample seeds belong to the program"),
        "samples": {"setup_s": len(setups), "passes": len(passes), "traced_passes": int(bool(trace))},
        "raw": raw_times(setups, passes), "reference_kernel_ms": 1e3 * REFERENCE_KERNEL_S,
        "environment": environment(), "sloc": sloc,
        "digests": passes[0]["digests"],
        "traced_digests_match": None if not trace else traced["digests"] == passes[0]["digests"],
        "failed_ops": failed,
    }
    print("report " + json.dumps(report, sort_keys=True))
    for op in failed:
        print(f"FAILED {workload} {op[0]}: {op[2]}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload:17s} {name:42s} {value:14.6f} {units[name]}")
    if not trace:
        print(f"{workload:17s} {'fail_ratio':42s} {len(failed) / len(ops):14.6f} "
              f"({len(failed)} of {len(ops)} operations)")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description="surfauto benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "surfauto" / "__init__.py").is_file():
        print(f"error: no surfauto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, work / w)
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": v for w, r in results.items()
                             for name, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
