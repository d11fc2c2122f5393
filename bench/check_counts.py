"""The benchmark's own test: traced counts repeat, and tracing changes nothing.

    python3 bench/check_counts.py

For verify-desk and dynamics-figure1 it makes two traced passes and one
untraced pass with seed 0, and one untraced dynamics pass with seed 1.  It
checks that

* the two traced passes give identical ``*.calls`` values;
* every pass passes the correctness gate, and traced and untraced passes
  write byte-identical output files (the orbit seeds of seed 1 included, so
  fail_ratio does not depend on the seed);
* the seed-commit counts below appear.  A change that alters one of them
  on purpose updates it here, in the same change.

Exits 0 when every check holds.  Takes about three minutes on 2 CPUs.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, spawn

# Counts of the seed commit: the figure-1 ``surfauto verify`` call and the
# unstable manifold of the saddle at -0.738.  ``surfauto unstable`` also
# evaluates the map once per fixed point (k + 1 = 5) before tracing, so its
# first saddle costs 800235 evaluations counted from the start of the command.
FIGURE1_VERIFY = {"mapfamily.eval_f_proj": 2948, "charts.parabolic_check": 132,
                  "charts.fiber_transition_numeric": 361}
SADDLE = {"x": -0.738, "mapfamily.eval_f": 800230, "points": 593}
UNSTABLE_FIXED_POINT_EVALS = 5


def figure1_verify_counts(spans):
    """Call counts inside the first ``cli.verify`` span (the figure-1 call)."""
    first = next(s for s in spans if s["name"] == "cli.verify")
    return first["calls"]


def saddle_span(spans, params_x):
    """The manifold span whose result starts nearest x = params_x."""
    return min((s for s in spans if s["name"] == "dynamics.unstable_manifold"),
               key=lambda s: abs(s["x0"] - params_x))


def check(workload, work, problems):
    runs = {}
    for label, seed, trace in (("traced-1", 0, 1), ("traced-2", 0, 1), ("untraced", 0, 0)):
        runs[label] = spawn(workload, seed, work / label, trace=trace)[2]
    if workload == "dynamics-figure1":
        runs["untraced-seed-1"] = spawn(workload, 1, work / "seed1", trace=0)[2]
    for label, result in runs.items():
        for name, ok, why in result["ops"]:
            if not ok:
                problems.append(f"{workload} {label}: {name} failed: {why}")
    t1, t2 = runs["traced-1"]["trace"], runs["traced-2"]["trace"]
    if t1["calls"] != t2["calls"]:
        diff = {k: (t1["calls"].get(k), t2["calls"].get(k))
                for k in set(t1["calls"]) | set(t2["calls"]) if t1["calls"].get(k) != t2["calls"].get(k)}
        problems.append(f"{workload}: call counts differ between traced passes: {diff}")
    for label in ("traced-1", "traced-2"):
        if runs[label]["digests"] != runs["untraced"]["digests"]:
            problems.append(f"{workload}: {label} outputs differ from the untraced pass")
    if workload == "verify-desk":
        got = figure1_verify_counts(t1["spans"])
        for name, want in FIGURE1_VERIFY.items():
            print(f"figure-1 verify {name}.calls = {got.get(name, 0)} (seed commit {want})")
            if got.get(name, 0) != want:
                problems.append(f"figure-1 verify {name}.calls = {got.get(name, 0)}, expected {want}")
    else:
        span = saddle_span(t1["spans"], SADDLE["x"])
        evals = span["calls"].get("mapfamily.eval_f", 0)
        print(f"saddle at {span['x0']:.3f}: mapfamily.eval_f.calls = {evals} for "
              f"{span['points']} points (seed commit {SADDLE['mapfamily.eval_f']} for "
              f"{SADDLE['points']})")
        if (evals, span["points"]) != (SADDLE["mapfamily.eval_f"], SADDLE["points"]):
            problems.append(f"saddle {span['x0']:.3f}: {evals} evaluations for "
                            f"{span['points']} points")
        cli_span = next(s for s in t1["spans"] if s["name"] == "cli.unstable")
        outside = cli_span["calls"].get("mapfamily.eval_f", 0) - sum(
            s["calls"].get("mapfamily.eval_f", 0) for s in t1["spans"]
            if s["name"] == "dynamics.unstable_manifold")
        print(f"surfauto unstable: {outside} map evaluations outside the manifold traces "
              f"(seed commit {UNSTABLE_FIXED_POINT_EVALS})")
        if outside != UNSTABLE_FIXED_POINT_EVALS:
            problems.append(f"surfauto unstable: {outside} evaluations outside the manifolds")


def main():
    if not (ROOT / "src" / "surfauto" / "__init__.py").is_file():
        print(f"error: no surfauto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="check-", dir=ROOT / ".bench_work"))
    problems = []
    try:
        for workload in ("verify-desk", "dynamics-figure1"):
            check(workload, work / workload, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print("FAIL", line)
    print("count check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
