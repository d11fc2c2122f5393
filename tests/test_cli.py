import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfauto
import surfauto.charts as charts
from surfauto.cli import ORBIT_BLOCK, READER_GONE, _orbit_rows, _params_from, build_parser, main
from surfauto.dynamics import fixed_points, iterate_orbit
from surfauto.errors import ExtrapolationError
from surfauto.mapfamily import MAGNITUDE_CAP, MapParams, figure1_params
from surfauto.verify import VerdictReport, _transition_check

PRESET = Path(__file__).resolve().parents[1] / "demos" / "figure1.json"


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_spectrum_values(capsys):
    rc, out, _ = run_cli(["spectrum", "--n", "3", "--k", "2"], capsys)
    assert rc == 0
    assert "lambda = 2.618033988750" in out
    assert "entropy = 0.962423650119" in out
    rc, out, _ = run_cli(["spectrum", "--n", "2", "--k", "4"], capsys)
    assert rc == 0
    assert "lambda = 3.732050807569" in out


def test_spectrum_rejects_degenerate(capsys):
    rc, _, err = run_cli(["spectrum", "--n", "2", "--k", "2"], capsys)
    assert rc == 2
    assert "error" in err


def test_cn_output(capsys):
    rc, out, _ = run_cli(["cn", "--n", "4"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "1.41421356237, -1.41421356237"


def test_degrees(capsys):
    rc, out, _ = run_cli(["degrees", "--n", "3", "--k", "2", "--m", "12"], capsys)
    assert rc == 0
    assert out.startswith("d = 1, 3, 9, 27, 73")
    assert "2.618" in out


def test_fixed_points_preset(capsys):
    rc, out, _ = run_cli(["fixed-points", "--params", str(PRESET)], capsys)
    assert rc == 0
    assert "5 fixed points, 3 real" in out
    assert out.count("saddle") == 2
    assert out.count("elliptic") == 1


def test_weyl_verdict_schema(capsys, tmp_path):
    rc, out, _ = run_cli(["weyl", "--n", "2", "--k", "4", "--out", str(tmp_path)], capsys)
    assert rc == 0
    verdict = json.loads((tmp_path / "weyl_2_4.json").read_text())
    assert verdict["literal_identity"] is False
    assert verdict["repaired_phi"]["reflection_count"] == 4
    assert verdict["coxeter_identity"] is True
    assert verdict["dihedral"] is True
    rc, out, _ = run_cli(["weyl", "--n", "3", "--k", "2", "--out", str(tmp_path)], capsys)
    verdict = json.loads((tmp_path / "weyl_3_2.json").read_text())
    assert verdict["literal_identity"] is True
    assert verdict["repaired_phi"] is None


def test_charts_command(capsys, tmp_path):
    rc, out, _ = run_cli(["charts", "--params", str(PRESET), "--out", str(tmp_path)], capsys)
    assert rc == 0
    data = json.loads((tmp_path / "charts.json").read_text())
    assert data["overall"] == "pass"
    rec = data["records"][0]
    assert set(rec) == {"chart", "xi", "closed", "numeric", "abs_err"}


def test_charts_records_a_stopped_transition(monkeypatch, capsys, tmp_path):
    # a lift that does not converge becomes an error record and the file is
    # still written, the same in this process alone and dealt to children,
    # which inherit the patch
    numeric = charts.fiber_transition_numeric

    def stalls_at_1_3(table, s, j, xi):
        if (s, j) == (1, 3):
            raise ExtrapolationError("extrapolants keep moving by 1.0 > 1e-08")
        return numeric(table, s, j, xi)

    monkeypatch.setattr(charts, "fiber_transition_numeric", stalls_at_1_3)
    written = []
    for cpus in (1, 3):
        _set_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus-{cpus}"
        rc, _, err = run_cli(["charts", "--params", str(PRESET), "--out", str(out_dir)], capsys)
        assert rc == 1 and err == ""
        written.append((out_dir / "charts.json").read_bytes())
        data = json.loads(written[-1])
        assert data["overall"] == "fail"
        stopped = [rec for rec in data["records"] if "error" in rec]
        assert [(rec["chart"], rec["error"], set(rec)) for rec in stopped] == [
            ([1, 3], "extrapolants keep moving by 1.0 > 1e-08", {"chart", "xi", "error"})]
    assert written[0] == written[1]


def test_charts_fails_a_nan_transition(monkeypatch, capsys, tmp_path):
    # a NaN |closed - numeric| fails `surfauto charts` as it fails
    # chart_suite's transition check: one rule, verify.transition_gap
    def one_nan(table, jobs):
        return [(math.nan, 0)] + [(0j, 0j)] * (len(jobs) - 1)

    monkeypatch.setattr("surfauto.cli.compare_transitions", one_nan)
    rc, _, _ = run_cli(["charts", "--params", str(PRESET), "--out", str(tmp_path)], capsys)
    assert rc == 1
    data = json.loads((tmp_path / "charts.json").read_text())
    # and the worst difference it reports is that NaN, not the largest finite one
    assert data["overall"] == "fail" and math.isnan(data["worst"])
    jobs = [("fiber", 0, j, 1.0) for j in (1, 2)]
    rep = VerdictReport(suite="charts")
    _transition_check(rep, "fiber-transitions", jobs, one_nan(None, jobs), 1e-6)
    assert rep.overall == "fail"
    assert math.isnan(rep.checks[0].residual)


def test_orbit_csv(capsys, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[[0.1, 0.1], [0.2, 0.3]]")
    rc, out, _ = run_cli(["orbit", "--params", str(PRESET), "--steps", "50",
                          "--seeds", str(seeds), "--out", str(tmp_path)], capsys)
    assert rc == 0
    lines = (tmp_path / "orbits.csv").read_text().splitlines()
    assert lines[0] == "seed_id,step,x,y"
    assert lines[1].startswith("0,0,")


def test_usage_error(capsys):
    rc, _, err = run_cli(["verify"], capsys)
    assert rc == 2
    assert "need --params or both --n and --k" in err


@pytest.mark.parametrize("argv, work", [
    (["spectrum", "--n", "2", "--k", "4"], "chi_poly"),
    (["verify", "--params", str(PRESET)], "lattice_suite"),
])
def test_out_naming_a_file_is_a_usage_error(argv, work, monkeypatch, capsys, tmp_path):
    """--out naming a file, or a path through one, stops the command with
    one error line before it computes anything, and makes nothing."""
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"surfauto.cli.{work}", never)
    existing = tmp_path / "existing"
    existing.write_text("kept\n")
    for out in (existing, existing / "sub"):
        rc, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert existing.read_text() == "kept\n" and os.listdir(tmp_path) == ["existing"]


def test_charts_failure_exit_code(capsys, tmp_path):
    rc, out, _ = run_cli(["charts", "--params", str(PRESET), "--tol", "1e-30",
                          "--out", str(tmp_path)], capsys)
    assert rc == 1


def test_unstable_command(capsys, tmp_path):
    rc, out, _ = run_cli(["unstable", "--params", str(PRESET), "--arclen", "2.0",
                          "--out", str(tmp_path)], capsys)
    assert rc == 0
    data = json.loads((tmp_path / "unstable.json").read_text())
    assert len(data["manifolds"]) == 2
    assert all(len(m["points"]) > 10 for m in data["manifolds"])


def test_unstable_without_a_real_saddle_is_a_usage_error(capsys, tmp_path):
    # a complex a_2 leaves every fixed point off the real plane
    rc, out, err = run_cli(["unstable", "--n", "2", "--k", "4", "--c-j", "1", "--a", "2=-2.64,0.3",
                            "--out", str(tmp_path / "out")], capsys)
    assert (rc, out, err) == (2, "", "error: no real saddle fixed points\n")
    assert not (tmp_path / "out").exists()


def test_orbit_past_the_float_range_escapes(capsys, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[[0.5, 1e-11]]")
    rc, out, err = run_cli(["orbit", "--n", "2", "--k", "40", "--seeds", str(seeds),
                            "--steps", "5", "--out", str(tmp_path)], capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == '{"statuses": {"0": "escaped"}}'
    assert (tmp_path / "orbits.csv").read_text() == \
        "seed_id,step,x,y\n0,0,5.000000000000000e-01,9.999999999999999e-12\n"


def test_determinism(tmp_path):
    env_cmd = [sys.executable, "-m", "surfauto.cli"]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        subprocess.run(env_cmd + ["charts", "--params", str(PRESET), "--out", str(d)],
                       capture_output=True, check=True)
        outs.append((d / "charts.json").read_bytes())
    assert outs[0] == outs[1]


def test_verify_preset(capsys, tmp_path):
    rc, out, _ = run_cli(["verify", "--params", str(PRESET), "--points", "2",
                          "--n-xi", "3", "--out", str(tmp_path)], capsys)
    assert rc == 0
    data = json.loads((tmp_path / "verify.json").read_text())
    assert data["overall"] == "pass"
    suites = {s["suite"] for s in data["suites"]}
    assert suites == {"lattice", "charts", "factorizations", "parabolic", "fixed-points"}


# sha256 of the figure-1 chart-layer outputs, as written when projective
# points were normalised by dividing by their largest entry and Richardson
# extrapolation ran in mpmath: verify.json with --points 2 --n-xi 3 (re-recorded
# when the fixed-point residual became relative to f's largest term, the
# only value that moved), and charts.json at its defaults
CHART_LAYER_DIGESTS = {
    "verify": ("verify.json", ["--points", "2", "--n-xi", "3"],
               "275e37c7bf25b97f78f4de3ceaa36343fe209b88fdf7b01ccbf86a06b7ae1011"),
    "charts": ("charts.json", [],
               "a3dda3259b75f943251ef0a4d311fa2d4e17fe53b1f07cb5f4c017484e951d3f"),
}


@pytest.mark.parametrize("sub", sorted(CHART_LAYER_DIGESTS))
def test_chart_layer_outputs_pinned(sub, capsys, tmp_path):
    name, flags, digest = CHART_LAYER_DIGESTS[sub]
    rc, _, _ = run_cli([sub, "--params", str(PRESET), *flags, "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_verify_flags_only_instance(capsys):
    # the k=2, n=3 member configured purely from flags
    rc, out, _ = run_cli(["verify", "--n", "3", "--k", "2", "--points", "2",
                          "--n-xi", "3"], capsys)
    assert rc == 0
    assert out.count(": pass") == 5


def test_fixed_points_csv_format(capsys, tmp_path):
    rc, out, _ = run_cli(["fixed-points", "--params", str(PRESET),
                          "--format", "csv", "--out", str(tmp_path)], capsys)
    assert rc == 0
    lines = (tmp_path / "fixed_points.csv").read_text().splitlines()
    assert lines[0] == "type,zeta_re,zeta_im,trace_re,trace_im,multiplicity"
    assert len(lines) == 6


def test_fixed_points_csv_without_out_goes_to_stdout(capsys, tmp_path):
    rc, summary, _ = run_cli(["fixed-points", "--params", str(PRESET)], capsys)
    assert rc == 0
    run_cli(["fixed-points", "--params", str(PRESET), "--format", "csv", "--out", str(tmp_path)],
            capsys)
    rc, out, _ = run_cli(["fixed-points", "--params", str(PRESET), "--format", "csv"], capsys)
    assert rc == 0
    # the summary, then the lines that --out writes to fixed_points.csv
    assert out == summary + (tmp_path / "fixed_points.csv").read_text()


def test_orbit_default_seeds(capsys, tmp_path):
    rc, out, _ = run_cli(["orbit", "--params", str(PRESET), "--steps", "20",
                          "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert (tmp_path / "orbits.csv").exists()


def test_params_file_c_sign_override(capsys, tmp_path):
    # c = -2cos(pi/3) = -1 is not admissible for n = 3: the flag must reach MapParams
    path = tmp_path / "n3k4.json"
    path.write_text(json.dumps({"n": 3, "k": 4, "c": {"j": 1, "sign": "+"},
                                "a": {"2": [0.4, 0.0]}, "delta": [1.0, 0.0]}))
    rc, _, err = run_cli(["fixed-points", "--params", str(path), "--c-sign", "-"], capsys)
    assert rc == 2
    assert "not admissible" in err


def test_params_file_single_flag_overrides():
    def params(*flags):
        return _params_from(build_parser().parse_args(["fixed-points", "--params", str(PRESET),
                                                       *flags]))

    p = params("--k", "6")
    assert (p.n, p.k, p.c_spec, p.a) == (2, 6, (1, 1), {2: -2.64})
    assert params("--c-j", "1", "--c-sign", "-").c_spec == (1, -1)
    assert params("--a", "2=-1.5").a == {2: -1.5}


def test_degrees_zero_terms(capsys, tmp_path):
    rc, _, _ = run_cli(["degrees", "--n", "2", "--k", "4", "--m", "0",
                        "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert json.loads((tmp_path / "degrees_2_4.json").read_text())["degrees"] == ["1"]


def test_degrees_negative_count_is_usage_error(capsys):
    rc, out, err = run_cli(["degrees", "--n", "2", "--k", "4", "--m", "-1"], capsys)
    assert rc == 2
    assert "--m" in err and out == ""


@pytest.mark.parametrize("argv", [["orbit", "--params", str(PRESET), "--format", "json"],
                                  ["spectrum", "--n", "2", "--k", "4", "--tol", "1e-3"],
                                  ["spectrum", "--n", "2", "--k", "4", "--a", "2=5"],
                                  ["weyl", "--n", "2", "--k", "4", "--c-j", "1"],
                                  ["cn", "--n", "4", "--k", "3"]])
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_n_and_k_flags_override_the_parameter_file(capsys):
    # figure1.json is the (2,4) member: --n 3 makes it (3,4)
    _, expected, _ = run_cli(["spectrum", "--n", "3", "--k", "4"], capsys)
    rc, out, _ = run_cli(["spectrum", "--n", "3", "--params", str(PRESET)], capsys)
    assert rc == 0
    assert out == expected and "lambda = 4.791287847478" in out


@pytest.mark.parametrize("command", ["spectrum", "weyl", "degrees", "fixed-points"])
def test_missing_parameter_file_is_usage_error(command, capsys, tmp_path):
    rc, out, err = run_cli([command, "--params", str(tmp_path / "missing.json")], capsys)
    assert rc == 2
    assert "cannot read parameter file" in err and "Traceback" not in err
    assert out == ""


MEMBER = {"n": 2, "k": 4, "c": {"j": 1, "sign": "+"}, "a": {"2": [-2.64, 0.0]},
          "delta": [1.0, 0.0]}


@pytest.mark.parametrize("params, flags", [
    pytest.param({**MEMBER, "n": None}, None, id="n-null"),
    pytest.param({**MEMBER, "n": 2.7}, None, id="n-not-integer"),
    pytest.param({key: v for key, v in MEMBER.items() if key != "k"}, None, id="k-missing"),
    pytest.param({**MEMBER, "c": [0.3, 0.1]}, None, id="c-list"),
    pytest.param({**MEMBER, "c": 1e-12}, None, id="c-number"),
    pytest.param({**MEMBER, "c": {"j": 1, "sign": "*"}}, None, id="c-sign"),
    pytest.param({**MEMBER, "c": {"j": 1.5, "sign": "+"}}, None, id="c-j-not-integer"),
    pytest.param({**MEMBER, "c": {"j": True, "sign": "+"}}, None, id="c-j-bool"),
    pytest.param({**MEMBER, "a": [1, 2]}, None, id="a-list"),
    pytest.param({**MEMBER, "a": {"2": [1]}}, None, id="a-one-number"),
    pytest.param({**MEMBER, "a": {"x": 1}}, None, id="a-index-text"),
    pytest.param({**MEMBER, "a": {"2": [float("nan"), 0.0]}}, None, id="a-not-finite"),
    pytest.param({**MEMBER, "a": {"2": 0.5, "02": -1.0}}, None, id="a-twice"),
    pytest.param({**MEMBER, "delta": "1"}, None, id="delta-text"),
    pytest.param({**MEMBER, "delta": True}, None, id="delta-bool"),
    pytest.param({**MEMBER, "delta": 0.5}, None, id="delta-half"),
    pytest.param({**MEMBER, "delta": -1}, None, id="delta-minus-one"),
    pytest.param({**MEMBER, "delta": [0.5, 0.1]}, None, id="delta-complex"),
    pytest.param({**MEMBER, "delta": [1.0, 1e-9]}, None, id="delta-near-one"),
    pytest.param({**MEMBER, "extra": 1}, None, id="unknown-key"),
    pytest.param([MEMBER], None, id="top-level-list"),
    pytest.param(None, ["--a", "2=x"], id="flag-a-value"),
    pytest.param(None, ["--a", "x=1"], id="flag-a-index"),
    pytest.param(None, ["--a", "2=1,2,3"], id="flag-a-three-numbers"),
    pytest.param(None, ["--a", "2=1", "--a", "2=2"], id="flag-a-twice"),
    pytest.param(None, ["--c-j", "0"], id="flag-c-j-zero"),
])
def test_malformed_member_is_usage_error(params, flags, capsys, tmp_path):
    """A parameter file or flag that does not describe a member is a usage
    error, never a traceback and never silently read as another member."""
    if params is None:
        runs = [["fixed-points", "--n", "2", "--k", "4"] + flags]
    else:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        runs = [[command, "--params", str(path)] for command in ("spectrum", "fixed-points")]
    out_dir = tmp_path / "out"
    for argv in runs:
        rc, out, err = run_cli(argv + ["--out", str(out_dir)], capsys)
        assert rc == 2, (argv, err)
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()


def test_c_by_value_with_unit_delta_is_usage_error(capsys, tmp_path):
    # c is admissible by its (j, sign) alone, never by value
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"n": 4, "k": 4, "c": 1.4142135623730951}))
    out_dir = tmp_path / "out"
    for command in ("fixed-points", "charts"):
        rc, out, err = run_cli([command, "--params", str(path), "--out", str(out_dir)], capsys)
        assert rc == 2, (command, err)
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()


def test_fixed_points_with_nonunit_delta(capsys, tmp_path):
    # the family has delta = 1: a file with another delta is a usage error
    # (test_malformed_member_is_usage_error has more), and --delta is no flag
    path = tmp_path / "params.json"
    path.write_text(json.dumps({**MEMBER, "delta": 0.5}))
    rc, out, err = run_cli(["fixed-points", "--params", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: the family has delta = 1, got delta = 0.5\n"
    with pytest.raises(SystemExit) as exc:
        main(["fixed-points", "--params", str(PRESET), "--delta", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --delta" in capsys.readouterr().err


@pytest.mark.parametrize("c_flags", [[], ["--c-j", "999999999", "--c-sign", "-"]],
                         ids=["2cos(pi/n)", "-2cos((n-1)pi/n)"])
def test_fixed_points_with_c_rounding_to_two_is_a_usage_error(c_flags, capsys):
    # 2cos(pi/n) is 2.0 in double precision from n of about 3e8 on, so the
    # fixed-point polynomial would lose its leading term 2 - c
    rc, out, err = run_cli(["fixed-points", "--n", "1000000000", "--k", "2"] + c_flags, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "rounds to 2 in double precision" in err
    assert "Traceback" not in err


# members with accurate fixed points at which f's terms are large: the
# absolute |f(zeta) - zeta| read 4.6e-9 at (2,30) against terms of about
# 1e10, and 2.5e-10 at (4,20) against about 1e6, both above 1e-10.  The
# (4,20) member comes from a seeded census of random k = 20 members
# (random.Random(348): one to three a_l, uniform in [-4, 4] to two places)
LARGE_TERM_MEMBERS = {
    "2-30": ["--n", "2", "--k", "30", "--c-j", "1", "--a", "28=3"],
    "4-20": ["--n", "4", "--k", "20", "--c-j", "1", "--a", "18=3.89"],
}


@pytest.mark.parametrize("member", sorted(LARGE_TERM_MEMBERS))
def test_fixed_point_residual_is_relative_to_the_largest_term(member, capsys, tmp_path):
    flags = LARGE_TERM_MEMBERS[member]
    rc, _, err = run_cli(["fixed-points", *flags, "--out", str(tmp_path)], capsys)
    assert rc == 0, err
    assert len(json.loads((tmp_path / "fixed_points.json").read_text())["fixed_points"]) > 0
    # verify's exit code also carries the chart suites' verdicts, which
    # this member does not all pass; the file is written either way
    run_cli(["verify", *flags, "--points", "1", "--n-xi", "1", "--out", str(tmp_path)], capsys)
    suites = json.loads((tmp_path / "verify.json").read_text())["suites"]
    checks = {c["id"]: c for s in suites if s["suite"] == "fixed-points" for c in s["checks"]}
    assert checks["residuals"]["status"] == "pass"
    assert checks["residuals"]["residual"] < 1e-10


def test_charts_zero_tolerance_fails(capsys, tmp_path):
    # --tol 0 is a tolerance, not a request for the default
    rc, _, _ = run_cli(["charts", "--params", str(PRESET), "--tol", "0",
                        "--out", str(tmp_path)], capsys)
    assert rc == 1
    assert json.loads((tmp_path / "charts.json").read_text())["overall"] == "fail"


def test_orbit_zero_steps_writes_the_seeds(capsys, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[[0.1, 0.1], [0.2, 0.3]]")
    rc, out, _ = run_cli(["orbit", "--params", str(PRESET), "--steps", "0",
                          "--seeds", str(seeds), "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert (tmp_path / "orbits.csv").read_text().splitlines() == [
        "seed_id,step,x,y",
        "0,0,1.000000000000000e-01,1.000000000000000e-01",
        "1,0,2.000000000000000e-01,3.000000000000000e-01"]
    assert "(2 rows)" in out


@pytest.mark.parametrize("argv", [["orbit", "--params", str(PRESET), "--steps", "-1"],
                                  ["charts", "--params", str(PRESET), "--tol", "-0.001"],
                                  ["verify", "--params", str(PRESET), "--tol", "-0.001"],
                                  # tolerances must be finite, lengths finite and positive
                                  ["charts", "--params", str(PRESET), "--tol", "nan"],
                                  ["charts", "--params", str(PRESET), "--tol", "inf"],
                                  ["verify", "--params", str(PRESET), "--tol", "nan"],
                                  ["unstable", "--params", str(PRESET), "--spacing", "0"],
                                  ["unstable", "--params", str(PRESET), "--spacing", "-0.05"],
                                  ["unstable", "--params", str(PRESET), "--spacing", "inf"],
                                  ["unstable", "--params", str(PRESET), "--arclen", "nan"],
                                  ["unstable", "--params", str(PRESET), "--arclen", "0"],
                                  ["unstable", "--params", str(PRESET), "--arclen", "inf"]])
def test_negative_counts_and_tolerances_are_usage_errors(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert argv[-2] in err and out == ""


@pytest.mark.parametrize("argv", [["verify", "--params", str(PRESET), "--points", "0"],
                                  ["verify", "--params", str(PRESET), "--n-xi", "0"],
                                  ["verify", "--params", str(PRESET), "--points", "0",
                                   "--n-xi", "0"],
                                  ["parabolic", "--params", str(PRESET), "--points", "-1"]])
def test_sample_counts_below_one_are_usage_errors(argv, capsys, tmp_path):
    rc, out, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert rc == 2
    assert "must be >= 1" in err and out == ""
    assert not (tmp_path / "verify.json").exists()


ORBIT_SEEDS = "[[0.1, 0.1], [0.2, 0.3], [0.3, 1e-13], [-0.5, 0.6]]"

# sha256 of orbits.csv for ORBIT_SEEDS and 300 steps, as written when each
# row was formatted from numpy scalars; complex-a is figure 1 with
# a_2 = -2.64 + 0.3i
ORBIT_CSV_DIGESTS = {
    "real": "0145efd1d662546f55c1b18c4ecd854d6e0a90c2cb109314122e08ffdd85c39d",
    "complex-a": "b03052014b4b02d000e75d4256c4086a624e1efa9e497714e5bd7abbcad24800",
}


def _set_cpus(monkeypatch, cpus):
    """Make fork_map see `cpus` CPUs in this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("kind", sorted(ORBIT_CSV_DIGESTS))
def test_orbit_csv_pinned(kind, monkeypatch, capsys, tmp_path):
    params = PRESET
    if kind == "complex-a":
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**MEMBER, "a": {"2": [-2.64, 0.3]}}))
    seeds = tmp_path / "seeds.json"
    seeds.write_text(ORBIT_SEEDS)
    # the seeds in this process alone, or dealt between it and two children
    for cpus in (1, 3):
        _set_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus-{cpus}"
        rc, out, _ = run_cli(["orbit", "--params", str(params), "--steps", "300",
                              "--seeds", str(seeds), "--out", str(out_dir)], capsys)
        assert rc == 0
        assert '"2": "pole"' in out
        text = (out_dir / "orbits.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == ORBIT_CSV_DIGESTS[kind], cpus


def test_orbit_to_stdout_has_one_header(tmp_path):
    # with stdout block-buffered, the header is still in its buffer when the
    # seeds are dealt to forked children: a child that flushed it on exit
    # would repeat it.  On one CPU nothing forks, and the CSV is the same.
    seeds = tmp_path / "seeds.json"
    seeds.write_text(ORBIT_SEEDS)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    for cpus in (1, 3):
        code = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus})); "
                "from surfauto.cli import main; sys.exit(main(sys.argv[1:]))")
        run = subprocess.run([sys.executable, "-c", code, "orbit", "--params", str(PRESET),
                              "--steps", "300", "--seeds", str(seeds)],
                             capture_output=True, check=True, env=env)
        csv, statuses = run.stdout.rstrip(b"\n").rsplit(b"\n", 1)
        assert csv.count(b"seed_id,step,x,y") == 1, cpus
        assert hashlib.sha256(csv + b"\n").hexdigest() == ORBIT_CSV_DIGESTS["real"], cpus
        assert json.loads(statuses)["statuses"]["2"] == "pole"


@pytest.mark.parametrize("buffered", [False, True], ids=["text-only", "with-buffer"])
def test_orbit_to_stdout_keeps_the_text_printed_before(buffered, monkeypatch, tmp_path):
    # the rows are decoded and written to sys.stdout itself, so they follow
    # the text printed before, on a stream with a byte buffer or without one
    seeds = tmp_path / "seeds.json"
    seeds.write_text(ORBIT_SEEDS)
    argv = ["orbit", "--params", str(PRESET), "--steps", "300", "--seeds", str(seeds)]
    for cpus in (1, 3):
        _set_cpus(monkeypatch, cpus)
        stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii") if buffered else io.StringIO()
        with contextlib.redirect_stdout(stream):
            print("before")
            rc = main(argv)
        stream.flush()
        out = stream.buffer.getvalue().decode() if buffered else stream.getvalue()
        assert rc == 0
        before, rest = out.split("\n", 1)
        csv, statuses = rest.rstrip("\n").rsplit("\n", 1)
        assert before == "before"
        assert hashlib.sha256(csv.encode() + b"\n").hexdigest() == ORBIT_CSV_DIGESTS["real"], cpus
        assert json.loads(statuses)["statuses"]["2"] == "pole"


# [0.1, 1e200] trips the magnitude cap on step 1.  On figure 1 (c = 0) the
# linear part is a quarter turn and [1e90, 1e90] completes; on the (6,4)
# member with c = 2cos(pi/6) it stretches one coordinate to up to twice the
# other, and [0.0, 5.2e99] escapes on step 2, after one kept step
ESCAPE_CASES = {
    "real": (None, "[[0.1, 1e200], [1e90, 1e90], [0.1, 0.1]]", "completed"),
    "second-step": ({"n": 6, "k": 4, "c": {"j": 1, "sign": "+"}},
                    "[[0.1, 1e200], [0.0, 5.2e99], [0.1, 0.1]]", "escaped"),
}

# sha256 of orbits.csv for each of ESCAPE_CASES and 300 steps, as written
# when each row was formatted from numpy scalars
ESCAPE_CSV_DIGESTS = {
    "real": "2caae0ca8240f669f2822d47b13cd4a29fad1c71ebf789fe2464ead0aa25991f",
    "second-step": "20e23d4b307a3ef41d98cf768f6a464f359fc264d29a3bb52a080497a660118d",
}


@pytest.mark.parametrize("kind", sorted(ESCAPE_CSV_DIGESTS))
def test_escaped_orbit_csv_pinned(kind, monkeypatch, capsys, tmp_path):
    member, seed_text, second = ESCAPE_CASES[kind]
    params = PRESET
    if member:
        params = tmp_path / "params.json"
        params.write_text(json.dumps(member))
    statuses = {"0": "escaped", "1": second, "2": "completed"}
    seeds = tmp_path / "seeds.json"
    seeds.write_text(seed_text)
    for cpus in (1, 3):
        _set_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus-{cpus}"
        rc, out, _ = run_cli(["orbit", "--params", str(params), "--steps", "300",
                              "--seeds", str(seeds), "--out", str(out_dir)], capsys)
        assert rc == 0
        assert json.loads(out.splitlines()[-1]) == {"statuses": statuses}
        text = (out_dir / "orbits.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == ESCAPE_CSV_DIGESTS[kind], cpus


@pytest.mark.parametrize("content, message", [
    pytest.param(None, "cannot read seed file", id="missing"),
    pytest.param("[[0.1, 0.2", "cannot read seed file", id="not-json"),
    pytest.param('{"x": 0.1, "y": 0.2}', "cannot read seed file", id="not-a-list"),
    pytest.param("[[0.1]]", "each seed must be [x, y]", id="one-number"),
    pytest.param("[[0.1, 0.2, 0.3]]", "each seed must be [x, y]", id="three-numbers"),
    pytest.param('[[0.1, "y"]]', "each seed must be [x, y]", id="not-a-number"),
    pytest.param("[[0.1, NaN]]", "each seed must be [x, y]", id="not-finite"),
    pytest.param("[[1" + "0" * 400 + ", 0.1]]", "each seed must be [x, y]", id="huge-integer"),
    pytest.param("[]", "no seeds", id="empty"),
])
def test_bad_seed_file_is_usage_error(content, message, capsys, tmp_path):
    seeds = tmp_path / "seeds.json"
    if content is not None:
        seeds.write_text(content)
    rc, out, err = run_cli(["orbit", "--params", str(PRESET), "--seeds", str(seeds),
                            "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert message in err and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "orbits.csv").exists()


def test_unstable_reports_why_each_trace_stopped(capsys, tmp_path):
    rc, out, _ = run_cli(["unstable", "--params", str(PRESET), "--arclen", "2.0",
                          "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert out.count(", stop arclength") == 2
    manifolds = json.loads((tmp_path / "unstable.json").read_text())["manifolds"]
    assert all("stop" not in m["meta"] for m in manifolds)


def test_charts_at_2_10_survive_deep_underflow(capsys, tmp_path):
    # lifting to eps = 1e-7 at depth 21 gives images of modulus about
    # 1e-327, below the smallest double: the projective checks must compare
    # moduli at the working precision, not after float()
    rc, out, err = run_cli(["charts", "--n", "2", "--k", "10", "--c-j", "1", "--c-sign", "+",
                            "--out", str(tmp_path)], capsys)
    assert rc == 0, err
    payload = json.loads((tmp_path / "charts.json").read_text())
    assert payload["overall"] == "pass"
    assert len(payload["records"]) == 2 * 21


def _python(code, *args):
    """Run `code` with `args` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, timeout=120)


# the modules of the chart layer (mpmath, charts, dual) and of the plane
# dynamics (dynamics, polyroots), and numpy, which no command loads
LAYER_MODULES = ("mpmath", "numpy", "surfauto.charts", "surfauto.dual", "surfauto.dynamics",
                 "surfauto.polyroots")
DYNAMICS_MODULES = ["surfauto.dynamics", "surfauto.polyroots"]
PROBE = ("import json, sys\n{}\n"
         f"print(json.dumps([m for m in {LAYER_MODULES!r} if m in sys.modules]))")


def test_importing_the_cli_loads_no_chart_or_dynamics_layer():
    run = _python(PROBE.format("import surfauto, surfauto.cli"))
    assert json.loads(run.stdout) == []


# each command's arguments, and the modules of LAYER_MODULES it loads
COMMAND_LAYERS = {
    "spectrum": (["--n", "2", "--k", "4"], []),
    "degrees": (["--n", "2", "--k", "4"], []),
    "weyl": (["--n", "2", "--k", "4"], []),
    "cn": (["--n", "5"], []),
    "fixed-points": (["--params", str(PRESET)], DYNAMICS_MODULES),
    "unstable": (["--params", str(PRESET), "--arclen", "0.5"], DYNAMICS_MODULES),
    "orbit": (["--params", str(PRESET), "--steps", "10"], DYNAMICS_MODULES),
    "verify": (["--params", str(PRESET), "--points", "1", "--n-xi", "1"],
               ["mpmath", "surfauto.charts", "surfauto.dual"] + DYNAMICS_MODULES),
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_loads_only_its_layer(command, tmp_path):
    args, loaded = COMMAND_LAYERS[command]
    code = PROBE.format("from surfauto.cli import main; assert main(sys.argv[1:]) == 0")
    run = _python(code, command, *args, "--out", str(tmp_path))
    assert json.loads(run.stdout.splitlines()[-1]) == loaded


# figure 1's output file and flags for each command that runs the plane
# dynamics (verify through its fixed-point suite)
DYNAMICS_RUNS = {
    "fixed-points": ("fixed_points.json", []),
    "unstable": ("unstable.json", []),
    "orbit": ("orbits.csv", ["--steps", "300"]),
    "verify": ("verify.json", ["--points", "1", "--n-xi", "1"]),
}


def test_dynamics_commands_need_no_numpy(capsys, tmp_path):
    # with sys.modules["numpy"] = None every import of numpy raises
    # ImportError; each command still writes the file an ordinary run does
    argvs = {command: [command, "--params", str(PRESET), *flags]
             for command, (_, flags) in DYNAMICS_RUNS.items()}
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from surfauto.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
    _python(code, json.dumps([argv + ["--out", str(tmp_path / "blocked" / command)]
                              for command, argv in argvs.items()]))
    for command, (name, _) in DYNAMICS_RUNS.items():
        out = tmp_path / "ordinary" / command
        assert run_cli(argvs[command] + ["--out", str(out)], capsys)[0] == 0
        assert (tmp_path / "blocked" / command / name).read_bytes() == (out / name).read_bytes()


# every name `import surfauto` bound before the chart layer and the plane
# dynamics were imported on first use, but route_chart, which went with
# chart routing, and PeriodicityError, which went with the delta != 1 members
PACKAGE_NAMES = """
    CenterTable ChartDomainError ChartId ChartPoint DegenerateError ExactIdentityError
    ExtrapolationError FixedPointRecord IndeterminacyError MapParams NotSaddleError
    NumericCheckError OrbitResult OverflowEscape ParamError PicardLattice
    PoleError Polyline SurfautoError TSpace admissible_c candidate_c center_series char_poly
    char_poly_factor_check chart_to_plane charts chi_poly coxeter_factorization_check
    degree_sequence dual dynamics entropy errors eval_f eval_f_inverse eval_f_proj exactmat
    fiber_target fiber_transition_closed fiber_transition_numeric figure1_params fixed_points
    gamma_closed_form infinity_orbit iterate_orbit jacobian mapfamily minimality_report
    noether_chain parabolic_check parabolic_levels picard plane_to_chart polyroots proj_equal
    proj_normalize pushforward_char_poly pushforward_columns pushforward_det pushforward_matrix
    q_value reflections restricted_action reversibility_check rho_pushforward
    s_cycle_lengths spectral_radius strict_image t_reflections t_space trace_map_rank
    trace_set_separation unstable_manifold weyl_factorization_check weyl_generators
""".split()


def test_every_package_name_still_resolves():
    for name in PACKAGE_NAMES:
        value = getattr(surfauto, name)
        module = getattr(value, "__module__", None) or value.__name__
        assert module.startswith("surfauto."), name
        assert name in dir(surfauto)
    assert surfauto.fixed_points is fixed_points
    with pytest.raises(AttributeError):
        surfauto.no_such_name


def test_a_reader_that_closes_the_pipe_ends_the_command_without_traceback():
    # about 6 MB of CSV: the write after the reader has gone raises EPIPE
    with subprocess.Popen([sys.executable, "-m", "surfauto.cli", "orbit", "--params",
                           str(PRESET), "--steps", "20000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline() == b"seed_id,step,x,y\n"
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
        err = proc.stderr.read()
    assert rc == READER_GONE
    assert err == b""


def _whole_seed_orbit_rows(p, sid, seed, steps):
    """_orbit_rows as it was when all of a seed's numbers were formatted
    before its first block was built: the oracle of the block-wise one."""
    orb = iterate_orbit(p, seed, steps)
    txt = list(map("{:.15e}".format, orb.seq))
    head = f"{sid},"
    rows = zip(itertools.count(), txt, itertools.islice(txt, 1, None))
    blocks = []
    while block := "".join([f"{head}{i},{x},{y}\n"
                            for i, x, y in itertools.islice(rows, ORBIT_BLOCK)]):
        blocks.append(block)
    return orb.status, len(txt) - 1, blocks


def _figure1_default_seed():
    z = next(r for r in fixed_points(figure1_params()) if r.type == "elliptic").zeta.real
    return z + 1e-3, z + 1.3e-3


ORBIT_CASES = {
    "real": (figure1_params(), _figure1_default_seed(), "completed"),
    "complex-a": (MapParams(n=2, k=4, c_spec=(1, 1), a={2: -2.64 + 0.3j}), (0.2, 0.3),
                  "completed"),
    # escapes on step 2, after one kept step (see ESCAPE_CASES)
    "escaping": (MapParams(n=6, k=4, c_spec=(1, 1)), (0.0, 5.2e99), "escaped"),
    "pole": (figure1_params(), (0.3, 1e-13), "pole"),
}


@pytest.mark.parametrize("steps", [0, 1, ORBIT_BLOCK - 1, ORBIT_BLOCK, ORBIT_BLOCK + 1,
                                   2 * ORBIT_BLOCK, 2 * ORBIT_BLOCK + 1, 3 * ORBIT_BLOCK + 7])
@pytest.mark.parametrize("kind", sorted(ORBIT_CASES))
def test_orbit_blocks_match_the_whole_seed_oracle(kind, steps):
    p, seed, status = ORBIT_CASES[kind]
    # the job's pieces: its blocks of rows, then (status, row count)
    *blocks, tail = _orbit_rows(p, 3, seed, steps)
    got, want = (*tail, blocks), _whole_seed_orbit_rows(p, 3, seed, steps)
    assert all(isinstance(block, bytes) for block in blocks)
    assert got[:2] == want[:2]
    assert b"".join(got[2]) == "".join(want[2]).encode()
    assert [block.count(b"\n") for block in got[2][:-1]] == [ORBIT_BLOCK] * (len(got[2]) - 1)
    assert 1 <= got[2][-1].count(b"\n") <= ORBIT_BLOCK
    if steps > 100:
        assert got[0] == status


# a signed zero, the smallest subnormal, three-digit exponents, and the
# floats at and beside the magnitude cap and iterate_orbit's pole tolerance
EDGE_FLOATS = [-0.0, 5e-324, 1e-100, -1e100,
               math.nextafter(MAGNITUDE_CAP, 0), MAGNITUDE_CAP,
               math.nextafter(MAGNITUDE_CAP, math.inf),
               math.nextafter(1e-12, 0), 1e-12, math.nextafter(1e-12, 1), -1e-12]


def _with_examples(test):
    """Run a hypothesis test on each of EDGE_FLOATS too."""
    for x in EDGE_FLOATS:
        test = example(x)(test)
    return test


@_with_examples
@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_bytes_percent_e_is_str_format_e(x):
    # _orbit_rows formats a real block with bytes % and a complex one with str.format
    assert (b"%.15e" % x).decode() == "{:.15e}".format(x)


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
@pytest.mark.parametrize("kind", ["real", "complex-a"])
def test_orbit_block_of_edge_floats_matches_the_str_oracle(kind, x):
    p = ORBIT_CASES[kind][0]
    # x as the seed's x, then as its y, on which the pole tolerance and the cap act
    for seed in ((x, 0.5), (0.5, x)):
        *blocks, tail = _orbit_rows(p, 0, seed, 2)
        status, count, want = _whole_seed_orbit_rows(p, 0, seed, 2)
        assert tail == (status, count)
        assert b"".join(blocks) == "".join(want).encode()
    if kind == "complex-a":
        assert b"j," in blocks[0]


# tracemalloc peak of one 50 000-step figure-1 orbit job: 6.77 MiB when every
# number of the seed was formatted before the first block, 4.83 MiB when the
# whole seed was stepped first and then formatted block by block, 3.37 MiB
# when each block was stepped, formatted and its floats dropped before the
# next, and 1.05 MiB, at 50 000 and at 200 000 steps alike, since the job
# yields each block and keeps none of the seed's text; 0.99 MiB when each
# block is formatted as bytes, not str
ORBIT_JOB_PEAK_MB = 1.2


def test_orbit_job_holds_one_block_of_formatted_numbers():
    p, seed = figure1_params(), _figure1_default_seed()
    list(_orbit_rows(p, 0, seed, 10))
    # the same bound at four times the steps: the peak does not grow with them
    for steps, blocks in ((50_000, 13), (200_000, 49)):
        tracemalloc.start()
        try:
            # consumed as surfauto orbit consumes it: each block dropped once read
            pieces = 0
            for piece in _orbit_rows(p, 0, seed, steps):
                pieces += 1
                if not isinstance(piece, bytes):
                    status, count = piece
                del piece
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (status, count, pieces - 1) == ("completed", steps + 1, blocks)
        assert peak / 2**20 < ORBIT_JOB_PEAK_MB, steps
