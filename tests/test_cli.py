import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lntlab
import lntlab.cli as cli
from lntlab.cli import build_parser, main
from lntlab.params import joseph_lundgren


def run_cli(args):
    return main([str(a) for a in args])


def read_report(out_dir):
    runs = sorted(out_dir.glob("run-*/report.json"))
    assert runs, f"no report under {out_dir}"
    return json.loads(runs[-1].read_text())


def test_singular_command_and_determinism(tmp_path):
    args = ["singular", "--N", 5, "--p", 20, "--r-end", 3,
            "--emit", "csv,json", "--check-bounds"]
    assert run_cli(args + ["--out-dir", tmp_path / "a"]) == 0
    assert run_cli(args + ["--out-dir", tmp_path / "b"]) == 0
    csv_a = next((tmp_path / "a").glob("run-*/trajectory.csv"))
    csv_b = next((tmp_path / "b").glob("run-*/trajectory.csv"))
    assert csv_a.read_bytes() == csv_b.read_bytes()
    report = read_report(tmp_path / "a")
    names = {c["name"] for c in report["checks"]}
    assert {"singular-solve", "origin-sandwich", "derivative-window",
            "energy-monotonicity", "energy-rate-identity"} <= names
    assert report["worst_status"] in ("PASS", "INFO")
    # every verdict names the property it tests
    assert all(c["claim"] for c in report["checks"])
    solve = next(c for c in report["checks"] if c["name"] == "singular-solve")
    assert 0.0 < solve["margins"]["seed_truncation"] <= 1e-10
    # the report alone shows where the run started and how many steps it took
    rtilde_p = lntlab.seed_window(lntlab.ProblemParams(5, 20.0), 1e-10).lemma.rtilde_p
    assert solve["margins"]["seed_radius"] == rtilde_p
    assert solve["margins"]["steps"] == lntlab.solve_singular(
        lntlab.ProblemParams(5, 20.0), 3.0).trajectory.n_accepted


def test_config_error_exit_code(tmp_path):
    # subcritical power is a configuration error: exit 2, no partial output
    code = run_cli(["singular", "--N", 5, "--p", 2, "--r-end", 3,
                    "--out-dir", tmp_path])
    assert code == 2
    assert not list(tmp_path.glob("run-*/trajectory.csv"))


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("tol_rel = 1e-8\n# comment line\ntol_abs = 1e-10\n")
    assert run_cli(["shoot", "--gamma", 10, "--N", 5, "--p", 20, "--r-end", 2,
                    "--config", cfg, "--out-dir", tmp_path / "a"]) == 0
    rep = read_report(tmp_path / "a")
    assert rep["tolerances"]["rel"] == 1e-8
    assert run_cli(["shoot", "--gamma", 10, "--N", 5, "--p", 20, "--r-end", 2,
                    "--config", cfg, "--tol-rel", "1e-9",
                    "--out-dir", tmp_path / "b"]) == 0
    rep = read_report(tmp_path / "b")
    assert rep["tolerances"]["rel"] == 1e-9


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tol_rel 1e-8\n")
    code = run_cli(["shoot", "--gamma", 2, "--N", 5, "--p", 20, "--r-end", 1,
                    "--config", cfg, "--out-dir", tmp_path])
    assert code == 2


@pytest.mark.parametrize("line", ["tolrel = 1e-3", "N = 7", "bogus = 1"])
def test_config_key_naming_no_setting_rejected(tmp_path, line):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(["shoot", "--gamma", 2, "--N", 5, "--p", 20, "--r-end", 1,
                    "--config", cfg, "--out-dir", tmp_path / "runs"]) == 2
    assert not (tmp_path / "runs").exists()


def test_config_file_settings_resolve_like_flags(tmp_path):
    # one lab file serves every command: a setting this command does not
    # take is ignored, and a file value hashes as the same flag would
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("jobs = 2\nemit = json\n")
    assert run_cli(["morse", "--N", 12, "--p", 5, "--deltas", "1e-2,1e-3",
                    "--config", cfg, "--out-dir", tmp_path / "morse"]) == 0
    names = {}
    for key, flags in {"file": ["--config", cfg], "flag": ["--emit", "json"],
                       "full": ["--emit", "json", "--full"], "default": []}.items():
        assert run_cli(["singular", "--N", 5, "--p", 20, "--r-end", 1, *flags,
                        "--out-dir", tmp_path / key]) == 0
        (run,) = (tmp_path / key).glob("run-*")
        names[key] = run.name
    assert names["file"] == names["flag"]
    assert len({names["flag"], names["full"], names["default"]}) == 3


def test_sweep_fresh_resume_and_failure_demotion(tmp_path):
    assert run_cli(["sweep", "--N", 5, "--i", 1, "--p-list", "10,20",
                    "--out-dir", tmp_path]) == 0
    rep = read_report(tmp_path)
    trend = next(c for c in rep["checks"] if c["name"] == "critical-radius-decay-trend")
    assert trend["status"] == "PASS"

    # a point that fails at runtime (p = p_S at N = 23 has no admissible
    # smallness constant) demotes the trend check to INFO
    code = run_cli(["sweep", "--N", 23, "--i", 1, "--p-list", "1.1904761904761905,2,3",
                    "--out-dir", tmp_path / "mixed"])
    assert code == 1
    rep = read_report(tmp_path / "mixed")
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["sweep-point-p1.1904761904761905"]["message"].startswith("no admissible")
    trend = checks["critical-radius-decay-trend"]
    assert trend["status"] == "INFO"
    assert len(trend["margins"]["R_i"]) == 2
    assert rep["worst_status"] == "FAIL"

    # one point shows no trend either
    assert run_cli(["sweep", "--N", 5, "--i", 1, "--p-list", "10",
                    "--out-dir", tmp_path / "one"]) == 0
    rep = read_report(tmp_path / "one")
    trend = next(c for c in rep["checks"] if c["name"] == "critical-radius-decay-trend")
    assert trend["status"] == "INFO"


def test_sweep_rejects_jobs_below_one(tmp_path):
    # from a flag or from the config file alike
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 0\n")
    base = ["sweep", "--N", 5, "--i", 1, "--p-list", "10,20", "--out-dir", tmp_path / "runs"]
    for flags in (["--jobs", 0], ["--jobs", -3], ["--config", cfg]):
        assert run_cli(base + flags) == 2
    assert not list((tmp_path / "runs").glob("run-*"))


def test_find_exponent_command(tmp_path):
    args = ["find-exponent", "--i", 1, "--R", 1, "--N", 5, "--p-lo", 6]
    assert run_cli(args + ["--out-dir", tmp_path / "a"]) == 0
    blob = json.loads(next((tmp_path / "a").glob("run-*/exponent.json")).read_text())
    assert blob["crossings"] == 1
    assert abs(blob["p_i"] - 22.7876) < 1e-3
    # the root finder's trace: singular solves made and the bracket of powers
    check = next(c for c in read_report(tmp_path / "a")["checks"]
                 if c["name"] == "find-exponent")
    assert 3 <= check["margins"]["solves"] <= 8
    lo, hi = check["margins"]["bracket"]
    assert 6.0 < lo <= blob["p_i"] <= hi
    # and a rerun records the same trace
    assert run_cli(args + ["--out-dir", tmp_path / "b"]) == 0
    rerun = next(c for c in read_report(tmp_path / "b")["checks"]
                 if c["name"] == "find-exponent")
    assert rerun == check


def test_find_exponent_index_below_istar_exits_2(tmp_path, capsys):
    # the first critical radius at p_lo = 6 is about 1.9 < R = 2.5: the error
    # names the smallest admissible index and leaves no run directory
    assert run_cli(["find-exponent", "--i", 1, "--R", 2.5, "--N", 5, "--p-lo", 6,
                    "--out-dir", tmp_path]) == 2
    assert "i >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("run-*"))


def test_morse_command(tmp_path):
    assert run_cli(["morse", "--N", 12, "--p", 5, "--R", 1,
                    "--deltas", "1e-2,1e-3", "--out-dir", tmp_path]) == 0
    blob = json.loads(next(tmp_path.glob("run-*/morse.json")).read_text())
    assert blob["classification"] == "SUPERCRITICAL_STABLE_TAIL"
    assert [r["negative_count"] for r in blob["reports"]] == [1, 1]


def test_morse_small_ball_solves_past_window(tmp_path):
    # 1.05 R = 0.105 lies inside the window rtilde_p = 0.1118 at (5, 20): the
    # singular solve runs to 2 rtilde_p instead
    assert run_cli(["morse", "--N", 5, "--p", 20, "--R", 0.1, "--deltas", "1e-2,1e-3",
                    "--out-dir", tmp_path]) == 0
    check = next(c for c in read_report(tmp_path)["checks"] if c["name"] == "morse-dichotomy")
    assert check["status"] == "PASS"
    blob = json.loads(next(tmp_path.glob("run-*/morse.json")).read_text())
    assert blob["classification"] == "UNBOUNDED"


@pytest.mark.parametrize("N, p", [(12, 3), (5, 10), (12, 5)])
def test_morse_single_cutoff_fails_dichotomy(tmp_path, N, p):
    # one count classifies nothing, on either side of pJL
    assert run_cli(["morse", "--N", N, "--p", p, "--deltas", "1e-2",
                    "--out-dir", tmp_path]) == 1
    check = next(c for c in read_report(tmp_path)["checks"] if c["name"] == "morse-dichotomy")
    assert check["status"] == "FAIL"
    assert check["message"].startswith("classification INCONCLUSIVE")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    # near (12, 3) and (5, 10): counts at delta=1e-5 need the grid resolved
    # down to the cutoff
    ["--N", 12, "--p", 3.0123, "--R", 0.9817, "--deltas", "1e-2,1e-3,1e-4,1e-5"],
    ["--N", 5, "--p", 10.1, "--R", 1.05, "--deltas", "1e-2,1e-3,1e-4,1e-5"],
    # just above pJL at N=30: theta = 6.7, so A r**(-theta) overflows at 1e-50
    ["--N", 30, "--p", 1.3, "--deltas", "1e-2,1e-50"],
])
def test_morse_command_near_threshold_inputs(tmp_path, flags):
    assert run_cli(["morse", *flags, "--out-dir", tmp_path]) == 0
    blob = json.loads(next(tmp_path.glob("run-*/morse.json")).read_text())
    unbounded = flags[3] < joseph_lundgren(flags[1])
    assert blob["classification"] == ("UNBOUNDED" if unbounded else "SUPERCRITICAL_STABLE_TAIL")


# empty, not decreasing, not finite, not below R = 1
@pytest.mark.parametrize("deltas", [",", "1e-2,1e-2", "1e-2,nan,1e-4", "2,1e-2"])
def test_morse_rejects_cutoffs_before_solving(tmp_path, monkeypatch, deltas):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_singular called")

    monkeypatch.setattr(cli, "solve_singular", no_solve)
    assert run_cli(["morse", "--N", 5, "--p", 10, "--deltas", deltas,
                    "--out-dir", tmp_path]) == 2
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("eps0", ["0", "inf", "nan", "1e6"])
def test_hardy_checks_eps0_before_building(tmp_path, monkeypatch, eps0):
    # 0, inf and nan are no width; at 1e6 the outermost support exceeds the
    # validated window. Either way no test function is built.
    def no_build(*args, **kwargs):
        raise AssertionError("hardy_test_function called")

    monkeypatch.setattr(cli, "hardy_test_function", no_build)
    assert run_cli(["hardy", "--N", 5, "--p", 10, "--eps0", eps0, "--j-max", 3,
                    "--out-dir", tmp_path]) == 2
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("gammas", ["2,nan", "2,inf", "2,0", "2,-1"])
def test_branch_checks_every_gamma_before_shooting(tmp_path, monkeypatch, gammas):
    def no_shot(*args, **kwargs):
        raise AssertionError("branch_sample called")

    monkeypatch.setattr(cli, "branch_sample", no_shot)
    assert run_cli(["branch", "--i", 1, "--R", 1, "--N", 5, "--gamma-list", gammas,
                    "--p-bracket", "5,40", "--out-dir", tmp_path]) == 2
    assert not list(tmp_path.glob("run-*"))


def test_hardy_command(tmp_path):
    assert run_cli(["hardy", "--N", 5, "--p", 10, "--eps0", 1.0, "--j-max", 2,
                    "--out-dir", tmp_path]) == 0
    rep = read_report(tmp_path)
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["hardy-negativity-j1"] == "PASS"
    assert names["hardy-discrete-j1"] == "PASS"


def test_hardy_default_eps0_runs_discrete(tmp_path):
    # N=12, p=3 is where a form on nodal phi broke down at this eps0
    for N, p in [(5, 10), (12, 3)]:
        out = tmp_path / f"N{N}"
        assert run_cli(["hardy", "--N", N, "--p", p, "--eps0", 0.35,
                        "--out-dir", out]) == 0
        checks = {c["name"]: c for c in read_report(out)["checks"]}
        for j in range(1, 6):
            quadrature = checks[f"hardy-negativity-j{j}"]
            discrete = checks[f"hardy-discrete-j{j}"]
            assert quadrature["status"] == discrete["status"] == "PASS"
            J = quadrature["margins"]["J"]
            assert discrete["margins"]["quadratic_form"] == pytest.approx(J, rel=1e-2)


def test_continuity_command(tmp_path):
    assert run_cli(["continuity", "--i", 1, "--N", 5, "--p-grid", "15:30:6",
                    "--out-dir", tmp_path]) == 0
    rep = read_report(tmp_path)
    check = next(c for c in rep["checks"] if c["name"] == "continuity-refinement")
    assert check["status"] == "PASS"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shoot_equilibrium_passes_energy_rate_check(tmp_path):
    # on u = 1 the energy rate is 0 everywhere: no point is left to compare,
    # and the deviation reads 0 rather than 0/0
    assert run_cli(["shoot", "--gamma", 1, "--N", 5, "--p", 20, "--r-end", 5,
                    "--out-dir", tmp_path]) == 0
    rep = read_report(tmp_path)
    check = next(c for c in rep["checks"] if c["name"] == "energy-rate-identity")
    assert check["status"] == "PASS"
    assert check["margins"]["max_relative_deviation"] == 0.0


def test_verify_all_command(tmp_path):
    assert run_cli(["verify-all", "--N", 5, "--p", 20, "--R", 1,
                    "--out-dir", tmp_path]) == 0
    rep = read_report(tmp_path)
    names = {c["name"] for c in rep["checks"]}
    assert {"origin-sandwich", "derivative-window", "hardy-threshold-side",
            "energy-monotonicity", "energy-rate-identity"} <= names


def run_child(args, timeout=60):
    """The CLI in a child process, so a hang hits the timeout, not the suite."""
    env = dict(os.environ)
    src = str(Path(lntlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lntlab.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("flags", [["--p", "inf", "--r-end", "1"],
                                   ["--p", "20", "--r-end", "inf"]])
def test_non_finite_input_exits_2(tmp_path, flags):
    out = run_child(["singular", "--N", "5", *flags, "--out-dir", tmp_path])
    assert out.returncode == 2, out.stderr
    assert "must be finite" in out.stderr
    assert "Traceback" not in out.stderr
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("flags", [
    ["singular", "--N", "5", "--p", "nan", "--r-end", "1"],
    ["singular", "--N", "5", "--p", "20", "--R", "inf", "--r-end", "1"],
    ["hardy", "--N", "5", "--p", "10", "--eps0", "0"],
    ["hardy", "--N", "5", "--p", "10", "--eps0", "1e-3"],
    ["hardy", "--N", "5", "--p", "10", "--j-max", "0"],
    # a cap that is not finite leaves the power search unbounded
    *[["find-exponent", "--i", "1", "--R", "1", "--N", "5", "--p-lo", "6", "--p-cap", cap]
      for cap in ("nan", "inf", "1e400")],
    # lists with no entry, or a bracket that is not two powers
    ["morse", "--N", "5", "--p", "10", "--deltas", ","],
    ["branch", "--i", "2", "--R", "1", "--N", "12", "--gamma-list", ",",
     "--p-bracket", "150,250"],
    *[["branch", "--i", "2", "--R", "1", "--N", "12", "--gamma-list", "5",
       "--p-bracket", bracket] for bracket in ("150", "150,200,250")],
    ["sweep", "--N", "5", "--p-list", ","],
    # a repeated value would name two checks alike
    ["branch", "--i", "1", "--R", "1", "--N", "5", "--gamma-list", "5,5",
     "--p-bracket", "10,40"],
    ["sweep", "--N", "5", "--p-list", "2,2"],
    *[["continuity", "--i", "1", "--N", "5", "--p-grid", grid]
      for grid in ("10,10,20", "10,10,10", "20,20.000000000000004,20.000000000000014")],
    # a format with no writer, or none at all
    *[["singular", "--N", "5", "--p", "20", "--r-end", "1", "--emit", emit]
      for emit in ("xml", "csv,xml", ",")],
    # every power of a list is checked before the first solve
    ["sweep", "--N", "5", "--p-list", "nan"],
    ["sweep", "--N", "5", "--p-list", "2,10"],
    ["continuity", "--i", "1", "--N", "5", "--p-grid", "10,nan,20,30"],
    # a cap at or below p_lo leaves the power search no room, and one that is
    # not finite no bound: rejected before the first solve
    *[["find-exponent", "--i", "1", "--R", "1", "--N", "5", "--p-lo", "6", "--p-cap", cap]
      for cap in ("5", "6", "-3")],
    ["branch", "--i", "2", "--R", "1", "--N", "12", "--gamma-list", "5",
     "--p-bracket", "150,inf"],
])
def test_config_error_leaves_no_run_directory(tmp_path, flags):
    out = run_child([*flags, "--out-dir", tmp_path])
    assert out.returncode == 2, out.stderr
    assert "configuration error" in out.stderr
    assert not list(tmp_path.glob("run-*"))


BASE = ["--N", "5", "--p", "20", "--r-end", "1"]


@pytest.mark.parametrize("flags, codes", [
    # tolerances outside 0 < tol_rel < 1, 0 <= tol_abs < inf are configuration errors
    *[(BASE + ["--tol-rel", v], (2,)) for v in ("nan", "0", "-1", "1e300")],
    *[(BASE + ["--tol-abs", v], (2,)) for v in ("nan", "-1", "inf")],
    # at the edges of the admitted range a run finishes or fails with a report
    (BASE + ["--tol-abs", "0"], (0,)),
    (BASE + ["--tol-rel", "0.5"], (0,)),
    (BASE + ["--tol-rel", "1e-300"], (0,)),
    (BASE + ["--tol-abs", "1e300"], (0, 1)),
    (["--N", "3", "--p", "5", "--r-end", "5"], (0,)),
    (["--N", "30", "--p", "1.3", "--r-end", "1"], (0,)),
    (["--N", "13", "--p", "33.14", "--r-end", "11.57", "--tol-rel", "2.8e-5",
      "--tol-abs", "0"], (0,)),
    # p = p_S at N = 23: no admissible smallness constant, a runtime failure
    (["--N", "23", "--p", "1.1904761904761905", "--r-end", "0.01"], (1,)),
    # a trial stage whose u**p overflows is rejected, not the run ended
    (["--N", "6", "--p", "15062.811244616925", "--r-end", "1.3254",
      "--tol-rel", "1.06e-13", "--tol-abs", "1.28e-3"], (0,)),
    # the quartic's ends miss the sign change the accepted states show
    (["--N", "12", "--p", "674.7872085423724", "--r-end", "0.8594164168429487",
      "--tol-rel", "4.923077638502184e-09", "--tol-abs", "1e300"], (0, 1)),
])
def test_singular_exit_codes(tmp_path, flags, codes):
    # an input ends with its exit code and no traceback; a finished or failed
    # run leaves its report, a configuration error nothing
    out = run_child(["singular", *flags, "--out-dir", tmp_path])
    assert out.returncode in codes, out.stderr
    assert "Traceback" not in out.stderr
    runs = list(tmp_path.glob("run-*"))
    if out.returncode == 2:
        assert not runs
    else:
        assert runs and all((r / "report.json").is_file() for r in runs)


def _readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("lntlab ")]


def test_readme_cli_examples_parse():
    # every example in the README's CLI block names only existing flags
    examples = _readme_examples()
    assert len(examples) >= 9
    parser = build_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


# every command declares only the settings it reads
SETTINGS = {"config", "out_dir", "tol_rel", "tol_abs"}
TRAJECTORY = SETTINGS | {"emit", "full"}
DECLARED = {
    "singular": TRAJECTORY | {"N", "p", "R", "r_end", "check_bounds"},
    "shoot": TRAJECTORY | {"gamma", "N", "p", "r_end"},
    "branch": SETTINGS | {"i", "R", "N", "gamma_list", "p_bracket"},
    "find-exponent": SETTINGS | {"i", "R", "N", "p_lo", "p_cap"},
    "continuity": SETTINGS | {"i", "N", "p_grid"},
    "morse": SETTINGS | {"N", "p", "R", "deltas"},
    "hardy": {"config", "out_dir", "N", "p", "eps0", "j_max"},
    "verify-all": TRAJECTORY | {"N", "p", "R", "r_end"},
    "sweep": SETTINGS | {"jobs", "N", "i", "p_list"},
}


def test_each_command_declares_only_the_settings_it_reads():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {name: {a.dest for a in p._actions if a.dest != "help"}
                for name, p in sub.choices.items()}
    assert declared == DECLARED
    assert sum(map(len, declared.values())) == 78


@pytest.mark.parametrize("argv", [
    ["singular", "--N", "5", "--p", "20", "--r-end", "1", "--format", "csv"],
    ["morse", "--N", "5", "--p", "10", "--jobs", "2"],
    ["hardy", "--N", "5", "--p", "10", "--tol-rel", "1e-3"],
    ["find-exponent", "--i", "1", "--R", "1", "--N", "5", "--p-lo", "6", "--emit", "json"],
    ["continuity", "--i", "1", "--N", "5", "--p-grid", "15:30:6", "--full"],
], ids=["singular-format", "morse-jobs", "hardy-tol-rel", "find-exponent-emit",
        "continuity-full"])
def test_undeclared_flag_exits_2(tmp_path, argv):
    out = run_child([*argv, "--out-dir", tmp_path])
    assert out.returncode == 2, out.stderr
    assert "unrecognized arguments" in out.stderr
    assert not list(tmp_path.glob("run-*"))


def test_runtime_error_writes_failure_report(tmp_path):
    # a run that fails exits 1 and still explains itself in report.json; no
    # power up to p_cap = 7 puts the first critical radius at R = 1
    out = run_child(["find-exponent", "--i", "1", "--R", "1", "--N", "5", "--p-lo", "6",
                     "--p-cap", "7", "--out-dir", tmp_path], timeout=120)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    report = read_report(tmp_path)
    assert report["worst_status"] == "FAIL"
    failure = report["checks"][-1]
    assert failure["name"] == "run-error" and failure["status"] == "FAIL"
    assert failure["fixtures"]["exception"] == "BracketError"


def test_large_power_singular_exits_0(tmp_path):
    # at p = 1e6, |u - 1| at the critical points falls to 1e-12; their kinds
    # come from the direction u' crosses zero, and they still alternate
    out = run_child(["singular", "--N", "5", "--p", "1e6", "--r-end", "1",
                     "--out-dir", tmp_path], timeout=120)
    assert out.returncode == 0, out.stderr
    solve = next(c for c in read_report(tmp_path)["checks"] if c["name"] == "singular-solve")
    assert solve["margins"]["n_critical"] > 300


def test_sweep_recomputes_truncated_point(tmp_path, monkeypatch):
    base = ["sweep", "--N", 5, "--i", 1, "--p-list", "10,20", "--out-dir", tmp_path]
    assert run_cli(base) == 0
    (run_dir,) = tmp_path.glob("run-*")

    # a rerun interrupted before its first rename (of sweep.csv) leaves every
    # previous file whole and no .tmp behind
    before = {f: f.read_bytes() for f in run_dir.rglob("*") if f.is_file()}
    assert {f.name for f in before} == {"sweep.csv", "report.json"}

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(base)
    assert {f: f.read_bytes() for f in run_dir.rglob("*") if f.is_file()} == before


def test_readme_morse_example_loads_no_scipy(tmp_path):
    (argv,) = [a for a in _readme_examples() if a[0] == "morse"]
    env = dict(os.environ)
    src = str(Path(lntlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from lntlab.cli import main; code = main(sys.argv[1:]); "
            "print([m for m in sys.modules if m.startswith('scipy')]); sys.exit(code)")
    out = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(tmp_path)],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_readme_example_writes_only_its_artifacts(tmp_path, argv):
    # every file of a run is report.json or a listed artifact, none a leftover
    # .tmp, also after a rerun into the same directory, which rewrites every
    # artifact byte for byte
    artifacts = []
    for _ in range(2):
        assert run_cli([*argv, "--out-dir", tmp_path]) == 0
        (run_dir,) = tmp_path.glob("run-*")
        written = {f for f in run_dir.rglob("*") if f.is_file()}
        listed = {Path(a) for a in read_report(tmp_path)["artifacts"]}
        assert written == {run_dir / "report.json"} | listed
        artifacts.append({f: f.read_bytes() for f in listed})
    assert artifacts[0] == artifacts[1]
