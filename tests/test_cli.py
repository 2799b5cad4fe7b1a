import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lntlab
from lntlab.cli import main


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


def test_sweep_fresh_resume_and_failure_demotion(tmp_path):
    base = ["sweep", "--N", 5, "--i", 1, "--p-list", "10,20",
            "--jobs", 1, "--out-dir", tmp_path]
    assert run_cli(base) == 0
    rep = read_report(tmp_path)
    resume = next(c for c in rep["checks"] if c["name"] == "sweep-resume")
    assert resume["margins"] == {"cached": 0, "computed": 2}
    trend = next(c for c in rep["checks"] if c["name"] == "critical-radius-decay-trend")
    assert trend["status"] == "PASS"

    # identical rerun resumes every point
    assert run_cli(base) == 0
    rep = read_report(tmp_path)
    resume = next(c for c in rep["checks"] if c["name"] == "sweep-resume")
    assert resume["margins"] == {"cached": 2, "computed": 0}

    # a subcritical point fails, which demotes the trend check to INFO
    code = run_cli(["sweep", "--N", 5, "--i", 1, "--p-list", "2,10,20",
                    "--jobs", 1, "--out-dir", tmp_path / "mixed"])
    assert code == 1
    rep = read_report(tmp_path / "mixed")
    trend = next(c for c in rep["checks"] if c["name"] == "critical-radius-decay-trend")
    assert trend["status"] == "INFO"
    assert rep["worst_status"] == "FAIL"


def test_find_exponent_command(tmp_path):
    assert run_cli(["find-exponent", "--i", 1, "--R", 1, "--N", 5, "--p-lo", 6,
                    "--out-dir", tmp_path]) == 0
    blob = json.loads(next(tmp_path.glob("run-*/exponent.json")).read_text())
    assert blob["crossings"] == 1
    assert abs(blob["p_i"] - 22.7876) < 1e-3


def test_morse_command(tmp_path):
    assert run_cli(["morse", "--N", 12, "--p", 5, "--R", 1,
                    "--deltas", "1e-2,1e-3", "--out-dir", tmp_path]) == 0
    blob = json.loads(next(tmp_path.glob("run-*/morse.json")).read_text())
    assert blob["classification"] == "SUPERCRITICAL_STABLE_TAIL"
    assert [r["negative_count"] for r in blob["reports"]] == [1, 1]


@pytest.mark.parametrize("flags", [["--N", 12, "--p", 3.0123, "--R", 0.9817],
                                   ["--N", 5, "--p", 10.1, "--R", 1.05]])
def test_morse_command_near_threshold_inputs(tmp_path, flags):
    # inputs near (12, 3) and (5, 10) whose counts at delta=1e-5 need the
    # grid resolved down to the cutoff
    assert run_cli(["morse", *flags, "--deltas", "1e-2,1e-3,1e-4,1e-5",
                    "--out-dir", tmp_path]) == 0
    blob = json.loads(next(tmp_path.glob("run-*/morse.json")).read_text())
    assert blob["classification"] == "UNBOUNDED"


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
])
def test_config_error_leaves_no_run_directory(tmp_path, flags):
    out = run_child([*flags, "--out-dir", tmp_path])
    assert out.returncode == 2, out.stderr
    assert "configuration error" in out.stderr
    assert not list(tmp_path.glob("run-*"))


def test_runtime_error_writes_failure_report(tmp_path):
    # a numerical breakdown exits 1 and still explains itself in report.json
    out = run_child(["singular", "--N", "5", "--p", "1e6", "--r-end", "1",
                     "--out-dir", tmp_path], timeout=120)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    report = read_report(tmp_path)
    assert report["worst_status"] == "FAIL"
    failure = report["checks"][-1]
    assert failure["name"] == "run-error" and failure["status"] == "FAIL"
    assert failure["fixtures"]["exception"] == "DegenerateEventError"
    assert "critical point on u = 1" in failure["message"]


def test_sweep_recomputes_truncated_point(tmp_path):
    base = ["sweep", "--N", 5, "--i", 1, "--p-list", "10,20",
            "--jobs", 1, "--out-dir", tmp_path]
    assert run_cli(base) == 0
    points = sorted(tmp_path.glob("run-*/points/point-*.json"))
    assert len(points) == 2
    assert not list(tmp_path.glob("run-*/points/*.tmp"))
    good = points[0].read_bytes()
    points[0].write_bytes(good[: len(good) // 2])
    assert run_cli(base) == 0
    rep = read_report(tmp_path)
    resume = next(c for c in rep["checks"] if c["name"] == "sweep-resume")
    assert resume["margins"] == {"cached": 1, "computed": 1}
    assert points[0].read_bytes() == good
