"""The verdicts of tools/same_artifacts.py on hand-made run directories; no
CLI runs."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
_SPEC = importlib.util.spec_from_file_location("same_artifacts", _PATH)
same_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_artifacts)

REPORT = {"schema": "report-v1", "timestamp": 1.0,
          "checks": [{"name": "singular-solve", "status": "PASS", "margins": {}},
                     {"name": "origin-sandwich", "status": "PASS",
                      "margins": {"lower_margin": 3.177159487822019e-06,
                                  "upper_margin": -1.3029168378222028e-11}}],
          "artifacts": ["trajectory.csv"]}
CSV = b"r,u,du,E\n0.5,1.25,-0.5,0.1\n"


def _run_dir(top: Path, report: dict, csv: bytes) -> Path:
    run = top / "run-0123456789ab"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    (run / "trajectory.csv").write_bytes(csv)
    return top


def test_timestamp_alone_reads_as_same(tmp_path):
    later = {**REPORT, "timestamp": 2.0}
    got = same_artifacts.compare_dirs(_run_dir(tmp_path / "a", REPORT, CSV),
                                      _run_dir(tmp_path / "b", later, CSV))
    assert got["same"] and got["report_keys"] == {}
    assert set(got["files"].values()) == {"same"}


def test_one_changed_csv_byte_reads_as_differs(tmp_path):
    got = same_artifacts.compare_dirs(_run_dir(tmp_path / "a", REPORT, CSV),
                                      _run_dir(tmp_path / "b", REPORT, CSV.replace(b"5", b"6", 1)))
    assert not got["same"]
    assert got["files"] == {"run-0123456789ab/report.json": "same",
                            "run-0123456789ab/trajectory.csv": "differs"}


def test_changed_margin_names_its_key_path(tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["checks"][1]["margins"]["upper_margin"] = -1.302924435009345e-11
    moved["timestamp"] = 3.0
    got = same_artifacts.compare_dirs(_run_dir(tmp_path / "a", REPORT, CSV),
                                      _run_dir(tmp_path / "b", moved, CSV))
    assert not got["same"]
    assert got["report_keys"] == {
        "run-0123456789ab/report.json": ["checks.1.margins.upper_margin"]}
    assert got["files"]["run-0123456789ab/trajectory.csv"] == "same"
