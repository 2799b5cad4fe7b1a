"""Same-behaviour check of the working tree against a parent commit.

Run from the repository root:

    python3 tools/same_artifacts.py --parent 2457790 \
        --extra "shoot --gamma 1 --N 5 --p 20 --r-end 5"

The parent commit is unpacked with ``git archive`` into a temporary
directory, which is removed afterwards. Every ``lntlab ...`` line of the
working tree's README.md, then each ``--extra`` command line (without the
leading ``lntlab``), runs once on each side, each in a fresh interpreter on
that side's ``src`` and into its own output directory. Per command the two
exit codes are compared, and so is every file the run wrote: byte for byte,
except ``report.json``, which is compared as JSON without its ``timestamp``
and whose differing key paths are listed. The only line of standard output
is one JSON object; the exit status is 1 on any difference. Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, _unpack  # noqa: E402

_MAIN = "import sys; from lntlab.cli import main; sys.exit(main(sys.argv[1:]))"


def readme_commands(readme: Path) -> list[list[str]]:
    """The argument lists of README.md's ``lntlab ...`` lines."""
    return [shlex.split(line)[1:] for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("lntlab ")]


def _run(root: Path, argv: list[str], out: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", _MAIN, *argv, "--out-dir", str(out)],
                          cwd=root, env=env, capture_output=True, check=False).returncode


def key_paths(a, b, path: str = "") -> list[str]:
    """The key paths (``checks.2.margins.upper_margin``) at which two JSON
    values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(a.keys() | b.keys())
                for p in (key_paths(a[k], b[k], f"{path}{k}.") if k in a and k in b
                          else [f"{path}{k}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for k, (x, y) in enumerate(zip(a, b)) for p in key_paths(x, y, f"{path}{k}.")]
    return [] if a == b else [path.rstrip(".")]


def _report(path: Path) -> dict:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timestamp", None)
    return report


def compare_dirs(parent: Path, change: Path) -> dict:
    """Which files under two output directories differ: per relative path
    ``same``, ``differs`` or the side it is ``only`` on, and the key paths of
    each ``report.json`` that differs."""
    files = {side: {p.relative_to(top).as_posix() for p in top.rglob("*") if p.is_file()}
             for side, top in (("parent", parent), ("change", change))}
    verdicts, report_keys = {}, {}
    for name in sorted(files["parent"] | files["change"]):
        if name not in files["change"]:
            verdicts[name] = "only parent"
        elif name not in files["parent"]:
            verdicts[name] = "only change"
        elif Path(name).name == "report.json":
            keys = key_paths(_report(parent / name), _report(change / name))
            verdicts[name] = "differs" if keys else "same"
            if keys:
                report_keys[name] = keys
        else:
            same = (parent / name).read_bytes() == (change / name).read_bytes()
            verdicts[name] = "same" if same else "differs"
    return {"same": all(v == "same" for v in verdicts.values()), "files": verdicts,
            "report_keys": report_keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--extra", action="append", default=[],
                        help="one more command line to run, without 'lntlab'; may be repeated")
    args = parser.parse_args(argv)

    commands = readme_commands(ROOT / "README.md") + [shlex.split(e) for e in args.extra]
    work = Path(tempfile.mkdtemp(prefix="same-artifacts-"))
    results = []
    try:
        _unpack(args.parent, work / "parent-tree")
        for k, command in enumerate(commands):
            out = {side: work / side / f"{k:02d}" for side in ("parent", "change")}
            codes = [_run(work / "parent-tree", command, out["parent"]),
                     _run(ROOT, command, out["change"])]
            for path in out.values():
                path.mkdir(parents=True, exist_ok=True)
            result = compare_dirs(out["parent"], out["change"])
            result["same"] = result["same"] and codes[0] == codes[1]
            results.append({"argv": shlex.join(command), "exit": codes, **result})
            print(f"{'same' if result['same'] else 'DIFFERS'}: {shlex.join(command)}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    same = all(r["same"] for r in results)
    print(json.dumps({"parent": args.parent, "same": same, "commands": results}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
