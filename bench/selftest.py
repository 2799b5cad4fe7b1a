"""Self-test of the benchmark's checks: right answers pass, wrong ones fail.

Each oracle gets a known-correct result of a named instance (as computed by
lntlab and confirmed by the oracle) and a perturbed copy, and must accept the
first and reject the second. The CLI check gets a run directory whose report
says FAIL and a rerun whose trajectory differs by one byte. Run from the
repository root:

    python3 bench/selftest.py

Exit code 0 means every check behaved; no lntlab code runs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import oracles
from oracles import CliFailure, check_cli

# find_exponent(i, R=1, N=5, p_lo=6) for i = 1..4
EXPONENTS = {1: 22.78759155284206, 2: 67.573840613215, 3: 130.9975275202305,
             4: 214.40357669850346}


def _cases(work: Path):
    for i, p in EXPONENTS.items():
        yield f"exponent i={i}", lambda i=i, p=p: oracles.check_exponent(i, 5, 1.0, p), True
        yield (f"exponent i={i}, p*(1+1e-4)",
               lambda i=i, p=p: oracles.check_exponent(i, 5, 1.0, p * (1 + 1e-4)), False)

    singular = ("singular", "--N", "5", "--emit", "csv,json")
    fault_argv = ("singular", "--N", "5", "--p", "1e6")

    def run_dir(name, verdict, trajectory=b"r,u\n1,2\n"):
        d = work / name / "run-0"
        d.mkdir(parents=True)
        (d / "report.json").write_text(json.dumps({"worst_status": verdict}))
        (d / "trajectory.csv").write_bytes(trajectory)
        (d / "trajectory.json").write_bytes(b"{}\n")
        return d.parent

    good, same = run_dir("good", "PASS"), run_dir("same", "PASS")
    flipped = run_dir("flipped", "PASS", b"r,u\n1,3\n")
    failing = run_dir("failing", "FAIL")
    fault = CliFailure(1, work / "fault")

    def cli(first, again):
        return lambda: check_cli([singular, fault_argv], [[first, fault]], lambda a: again,
                                 fault_argv)

    yield "cli", cli(good, same), True
    yield "cli, FAIL verdict", cli(failing, failing), False
    yield "cli, rerun differs", cli(good, flipped), False
    yield "cli, other command exits 1", cli(CliFailure(1, good), same), False


def main() -> int:
    work = Path(__file__).resolve().parent.parent / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bad = 0
    try:
        for name, check, should_pass in _cases(work):
            problems = check()
            ok = (not problems) == should_pass
            bad += not ok
            verdict = "accepted" if not problems else f"rejected: {problems[0]}"
            print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} of the checks misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
