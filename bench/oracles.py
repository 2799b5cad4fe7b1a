"""Independent checks of lntlab results, built on numpy and scipy alone.

Nothing here imports lntlab. Each check recomputes the quantity a workload
returned with a different formulation or algorithm and returns a list of
problems; an empty list means the result is accepted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14


def _singular_seed(N: int, p: float, r0: float) -> tuple[float, float]:
    """(u, u') of A r^-theta (1 + D r^2), the two-term singular expansion."""
    theta = 2.0 / (p - 1.0)
    A = (theta * (N - 2.0 - theta)) ** (1.0 / (p - 1.0))
    D = 1.0 / ((2.0 - theta) * (N - theta) + p * theta * (N - 2.0 - theta))
    u = A * r0**-theta * (1.0 + D * r0 * r0)
    du = A * r0 ** (-theta - 1.0) * (-theta + (2.0 - theta) * D * r0 * r0)
    return u, du


def singular_solution(N: int, p: float, r_end: float):
    """DOP853 run of the radial equation from the two-term seed.

    The seed radius 1e-3/sqrt(p) keeps the neglected r^4 term near 1e-12.
    Event 0 is u' = 0 (critical points), event 1 is u = 1.
    """
    r0 = 1e-3 / math.sqrt(p)
    fp = float(p)

    def f(r, y):
        return (y[1], -(N - 1.0) / r * y[1] + y[0] - y[0] ** fp)

    def critical(r, y):
        return y[1]

    def unit(r, y):
        return y[0] - 1.0

    sol = solve_ivp(f, (r0, r_end), _singular_seed(N, p, r0), method="DOP853",
                    rtol=RTOL, atol=ATOL, events=[critical, unit])
    if sol.status != 0:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol


def check_exponent(i: int, N: int, R: float, p_i: float) -> list[str]:
    """The i-th critical radius at p_i lies within 1e-6 R of R, with i unit crossings on (0, R]."""
    sol = singular_solution(N, p_i, 1.5 * R)
    crit, unit = sol.t_events
    if crit.size < i:
        return [f"i={i}: only {crit.size} critical points up to {1.5 * R}"]
    problems = []
    if abs(crit[i - 1] - R) > 1e-6 * R:
        problems.append(f"i={i}: critical radius {float(crit[i - 1])!r} misses R={R!r}")
    crossings = int(np.count_nonzero(unit <= R))
    if crossings != i:
        problems.append(f"i={i}: {crossings} unit crossings on (0, R], expected {i}")
    return problems


class CliFailure(Exception):
    def __init__(self, code: int, outdir: Path):
        super().__init__(f"exit code {code}")
        self.code = code
        self.outdir = outdir


def _trajectory_bytes(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("run-*/trajectory.*"))}


def check_cli(argvs, rounds, rerun, fault) -> list[str]:
    """Exit codes, report verdicts and byte-identical reruns of ``singular``.

    ``rounds`` holds, per round and command, the run directory or the
    ``CliFailure`` of a non-zero exit. Only the command ``fault`` may exit 1.
    ``rerun(argv)`` runs a command again into a fresh directory and returns it.
    """
    problems = []
    for results in rounds:
        for argv, res in zip(argvs, results):
            if isinstance(res, CliFailure):
                if not (argv == fault and res.code == 1):
                    problems.append(f"{' '.join(argv)}: {res}")
                continue
            if isinstance(res, Exception):
                problems.append(f"{' '.join(argv)} raised {res!r}")
                continue
            reports = list(res.glob("run-*/report.json"))
            if len(reports) != 1:
                problems.append(f"{' '.join(argv)}: {len(reports)} report.json files")
                continue
            worst = json.loads(reports[0].read_text(encoding="utf-8"))["worst_status"]
            if worst == "FAIL":
                problems.append(f"{' '.join(argv)}: report verdict FAIL")
    k = next(k for k, argv in enumerate(argvs) if "--emit" in argv)
    first = rounds[0][k]
    if not isinstance(first, Exception):
        again = rerun(argvs[k])
        a, b = _trajectory_bytes(first), _trajectory_bytes(again)
        if len(a) != 2 or a != b:
            problems.append(f"rerun of {' '.join(argvs[k])} changed the trajectory "
                            f"artifacts {sorted(a)} -> {sorted(b)}")
    return problems
