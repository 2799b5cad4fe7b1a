"""The benchmark's workloads: seeded inputs, the timed operations, and checks.

Each builder takes a ``Draw`` and returns a ``Workload``: a list of operations
that make up one round, and a check that judges the results of all rounds
with the independent oracles in ``oracles.py``. Seed 0 gives the named
instances; any other seed draws every varied input uniformly from a narrow
band around its named value and shuffles the order of the operations. The
bands keep every operation's outcome: the same classification and no
failure other than the named fault.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

# lntlab modules are looked up at call time, so the tracer's wrappers apply
import lntlab.cli as cli
import lntlab.exponents as exponents

# p = 1e6 puts |u - 1| at the critical points below the absolute
# DEGENERATE_EVENT_TOL of lntlab.ode, so this run fails on every seed
FAULT_ARGV = ("singular", "--N", "5", "--p", "1e6", "--r-end", "1")


class Draw:
    """Seeded inputs: seed 0 keeps the named values and order."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.named = seed == 0

    def pick(self, named: float, lo: float, hi: float) -> float:
        return named if self.named else self.rng.uniform(lo, hi)

    def order(self, items) -> list:
        items = list(items)
        if not self.named:
            self.rng.shuffle(items)
        return items


@dataclass
class Op:
    label: str
    run: Callable[[], object]


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[list[list]], list[str]]  # results of every round -> problems
    in_process: bool = True
    inputs: dict = field(default_factory=dict)


def _same_rounds(rounds: list[list]) -> list[str]:
    return [f"round {k} differs from round 0" for k, res in enumerate(rounds[1:], 1)
            if res != rounds[0]]


def _raised(ops, results) -> list[str]:
    return [f"{op.label} raised {res!r}" for op, res in zip(ops, results)
            if isinstance(res, Exception)]


def exponent_roots(draw: Draw) -> Workload:
    R = draw.pick(1.0, 0.98, 1.02)
    order = draw.order([1, 2, 3, 4])
    ops = [Op(f"find_exponent i={i}",
              lambda i=i: exponents.find_exponent(i, R, 5, 6.0).p_i) for i in order]

    def check(rounds):
        problems = _raised(ops, rounds[0])
        if problems:
            return problems
        p = dict(zip(order, rounds[0]))
        for i in order:
            problems += oracles.check_exponent(i, 5, R, p[i])
        if not (p[1] < p[2] < p[3] < p[4]):
            problems.append(f"powers not increasing in i: {p}")
        return problems + _same_rounds(rounds)

    return Workload(ops, check, inputs={"R": R})


def cli_commands(draw: Draw) -> list[tuple[str, ...]]:
    """The README's CLI examples with seeded inputs, in seeded order."""
    f = repr
    scale = draw.pick(1.0, 0.95, 1.05)
    sweep = ",".join(f(scale * p) for p in (10.0, 20.0, 40.0, 80.0))
    commands = [
        ("singular", "--N", "5", "--p", f(draw.pick(20.0, 19.0, 21.0)), "--r-end", "5",
         "--check-bounds", "--emit", "csv,json"),
        ("shoot", "--gamma", f(draw.pick(10.0, 9.5, 10.5)), "--N", "5", "--p", "20",
         "--r-end", "5"),
        ("verify-all", "--N", "5", "--p", f(draw.pick(20.0, 19.0, 21.0)), "--R", "1"),
        ("hardy", "--N", "5", "--p", f(draw.pick(10.0, 9.5, 10.5)), "--eps0", "1.0",
         "--j-max", "5"),
        ("morse", "--N", "12", "--p", f(draw.pick(5.0, 4.95, 5.05)), "--R",
         f(draw.pick(1.0, 0.95, 1.05)), "--deltas", "1e-2,1e-3,1e-4"),
        ("sweep", "--N", "5", "--i", "1", "--p-list", sweep, "--jobs", "2"),
    ]
    return draw.order(commands + [FAULT_ARGV])


def run_cli(argv, outdir: Path, env: dict, in_process: bool) -> int:
    """One CLI call into ``outdir``: a fresh interpreter, or lntlab.cli.main."""
    argv = [*argv, "--out-dir", str(outdir)]
    if in_process:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    code = "import sys; from lntlab.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return proc.returncode


def cli_examples(draw: Draw, work: Path, env: dict, in_process: bool) -> Workload:
    argvs = cli_commands(draw)
    counter = itertools.count()

    def call(argv):
        outdir = work / f"cli-{next(counter):04d}"
        code = run_cli(argv, outdir, env, in_process)
        if code != 0:
            raise oracles.CliFailure(code, outdir)
        return outdir

    def rerun(argv):
        outdir = work / f"cli-rerun-{next(counter):04d}"
        run_cli(argv, outdir, env, in_process=False)
        return outdir

    ops = [Op(" ".join(argv), lambda argv=argv: call(argv)) for argv in argvs]
    return Workload(ops, lambda rounds: oracles.check_cli(argvs, rounds, rerun, FAULT_ARGV),
                    in_process=in_process, inputs={"commands": [list(a) for a in argvs]})
