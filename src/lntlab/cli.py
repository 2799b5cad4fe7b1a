"""Command-line harness: solve, sweep, verify, and persist results.

Every invocation produces a report bundle (JSON) in a run directory keyed by
the configuration hash, plus trajectory or table artifacts next to it. Exit
codes: 0 when no check failed, 1 when any check failed, 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import shutil
import sys
from pathlib import Path

from . import __version__
from ._dop853 import linspace
from .errors import (
    BracketError,
    ConvergenceFailure,
    CoverageError,
    DegenerateEventError,
    EventError,
    FeasibilityError,
    IntegrationError,
    ParameterError,
    PositivityError,
)
from .exponents import continuity_scan, find_exponent
from .ode import energy_rate_deviation
from .params import ProblemParams, derive_constants, lemma_constants
from .reports import FAIL, INFO, PASS, CheckRecord, ReportBundle
from .shooting import branch_sample, shoot
from .singular import (
    derivative_bound_check,
    origin_scaled,
    solve_singular,
    solve_with_criticals,
    verify_origin_bounds,
)
from .spectral import (
    DEFAULT_EPS0,
    TailClass,
    assemble_operator,
    check_cutoffs,
    hardy_test_function,
    morse_scan,
    potential_threshold_check,
    rayleigh_quotient,
)

_RUNTIME_ERRORS = (
    BracketError,
    ConvergenceFailure,
    CoverageError,
    DegenerateEventError,
    EventError,
    FeasibilityError,
    IntegrationError,
    OverflowError,  # a float operation left double range: numerical breakdown
    PositivityError,
)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _grid_spec(text: str) -> list[float]:
    """Parse 'lo:hi:n' into a uniform grid, or a comma list into values."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return linspace(float(lo), float(hi), int(n))
    return _float_list(text)


def build_parser(file_values: dict | None = None) -> argparse.ArgumentParser:
    """The parser; every command declares only the settings it reads.

    ``file_values`` holds a config file's ``key = value`` strings. Each one
    replaces the declared default of its setting, and argparse converts it
    with that setting's type, so a flag still wins. A key this command does
    not declare is ignored; a key no command declares is a ParameterError.
    """
    file_values = file_values or {}
    known = set()
    parser = argparse.ArgumentParser(
        prog="lntlab",
        description=(
            "Numerical laboratory for singular radial solutions of the "
            "supercritical Lin-Ni-Takagi equation on a ball."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p, flag, default, **kwargs):
        dest = flag[2:].replace("-", "_")
        known.add(dest)
        p.add_argument(flag, dest=dest, default=file_values.get(dest, default), **kwargs)

    def command(name, help, tol=True, emit=False, jobs=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value file of settings; flags win")
        setting(p, "--out-dir", "runs")
        if tol:
            setting(p, "--tol-rel", 1e-10, type=float)
            setting(p, "--tol-abs", 1e-12, type=float)
        if emit:
            setting(p, "--emit", "csv", help="trajectory formats: csv, json or csv,json")
            p.add_argument("--full", action="store_true",
                           help="do not thin trajectories on serialization")
        if jobs:
            setting(p, "--jobs", 1, type=int, help="accepted and ignored: points run in order")
        return p

    p = command("singular", "construct the singular solution", emit=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--r-end", dest="r_end", type=float, required=True)
    p.add_argument("--check-bounds", dest="check_bounds", action="store_true",
                   help="run the origin-envelope and derivative reports")

    p = command("shoot", "integrate a regular initial-value solution", emit=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r-end", dest="r_end", type=float, required=True)

    p = command("branch", "sample the upper-branch diagram at fixed gamma values")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma-list", dest="gamma_list", type=_float_list, required=True)
    p.add_argument("--p-bracket", dest="p_bracket", type=_float_list, required=True)

    p = command("find-exponent", "power with prescribed i-th critical radius")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-lo", dest="p_lo", type=float, required=True)
    p.add_argument("--p-cap", dest="p_cap", type=float, default=1e4)

    p = command("continuity", "refinement study of p -> R_p^i")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-grid", dest="p_grid", type=_grid_spec, required=True,
                   help="'lo:hi:n' or comma list")

    p = command("morse", "negative-eigenvalue counts along shrinking cutoffs")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--deltas", type=_float_list, default=[1e-2, 1e-3, 1e-4])

    p = command("hardy", "negativity certificates from Hardy test functions", tol=False)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eps0", type=float, default=DEFAULT_EPS0)
    p.add_argument("--j-max", dest="j_max", type=int, default=5)

    p = command("verify-all", "run the verification checks on one instance", emit=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--r-end", dest="r_end", type=float, default=None)

    p = command("sweep", "power sweep of the singular critical radii", jobs=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--p-list", dest="p_list", type=_float_list, required=True)

    unknown = sorted(file_values.keys() - known)
    if unknown:
        raise ParameterError(f"config keys {unknown} name no setting; known: {sorted(known)}")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"malformed config line: {line!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _check_settings(args) -> None:
    """Reject settings outside their ranges; ``emit`` becomes its sorted formats."""
    if "tol_rel" in vars(args) and not (0.0 < args.tol_rel < 1.0
                                        and 0.0 <= args.tol_abs < math.inf):
        raise ParameterError(
            "tolerances must satisfy 0 < tol_rel < 1 and 0 <= tol_abs < inf, got "
            f"tol_rel={args.tol_rel}, tol_abs={args.tol_abs}"
        )
    if getattr(args, "jobs", 1) < 1:
        raise ParameterError(f"jobs must be at least 1, got {args.jobs}")
    if "emit" in vars(args):
        formats = {tok.strip() for tok in args.emit.split(",") if tok.strip()}
        if not formats or not formats <= {"csv", "json"}:
            raise ParameterError(f"emit takes csv, json or csv,json; got {args.emit!r}")
        args.emit = sorted(formats)


def _check_powers(N: int, powers) -> None:
    # every power of a list is a valid instance before the first solve
    for p in powers:
        ProblemParams(N, p)


def _reject_repeats(values, flag: str) -> None:
    # every value names its own check, at .17g: distinct doubles, distinct names
    if len({f"{v:.17g}" for v in values}) != len(values):
        raise ParameterError(f"{flag} repeats a value: {values}")


def _emit_trajectory(traj, outdir: Path, args, bundle):
    for fmt, write in (("csv", traj.to_csv), ("json", traj.to_json)):
        if fmt in args.emit:
            path = outdir / f"trajectory.{fmt}"
            write(path, full=args.full)
            bundle.add_artifact(path)


def _energy_checks(bundle, traj):
    rise = traj.max_energy_rise()
    bundle.add(CheckRecord(
        name="energy-monotonicity",
        status=PASS if rise <= 1.0 else FAIL,
        claim="radial-energy-nonincreasing",
        margins={"normalized_worst_rise": rise},
    ))
    dev = energy_rate_deviation(traj)
    bundle.add(CheckRecord(
        name="energy-rate-identity",
        status=PASS if dev <= 1e-4 else FAIL,
        claim="energy-derivative-equals-friction-term",
        margins={"max_relative_deviation": dev},
    ))


def _verification_checks(bundle, sol):
    ob = verify_origin_bounds(sol)
    bundle.add(CheckRecord(
        name="origin-sandwich",
        status=PASS if ob.passed else FAIL,
        claim="two-sided-power-law-envelope-on-seed-window",
        margins={"lower_margin": ob.lower_margin, "upper_margin": ob.upper_margin,
                 "tol": ob.tol},
    ))
    db = derivative_bound_check(sol)
    bundle.add(CheckRecord(
        name="derivative-window",
        status=INFO,
        claim="derivative-smallness-at-window-edge",
        margins={"du_at_rtilde": db.du_at_rtilde, "du_scaled": db.du_scaled,
                 "u_at_rtilde": db.u_at_rtilde,
                 "sup_remainder_ratio": db.sup_remainder_ratio},
    ))
    tr = potential_threshold_check(sol)
    bundle.add(CheckRecord(
        name="hardy-threshold-side",
        status=PASS if tr.passed else FAIL,
        claim="potential-limit-vs-hardy-constant-matches-index-regime",
        margins={"limit": tr.limit_closed_form, "hardy": tr.hardy_constant,
                 "margin": tr.margin, "limit_computed": tr.limit_computed},
        message=f"limit sits {tr.side} the Hardy constant",
    ))
    _energy_checks(bundle, sol.trajectory)


def _solver_counters(traj) -> dict:
    """The stepper's counters of a trajectory: accepted steps, field
    evaluations and rejected steps."""
    return {"steps": traj.n_accepted, "nfev": traj.nfev, "rejected": traj.n_rejected}


def cmd_singular(args, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p, R=args.R)
    sol = solve_singular(params, args.r_end, args.tol_rel, args.tol_abs)
    _emit_trajectory(sol.trajectory, outdir, args, bundle)
    bundle.add(CheckRecord(
        name="singular-solve",
        status=PASS,
        claim="singular-solution-constructed",
        margins={"r_p": sol.r_p if sol.r_p is not None else math.nan,
                 "n_critical": len(sol.critical_radii),
                 "seed_radius": sol.seed_radius,
                 "seed_truncation": sol.seed_truncation,
                 **_solver_counters(sol.trajectory)},
    ))
    if args.check_bounds:
        _verification_checks(bundle, sol)


def cmd_shoot(args, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p)
    result = shoot(args.gamma, params, args.r_end, args.tol_rel, args.tol_abs)
    _emit_trajectory(result.trajectory, outdir, args, bundle)
    status = PASS if not result.nonpositive else INFO
    bundle.add(CheckRecord(
        name="shoot",
        status=status,
        claim="regular-solution-integrated",
        margins={"gamma": args.gamma, "n_critical": len(result.critical_radii),
                 **_solver_counters(result.trajectory)},
        message=result.trajectory.message,
    ))
    if not result.nonpositive:
        _energy_checks(bundle, result.trajectory)


def cmd_branch(args, bundle, outdir: Path):
    if not args.gamma_list or len(args.p_bracket) != 2:
        raise ParameterError(
            "branch needs at least one gamma and a bracket of two powers lo,hi; got "
            f"--gamma-list {args.gamma_list}, --p-bracket {args.p_bracket}"
        )
    _reject_repeats(args.gamma_list, "--gamma-list")
    # every gamma is a valid initial value before the first shot
    for gamma in args.gamma_list:
        if not (0.0 < gamma < math.inf):
            raise ParameterError(f"gamma must be finite and positive, got {gamma}")
    rows = []
    for gamma in args.gamma_list:
        name = f"branch-sample-gamma-{gamma:.17g}"
        try:
            p_found = branch_sample(
                args.i, args.R, args.N, gamma, tuple(args.p_bracket),
                args.tol_rel, args.tol_abs,
            )
            rows.append((gamma, p_found))
            bundle.add(CheckRecord(
                name=name, status=PASS,
                claim="critical-radius-matches-target-at-found-power",
                margins={"gamma": gamma, "p": p_found},
            ))
        except _RUNTIME_ERRORS as exc:
            bundle.add(CheckRecord(
                name=name, status=FAIL,
                claim="critical-radius-matches-target-at-found-power",
                message=str(exc),
            ))
    bundle.add_artifact(outdir / "branch.csv", (("gamma", "p"), rows))


def cmd_find_exponent(args, bundle, outdir: Path):
    sol = find_exponent(args.i, args.R, args.N, args.p_lo, args.p_cap,
                        args.tol_rel, args.tol_abs)
    bundle.add_artifact(outdir / "exponent.json",
                        {"i": sol.i, "R": sol.R, "p_i": sol.p_i,
                         "residual": sol.residual, "crossings": sol.crossings})
    bundle.add(CheckRecord(
        name="find-exponent",
        status=PASS,
        claim="prescribed-critical-radius-realized-with-matching-crossing-count",
        margins={"p_i": sol.p_i, "residual": sol.residual, "crossings": sol.crossings,
                 "solves": sol.solves, "bracket": sol.bracket},
    ))


def cmd_continuity(args, bundle, outdir: Path):
    _check_powers(args.N, args.p_grid)
    rep = continuity_scan(args.i, args.N, args.p_grid,
                          args.tol_rel, args.tol_abs)
    bundle.add_artifact(outdir / "continuity.json",
                        {"grid": rep.refined_grid.tolist(),
                         "values": rep.refined_values.tolist(),
                         "modulus_coarse": rep.modulus_coarse,
                         "modulus_fine": rep.modulus_fine,
                         "ratio": rep.ratio})
    bundle.add(CheckRecord(
        name="continuity-refinement",
        status=PASS if rep.passed else FAIL,
        claim="critical-radius-modulus-halves-under-grid-halving",
        margins={"modulus_coarse": rep.modulus_coarse,
                 "modulus_fine": rep.modulus_fine,
                 "ratio": rep.ratio,
                 "max_jump_factor": rep.max_jump_factor},
    ))


def cmd_morse(args, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p, R=args.R)
    check_cutoffs(args.deltas, params.R)
    # past R, and far enough past the window edge at a small ball
    rtilde_p = lemma_constants(derive_constants(params)).rtilde_p
    sol = solve_singular(params, r_end=max(1.05 * args.R, 2.0 * rtilde_p),
                         rtol=args.tol_rel, atol=args.tol_abs)
    scan = morse_scan(params, sol, args.deltas)
    bundle.add_artifact(outdir / "morse.json", {
        "classification": scan.classification.name,
        "reports": [{"cutoff": rep.cutoff, "grid_size": rep.grid_size,
                     "negative_count": rep.negative_count,
                     "smallest_eigenvalues": list(rep.smallest_eigenvalues)}
                    for rep in scan.reports],
    })
    # the side of pJL predicts the classification; INCONCLUSIVE passes neither
    expected_unbounded = params.p < sol.constants.pJL
    expected = TailClass.UNBOUNDED if expected_unbounded else TailClass.SUPERCRITICAL_STABLE_TAIL
    bundle.add(CheckRecord(
        name="morse-dichotomy",
        status=PASS if scan.classification is expected else FAIL,
        claim="index-tail-class-matches-joseph-lundgren-side",
        margins={"counts": list(scan.counts)},
        message=f"classification {scan.classification.name}, "
                f"p {'<' if expected_unbounded else '>'} pJL",
    ))


def cmd_hardy(args, bundle, outdir: Path):
    if args.j_max < 1:
        raise ParameterError(f"j_max must be at least 1, got {args.j_max}")
    if not (0.0 < args.eps0 < math.inf):
        raise ParameterError(f"eps0 must be positive and finite, got {args.eps0}")
    params = ProblemParams(args.N, args.p)
    c = derive_constants(params)
    lem = lemma_constants(c)
    r1 = math.exp(-2.0 * math.pi / args.eps0)
    if r1 > lem.rtilde_p:
        raise ParameterError(
            f"outermost support radius {r1} exceeds the validated window "
            f"{lem.rtilde_p}; decrease eps0"
        )
    # built before any work: they check that every support is representable
    fjs = [hardy_test_function(j, args.eps0, args.N) for j in range(1, args.j_max + 1)]
    # the origin series of c, in scaled form: no overflow at large theta
    scaled = functools.partial(origin_scaled, c)
    rows = []
    for j, fj in enumerate(fjs, start=1):
        value = rayleigh_quotient(fj, scaled, params)
        rows.append((j, value))
        bundle.add(CheckRecord(
            name=f"hardy-negativity-j{j}",
            status=PASS if value < 0.0 else FAIL,
            claim="log-oscillating-test-function-has-negative-form-value",
            margins={"J": value},
        ))
        # the operator's grid is the test function's own log-radius grid, and
        # its unknowns are the scaled samples y = r**nu phi
        sub = ProblemParams(args.N, args.p, R=fj.radii[-1])
        op = assemble_operator(scaled, sub, fj.radii[0], len(fj.log_r) - 1)
        y = fj.scaled[1:]
        quad = (math.fsum(d * v * v for d, v in zip(op.form.diag, y))
                + 2.0 * math.fsum(o * a * b for o, a, b in zip(op.form.offdiag, y, y[1:])))
        agrees = abs(quad - value) <= 1e-2 * abs(value)
        bundle.add(CheckRecord(
            name=f"hardy-discrete-j{j}",
            status=PASS if quad < 0.0 and agrees else FAIL,
            claim="projected-test-function-keeps-negative-discrete-form",
            margins={"quadratic_form": quad},
        ))
    bundle.add_artifact(outdir / "hardy.csv", (("j", "J"), rows))


def cmd_verify_all(args, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p, R=args.R)
    r_end = args.r_end if args.r_end is not None else max(2.5, 2.0 * args.R)
    sol = solve_singular(params, r_end, args.tol_rel, args.tol_abs)
    _emit_trajectory(sol.trajectory, outdir, args, bundle)
    _verification_checks(bundle, sol)


def cmd_sweep(args, bundle, outdir: Path):
    if not args.p_list:
        raise ParameterError("sweep needs at least one power in --p-list")
    _reject_repeats(args.p_list, "--p-list")
    _check_powers(args.N, args.p_list)
    radii, scaled, rows = [], [], []
    for p in args.p_list:
        try:
            sol = solve_with_criticals(ProblemParams(args.N, p), args.i,
                                       rtol=args.tol_rel, atol=args.tol_abs)
        except _RUNTIME_ERRORS as exc:
            bundle.add(CheckRecord(
                name=f"sweep-point-p{p:.17g}",
                status=FAIL,
                claim="singular-solve-at-sweep-point",
                message=str(exc),
            ))
            rows.append((p, "", "", "error"))
            continue
        R_i = sol.critical_radii[args.i - 1]
        radii.append(R_i)
        if sol.r_p is not None:
            scaled.append(sol.r_p * math.sqrt(p))
        rows.append((p, "" if sol.r_p is None else sol.r_p, R_i, "ok"))

    decreasing = all(a > b for a, b in zip(radii, radii[1:]))
    # a trend needs two points, and a failed point leaves a gap in the grid
    judged = len(radii) >= 2 and len(radii) == len(rows)
    bundle.add(CheckRecord(
        name="critical-radius-decay-trend",
        status=(PASS if decreasing else FAIL) if judged else INFO,
        claim="critical-radii-decrease-along-increasing-power",
        margins={"R_i": radii},
        message="" if judged else "incomplete grid: trend reported as INFO",
    ))
    bundle.add(CheckRecord(
        name="first-crossing-scaling",
        status=INFO,
        claim="first-unit-crossing-times-sqrt-p-stays-banded",
        margins={"r_p_sqrt_p": scaled},
    ))
    bundle.add_artifact(outdir / "sweep.csv", (("p", "r_p", "R_i", "status"), rows))


_HANDLERS = {
    "singular": cmd_singular,
    "shoot": cmd_shoot,
    "branch": cmd_branch,
    "find-exponent": cmd_find_exponent,
    "continuity": cmd_continuity,
    "morse": cmd_morse,
    "hardy": cmd_hardy,
    "verify-all": cmd_verify_all,
    "sweep": cmd_sweep,
}


# where and how a run works, not what it computes; the bundle adds the command
_UNHASHED = {"command", "config", "out_dir", "jobs"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    created = False
    try:
        if args.config:
            # the file's values become the declared defaults, so flags still win
            args = build_parser(_read_config_file(args.config)).parse_args(argv)
        _check_settings(args)
        config = {k: v for k, v in sorted(vars(args).items()) if k not in _UNHASHED}
        tolerances = {"rel": args.tol_rel, "abs": args.tol_abs} if "tol_rel" in config else {}
        bundle = ReportBundle(command=args.command, config=config, tolerances=tolerances)
        outdir = Path(args.out_dir) / f"run-{bundle.hash}"
        created = not outdir.exists()
        outdir.mkdir(parents=True, exist_ok=True)
        _HANDLERS[args.command](args, bundle, outdir)
    except (ParameterError, FileNotFoundError) as exc:
        # a configuration error leaves no run directory behind
        if created:
            shutil.rmtree(outdir, ignore_errors=True)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        bundle.add(CheckRecord(
            "run-error", FAIL, claim="run-completes",
            fixtures={"exception": type(exc).__name__},
            message=f"{type(exc).__name__}: {exc}",
        ))
    bundle.save(outdir / "report.json")
    for line in bundle.summary_lines():
        print(line)
    print(f"report: {outdir / 'report.json'}")
    return bundle.exit_code()


if __name__ == "__main__":
    sys.exit(main())
