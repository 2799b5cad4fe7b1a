"""Command-line harness: solve, sweep, verify, and persist results.

Every invocation produces a report bundle (JSON) in a run directory keyed by
the configuration hash, plus trajectory or table artifacts next to it. Exit
codes: 0 when no check failed, 1 when any check failed, 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
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
    solve_singular,
    solve_with_criticals,
    verify_origin_bounds,
)
from .spectral import (
    assemble_operator,
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

DEFAULTS = {
    "tol_rel": 1e-10,
    "tol_abs": 1e-12,
    "out_dir": "runs",
    "emit": "csv",
    "jobs": os.cpu_count() or 1,
}


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _grid_spec(text: str) -> list[float]:
    """Parse 'lo:hi:n' into a uniform grid, or a comma list into values."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return list(np.linspace(float(lo), float(hi), int(n)))
    return _float_list(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lntlab",
        description=(
            "Numerical laboratory for singular radial solutions of the "
            "supercritical Lin-Ni-Takagi equation on a ball."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None,
                       help="key=value file supplying defaults; flags win")
        p.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
        p.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
        p.add_argument("--out-dir", dest="out_dir", type=str, default=None)
        p.add_argument("--emit", "--format", dest="emit", type=str, default=None,
                       help="artifact format: csv, json, or csv,json")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--full", action="store_true",
                       help="do not thin trajectories on serialization")

    p = sub.add_parser("singular", help="construct the singular solution")
    add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--r-end", dest="r_end", type=float, required=True)
    p.add_argument("--check-bounds", dest="check_bounds", action="store_true",
                   help="run the origin-envelope and derivative reports")

    p = sub.add_parser("shoot", help="integrate a regular initial-value solution")
    add_common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r-end", dest="r_end", type=float, required=True)

    p = sub.add_parser("branch", help="sample the upper-branch diagram at fixed gamma values")
    add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma-list", dest="gamma_list", type=_float_list, required=True)
    p.add_argument("--p-bracket", dest="p_bracket", type=_float_list, required=True)

    p = sub.add_parser("find-exponent", help="power with prescribed i-th critical radius")
    add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-lo", dest="p_lo", type=float, required=True)
    p.add_argument("--p-cap", dest="p_cap", type=float, default=1e4)

    p = sub.add_parser("continuity", help="refinement study of p -> R_p^i")
    add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p-grid", dest="p_grid", type=_grid_spec, required=True,
                   help="'lo:hi:n' or comma list")

    p = sub.add_parser("morse", help="negative-eigenvalue counts along shrinking cutoffs")
    add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--deltas", type=_float_list, default=[1e-2, 1e-3, 1e-4])
    p.add_argument("--grids", type=_int_list, default=None,
                   help="grid sizes to try per cutoff (default: doubling)")

    p = sub.add_parser("hardy", help="negativity certificates from Hardy test functions")
    add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eps0", type=float, default=0.35)
    p.add_argument("--j-max", dest="j_max", type=int, default=5)

    p = sub.add_parser("verify-all", help="run the verification checks on one instance")
    add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--r-end", dest="r_end", type=float, default=None)

    p = sub.add_parser("sweep", help="power sweep of the singular critical radii")
    add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--p-list", dest="p_list", type=_float_list, required=True)

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


def _resolve_common(args) -> dict:
    file_cfg = _read_config_file(args.config) if args.config else {}

    def pick(name, cast):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_cfg:
            return cast(file_cfg[name])
        return DEFAULTS[name]

    common = {
        "tol_rel": pick("tol_rel", float),
        "tol_abs": pick("tol_abs", float),
        "out_dir": pick("out_dir", str),
        "emit": pick("emit", str),
        "jobs": int(pick("jobs", int)),
        "full": bool(getattr(args, "full", False)),
    }
    if not (0.0 < common["tol_rel"] < 1.0 and 0.0 <= common["tol_abs"] < math.inf):
        raise ParameterError(
            "tolerances must satisfy 0 < tol_rel < 1 and 0 <= tol_abs < inf, got "
            f"tol_rel={common['tol_rel']}, tol_abs={common['tol_abs']}"
        )
    return common


def _emit_trajectory(traj, outdir: Path, stem: str, emit: str, full: bool, bundle):
    formats = {tok.strip() for tok in emit.split(",")}
    if "csv" in formats:
        path = outdir / f"{stem}.csv"
        traj.to_csv(path, full=full)
        bundle.add_artifact(path)
    if "json" in formats:
        path = outdir / f"{stem}.json"
        traj.to_json(path, full=full)
        bundle.add_artifact(path)


def _energy_checks(bundle, traj, rtol, atol):
    rise = traj.max_energy_rise(rtol, atol)
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


def _verification_checks(bundle, sol, rtol, atol):
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
    _energy_checks(bundle, sol.trajectory, rtol, atol)


def cmd_singular(args, common, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p, R=args.R)
    sol = solve_singular(params, args.r_end, common["tol_rel"], common["tol_abs"])
    _emit_trajectory(sol.trajectory, outdir, "trajectory", common["emit"], common["full"], bundle)
    bundle.add(CheckRecord(
        name="singular-solve",
        status=PASS,
        claim="singular-solution-constructed",
        margins={"r_p": sol.r_p if sol.r_p is not None else math.nan,
                 "n_critical": len(sol.critical_radii),
                 "seed_truncation": sol.seed_truncation},
    ))
    if args.check_bounds:
        _verification_checks(bundle, sol, common["tol_rel"], common["tol_abs"])


def cmd_shoot(args, common, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p)
    result = shoot(args.gamma, params, args.r_end, common["tol_rel"], common["tol_abs"])
    _emit_trajectory(result.trajectory, outdir, "trajectory", common["emit"], common["full"], bundle)
    status = PASS if not result.nonpositive else INFO
    bundle.add(CheckRecord(
        name="shoot",
        status=status,
        claim="regular-solution-integrated",
        margins={"gamma": args.gamma, "n_critical": len(result.critical_radii)},
        message=result.trajectory.message,
    ))
    if not result.nonpositive:
        _energy_checks(bundle, result.trajectory, common["tol_rel"], common["tol_abs"])


def cmd_branch(args, common, bundle, outdir: Path):
    rows = []
    for gamma in args.gamma_list:
        name = f"branch-sample-gamma-{gamma:g}"
        try:
            p_found = branch_sample(
                args.i, args.R, args.N, gamma, tuple(args.p_bracket),
                common["tol_rel"], common["tol_abs"],
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
    path = outdir / "branch.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gamma,p\n")
        for gamma, p_found in rows:
            fh.write(f"{gamma:.17g},{p_found:.17g}\n")
    bundle.add_artifact(path)


def cmd_find_exponent(args, common, bundle, outdir: Path):
    sol = find_exponent(args.i, args.R, args.N, args.p_lo, args.p_cap,
                        common["tol_rel"], common["tol_abs"])
    path = outdir / "exponent.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"i": sol.i, "R": sol.R, "p_i": sol.p_i,
                   "residual": sol.residual, "crossings": sol.crossings}, fh, indent=1)
        fh.write("\n")
    bundle.add_artifact(path)
    bundle.add(CheckRecord(
        name="find-exponent",
        status=PASS,
        claim="prescribed-critical-radius-realized-with-matching-crossing-count",
        margins={"p_i": sol.p_i, "residual": sol.residual, "crossings": sol.crossings,
                 "solves": sol.solves, "bracket": sol.bracket},
    ))


def cmd_continuity(args, common, bundle, outdir: Path):
    rep = continuity_scan(args.i, args.N, args.p_grid,
                          common["tol_rel"], common["tol_abs"])
    path = outdir / "continuity.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"grid": rep.refined_grid.tolist(),
                   "values": rep.refined_values.tolist(),
                   "modulus_coarse": rep.modulus_coarse,
                   "modulus_fine": rep.modulus_fine,
                   "ratio": rep.ratio}, fh, indent=1)
        fh.write("\n")
    bundle.add_artifact(path)
    bundle.add(CheckRecord(
        name="continuity-refinement",
        status=PASS if rep.passed else FAIL,
        claim="critical-radius-modulus-halves-under-grid-halving",
        margins={"modulus_coarse": rep.modulus_coarse,
                 "modulus_fine": rep.modulus_fine,
                 "ratio": rep.ratio,
                 "max_jump_factor": rep.max_jump_factor},
    ))


def cmd_morse(args, common, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p, R=args.R)
    sol = solve_singular(params, r_end=1.05 * args.R, rtol=common["tol_rel"],
                         atol=common["tol_abs"])
    scan = morse_scan(params, sol, args.deltas, args.grids)
    path = outdir / "morse.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "classification": scan.classification.name,
            "reports": [{"cutoff": rep.cutoff, "grid_size": rep.grid_size,
                         "negative_count": rep.negative_count,
                         "smallest_eigenvalues": list(rep.smallest_eigenvalues)}
                        for rep in scan.reports],
        }, fh, indent=1)
        fh.write("\n")
    bundle.add_artifact(path)
    c = sol.constants
    expected_unbounded = params.p < c.pJL
    observed_unbounded = scan.classification.name == "UNBOUNDED"
    consistent = expected_unbounded == observed_unbounded
    bundle.add(CheckRecord(
        name="morse-dichotomy",
        status=PASS if consistent else FAIL,
        claim="index-tail-class-matches-joseph-lundgren-side",
        margins={"counts": list(scan.counts)},
        message=f"classification {scan.classification.name}, "
                f"p {'<' if expected_unbounded else '>'} pJL",
    ))


def cmd_hardy(args, common, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p)
    c = derive_constants(params)
    lem = lemma_constants(params)
    # built first: they validate eps0 and the supports before any work
    fjs = [hardy_test_function(j, args.eps0, args.N) for j in range(1, args.j_max + 1)]
    r1 = math.exp(-2.0 * math.pi / args.eps0)
    if r1 > lem.rtilde_p:
        raise ParameterError(
            f"outermost support radius {r1} exceeds the validated window "
            f"{lem.rtilde_p}; decrease eps0"
        )
    rows = []
    for j, fj in enumerate(fjs, start=1):
        # the solution is the two-term origin expansion of c, which the
        # spectral code evaluates in scaled form: no overflow at large theta
        value = rayleigh_quotient(fj, c, params)
        rows.append((j, value))
        bundle.add(CheckRecord(
            name=f"hardy-negativity-j{j}",
            status=PASS if value < 0.0 else FAIL,
            claim="log-oscillating-test-function-has-negative-form-value",
            margins={"J": value},
        ))
        # the operator's grid is the test function's own log-radius grid, and
        # its unknowns are the scaled samples y = r**nu phi
        sub = ProblemParams(args.N, args.p, R=float(fj.radii[-1]))
        op = assemble_operator(c, sub, float(fj.radii[0]), fj.log_r.size - 1)
        y = fj.scaled[1:]
        quad = float(np.sum(op.form.diag * y * y)
                     + 2.0 * np.sum(op.form.offdiag * y[:-1] * y[1:]))
        agrees = abs(quad - value) <= 1e-2 * abs(value)
        bundle.add(CheckRecord(
            name=f"hardy-discrete-j{j}",
            status=PASS if quad < 0.0 and agrees else FAIL,
            claim="projected-test-function-keeps-negative-discrete-form",
            margins={"quadratic_form": quad},
        ))
    path = outdir / "hardy.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,J\n")
        for j, value in rows:
            fh.write(f"{j},{value:.17g}\n")
    bundle.add_artifact(path)


def cmd_verify_all(args, common, bundle, outdir: Path):
    params = ProblemParams(args.N, args.p, R=args.R)
    r_end = args.r_end if args.r_end is not None else max(2.5, 2.0 * args.R)
    sol = solve_singular(params, r_end, common["tol_rel"], common["tol_abs"])
    _emit_trajectory(sol.trajectory, outdir, "trajectory", common["emit"], common["full"], bundle)
    _verification_checks(bundle, sol, common["tol_rel"], common["tol_abs"])


def _sweep_point(payload):
    N, i, p, rtol, atol = payload
    try:
        params = ProblemParams(N, p)
        sol = solve_with_criticals(params, i, rtol=rtol, atol=atol)
        return {"p": p, "status": "ok",
                "r_p": sol.r_p,
                "R_i": sol.critical_radii[i - 1]}
    except (ParameterError, *_RUNTIME_ERRORS) as exc:
        return {"p": p, "status": "error", "error": str(exc)}


def _read_point(path: Path) -> dict | None:
    """A cached sweep point, or None when it is missing or unreadable."""
    try:
        point = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None
    return point if isinstance(point, dict) and "status" in point else None


def cmd_sweep(args, common, bundle, outdir: Path):
    points_dir = outdir / "points"
    points_dir.mkdir(exist_ok=True)
    payloads = [(args.N, args.i, p, common["tol_rel"], common["tol_abs"])
                for p in args.p_list]
    results = [None] * len(payloads)
    pending = []
    n_cached = 0
    for k, payload in enumerate(payloads):
        cached = _read_point(points_dir / f"point-{k:03d}.json")
        if cached is not None:
            results[k] = cached
            n_cached += 1
        else:
            pending.append((k, payload))
    if pending:
        if common["jobs"] > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=common["jobs"]) as pool:
                computed = list(pool.map(_sweep_point, [pl for _, pl in pending]))
        else:
            computed = [_sweep_point(pl) for _, pl in pending]
        for (k, _), res in zip(pending, computed):
            results[k] = res
            cache = points_dir / f"point-{k:03d}.json"
            # write-then-rename, so an interrupted sweep never leaves a
            # truncated point behind
            tmp = cache.with_name(cache.name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(res, fh, indent=1)
                fh.write("\n")
            os.replace(tmp, cache)
            bundle.add_artifact(cache)

    ok = [res for res in results if res["status"] == "ok"]
    failed = [res for res in results if res["status"] != "ok"]
    for res in failed:
        bundle.add(CheckRecord(
            name=f"sweep-point-p{res['p']:g}",
            status=FAIL,
            claim="singular-solve-at-sweep-point",
            message=res.get("error", ""),
        ))
    complete = not failed
    radii = [res["R_i"] for res in ok]
    decreasing = all(a > b for a, b in zip(radii, radii[1:]))
    bundle.add(CheckRecord(
        name="critical-radius-decay-trend",
        status=(PASS if decreasing else FAIL) if complete else INFO,
        claim="critical-radii-decrease-along-increasing-power",
        margins={"R_i": radii},
        message="" if complete else "incomplete grid: trend reported as INFO",
    ))
    scaled = [res["r_p"] * math.sqrt(res["p"]) for res in ok if res["r_p"] is not None]
    bundle.add(CheckRecord(
        name="first-crossing-scaling",
        status=INFO,
        claim="first-unit-crossing-times-sqrt-p-stays-banded",
        margins={"r_p_sqrt_p": scaled},
    ))
    bundle.add(CheckRecord(
        name="sweep-resume",
        status=INFO,
        claim="sweep-point-cache",
        margins={"cached": n_cached, "computed": len(pending)},
    ))
    path = outdir / "sweep.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,r_p,R_i,status\n")
        for res in results:
            if res["status"] == "ok":
                rp = "" if res["r_p"] is None else f"{res['r_p']:.17g}"
                fh.write(f"{res['p']:.17g},{rp},{res['R_i']:.17g},ok\n")
            else:
                fh.write(f"{res['p']:.17g},,,error\n")
    bundle.add_artifact(path)


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


def _public_config(args) -> dict:
    skip = {"command", "config", "out_dir", "jobs", "full"}
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        cfg[key] = value
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created = False
    try:
        common = _resolve_common(args)
        config = _public_config(args)
        config.setdefault("tol_rel", common["tol_rel"])
        config.setdefault("tol_abs", common["tol_abs"])
        bundle = ReportBundle(
            command=args.command,
            config=config,
            tolerances={"rel": common["tol_rel"], "abs": common["tol_abs"]},
        )
        outdir = Path(common["out_dir"]) / f"run-{bundle.hash}"
        created = not outdir.exists()
        outdir.mkdir(parents=True, exist_ok=True)
        _HANDLERS[args.command](args, common, bundle, outdir)
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
