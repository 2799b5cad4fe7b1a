"""Regular solutions of the initial-value problem u(0) = gamma, u'(0) = 0.

The origin is a regular singular point of the radial Laplacian, so each shot
starts from a Taylor expansion at a small radius chosen so the neglected
fourth-order term sits below tolerance. Large gamma shots develop an initial
collapse layer of width about gamma**(-(p-1)/2); the adaptive integrator
walks through it without special handling. Distances from shots to the
singular solution are integrated as a difference in r, with the singular
track alongside, since they fall far below the round-off of either
trajectory.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._dop853 import linspace
from .errors import BracketError, EventError, IntegrationError, ParameterError
from .exponents import _power_root
from .ode import RadialState, RadialTrajectory, integrate_adaptive, integrate_difference
from .params import ProblemParams
from .singular import (
    R_END_EXTENSION_CAP,
    CriticalRadii,
    SingularSolution,
    _critical_radii_from,
    seed_at_origin,
    seed_window,
    solve_singular,
)

__all__ = [
    "ShootingResult",
    "shoot",
    "convergence_to_singular",
    "branch_sample",
    "ConvergenceReport",
]

BRANCH_RESIDUAL_TOL = 1e-8


class ShootingResult(NamedTuple):
    """One regular solution, its trajectory, and its critical radii."""

    gamma: float
    params: ProblemParams
    trajectory: RadialTrajectory
    critical_radii: CriticalRadii

    @property
    def nonpositive(self) -> bool:
        return self.trajectory.status == "nonpositive"


def _taylor_start(gamma: float, params: ProblemParams, r_end: float,
                  rtol: float, atol: float, h_max: float = math.inf) -> RadialState:
    N, p = params.N, params.p
    try:
        up = gamma**p
    except OverflowError:
        up = math.inf
    if not math.isfinite(up):
        raise ParameterError(
            f"gamma**p = {gamma}**{p} overflows double precision; "
            "the instance is outside the supported range"
        )
    c2 = (gamma - up) / (2.0 * N)
    tol_eff = atol + rtol * gamma
    h_cap = min(0.01 * 2.0 * math.pi / math.sqrt(p - 1.0), 1e-3 * r_end, h_max)
    if c2 == 0.0:
        return RadialState(r=h_cap, u=gamma, du=0.0)
    # fourth-order coefficient |c4| = |1 - p gamma**(p-1)| |c2| / (4(N+2));
    # assembled in logs because gamma**(2p-1) can overflow long before the
    # trajectory itself does
    log_pg = math.log(p) + (p - 1.0) * math.log(gamma)
    if log_pg > 50.0:
        log_lin = log_pg
    else:
        lin = abs(1.0 - math.exp(log_pg))
        if lin == 0.0:
            return RadialState(r=h_cap, u=gamma + c2 * h_cap**2, du=2.0 * c2 * h_cap)
        log_lin = math.log(lin)
    log_c4 = log_lin + math.log(abs(c2)) - math.log(4.0 * (N + 2.0))
    h = math.exp(0.25 * (math.log(tol_eff) - log_c4))
    if h == 0.0:
        raise ParameterError(
            f"origin step for gamma={gamma}, p={p} underflows double precision"
        )
    h = min(h, h_cap)
    return RadialState(r=h, u=gamma + c2 * h * h, du=2.0 * c2 * h)


def shoot(
    gamma: float,
    params: ProblemParams,
    r_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    stop_at_critical: int | None = None,
) -> ShootingResult:
    """Integrate the regular initial-value problem out to r_end.

    gamma = 1, the constant equilibrium, starts like any shot and stays at
    (1, 0). A shot that reaches u = 0 is returned with its trajectory marked
    nonpositive rather than raised, since some (gamma, p) genuinely leave the
    positive cone. ``stop_at_critical = i`` ends the shot at its i-th
    critical point if that comes before r_end.
    """
    if not (gamma > 0):
        raise ParameterError(f"initial value must be positive, got gamma={gamma}")
    start = _taylor_start(gamma, params, r_end, rtol, atol)
    traj = integrate_adaptive(params, start, r_end, rtol, atol,
                              stop_at_critical=stop_at_critical)
    return ShootingResult(
        gamma=gamma,
        params=params,
        trajectory=traj,
        critical_radii=_critical_radii_from(traj, require_first_min=False),
    )


class ConvergenceReport(NamedTuple):
    """Sup-distances between regular shots and the singular solution."""

    gammas: tuple[float, ...]
    distances: tuple[float, ...]
    statuses: tuple[str, ...]
    passed: bool  # distances strictly decreasing over the usable shots
    complete: bool  # every requested shot was usable


def convergence_to_singular(
    params: ProblemParams,
    gammas,
    interval: tuple[float, float],
    singular: SingularSolution | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ConvergenceReport:
    """Sup-norm distance of u_gamma to the singular solution on an interval.

    The distance is integrated, not obtained by subtracting two separately
    integrated trajectories, whose transport errors would swamp it. Each
    shot's difference d = u_gamma - u* is integrated in r together with the
    singular track from the shot's Taylor start radius, where the singular
    track is seeded from its origin series; d is error-controlled
    relative to itself, and |d| is taken as a maximum over a shared uniform
    grid of 2048 radii.

    The jointly integrated singular track is checked on the grid against
    ``singular`` (by default a :func:`solve_singular` run to
    ``max(1.05 b, 2 rtilde_p)``); it must
    agree within 10 (atol + rtol |u|) at the looser of the two runs'
    tolerances, else :class:`IntegrationError` is raised.

    Shots that lose positivity get status ``"nonpositive"``; shots whose
    difference underflows (below ``float_info.min / rtol``) before the end of
    the interval get status ``"underflow"``. Both have distance nan, are
    excluded from the monotonicity verdict, and demote ``complete``.
    """
    a, b = interval
    if not (0.0 < a < b):
        raise ParameterError(f"interval must satisfy 0 < a < b, got {interval}")
    gammas = [float(g) for g in gammas]
    if any(g <= 1.0 for g in gammas):
        raise ParameterError("convergence sweep requires gamma > 1")
    if sorted(gammas) != gammas:
        raise ParameterError("gammas must be increasing")
    window = seed_window(params, rtol)
    if singular is None:
        singular = solve_singular(params, r_end=max(1.05 * b, 2.0 * window.lemma.rtilde_p),
                                  rtol=rtol, atol=atol)
    if not singular.trajectory.covers(a, b):
        raise ParameterError("singular solution does not cover the interval")
    grid = linspace(a, b, 2048)
    u_ref, _ = singular.trajectory.sample(grid)
    atol_ref = max(atol, singular.trajectory.atol)
    rtol_ref = max(rtol, singular.trajectory.rtol)
    budget = [10.0 * (atol_ref + rtol_ref * abs(v)) for v in u_ref]

    distances, statuses = [], []
    for g in gammas:
        start = _taylor_start(g, params, 1.05 * b, rtol, atol, h_max=window.radius)
        ref = seed_at_origin(window, start.r)
        path = integrate_difference(params, ref, (start.u - ref.u, start.du - ref.du),
                                    b, rtol, atol)
        if path.status != "ok":
            distances.append(math.nan)
            statuses.append(path.status)
            continue
        u_track, d = path.sample(grid)
        mismatch = [abs(v - w) for v, w in zip(u_track, u_ref)]
        if any(m > cap for m, cap in zip(mismatch, budget)):
            k = max(range(len(grid)), key=lambda k: mismatch[k] / budget[k])
            raise IntegrationError(
                f"singular track integrated with the gamma={g} shot departs "
                f"from the given singular solution at r={grid[k]}: "
                f"|difference| = {mismatch[k]}, allowed {budget[k]}"
            )
        distances.append(max(map(abs, d)))
        statuses.append("ok")
    usable = [d for d in distances if not math.isnan(d)]
    passed = len(usable) >= 2 and all(x > y for x, y in zip(usable, usable[1:]))
    return ConvergenceReport(
        gammas=tuple(gammas),
        distances=tuple(distances),
        statuses=tuple(statuses),
        passed=passed,
        complete=all(s == "ok" for s in statuses),
    )


def _critical_radius_of_shot(
    gamma: float,
    params: ProblemParams,
    i: int,
    rtol: float,
    atol: float,
    r_end0: float,
) -> float:
    """The i-th critical radius of a shot, from one run that stops there."""
    r_cap = r_end0 * R_END_EXTENSION_CAP
    shot = shoot(gamma, params, r_cap, rtol, atol, stop_at_critical=i)
    if len(shot.critical_radii) >= i:
        return shot.critical_radii[i - 1]
    if shot.nonpositive:
        raise EventError(
            f"shot gamma={gamma}, p={params.p} lost positivity before "
            f"critical point {i}"
        )
    raise EventError(
        f"critical point {i} of shot gamma={gamma}, p={params.p} "
        f"not found up to r={r_cap}"
    )


def branch_sample(
    i: int,
    R: float,
    N: int,
    gamma: float,
    p_bracket: tuple[float, float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> float:
    """Power p at which the i-th critical radius of u_gamma equals R.

    One sample of the upper-branch diagram data at fixed gamma. The i-th
    critical radius must exceed R at the bracket's lower end; the root is
    found by the bracket search of :func:`lntlab.exponents._power_root`,
    which starts there and is capped at the upper end. The residual of the
    returned power is below 1e-8, else :class:`BracketError` is raised.
    """
    if i < 1:
        raise ParameterError(f"critical index must be >= 1, got {i}")
    lo, hi = float(p_bracket[0]), float(p_bracket[1])
    r_end0 = max(2.0 * R, 1.0)
    # Brent's method re-evaluates the bracket ends and the residual check the
    # root, so each power is shot once per call
    memo: dict[float, float] = {}

    def radius(p: float) -> float:
        if p not in memo:
            params = ProblemParams(N, p, R=R)
            memo[p] = _critical_radius_of_shot(gamma, params, i, rtol, atol, r_end0)
        return memo[p]

    def below_lo(r_lo: float) -> BracketError:
        return BracketError(f"critical radius {i} at p={lo} is {r_lo} <= R={R}")

    p, _ = _power_root(radius, R, lo, hi, below_lo)
    residual = abs(radius(p) - R)
    if residual < BRANCH_RESIDUAL_TOL:
        return p
    raise BracketError(
        f"root finder exhausted the bracket without meeting the residual "
        f"tolerance: |r_{i} - R| = {residual}"
    )
