"""Regular solutions of the initial-value problem u(0) = gamma, u'(0) = 0.

The origin is a regular singular point of the radial Laplacian, so each shot
starts from a Taylor expansion at a small radius chosen so the neglected
fourth-order term sits below tolerance. Large gamma shots develop an initial
collapse layer of width about gamma**(-(p-1)/2); the adaptive integrator
walks through it without special handling. Distances from shots to the
singular solution are integrated as a difference in the log-radius form,
since they fall far below the round-off of either trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq
from .errors import BracketError, EventError, IntegrationError, ParameterError
from .ode import (
    RadialState,
    RadialTrajectory,
    integrate_adaptive,
    integrate_eta_difference,
    transform_u_to_eta,
)
from .params import ProblemParams, derive_constants, lemma_constants
from .singular import (
    R_END_EXTENSION_CAP,
    CriticalRadii,
    SingularSolution,
    _critical_radii_from,
    _default_seed_radius,
    seed_at_origin,
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


@dataclass(frozen=True)
class ShootingResult:
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

    gamma = 1 returns the constant equilibrium. A shot that reaches u = 0 is
    returned with its trajectory marked nonpositive rather than raised, since
    some (gamma, p) genuinely leave the positive cone. ``stop_at_critical = i``
    ends the shot at its i-th critical point if that comes before r_end.
    """
    if not (gamma > 0):
        raise ParameterError(f"initial value must be positive, got gamma={gamma}")
    if gamma == 1.0:
        start = RadialState(r=1e-6 * r_end, u=1.0, du=0.0)
    else:
        start = _taylor_start(gamma, params, r_end, rtol, atol)
    traj = integrate_adaptive(params, start, r_end, rtol, atol,
                              stop_at_critical=stop_at_critical)
    return ShootingResult(
        gamma=gamma,
        params=params,
        trajectory=traj,
        critical_radii=_critical_radii_from(traj, require_first_min=False),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-distances between regular shots and the singular solution."""

    gammas: tuple[float, ...]
    distances: tuple[float, ...]
    interval: tuple[float, float]
    statuses: tuple[str, ...]
    passed: bool  # distances strictly decreasing over the usable shots
    complete: bool  # every requested shot was usable


def convergence_to_singular(
    params: ProblemParams,
    gammas,
    interval: tuple[float, float],
    singular: SingularSolution | None = None,
    n_grid: int = 2048,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ConvergenceReport:
    """Sup-norm distance of u_gamma to the singular solution on an interval.

    The distance is integrated, not obtained by subtracting two separately
    integrated trajectories, whose transport errors would swamp it. In the
    log-radius form u = A r**(-theta) (1 + eta), each shot's difference
    delta = eta_gamma - eta* is integrated together with the singular track
    from the shot's Taylor start radius, where the singular track is seeded
    from its origin expansion; delta is error-controlled relative to itself,
    and u_gamma - u* = A r**(-theta) delta is taken as a maximum over a
    shared uniform grid of ``n_grid`` radii.

    The jointly integrated singular track is checked on the grid against
    ``singular`` (by default an r-form :func:`solve_singular` run); it must
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
    if singular is None:
        singular = solve_singular(params, r_end=1.05 * b, rtol=rtol, atol=atol)
    if not singular.trajectory.covers(a, b):
        raise ParameterError("singular solution does not cover the interval")
    grid = np.linspace(a, b, n_grid)
    u_ref, _ = singular.sample(grid)
    budget = 10.0 * (max(atol, singular.trajectory.atol)
                     + max(rtol, singular.trajectory.rtol) * np.abs(u_ref))
    c = derive_constants(params)
    power = c.A * grid**-c.theta
    zeta_grid = -np.log(grid) / c.m
    seed_cap = _default_seed_radius(lemma_constants(params).rtilde_p, rtol)

    distances, statuses = [], []
    for g in gammas:
        start = _taylor_start(g, params, 1.05 * b, rtol, atol, h_max=seed_cap)
        ref = transform_u_to_eta(seed_at_origin(params, c, start.r), c)
        shot = transform_u_to_eta(start, c)
        path = integrate_eta_difference(
            c, params.p, ref, (shot.eta - ref.eta, shot.deta - ref.deta),
            zeta_grid[-1], rtol, atol,
        )
        if path.status != "ok":
            distances.append(math.nan)
            statuses.append(path.status)
            continue
        eta_ref, delta = path.sample(zeta_grid)
        mismatch = np.abs(power * (1.0 + eta_ref) - u_ref)
        if np.any(mismatch > budget):
            k = int(np.argmax(mismatch / budget))
            raise IntegrationError(
                f"singular track integrated with the gamma={g} shot departs "
                f"from the given singular solution at r={grid[k]}: "
                f"|difference| = {mismatch[k]}, allowed {budget[k]}"
            )
        distances.append(float(np.max(power * np.abs(delta))))
        statuses.append("ok")
    usable = [d for d in distances if not math.isnan(d)]
    passed = len(usable) >= 2 and all(x > y for x, y in zip(usable, usable[1:]))
    return ConvergenceReport(
        gammas=tuple(gammas),
        distances=tuple(distances),
        interval=(a, b),
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

    Finds the root of the residual r_i(p) - R on ``p_bracket`` by Brent's
    method to a relative width of 5e-13 in p; one sample of the upper-branch
    diagram data at fixed gamma. The residual of the returned power is below
    1e-8, else :class:`BracketError` is raised.
    """
    if i < 1:
        raise ParameterError(f"critical index must be >= 1, got {i}")
    lo, hi = float(p_bracket[0]), float(p_bracket[1])
    if not (lo < hi):
        raise ParameterError(f"invalid bracket {p_bracket}")
    r_end0 = max(2.0 * R, 1.0)
    # brentq re-evaluates the bracket ends and the final check the root, so
    # each power is shot once per call
    memo: dict[float, float] = {}

    def residual(p: float) -> float:
        if p not in memo:
            params = ProblemParams(N, p, R=R)
            memo[p] = _critical_radius_of_shot(gamma, params, i, rtol, atol, r_end0) - R
        return memo[p]

    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change of r_{i} - R on p in [{lo}, {hi}]: "
            f"residuals ({f_lo}, {f_hi})"
        )
    p = brentq(residual, lo, hi, xtol=5e-13 * hi)
    f_p = residual(p)
    if abs(f_p) < BRANCH_RESIDUAL_TOL:
        return p
    raise BracketError(
        f"root finder exhausted the bracket without meeting the residual "
        f"tolerance: |r_{i} - R| = {abs(f_p)}"
    )
