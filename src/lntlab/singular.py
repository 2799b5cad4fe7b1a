"""Construction of the singular radial solution from its origin asymptotics.

The solution blowing up like ``A * r**(-theta)`` at the origin is built by
seeding the two-term expansion ``A r**(-theta) (1 + Dp r**2)`` at a small
radius inside the validated window ``r <= ctilde/sqrt(p)`` and integrating
outward. The module also locates the first unit crossing and the increasing
sequence of critical radii, and exposes the origin-envelope and
derivative-decay verification reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EventError, IntegrationError, ParameterError
from .ode import PointKind, RadialState, RadialTrajectory, integrate_adaptive
from .params import (
    DerivedConstants,
    LemmaConstants,
    ProblemParams,
    derive_constants,
    lemma_constants,
)

__all__ = [
    "CriticalRadii",
    "SingularSolution",
    "seed_at_origin",
    "solve_singular",
    "first_unit_crossing",
    "critical_radius",
    "solve_with_criticals",
    "verify_origin_bounds",
    "derivative_bound_check",
    "derivative_decay_sweep",
    "asymptotic_profile",
    "OriginBoundsReport",
    "DerivativeBoundReport",
]

SEED_SHRINK = 16.0  # default seed radius is rtilde_p / SEED_SHRINK
SEED_RTOL_REF = 1e-10  # tolerance at which the default shrink is calibrated
R_END_EXTENSION_CAP = 2**10  # critical-radius search may extend r_end this far


def _default_seed_radius(rtilde_p: float, rtol: float) -> float:
    """Seed radius balancing the fourth-order expansion error against rtol.

    The truncation error of the two-term seed scales like r0**4, so keeping
    it proportional to the integration tolerance requires r0 ~ rtol**(1/4).
    At the reference tolerance this reduces to the plain rtilde_p / 16.
    """
    shrink = min(1.0, (rtol / SEED_RTOL_REF) ** 0.25)
    return rtilde_p / SEED_SHRINK * shrink


@dataclass(frozen=True)
class CriticalRadii:
    """Increasing critical radii with alternating min/max kinds."""

    radii: np.ndarray
    kinds: tuple[PointKind, ...]

    def __post_init__(self):
        if len(self.kinds) != self.radii.size:
            raise ParameterError("one kind per critical radius required")
        if self.radii.size > 1 and np.any(np.diff(self.radii) <= 0):
            raise ParameterError("critical radii must be strictly increasing")
        for a, b in zip(self.kinds, self.kinds[1:]):
            if a is b:
                raise ParameterError("critical point kinds must alternate")

    def __len__(self) -> int:
        return int(self.radii.size)

    def __getitem__(self, i: int) -> float:
        return float(self.radii[i])


def _critical_radii_from(traj: RadialTrajectory, require_first_min: bool) -> CriticalRadii:
    radii = traj.critical_points
    kinds = traj.critical_kinds
    if require_first_min and kinds and kinds[0] is not PointKind.MIN:
        raise EventError(
            "first critical point of the singular solution must be a minimum; "
            "got a maximum, which indicates the run lost accuracy"
        )
    return CriticalRadii(radii=radii, kinds=kinds)


@dataclass(frozen=True)
class SingularSolution:
    """Singular solution on (0, r_end] with its events and seed metadata."""

    params: ProblemParams
    constants: DerivedConstants
    lemma: LemmaConstants
    seed_radius: float
    trajectory: RadialTrajectory
    r_p: float | None
    critical_radii: CriticalRadii

    def sample(self, radii):
        return self.trajectory.sample(radii)


def asymptotic_profile(c: DerivedConstants):
    """Two-term origin profile r -> A r**(-theta) (1 + Dp r**2) as a callable."""

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = c.A * r**-c.theta * (1.0 + c.Dp * r * r)
        return float(out) if out.ndim == 0 else out

    return profile


def seed_at_origin(
    params: ProblemParams, constants: DerivedConstants, r0: float
) -> RadialState:
    """Seed state from the two-term origin expansion, valid for r0 <= rtilde_p.

    u(r0)  = A r0**(-theta) (1 + Dp r0**2)
    u'(r0) = A r0**(-theta-1) (-theta + (2 - theta) Dp r0**2)
    """
    lem = lemma_constants(params)
    if not (0.0 < r0 <= lem.rtilde_p):
        raise ParameterError(
            f"seed radius must lie in (0, rtilde_p={lem.rtilde_p}], got r0={r0}"
        )
    c = constants
    u0 = c.A * r0**-c.theta * (1.0 + c.Dp * r0 * r0)
    du0 = c.A * r0 ** (-c.theta - 1.0) * (-c.theta + (2.0 - c.theta) * c.Dp * r0 * r0)
    return RadialState(r=r0, u=u0, du=du0)


def _probe_at_rtilde(params, c, lem, r0, rtol, atol) -> tuple[float, float]:
    seed = seed_at_origin(params, c, r0)
    if r0 >= lem.rtilde_p:
        return seed.u, seed.du
    run = integrate_adaptive(params, seed, lem.rtilde_p, rtol, atol, events=False)
    u, du = run.sample(lem.rtilde_p)
    return float(u[0]), float(du[0])


def solve_singular(
    params: ProblemParams,
    r_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    seed_radius: float | None = None,
    seed_check: bool = True,
    stop_at_critical: int | None = None,
) -> SingularSolution:
    """Construct the singular solution on (0, r_end].

    Seeds the two-term origin expansion at ``seed_radius`` (default
    ``rtilde_p / 16``), integrates outward with event detection, and fills
    the first unit crossing and the critical radii; ``stop_at_critical = i``
    ends the run at the i-th critical radius if it comes before r_end. Two
    runs seeded at r0
    and r0/2 must agree at rtilde_p within 10x the integrator tolerance,
    otherwise the construction is rejected.

    Raises
    ------
    IntegrationError
        On seed-sensitivity failure (both runs are reported) or integration
        breakdown.
    """
    c = derive_constants(params)
    lem = lemma_constants(params)
    r0 = seed_radius if seed_radius is not None else _default_seed_radius(lem.rtilde_p, rtol)
    if not (r_end > lem.rtilde_p):
        raise ParameterError(
            f"r_end={r_end} must exceed the validated window rtilde_p={lem.rtilde_p}"
        )
    seed = seed_at_origin(params, c, r0)
    traj = integrate_adaptive(params, seed, r_end, rtol, atol,
                              stop_at_critical=stop_at_critical)
    if traj.status == "nonpositive":
        raise IntegrationError(
            "singular solution lost positivity; decrease tolerances", partial=traj
        )

    if seed_check:
        # both legs run at a tighter tolerance so the comparison measures the
        # seed expansion error, not the transport error of the instrument;
        # the budget stays at 10x the requested tolerance
        ua, dua = _probe_at_rtilde(params, c, lem, r0, rtol / 4.0, atol / 4.0)
        ub, dub = _probe_at_rtilde(params, c, lem, r0 / 2.0, rtol / 4.0, atol / 4.0)
        scale = max(abs(ua), abs(ub), abs(dua), abs(dub), 1.0)
        budget = 10.0 * (atol + rtol * scale)
        if abs(ua - ub) > budget or abs(dua - dub) > budget:
            raise IntegrationError(
                "seed-sensitivity check failed at rtilde_p="
                f"{lem.rtilde_p}: seeds r0={r0} and r0/2 give "
                f"(u, u')=({ua}, {dua}) vs ({ub}, {dub}), allowed {budget}"
            )

    r_p = float(traj.unit_crossings[0]) if traj.unit_crossings.size else None
    return SingularSolution(
        params=params,
        constants=c,
        lemma=lem,
        seed_radius=r0,
        trajectory=traj,
        r_p=r_p,
        critical_radii=_critical_radii_from(traj, require_first_min=True),
    )


def first_unit_crossing(sol: SingularSolution) -> float:
    """Radius of the first solution of u(r) = 1."""
    if sol.r_p is None:
        raise EventError(
            f"no unit crossing on (0, {sol.trajectory.r_end}]; extend r_end"
        )
    return sol.r_p


def _initial_r_end(params: ProblemParams, i: int) -> float:
    # crossings of u = 1 are spaced roughly pi/sqrt(p-1) once u settles near 1
    return max(1.0, 2.0 * (i + 2) * math.pi / math.sqrt(params.p - 1.0))


def solve_with_criticals(
    params: ProblemParams,
    i: int,
    r_end: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    **kwargs,
) -> SingularSolution:
    """Singular solution up to its i-th critical radius.

    One run to ``r_end * R_END_EXTENSION_CAP`` (``r_end`` defaults to a
    guess from the crossing spacing) that stops at the i-th critical point,
    so the trajectory ends at ``critical_radii[i - 1]``.
    """
    if i < 1:
        raise ParameterError(f"critical index must be >= 1, got {i}")
    r_end = r_end if r_end is not None else _initial_r_end(params, i)
    r_cap = r_end * R_END_EXTENSION_CAP
    sol = solve_singular(params, r_cap, rtol, atol, stop_at_critical=i, **kwargs)
    if len(sol.critical_radii) < i:
        raise EventError(
            f"critical point {i} not found up to r_end={r_cap} (cap reached); "
            "this indicates tolerance problems, not a missing point"
        )
    return sol


def critical_radius(
    params: ProblemParams,
    i: int,
    r_end: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> float:
    """The i-th critical radius of the singular solution (i >= 1)."""
    sol = solve_with_criticals(params, i, r_end, rtol, atol)
    return sol.critical_radii[i - 1]


@dataclass(frozen=True)
class OriginBoundsReport:
    """Signed worst-case margins of the two-sided origin envelope."""

    radii: np.ndarray
    lower_margin: float  # min of (u - A r**-theta) / bound; >= -tol required
    upper_margin: float  # max of (u - upper) / upper; <= +tol required
    tol: float
    passed: bool


def verify_origin_bounds(
    sol: SingularSolution, n_samples: int = 64, tol: float | None = None
) -> OriginBoundsReport:
    """Check A r**(-theta) <= u <= A r**(-theta)(1 + Dp r**2) on the seed window.

    Margins are relative and evaluated at ``n_samples`` log-spaced radii in
    (r0, rtilde_p]. The default tolerance is 10x the integrator tolerance.
    """
    c = sol.constants
    if tol is None:
        tol = 10.0 * max(sol.trajectory.rtol, sol.trajectory.atol)
    radii = np.geomspace(sol.seed_radius * (1.0 + 1e-12), sol.lemma.rtilde_p, n_samples)
    u, _ = sol.sample(radii)
    lower = c.A * radii**-c.theta
    upper = lower * (1.0 + c.Dp * radii * radii)
    lower_margin = float(np.min((u - lower) / lower))
    upper_margin = float(np.max((u - upper) / upper))
    passed = lower_margin >= -tol and upper_margin <= tol
    return OriginBoundsReport(
        radii=radii,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        tol=tol,
        passed=passed,
    )


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Derivative size at the window edge and the power-law remainder ratio."""

    p: float
    rtilde_p: float
    du_at_rtilde: float
    du_scaled: float  # |u'(rtilde_p)| * sqrt(p)
    u_at_rtilde: float
    sup_remainder_ratio: float  # sup of |u' + theta A r**(-1-theta)| / r**(1-theta)


def derivative_bound_check(sol: SingularSolution, n_samples: int = 64) -> DerivativeBoundReport:
    """Evaluate the derivative-decay quantities on the validated seed window."""
    c = sol.constants
    radii = np.geomspace(sol.seed_radius * (1.0 + 1e-12), sol.lemma.rtilde_p, n_samples)
    u, du = sol.sample(radii)
    remainder = np.abs(du + c.theta * c.A * radii ** (-1.0 - c.theta))
    ratio = remainder / radii ** (1.0 - c.theta)
    u_rt, du_rt = sol.sample(sol.lemma.rtilde_p)
    du_rt = float(du_rt[0])
    return DerivativeBoundReport(
        p=sol.params.p,
        rtilde_p=sol.lemma.rtilde_p,
        du_at_rtilde=du_rt,
        du_scaled=abs(du_rt) * math.sqrt(sol.params.p),
        u_at_rtilde=float(u_rt[0]),
        sup_remainder_ratio=float(np.max(ratio)),
    )


def derivative_decay_sweep(
    N: int,
    p_list,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[DerivativeBoundReport]:
    """Derivative-decay reports over a power sweep at fixed dimension."""
    reports = []
    for p in p_list:
        params = ProblemParams(N, float(p))
        lem = lemma_constants(params)
        sol = solve_singular(params, r_end=2.0 * lem.rtilde_p, rtol=rtol, atol=atol)
        reports.append(derivative_bound_check(sol))
    return reports
