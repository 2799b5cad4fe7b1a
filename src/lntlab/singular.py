"""Construction of the singular radial solution from its origin asymptotics.

The solution blowing up like ``A * r**(-theta)`` at the origin is built by
seeding the two-term expansion ``A r**(-theta) (1 + Dp r**2)`` at a small
radius inside the validated window ``r <= ctilde/sqrt(p)`` and integrating
outward. The seed is certified a priori: the first term it leaves out,
``D2 r**4`` of the origin series, must stay within the integration
tolerance. The module also records the first unit crossing and the
increasing sequence of critical radii, and exposes the origin-envelope and
derivative verification reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEventError, EventError, IntegrationError, ParameterError
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
    "solve_with_criticals",
    "verify_origin_bounds",
    "derivative_bound_check",
    "OriginBoundsReport",
    "DerivativeBoundReport",
]

SEED_SHRINK = 16.0  # default seed radius is at most rtilde_p / SEED_SHRINK
R_END_EXTENSION_CAP = 2**10  # critical-radius search may extend r_end this far


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
        for k in range(1, len(self.kinds)):
            if self.kinds[k] is self.kinds[k - 1]:
                raise DegenerateEventError(
                    f"critical points at r={self.radii[k - 1]} and r={self.radii[k]} are "
                    f"both of kind {self.kinds[k].value}: u' touched zero without crossing"
                )

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
    seed_truncation: float  # |D2| seed_radius**4, the seed's relative error
    trajectory: RadialTrajectory
    r_p: float | None
    critical_radii: CriticalRadii

    def sample(self, radii):
        return self.trajectory.sample(radii)


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


def _r4_coefficient(c: DerivedConstants) -> float:
    """Coefficient D2 of the origin series A r**(-theta) (1 + Dp r**2 + D2 r**4 + ...).

    Matching the r**(2-theta) terms of the equation, with
    a = A**(p-1) = theta (N-2-theta), gives
    D2 ((4-theta)(N+2-theta) + p a) = Dp (1 - p (p-1) a Dp / 2).
    """
    a = c.theta * (c.N - 2.0 - c.theta)
    return c.Dp * (1.0 - 0.5 * c.p * (c.p - 1.0) * a * c.Dp) / (
        (4.0 - c.theta) * (c.N + 2.0 - c.theta) + c.p * a)


def _max_seed_radius(c: DerivedConstants, rtol: float) -> float:
    """Largest seed radius whose truncation |D2| r0**4 stays within rtol."""
    d2 = abs(_r4_coefficient(c))
    return (rtol / d2) ** 0.25 if d2 else math.inf


def _default_seed_radius(c: DerivedConstants, rtilde_p: float, rtol: float) -> float:
    """rtilde_p / 16, shrunk where the seed's truncation would exceed rtol."""
    return min(rtilde_p / SEED_SHRINK, _max_seed_radius(c, rtol))


def solve_singular(
    params: ProblemParams,
    r_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    seed_radius: float | None = None,
    stop_at_critical: int | None = None,
) -> SingularSolution:
    """Construct the singular solution on (0, r_end].

    Seeds the two-term origin expansion at ``seed_radius``, integrates
    outward with event detection, and fills the first unit crossing and the
    critical radii; ``stop_at_critical = i`` ends the run at the i-th
    critical radius if it comes before r_end. The seed's truncation error is
    the first term it leaves out, ``|D2| r0**4`` relative to u; it must not
    exceed rtol. The default seed radius is ``rtilde_p / 16``, shrunk to
    ``(rtol / |D2|)**(1/4)`` where that is smaller.

    Raises
    ------
    IntegrationError
        If the seed's truncation exceeds rtol (only a supplied
        ``seed_radius`` can), or on integration breakdown.
    """
    c = derive_constants(params)
    lem = lemma_constants(params)
    r0 = seed_radius if seed_radius is not None else _default_seed_radius(c, lem.rtilde_p, rtol)
    if not (r_end > lem.rtilde_p):
        raise ParameterError(
            f"r_end={r_end} must exceed the validated window rtilde_p={lem.rtilde_p}"
        )
    seed = seed_at_origin(params, c, r0)
    truncation = abs(_r4_coefficient(c)) * r0**4
    # compared as radii, so the default radius passes without rounding doubt
    if r0 > _max_seed_radius(c, rtol):
        raise IntegrationError(
            f"seed radius r0={r0} leaves a truncation |D2| r0**4 = {truncation} "
            f"above rtol={rtol}; seed closer to the origin"
        )
    traj = integrate_adaptive(params, seed, r_end, rtol, atol,
                              stop_at_critical=stop_at_critical)
    if traj.status == "nonpositive":
        raise IntegrationError(
            "singular solution lost positivity; decrease tolerances", partial=traj
        )

    r_p = float(traj.unit_crossings[0]) if traj.unit_crossings.size else None
    return SingularSolution(
        params=params,
        constants=c,
        lemma=lem,
        seed_radius=r0,
        seed_truncation=truncation,
        trajectory=traj,
        r_p=r_p,
        critical_radii=_critical_radii_from(traj, require_first_min=True),
    )


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


@dataclass(frozen=True)
class OriginBoundsReport:
    """Signed worst-case margins of the two-sided origin envelope."""

    lower_margin: float  # min of (u - A r**-theta) / bound; >= -tol required
    upper_margin: float  # max of (u - upper) / upper; <= +tol required
    tol: float
    passed: bool


def verify_origin_bounds(sol: SingularSolution, tol: float | None = None) -> OriginBoundsReport:
    """Check A r**(-theta) <= u <= A r**(-theta)(1 + Dp r**2) on the seed window.

    Margins are relative and evaluated at 64 log-spaced radii in
    (r0, rtilde_p]. The default tolerance is 10x the integrator tolerance.
    """
    c = sol.constants
    if tol is None:
        tol = 10.0 * max(sol.trajectory.rtol, sol.trajectory.atol)
    radii = np.geomspace(sol.seed_radius * (1.0 + 1e-12), sol.lemma.rtilde_p, 64)
    u, _ = sol.sample(radii)
    lower = c.A * radii**-c.theta
    upper = lower * (1.0 + c.Dp * radii * radii)
    lower_margin = float(np.min((u - lower) / lower))
    upper_margin = float(np.max((u - upper) / upper))
    passed = lower_margin >= -tol and upper_margin <= tol
    return OriginBoundsReport(
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        tol=tol,
        passed=passed,
    )


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Derivative size at the window edge and the power-law remainder ratio."""

    du_at_rtilde: float
    du_scaled: float  # |u'(rtilde_p)| * sqrt(p)
    u_at_rtilde: float
    sup_remainder_ratio: float  # sup of |u' + theta A r**(-1-theta)| / r**(1-theta)


def derivative_bound_check(sol: SingularSolution) -> DerivativeBoundReport:
    """Evaluate the derivative-decay quantities at 64 log-spaced radii of the
    validated seed window."""
    c = sol.constants
    radii = np.geomspace(sol.seed_radius * (1.0 + 1e-12), sol.lemma.rtilde_p, 64)
    u, du = sol.sample(radii)
    remainder = np.abs(du + c.theta * c.A * radii ** (-1.0 - c.theta))
    ratio = remainder / radii ** (1.0 - c.theta)
    u_rt, du_rt = sol.sample(sol.lemma.rtilde_p)
    du_rt = float(du_rt[0])
    return DerivativeBoundReport(
        du_at_rtilde=du_rt,
        du_scaled=abs(du_rt) * math.sqrt(sol.params.p),
        u_at_rtilde=float(u_rt[0]),
        sup_remainder_ratio=float(np.max(ratio)),
    )
