"""Construction of the singular radial solution from its origin asymptotics.

The solution blowing up like ``A * r**(-theta)`` at the origin has the
origin series ``A r**(-theta) sum_k c_k r**(2k)``. The run is seeded from
the series summed through ``c_K`` at the edge of the validated window
``r <= ctilde/sqrt(p)`` and integrated outward. The seed is certified a
priori: each of the next four terms the sum leaves out must stay within a
quarter of the integration tolerance. Below the seed radius the solution is
the series itself. The module also records the first unit crossing and the
increasing sequence of critical radii, and exposes the origin-envelope and
derivative verification reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    DegenerateEventError,
    EventError,
    IntegrationError,
    ParameterError,
)
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
    "SeedWindow",
    "origin_series",
    "origin_profile",
    "seed_window",
    "seed_at_origin",
    "solve_singular",
    "solve_with_criticals",
    "verify_origin_bounds",
    "derivative_bound_check",
    "OriginBoundsReport",
    "DerivativeBoundReport",
]

SERIES_ORDER = 8  # K: the origin series is summed through c_K r**(2K)
CERTIFIED_TERMS = 4  # terms past c_K that certify a seed radius
WINDOW_SHRINK = 16.0  # the origin checks sample [rtilde_p / WINDOW_SHRINK, rtilde_p]
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
    """Singular solution on (0, r_end]: the origin series below the seed
    radius, the integrated trajectory above it, with its events and seed
    metadata."""

    params: ProblemParams
    constants: DerivedConstants
    lemma: LemmaConstants
    seed_radius: float
    seed_truncation: float  # sum of the certifying terms |c_k| r0**(2k) past c_K
    trajectory: RadialTrajectory
    r_p: float | None
    critical_radii: CriticalRadii

    def sample(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """(u, u') at the requested radii: the origin series the run was
        seeded from below the seed radius, the trajectory's dense output
        from there on."""
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if radii.size and not radii.min() > 0.0:
            raise CoverageError(f"the singular solution covers r > 0, not r = {radii.min()}")
        inner = radii < self.seed_radius
        u, du = self.trajectory.sample(np.where(inner, self.seed_radius, radii))
        if inner.any():
            r = radii[inner]
            c = self.constants
            t, dt = origin_profile(c, r)
            u[inner] = t * r**-c.theta
            du[inner] = dt * r ** (-c.theta - 1.0)
        return u, du


@functools.lru_cache(maxsize=64)
def origin_series(c: DerivedConstants) -> tuple[float, ...]:
    """Coefficients c_0 .. c_{K+4} of the origin series

        u = A r**(-theta) sum_k c_k r**(2k),   K = SERIES_ORDER.

    With s = r**2, a = A**(p-1) = theta (N-2-theta) and m_k = 2k - theta,
    the r**(m_k - 2) terms of the equation give

        c_k (m_k (m_k + N - 2) + a p) = c_{k-1} - a rest_k,

    where b_k = p c_k + rest_k are the coefficients of (sum c_k s**k)**p by
    J.C.P. Miller's power recurrence,
    rest_k = (1/k) sum_{j=1}^{k-1} ((p+1) j - k) c_j b_{k-j}. c_0 = 1 and
    c_1 = Dp. The terms past c_K certify a seed radius.
    """
    p, N, theta = c.p, c.N, c.theta
    a = theta * (N - 2.0 - theta)
    coef, power = [1.0], [1.0]
    for k in range(1, SERIES_ORDER + CERTIFIED_TERMS + 1):
        rest = sum(((p + 1.0) * j - k) * coef[j] * power[k - j] for j in range(1, k)) / k
        m = 2.0 * k - theta
        ck = (coef[k - 1] - a * rest) / (m * (m + N - 2.0) + a * p)
        coef.append(ck)
        power.append(p * ck + rest)
    return tuple(coef)


def origin_profile(c: DerivedConstants, r):
    """Scaled values (u r**theta, u' r**(theta+1)) of the origin series
    summed through c_K, at a radius or an array of radii.

    They tend to (A, -theta A) at the origin, where u itself overflows once
    theta is large.
    """
    coef = origin_series(c)
    s = np.square(r)
    t = dt = 0.0
    for k in range(SERIES_ORDER, -1, -1):
        t = t * s + coef[k]
        dt = dt * s + coef[k] * (2.0 * k - c.theta)
    return c.A * t, c.A * dt


@dataclass(frozen=True)
class SeedWindow:
    """Where the singular run of one instance starts, at one tolerance.

    ``lemma`` holds ctilde and the window edge rtilde_p; the origin series
    is certified up to ``certified_radius``, where each of the
    CERTIFIED_TERMS terms ``|c_k| r0**(2k)`` past c_K stays within
    ``rtol / CERTIFIED_TERMS``; the default seed ``radius`` is the smaller
    of the two.
    """

    constants: DerivedConstants
    lemma: LemmaConstants
    certified_radius: float
    radius: float


def seed_window(params: ProblemParams, rtol: float) -> SeedWindow:
    """The seed window of ``params`` at ``rtol``: ctilde at p itself and the
    certified seed radius."""
    c = derive_constants(params)
    lem = lemma_constants(c)
    series = origin_series(c)
    certified = min(((rtol / CERTIFIED_TERMS / abs(series[k])) ** (0.5 / k)
                     for k in range(SERIES_ORDER + 1, len(series)) if series[k]),
                    default=math.inf)
    return SeedWindow(constants=c, lemma=lem, certified_radius=certified,
                      radius=min(lem.rtilde_p, certified))


def seed_at_origin(window: SeedWindow, r0: float) -> RadialState:
    """Seed state from the origin series summed through c_K, valid for
    r0 <= rtilde_p.

    u(r0)  = A r0**(-theta) sum_k c_k r0**(2k)
    u'(r0) = A r0**(-theta-1) sum_k (2k - theta) c_k r0**(2k)
    """
    rtilde_p = window.lemma.rtilde_p
    if not (0.0 < r0 <= rtilde_p):
        raise ParameterError(f"seed radius must lie in (0, rtilde_p={rtilde_p}], got r0={r0}")
    t, dt = origin_profile(window.constants, r0)
    theta = window.constants.theta
    return RadialState(r=r0, u=float(t) * r0**-theta, du=float(dt) * r0 ** (-theta - 1.0))


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

    Seeds the origin series summed through c_K at ``seed_radius``,
    integrates outward with event detection, and fills the first unit
    crossing and the critical radii; ``stop_at_critical = i`` ends the run
    at the i-th critical radius if it comes before r_end. The seed is
    certified when each of the next CERTIFIED_TERMS terms,
    ``|c_k| r0**(2k)`` relative to u, is within ``rtol / CERTIFIED_TERMS``;
    their sum is the seed's truncation. The default seed radius is the
    window edge ``rtilde_p``, shrunk to the certified radius where that is
    smaller (:func:`seed_window`).

    Raises
    ------
    IntegrationError
        If the seed radius lies past the certified radius (only a supplied
        ``seed_radius`` can), or on integration breakdown.
    """
    window = seed_window(params, rtol)
    c, lem = window.constants, window.lemma
    r0 = seed_radius if seed_radius is not None else window.radius
    if not (r_end > lem.rtilde_p):
        raise ParameterError(
            f"r_end={r_end} must exceed the validated window rtilde_p={lem.rtilde_p}"
        )
    # compared as radii, so the default radius passes without rounding doubt
    if r0 > window.certified_radius:
        raise IntegrationError(
            f"seed radius r0={r0} lies past the radius {window.certified_radius} where "
            f"the origin series is certified at rtol={rtol}; seed closer to the origin"
        )
    seed = seed_at_origin(window, r0)
    series = origin_series(c)
    truncation = sum(abs(series[k]) * r0 ** (2 * k)
                     for k in range(SERIES_ORDER + 1, len(series)))
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


def _window(sol: SingularSolution) -> np.ndarray:
    """64 log-spaced radii spanning [rtilde_p / WINDOW_SHRINK, rtilde_p],
    wherever the seed lies."""
    rtilde_p = sol.lemma.rtilde_p
    return np.geomspace(rtilde_p / WINDOW_SHRINK, rtilde_p, 64)


@dataclass(frozen=True)
class OriginBoundsReport:
    """Signed worst-case margins of the two-sided origin envelope."""

    lower_margin: float  # min of (u - A r**-theta) / bound; >= -tol required
    upper_margin: float  # max of (u - upper) / upper; <= +tol required
    tol: float
    passed: bool


def verify_origin_bounds(sol: SingularSolution, tol: float | None = None) -> OriginBoundsReport:
    """Check A r**(-theta) <= u <= A r**(-theta)(1 + Dp r**2) on the window.

    Margins are relative and evaluated at 64 log-spaced radii of
    [rtilde_p / WINDOW_SHRINK, rtilde_p]. The default tolerance is 10x the
    integrator tolerance.
    """
    c = sol.constants
    if tol is None:
        tol = 10.0 * max(sol.trajectory.rtol, sol.trajectory.atol)
    radii = _window(sol)
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
    """Evaluate the derivative-decay quantities at 64 log-spaced radii of
    [rtilde_p / WINDOW_SHRINK, rtilde_p]."""
    c = sol.constants
    radii = _window(sol)
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
