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
from typing import NamedTuple

from ._dop853 import Column
from ._record import Frozen
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
    "origin_scaled",
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


class CriticalRadii(Frozen):
    """Increasing critical radii with alternating min/max kinds."""

    __slots__ = ("radii", "kinds")

    def __init__(self, radii: Column, kinds: tuple[PointKind, ...]):
        radii = Column(radii)
        if len(kinds) != len(radii):
            raise ParameterError("one kind per critical radius required")
        if not radii.increasing():
            raise ParameterError("critical radii must be strictly increasing")
        for k in range(1, len(kinds)):
            if kinds[k] is kinds[k - 1]:
                raise DegenerateEventError(
                    f"critical points at r={radii[k - 1]} and r={radii[k]} are "
                    f"both of kind {kinds[k].value}: u' touched zero without crossing"
                )
        self._set(radii=radii, kinds=kinds)

    def __len__(self) -> int:
        return len(self.radii)

    def __getitem__(self, i: int) -> float:
        return self.radii[i]


def _critical_radii_from(traj: RadialTrajectory, require_first_min: bool) -> CriticalRadii:
    radii = traj.critical_points
    kinds = traj.critical_kinds
    if require_first_min and kinds and kinds[0] is not PointKind.MIN:
        raise EventError(
            "first critical point of the singular solution must be a minimum; "
            "got a maximum, which indicates the run lost accuracy"
        )
    return CriticalRadii(radii=radii, kinds=kinds)


class SingularSolution(NamedTuple):
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

    def profile(self, radii) -> tuple[list[float], list[float]]:
        """(u r**theta, u' r**(theta+1)) at a list of radii, finite where u
        overflows: :func:`origin_profile` below the seed radius, the
        trajectory's dense output times (r**theta, r**(theta+1)) from there on."""
        radii = list(radii)
        if radii and not min(radii) > 0.0:
            raise CoverageError(f"the singular solution covers r > 0, not r = {min(radii)}")
        r0, theta = self.seed_radius, self.constants.theta
        inner = zip(*origin_profile(self.constants, [r for r in radii if r < r0]))
        above = [r for r in radii if r >= r0]
        outer = ((u * r**theta, du * r ** (theta + 1.0))
                 for r, u, du in zip(above, *self.trajectory.sample(above)))
        pairs = [next(inner) if r < r0 else next(outer) for r in radii]
        return [t for t, _ in pairs], [dt for _, dt in pairs]

    def scaled(self, radii) -> list[float]:
        """u r**theta at a list of radii: :func:`origin_scaled` below the seed
        radius, the trajectory's dense output times r**theta from there on."""
        radii = list(radii)
        if radii and not min(radii) > 0.0:
            raise CoverageError(f"the singular solution covers r > 0, not r = {min(radii)}")
        r0, theta = self.seed_radius, self.constants.theta
        inner = iter(origin_scaled(self.constants, [r for r in radii if r < r0]))
        outer = iter(self.trajectory.sample([r for r in radii if r >= r0])[0])
        return [next(inner) if r < r0 else next(outer) * r**theta for r in radii]


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


def origin_scaled(c: DerivedConstants, radii) -> list[float]:
    """u r**theta of the origin series summed through c_K at a list of radii:
    it tends to A at the origin, where u overflows once theta is large."""
    coef = origin_series(c)[SERIES_ORDER::-1]
    ts = []
    for r in radii:
        s = r * r
        t = 0.0
        for a in coef:
            t = t * s + a
        ts.append(c.A * t)
    return ts


def origin_profile(c: DerivedConstants, radii) -> tuple[list[float], list[float]]:
    """(u r**theta, u' r**(theta+1)) of the origin series summed through c_K
    at a list of radii, tending to (A, -theta A) at the origin."""
    coef = origin_series(c)
    terms = [coef[k] * (2.0 * k - c.theta) for k in range(SERIES_ORDER, -1, -1)]
    dts = []
    for r in radii:
        s = r * r
        dt = 0.0
        for b in terms:
            dt = dt * s + b
        dts.append(c.A * dt)
    return origin_scaled(c, radii), dts


class SeedWindow(NamedTuple):
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
    (t,), (dt,) = origin_profile(window.constants, [r0])
    theta = window.constants.theta
    return RadialState(r=r0, u=t * r0**-theta, du=dt * r0 ** (-theta - 1.0))


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

    r_p = traj.unit_crossings[0] if traj.unit_crossings else None
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
    sol = solve_singular(params, r_cap, rtol, atol, stop_at_critical=i)
    if len(sol.critical_radii) < i:
        raise EventError(
            f"critical point {i} not found up to r_end={r_cap} (cap reached); "
            "this indicates tolerance problems, not a missing point"
        )
    return sol


def _window(sol: SingularSolution) -> list[float]:
    """64 log-spaced radii spanning [rtilde_p / WINDOW_SHRINK, rtilde_p],
    wherever the seed lies."""
    rtilde_p = sol.lemma.rtilde_p
    return [rtilde_p * WINDOW_SHRINK ** (k / 63 - 1) for k in range(64)]


class OriginBoundsReport(NamedTuple):
    """Signed worst-case margins of the two-sided origin envelope."""

    lower_margin: float  # min of (u - A r**-theta) / bound; >= -tol required
    upper_margin: float  # max of (u - upper) / upper; <= +tol required
    tol: float
    passed: bool


def verify_origin_bounds(sol: SingularSolution, tol: float | None = None) -> OriginBoundsReport:
    """Check A r**(-theta) <= u <= A r**(-theta)(1 + Dp r**2) on the window.

    Margins are relative and evaluated at 64 log-spaced radii of
    [rtilde_p / WINDOW_SHRINK, rtilde_p], on the profile u r**theta. The
    default tolerance is 10x the integrator tolerance.
    """
    c = sol.constants
    if tol is None:
        tol = 10.0 * max(sol.trajectory.rtol, sol.trajectory.atol)
    radii = _window(sol)
    ts, _ = sol.profile(radii)
    lower_margin = min(t / c.A - 1.0 for t in ts)
    upper_margin = max(t / (c.A * (1.0 + c.Dp * r * r)) - 1.0 for t, r in zip(ts, radii))
    passed = lower_margin >= -tol and upper_margin <= tol
    return OriginBoundsReport(
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        tol=tol,
        passed=passed,
    )


class DerivativeBoundReport(NamedTuple):
    """Derivative size at the window edge and the power-law remainder ratio."""

    du_at_rtilde: float
    du_scaled: float  # |u'(rtilde_p)| * sqrt(p)
    u_at_rtilde: float
    sup_remainder_ratio: float  # sup of |u' + theta A r**(-1-theta)| / r**(1-theta)


def derivative_bound_check(sol: SingularSolution) -> DerivativeBoundReport:
    """Evaluate the derivative-decay quantities at 64 log-spaced radii of
    [rtilde_p / WINDOW_SHRINK, rtilde_p], the ratio on the profile
    u' r**(theta+1)."""
    c = sol.constants
    radii = _window(sol)
    _, dts = sol.profile(radii)
    ratio = max(abs(dt + c.theta * c.A) / (r * r) for dt, r in zip(dts, radii))
    u_rt, du_rt = sol.trajectory.sample([sol.lemma.rtilde_p])
    return DerivativeBoundReport(
        du_at_rtilde=du_rt[0],
        du_scaled=abs(du_rt[0]) * math.sqrt(sol.params.p),
        u_at_rtilde=u_rt[0],
        sup_remainder_ratio=ratio,
    )
