"""Root-finding on the power p: prescribe the i-th critical radius of the
singular solution, plus the continuity diagnostic for p -> R_p_i.

The map p -> R_p_i is continuous and decays to zero as p grows. The
critical radii follow the crossing spacing pi/sqrt(p - 1), so in the
coordinates x = log(p - 1) the function f(x) = log(R_p_i / R) is close to a
line of slope -1/2. The search steps to where that line, and then the
secant through its last two points, puts the root, until f changes sign;
secant steps at least double, so a flat stretch cannot stall it. Brent's
method on f in x then narrows the bracket; it keeps a sign change and falls
back to bisection, so only continuity is needed across the numerics. The
regular branch's samples in :mod:`lntlab.shooting` run the same search on
the critical radii of a shot.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._brent import brentq
from ._dp45 import Column
from .errors import BracketError, EventError, ParameterError
from .params import ProblemParams, critical_exponent, derive_constants, lemma_constants
from .singular import solve_singular, solve_with_criticals

__all__ = [
    "ExponentSolution",
    "find_istar",
    "find_exponent",
    "continuity_scan",
    "ContinuityReport",
]

P_CAP_DEFAULT = 1.0e4
RESIDUAL_RTOL = 1e-6
XTOL = 5e-12  # width of the final bracket in x = log(p - 1)


class ExponentSolution(NamedTuple):
    """Power p_i at which the i-th critical radius equals the target R."""

    i: int
    R: float
    p_i: float
    residual: float  # |R_{p_i}^i - R|
    crossings: int  # number of u = 1 solutions on (0, R]
    solves: int  # singular solves made, one per (power, tolerance)
    bracket: tuple[float, float]  # powers handed to Brent: R_p^i >= R, then < R


def find_istar(
    N: int,
    p_tilde: float,
    R: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> int:
    """Smallest index i with i-th critical radius above R at the power p_tilde.

    One singular solve covering (0, R]; the answer is 1 plus the number of
    critical radii at or below R.
    """
    if not (R > 0):
        raise ParameterError(f"target radius must be positive, got R={R}")
    params = ProblemParams(N, p_tilde, R=R)
    r_end = max(R, 2.0 * lemma_constants(derive_constants(params)).rtilde_p)
    sol = solve_singular(params, r_end, rtol, atol)
    return 1 + sum(1 for r in sol.critical_radii.radii if r <= R)


def _critical_radius_and_crossings(
    params: ProblemParams, i: int, rtol: float, atol: float
) -> tuple[float, int]:
    sol = solve_with_criticals(params, i, rtol=rtol, atol=atol)
    radius = sol.critical_radii[i - 1]
    crossings = sol.trajectory.crossings_upto(radius)
    return radius, crossings


def _power_root(radius, R, p_lo, p_cap, start_error):
    """Power p in (p_lo, p_cap] with ``radius(p) = R``, and the Brent bracket.

    The search of the module docstring, from ``p_lo``: the first step goes
    to ``x_lo + 2 f(x_lo)``, and no step is shorter than ``XTOL``, the width
    Brent's method leaves in x. ``radius`` must exceed R at ``p_lo``, else
    ``start_error(radius(p_lo))`` is raised. No power above ``p_cap`` is
    evaluated, and a cap that is not finite or not above ``p_lo`` is a
    ParameterError before any evaluation.
    """
    if not (p_lo < p_cap < math.inf):
        raise ParameterError(
            f"p_cap must be finite and above p_lo, got the power bracket ({p_lo}, {p_cap})"
        )
    r_lo = radius(p_lo)
    if not (r_lo > R):
        raise start_error(r_lo)
    x_lo, x_cap = math.log(p_lo - 1.0), math.log(p_cap - 1.0)

    def power(x: float) -> float:
        # 1 + exp(log(p_lo - 1)) can miss p_lo by an ulp, and the caller's
        # memo must see the power it evaluated
        return p_lo if x == x_lo else min(1.0 + math.exp(x), p_cap)

    def f(x: float) -> float:
        return math.log(radius(power(x)) / R)

    a, fa = x_lo, math.log(r_lo / R)
    slope, floor = -0.5, XTOL
    while True:
        if a >= x_cap:
            raise BracketError(f"critical radius still >= R={R} at the power cap {p_cap}")
        step = max(-fa / slope, floor)
        b = min(a + step, x_cap)
        fb = f(b)
        if fb < 0.0:
            break
        if a > x_lo:
            # from the first secant step on, each step at least doubles, so a
            # stretch where f stays flat is crossed in a few steps
            floor = 2.0 * step
        slope = (fb - fa) / (b - a)
        if not (slope < 0.0):
            slope = -0.5
        a, fa = b, fb
    return power(brentq(f, a, b, xtol=XTOL)), (power(a), power(b))


def find_exponent(
    i: int,
    R: float,
    N: int,
    p_lo: float,
    p_cap: float = P_CAP_DEFAULT,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ExponentSolution:
    """Find p_i with i-th critical radius of the singular solution equal to R.

    Requires the i-th critical radius to exceed R at ``p_lo``; otherwise the
    error names the smallest admissible index, :func:`find_istar` at
    ``p_lo``. The root is found by the bracket search of
    :func:`_power_root` on ``(p_lo, p_cap]``; its residual must be below
    ``1e-6 * R``. The accepted solution must show exactly ``i`` unit
    crossings on (0, R]; a mismatch is retried once at tightened tolerance
    before failing. ``solves`` counts the singular solves, and ``bracket``
    holds the powers handed to Brent's method.
    """
    if i < 1:
        raise ParameterError(f"oscillation index must be >= 1, got {i}")
    if not (p_lo > critical_exponent(N)):
        raise ParameterError(f"p_lo={p_lo} is not supercritical for N={N}")

    # brentq re-evaluates the bracket ends and the residual check the root,
    # so each (power, tolerance) is solved once per call
    memo: dict[tuple[float, float, float], tuple[float, int]] = {}

    def radius_and_crossings(p: float, rtol: float, atol: float) -> tuple[float, int]:
        key = (p, rtol, atol)
        if key not in memo:
            memo[key] = _critical_radius_and_crossings(
                ProblemParams(N, p, R=R), i, rtol, atol)
        return memo[key]

    def below_istar(r_lo: float) -> ParameterError:
        istar = find_istar(N, p_lo, R, rtol, atol)
        return ParameterError(
            f"critical radius {i} at p_lo={p_lo} is {r_lo} <= R={R}; "
            f"choose i >= {istar}"
        )

    p_i, bracket = _power_root(lambda p: radius_and_crossings(p, rtol, atol)[0],
                               R, p_lo, p_cap, below_istar)
    for attempt in range(2):
        radius, crossings = radius_and_crossings(
            p_i, rtol / 10**attempt, atol / 10**attempt)
        residual = abs(radius - R)
        if crossings == i:
            break
    else:
        raise EventError(
            f"unit-crossing count {crossings} != i={i} at p_i={p_i} after retry; "
            "the root finder likely jumped to a different critical branch"
        )
    if residual >= RESIDUAL_RTOL * R:
        raise BracketError(
            f"root finder converged in p but residual {residual} exceeds "
            f"{RESIDUAL_RTOL * R}"
        )
    return ExponentSolution(i=i, R=R, p_i=p_i, residual=residual, crossings=crossings,
                            solves=len(memo), bracket=bracket)


class ContinuityReport(NamedTuple):
    """Refinement study of the modulus of continuity of p -> R_p_i."""

    refined_grid: Column
    refined_values: Column
    modulus_coarse: float
    modulus_fine: float
    ratio: float
    max_jump_factor: float  # largest |increment| over the median on the fine grid
    passed: bool


def continuity_scan(
    i: int,
    N: int,
    p_grid,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ContinuityReport:
    """Modulus of continuity of p -> R_p_i under midpoint grid refinement.

    Computes the i-th critical radius on the grid and on its midpoint
    refinement. For a continuous map the largest adjacent increment should
    halve when the mesh halves; PASS requires the ratio in [1/3, 2/3] and no
    isolated jump above 10x the median increment.
    """
    grid = sorted(float(p) for p in p_grid)
    if len(grid) < 3:
        raise ParameterError("continuity scan needs at least three grid points")
    if grid[0] <= critical_exponent(N):
        raise ParameterError("grid extends below the supercritical range")
    if any(a == b for a, b in zip(grid, grid[1:])):
        raise ParameterError(f"continuity scan repeats a power: {grid}")

    def radius_at(p: float) -> float:
        return _critical_radius_and_crossings(ProblemParams(N, p), i, rtol, atol)[0]

    mids = [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    # powers a few ulps apart have a midpoint that rounds onto one of them,
    # which would be solved twice and add a zero increment
    for a, m, b in zip(grid, mids, grid[1:]):
        if not a < m < b:
            raise ParameterError(f"no double lies strictly between the powers {a!r} and {b!r}")
    # grid points and midpoints interleaved: the grid's values are every other one
    refined = Column([*(x for pair in zip(grid, mids) for x in pair), grid[-1]])
    refined_values = Column(radius_at(p) for p in refined)
    values = refined_values[::2]

    modulus_coarse = max(abs(b - a) for a, b in zip(values, values[1:]))
    inc_fine = sorted(abs(b - a) for a, b in zip(refined_values, refined_values[1:]))
    modulus_fine = inc_fine[-1]
    ratio = modulus_fine / modulus_coarse if modulus_coarse > 0 else 0.0
    half = len(inc_fine) // 2  # the median: the middle one, or the mean of the two
    med = inc_fine[half] if len(inc_fine) % 2 else (inc_fine[half - 1] + inc_fine[half]) / 2
    max_jump_factor = modulus_fine / med if med > 0 else 0.0
    if modulus_coarse == 0.0:
        # powers too close for their radii to differ: zero modulus
        passed = modulus_fine == 0.0
    else:
        passed = (1.0 / 3.0 <= ratio <= 2.0 / 3.0) and max_jump_factor <= 10.0
    return ContinuityReport(
        refined_grid=refined,
        refined_values=refined_values,
        modulus_coarse=modulus_coarse,
        modulus_fine=modulus_fine,
        ratio=ratio,
        max_jump_factor=max_jump_factor,
        passed=passed,
    )
