"""The radial equation, the energy functional, and adaptive integration.

The equation is integrated in the radius r, alone or jointly with the
difference d = u - u* of a second solution to a reference one, which
measures distances between solutions far below the round-off of either. All
integrations run the in-house Dormand-Prince 5(4) stepper of
:mod:`lntlab._dp45` on tuples of floats, which follows the step rules of
scipy's RK45 and so takes the same steps; its dense output is one piecewise
quartic. Unit crossings (u = 1) and critical points (u' = 0) are located by
Brent's method on the interpolant of the step where they change sign and
recorded on the trajectory together with the energy trace and the solver
counters; a critical point is a minimum where u' rises through zero, and a
run can stop at the i-th critical point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _dp45
from .errors import CoverageError, IntegrationError, ParameterError
from .params import ProblemParams

__all__ = [
    "PointKind",
    "RadialState",
    "RadialTrajectory",
    "DifferencePath",
    "energy_values",
    "energy_rate",
    "energy_rate_deviation",
    "integrate_adaptive",
    "integrate_difference",
]


class PointKind(Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class RadialState:
    """Point state (r, u, u') of the radial equation."""

    r: float
    u: float
    du: float

    def __post_init__(self):
        if not (self.r > 0):
            raise ParameterError(f"radius must be positive, got r={self.r}")
        if not (math.isfinite(self.u) and math.isfinite(self.du)):
            raise ParameterError("state values must be finite")


def energy_values(u, du, p: float):
    """Lyapunov energy u'**2/2 - u**2/2 + u**(p+1)/(p+1) along sampled
    (u, u') arrays; non-increasing in r along solutions."""
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    return 0.5 * du * du - 0.5 * u * u + u ** (p + 1.0) / (p + 1.0)


def energy_rate(r, u, du, N: int):
    """Exact energy derivative -(N-1) u'**2 / r along solutions."""
    r = np.asarray(r, dtype=float)
    du = np.asarray(du, dtype=float)
    return -(N - 1.0) * du * du / r


def energy_rate_deviation(traj: "RadialTrajectory") -> float:
    """Worst relative mismatch between the discrete energy slope and the
    exact rate -(N-1) u'**2 / r.

    The trajectory is resampled at 20,001 uniform radii on the middle 96% of
    its range, centered differences of the sampled energy are compared to
    the exact rate, and points where the rate is zero or below 1% of its
    maximum are excluded (the relative error is meaningless at critical
    points where the rate vanishes, and on an equilibrium it vanishes
    everywhere).
    """
    a = traj.r_start + 0.02 * (traj.r_end - traj.r_start)
    b = traj.r_start + 0.98 * (traj.r_end - traj.r_start)
    grid = np.linspace(a, b, 20001)
    h = grid[1] - grid[0]
    u, du = traj.sample(grid)
    e = energy_values(u, du, traj.params.p)
    slope = (e[2:] - e[:-2]) / (2.0 * h)
    rate = energy_rate(grid[1:-1], u[1:-1], du[1:-1], traj.params.N)
    mask = (rate != 0.0) & (np.abs(rate) >= 1e-2 * np.max(np.abs(rate)))
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(slope[mask] - rate[mask]) / np.abs(rate[mask])))


@dataclass
class RadialTrajectory:
    """Sampled radial solution path with located events and energy trace.

    Immutable after construction by convention. ``status`` is ``"ok"`` for a
    run that reached its end radius or stopped at the requested critical
    point, ``"nonpositive"`` when the solution reached u = 0 and the run was
    truncated there.
    """

    params: ProblemParams
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    energy: np.ndarray
    unit_crossings: np.ndarray
    critical_points: np.ndarray
    critical_kinds: tuple[PointKind, ...]
    rtol: float = 1e-10
    atol: float = 1e-12
    status: str = "ok"
    message: str = ""
    dense: object | None = field(default=None, repr=False)
    # solver counters: right-hand-side evaluations, accepted and rejected steps
    nfev: int = 0
    n_accepted: int = 0
    n_rejected: int = 0

    def __post_init__(self):
        if self.r.size < 2:
            raise IntegrationError("trajectory must contain at least two samples")
        if np.any(np.diff(self.r) <= 0):
            raise IntegrationError("trajectory samples must be strictly increasing in r")
        for ev in (self.unit_crossings, self.critical_points):
            if ev.size > 1 and np.any(np.diff(ev) <= 0):
                raise IntegrationError("event radii must be strictly increasing")

    @property
    def r_start(self) -> float:
        return float(self.r[0])

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    def covers(self, lo: float, hi: float) -> bool:
        return self.r_start <= lo and hi <= self.r_end

    def sample(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """Dense-output values (u, u') at the requested radii."""
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if radii.size and (radii.min() < self.r_start - 1e-14 * self.r_start
                           or radii.max() > self.r_end * (1 + 1e-14)):
            raise CoverageError(
                f"requested radii [{radii.min()}, {radii.max()}] outside "
                f"trajectory range [{self.r_start}, {self.r_end}]"
            )
        if self.dense is None:
            raise CoverageError("trajectory carries no dense output")
        vals = self.dense(np.clip(radii, self.r_start, self.r_end))
        return vals[0], vals[1]

    def crossings_upto(self, R: float) -> int:
        """Number of unit crossings on (0, R], with relative slack 1e-9 at R."""
        return int(np.count_nonzero(self.unit_crossings <= R * (1.0 + 1e-9)))

    def max_energy_rise(self) -> float:
        """Worst normalized energy increase between consecutive samples.

        Values are scaled by the trajectory's own tolerances so that a
        return value below 1 means monotone within tolerance.
        """
        de = np.diff(self.energy)
        scale = self.atol + self.rtol * np.maximum(
            1.0, np.maximum(np.abs(self.energy[:-1]), np.abs(self.energy[1:]))
        )
        return float(np.max(de / scale)) if de.size else 0.0

    def thinned_indices(self, max_rows: int) -> np.ndarray:
        n = self.r.size
        if n <= max_rows:
            return np.arange(n)
        idx = np.unique(np.linspace(0, n - 1, max_rows).round().astype(int))
        return idx

    def to_csv(self, path, max_rows: int = 10_000, full: bool = False) -> None:
        # imported here, not with the module, so `import lntlab` stays light
        from .reports import write_artifact
        idx = np.arange(self.r.size) if full else self.thinned_indices(max_rows)
        columns = (self.r[idx], self.u[idx], self.du[idx], self.energy[idx])
        write_artifact(path, (("r", "u", "du", "E"), zip(*(c.tolist() for c in columns))))

    def to_json_dict(self, max_rows: int = 10_000, full: bool = False) -> dict:
        idx = np.arange(self.r.size) if full else self.thinned_indices(max_rows)
        return {
            "schema": "trajectory-v1",
            "params": self.params.as_dict(),
            "status": self.status,
            "message": self.message,
            "r": self.r[idx].tolist(),
            "u": self.u[idx].tolist(),
            "du": self.du[idx].tolist(),
            "energy": self.energy[idx].tolist(),
            "unit_crossings": self.unit_crossings.tolist(),
            "critical_points": self.critical_points.tolist(),
            "critical_kinds": [k.value for k in self.critical_kinds],
        }

    def to_json(self, path, max_rows: int = 10_000, full: bool = False) -> None:
        from .reports import write_artifact
        write_artifact(path, self.to_json_dict(max_rows=max_rows, full=full))


# u'' = -(N-1)/r u' + u - u**p. Trial steps may probe u < 0 before the
# terminal event truncates the run; u**p is extended oddly so the field stays
# defined there.
_RADIAL = _dp45.Field(
    t="r", state=("u", "du"), consts=("N", "p", "odd"),
    body=("up = -((-u) ** p) if odd and u < 0.0 else u ** p",),
    rates=("du", "-(N - 1.0) / r * du + u - up"))


def _constants(params: ProblemParams, rtol: float) -> dict:
    """The constants of ``_RADIAL`` and ``_DIFFERENCE`` at tolerance rtol."""
    return {"N": params.N, "p": params.p, "odd": not float(params.p).is_integer(),
            "floor": sys.float_info.min / rtol}


def _distinct(values: np.ndarray) -> np.ndarray:
    """Mask dropping increasing event radii that repeat the previous one (a
    zero on a step end is found by both steps)."""
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = np.diff(values) > 1e-13 * np.abs(values[1:])
    return keep


def integrate_adaptive(
    params: ProblemParams,
    start: RadialState,
    r_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    stop_at_critical: int | None = None,
) -> RadialTrajectory:
    """Integrate the radial equation outward with event detection.

    Uses the Dormand-Prince 5(4) pair with adaptive error control and dense
    output. Unit crossings and critical points are root-polished on each
    step's interpolant and recorded in increasing order, and
    ``stop_at_critical = i`` ends the run at the i-th critical point;
    reaching u = 0 truncates the run and marks the trajectory nonpositive.

    Raises
    ------
    IntegrationError
        If the run fails: the step size falls below 10 ulp of r (as when
        every trial step overflows), or ``_dp45.MAX_STEPS`` accepted steps
        do not reach ``r_end``. The partial trajectory is attached.
    """
    if not math.isfinite(r_end):
        raise ParameterError(f"r_end must be finite, got r_end={r_end}")
    if not (r_end > start.r):
        raise ParameterError(f"r_end={r_end} must exceed the start radius {start.r}")
    if stop_at_critical is not None and not stop_at_critical >= 1:
        raise ParameterError(f"stop_at_critical={stop_at_critical} needs an index >= 1")

    if start.u == 1.0 and start.du == 0.0:
        # constant equilibrium: nothing to integrate
        r = np.array([start.r, r_end])
        ones = np.ones_like(r)
        return RadialTrajectory(
            params=params,
            r=r,
            u=ones,
            du=np.zeros_like(r),
            energy=energy_values(ones, np.zeros_like(r), params.p),
            unit_crossings=np.array([]),
            critical_points=np.array([]),
            critical_kinds=(),
            rtol=rtol,
            atol=atol,
            dense=_dp45.Dense(r, [r_end - start.r], [[1.0, 0.0]], np.zeros((1, 2, 4))),
        )

    events = (
        _dp45.Event("u - 1.0"),
        _dp45.Event("du", terminal=stop_at_critical or 0),
        _dp45.Event("u", direction=-1.0, terminal=1),
    )
    run = _dp45.solve(_RADIAL, _constants(params, rtol), start.r, (start.u, start.du), r_end,
                      rtol, atol, events)

    if run.status == "failed":
        partial = None
        if run.t.size >= 2:
            partial = _build_trajectory(
                params, run, rtol, atol, status="failed", message=run.message
            )
        raise IntegrationError(f"integration failed: {run.message}", partial=partial)
    status, message = "ok", ""
    if run.t_events[-1].size:
        status, message = "nonpositive", "solution reached u = 0; run truncated"

    return _build_trajectory(params, run, rtol, atol, status=status, message=message)


def _build_trajectory(params, run, rtol, atol, status, message):
    unit = run.t_events[0][_distinct(run.t_events[0])]
    keep = _distinct(run.t_events[1])
    crit = run.t_events[1][keep]
    kinds = tuple(PointKind.MIN if up else PointKind.MAX for up in run.rises[1][keep])
    tr, u, du = run.t, run.y[0], run.y[1]
    # the terminal floor event can leave a final sample with u <= 0; clip it
    if u.size and u[-1] <= 0.0:
        keep = u > 0.0
        tr, u, du = tr[keep], u[keep], du[keep]
    return RadialTrajectory(
        params=params,
        r=tr,
        u=u,
        du=du,
        energy=energy_values(u, du, params.p),
        unit_crossings=unit,
        critical_points=crit,
        critical_kinds=kinds,
        rtol=rtol,
        atol=atol,
        status=status,
        message=message,
        dense=run.dense,
        nfev=run.nfev,
        n_accepted=run.n_accepted,
        n_rejected=run.n_rejected,
    )


# (u*, u*', d, d') for a solution u* and the difference d = u - u* of a second
# solution u: d'' = -(N-1)/r d' + d - u***p expm1(p log1p(d/u*)), so the
# nonlinearity difference carries the relative precision of d however small d
# is. Past u* + d = 0 (trial steps beyond a terminal event) the power is
# extended oddly so the field stays defined.
_DIFFERENCE = _dp45.Field(
    t="r", state=("u", "du", "d", "dd"), consts=("N", "p", "odd", "floor"),
    body=("q = d / u",
          "jump = u ** p * expm1(p * log1p(q)) if q > -1.0 else -((-(u + d)) ** p) - u ** p",
          *_RADIAL.body),
    rates=(*_RADIAL.rates, "dd", "-(N - 1.0) / r * dd + d - jump"))


@dataclass
class DifferencePath:
    """Joint path of a solution u* and the difference d = u - u* of a second
    one.

    ``status`` is ``"ok"`` when the run reached its end radius,
    ``"nonpositive"`` when the second solution reached u = 0, and
    ``"underflow"`` when d fell below the smallest size at which its relative
    error control still works in normal doubles; the last two truncate the
    run.
    """

    r: np.ndarray
    status: str
    dense: object | None = field(default=None, repr=False)

    def sample(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """Dense-output values (u*, d) at the requested radii."""
        vals = self.dense(np.clip(np.asarray(radii, dtype=float), self.r[0], self.r[-1]))
        return vals[0], vals[2]


def integrate_difference(
    params: ProblemParams,
    ref: RadialState,
    delta: tuple[float, float],
    r_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> DifferencePath:
    """Integrate u* from ``ref`` and d = u - u* from ``delta`` = (d, d')
    together, outward to ``r_end``.

    The error of d is controlled relative to d alone, with no absolute floor,
    so d keeps its relative precision as it decays; this resolves distances
    between two solutions far below the round-off of either one. The run
    stops with status ``"underflow"`` once hypot(d, d') drops below
    ``float_info.min / rtol``, where the error scale ``rtol * |d|`` would
    leave the normal double range.
    """
    events = (
        _dp45.Event("hypot(d, dd) - floor", direction=-1.0, terminal=1),
        _dp45.Event("u + d", direction=-1.0, terminal=1),
    )
    run = _dp45.solve(_DIFFERENCE, _constants(params, rtol), ref.r, (ref.u, ref.du, *delta),
                      r_end, rtol, (atol, atol, 0.0, 0.0), events)
    if run.status == "failed":
        raise IntegrationError(f"difference integration failed: {run.message}")
    status = "ok"
    if run.status == "event":
        status = "underflow" if run.t_events[0].size else "nonpositive"
    return DifferencePath(r=run.t, status=status, dense=run.dense)
