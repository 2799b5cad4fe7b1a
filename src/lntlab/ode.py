"""The radial equation, the energy functional, and adaptive integration.

The equation is integrated in the radius r, alone or jointly with the
difference d = u - u* of a second solution to a reference one, which
measures distances between solutions far below the round-off of either. All
integrations run the in-house Dormand-Prince 8(5,3) stepper of
:mod:`lntlab._dop853` on tuples of floats, which follows the step rules of
scipy's DOP853 and so takes the same steps; its dense output is piecewise
of degree 7. Unit crossings (u = 1) and critical points (u' = 0) are located
by Brent's method on the interpolant of the step that reaches them and
recorded on the trajectory together with the energy trace and the solver
counters; a critical point is a minimum where u' rises through zero, and a
run can stop at the i-th critical point.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum

from . import _dop853
from ._dop853 import Column
from ._record import Frozen
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


# Rows of a trajectory artifact not written in full (evenly spaced samples)
MAX_ROWS = 10_000


class PointKind(Enum):
    MIN = "min"
    MAX = "max"


class RadialState(Frozen):
    """Point state (r, u, u') of the radial equation."""

    __slots__ = ("r", "u", "du")

    def __init__(self, r: float, u: float, du: float):
        if not (r > 0):
            raise ParameterError(f"radius must be positive, got r={r}")
        if not (math.isfinite(u) and math.isfinite(du)):
            raise ParameterError("state values must be finite")
        self._set(r=r, u=u, du=du)


def energy_values(u, du, p: float) -> Column:
    """Lyapunov energy u'**2/2 - u**2/2 + u**(p+1)/(p+1) along sampled
    (u, u') sequences; non-increasing in r along solutions."""
    q = p + 1.0
    return Column([0.5 * d * d - 0.5 * v * v + v**q / q for v, d in zip(u, du)])


def energy_rate(r, du, N: int) -> Column:
    """Exact energy derivative -(N-1) u'**2 / r along solutions."""
    nm1 = -(N - 1.0)
    return Column([nm1 * d * d / s for s, d in zip(r, du)])


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
    grid = _dop853.linspace(a, b, 20001)
    h = grid[1] - grid[0]
    u, du = traj.sample(grid)
    e = energy_values(u, du, traj.params.p)
    rate = energy_rate(grid[1:-1], du[1:-1], traj.params.N)
    floor = 1e-2 * max(map(abs, rate))
    return max((abs((hi - lo) / (2.0 * h) - q) / abs(q)
                for lo, hi, q in zip(e, e[2:], rate) if q != 0.0 and abs(q) >= floor),
               default=0.0)


class RadialTrajectory:
    """Sampled radial solution path with located events and energy trace.

    Immutable after construction by convention. ``status`` is ``"ok"`` for a
    run that reached its end radius or stopped at the requested critical
    point, ``"nonpositive"`` when the solution reached u = 0 and the run was
    truncated there. The energy trace is computed when first read.
    """

    def __init__(self, params: ProblemParams, r: Column, u: Column, du: Column,
                 unit_crossings: Column, critical_points: Column,
                 critical_kinds: tuple[PointKind, ...], rtol: float = 1e-10,
                 atol: float = 1e-12, status: str = "ok", message: str = "",
                 dense: object | None = None, nfev: int = 0, n_accepted: int = 0,
                 n_rejected: int = 0):
        if len(r) < 2:
            raise IntegrationError("trajectory must contain at least two samples")
        if not r.increasing():
            raise IntegrationError("trajectory samples must be strictly increasing in r")
        if not (unit_crossings.increasing() and critical_points.increasing()):
            raise IntegrationError("event radii must be strictly increasing")
        self.params, self.r, self.u, self.du = params, r, u, du
        self.unit_crossings, self.critical_points = unit_crossings, critical_points
        self.critical_kinds, self.rtol, self.atol = critical_kinds, rtol, atol
        self.status, self.message, self.dense = status, message, dense
        # solver counters: right-hand-side evaluations, accepted and rejected steps
        self.nfev, self.n_accepted, self.n_rejected = nfev, n_accepted, n_rejected

    @functools.cached_property
    def energy(self) -> Column:
        return energy_values(self.u, self.du, self.params.p)

    @property
    def r_start(self) -> float:
        return self.r[0]

    @property
    def r_end(self) -> float:
        return self.r[-1]

    def covers(self, lo: float, hi: float) -> bool:
        return self.r_start <= lo and hi <= self.r_end

    def sample(self, radii) -> tuple[Column, Column]:
        """Dense-output values (u, u') at a list of radii."""
        lo, hi = self.r_start, self.r_end
        if len(radii) and (min(radii) < lo - 1e-14 * lo or max(radii) > hi * (1 + 1e-14)):
            raise CoverageError(
                f"requested radii [{min(radii)}, {max(radii)}] outside "
                f"trajectory range [{lo}, {hi}]"
            )
        if self.dense is None:
            raise CoverageError("trajectory carries no dense output")
        return self.dense([lo if r < lo else hi if r > hi else r for r in radii])

    def crossings_upto(self, R: float) -> int:
        """Number of unit crossings on (0, R], with relative slack 1e-9 at R."""
        bound = R * (1.0 + 1e-9)
        return sum(1 for r in self.unit_crossings if r <= bound)

    def max_energy_rise(self) -> float:
        """Worst normalized energy increase between consecutive samples.

        Values are scaled by the trajectory's own tolerances so that a
        return value below 1 means monotone within tolerance.
        """
        e = self.energy
        return max(((b - a) / (self.atol + self.rtol * max(1.0, abs(a), abs(b)))
                    for a, b in zip(e, e[1:])), default=0.0)

    def thinned_indices(self) -> list[int]:
        n = len(self.r)
        if n <= MAX_ROWS:
            return list(range(n))
        return sorted({round(k) for k in _dop853.linspace(0, n - 1, MAX_ROWS)})

    def _columns(self, full: bool) -> list[list[float]]:
        """r, u, du and the energy, thinned to at most MAX_ROWS unless full."""
        columns = [c.tolist() for c in (self.r, self.u, self.du, self.energy)]
        if full or len(self.r) <= MAX_ROWS:
            return columns
        idx = self.thinned_indices()
        return [[c[k] for k in idx] for c in columns]

    def to_csv(self, path, full: bool = False) -> None:
        # imported here, not with the module, so `import lntlab` stays light
        from .reports import write_artifact
        write_artifact(path, (("r", "u", "du", "E"), zip(*self._columns(full))))

    def to_json_dict(self, full: bool = False) -> dict:
        r, u, du, energy = self._columns(full)
        return {
            "schema": "trajectory-v1",
            "params": self.params.as_dict(),
            "status": self.status,
            "message": self.message,
            "r": r,
            "u": u,
            "du": du,
            "energy": energy,
            "unit_crossings": self.unit_crossings.tolist(),
            "critical_points": self.critical_points.tolist(),
            "critical_kinds": [k.value for k in self.critical_kinds],
        }

    def to_json(self, path, full: bool = False) -> None:
        from .reports import write_artifact
        write_artifact(path, self.to_json_dict(full=full))


# u'' = -(N-1)/r u' + u - u**p. Trial steps may probe u < 0 before the
# terminal event truncates the run; u**p is extended oddly so the field stays
# defined there.
_RADIAL = _dop853.Field(
    t="r", state=("u", "du"), consts=("nm1", "p", "odd"),
    body=("up = -((-u) ** p) if odd and u < 0.0 else u ** p",),
    rates=("du", "nm1 / r * du + u - up"))


def _constants(params: ProblemParams, rtol: float) -> dict:
    """The constants of ``_RADIAL`` and ``_DIFFERENCE`` at tolerance rtol;
    ``nm1`` is -(N - 1), taken once per run rather than at every stage."""
    return {"nm1": -(params.N - 1.0), "p": params.p, "odd": not float(params.p).is_integer(),
            "floor": sys.float_info.min / rtol}


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

    Uses the Dormand-Prince 8(5,3) method with adaptive error control and
    dense output. Unit crossings and critical points are root-polished on each
    step's interpolant and recorded in increasing order, each once, and
    ``stop_at_critical = i`` ends the run at the i-th critical point;
    reaching u = 0 truncates the run and marks the trajectory nonpositive.
    The equilibrium u = 1 needs no special case: its field is 0, so each
    step is ten times the last and every sample is exactly (1, 0).

    Raises
    ------
    IntegrationError
        If the run fails: the step size falls below 10 ulp of r (as when
        every trial step overflows), ``_dop853.MAX_STEPS`` accepted steps do
        not reach ``r_end``, or an extra stage of the interpolant of a step
        over which an event crossed overflows. The partial trajectory is
        attached.
    """
    if not math.isfinite(r_end):
        raise ParameterError(f"r_end must be finite, got r_end={r_end}")
    if not (r_end > start.r):
        raise ParameterError(f"r_end={r_end} must exceed the start radius {start.r}")
    if stop_at_critical is not None and not stop_at_critical >= 1:
        raise ParameterError(f"stop_at_critical={stop_at_critical} needs an index >= 1")

    events = (
        _dop853.Event("u - 1.0"),
        _dop853.Event("du", terminal=stop_at_critical or 0),
        _dop853.Event("u", direction=-1.0, terminal=1),
    )
    run = _dop853.solve(_RADIAL, _constants(params, rtol), start.r, (start.u, start.du), r_end,
                      rtol, atol, events)

    if run.status == "failed":
        partial = None
        if len(run.t) >= 2:
            partial = _build_trajectory(
                params, run, rtol, atol, status="failed", message=run.message
            )
        raise IntegrationError(f"integration failed: {run.message}", partial=partial)
    status, message = "ok", ""
    if run.t_events[-1]:
        status, message = "nonpositive", "solution reached u = 0; run truncated"

    return _build_trajectory(params, run, rtol, atol, status=status, message=message)


def _build_trajectory(params, run, rtol, atol, status, message):
    tr, u, du = run.t, run.y[0::2], run.y[1::2]
    # the terminal floor event can leave a final sample with u <= 0; clip it
    if u and u[-1] <= 0.0:
        keep = [k for k, v in enumerate(u) if v > 0.0]
        tr, u, du = ([col[k] for k in keep] for col in (tr, u, du))
    return RadialTrajectory(
        params=params,
        r=Column(tr),
        u=Column(u),
        du=Column(du),
        unit_crossings=Column(run.t_events[0]),
        critical_points=Column(run.t_events[1]),
        critical_kinds=tuple(PointKind.MIN if up else PointKind.MAX for up in run.rises[1]),
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
_DIFFERENCE = _dop853.Field(
    t="r", state=("u", "du", "d", "dd"), consts=("nm1", "p", "odd", "floor"),
    body=("q = d / u",
          "jump = u ** p * expm1(p * log1p(q)) if q > -1.0 else -((-(u + d)) ** p) - u ** p",
          *_RADIAL.body),
    rates=(*_RADIAL.rates, "dd", "nm1 / r * dd + d - jump"))


class DifferencePath:
    """Joint path of a solution u* and the difference d = u - u* of a second
    one.

    ``status`` is ``"ok"`` when the run reached its end radius,
    ``"nonpositive"`` when the second solution reached u = 0, and
    ``"underflow"`` when d fell below the smallest size at which its relative
    error control still works in normal doubles; the last two truncate the
    run.
    """

    def __init__(self, r: Column, status: str, dense: object | None = None):
        self.r, self.status, self.dense = r, status, dense

    def sample(self, radii) -> tuple[Column, Column]:
        """Dense-output values (u*, d) at the requested radii."""
        lo, hi = self.r[0], self.r[-1]
        vals = self.dense([lo if r < lo else hi if r > hi else r for r in radii])
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
        _dop853.Event("hypot(d, dd) - floor", direction=-1.0, terminal=1),
        _dop853.Event("u + d", direction=-1.0, terminal=1),
    )
    run = _dop853.solve(_DIFFERENCE, _constants(params, rtol), ref.r, (ref.u, ref.du, *delta),
                      r_end, rtol, (atol, atol, 0.0, 0.0), events)
    if run.status == "failed":
        raise IntegrationError(f"difference integration failed: {run.message}")
    status = "ok"
    if run.status == "event":
        status = "underflow" if run.t_events[0] else "nonpositive"
    return DifferencePath(r=Column(run.t), status=status, dense=run.dense)
