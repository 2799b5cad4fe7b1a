"""Radial ODE formulations, the energy functional, and adaptive integration.

Two equivalent formulations are exposed: the original equation in the
radius r, and the perturbation equation in logarithmic radius zeta, which is
integrated jointly with the difference of two of its solutions to measure
distances between them. All integrations run the in-house
Dormand-Prince 5(4) stepper of :mod:`lntlab._dp45` on tuples of floats,
which follows the step rules of scipy's RK45 and so takes the same steps;
its dense output is one piecewise quartic. Unit crossings (u = 1) and
critical points (u' = 0) are located by Brent's method on the interpolant
of the step where they change sign and recorded on the trajectory together
with the energy trace and the solver counters; a critical point is a minimum
where u' rises through zero, and a run can stop at the i-th critical point.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _dp45
from .errors import (
    CoverageError,
    IntegrationError,
    ParameterError,
    PositivityError,
)
from .params import DerivedConstants, ProblemParams, phi_nonlinearity

__all__ = [
    "PointKind",
    "RadialState",
    "EtaState",
    "RadialTrajectory",
    "rhs_eta",
    "rhs_eta_difference",
    "energy_values",
    "energy_rate",
    "energy_rate_deviation",
    "transform_u_to_eta",
    "integrate_adaptive",
    "integrate_eta_difference",
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


@dataclass(frozen=True)
class EtaState:
    """Point state (zeta, eta, eta') of the logarithmic-radius perturbation."""

    zeta: float
    eta: float
    deta: float

    def __post_init__(self):
        if not (1.0 + self.eta > 0.0):
            raise PositivityError(f"1 + eta must be positive, got eta={self.eta}")


def rhs_eta(state: EtaState, c: DerivedConstants, p: float) -> tuple[float, float]:
    """Right-hand side of the perturbation equation in logarithmic radius.

    eta'' = alpha*eta' - (p-1)*eta + phi(eta) + m**2 exp(-2 m zeta)(1 + eta),
    with phi the quadratic remainder of the nonlinearity.
    """
    ddeta = (
        c.alpha * state.deta
        - (p - 1.0) * state.eta
        + phi_nonlinearity(state.eta, p)
        + c.m**2 * math.exp(-2.0 * c.m * state.zeta) * (1.0 + state.eta)
    )
    return state.deta, ddeta


def rhs_eta_difference(
    ref: EtaState, delta: float, ddelta: float, c: DerivedConstants, p: float
) -> tuple[float, float]:
    """Right-hand side for delta = eta - eta_ref, the difference of two
    solutions of the perturbation equation.

    delta'' = alpha*delta' + delta - (1+eta_ref)**p expm1(p log1p(q))
              + m**2 exp(-2 m zeta) delta,   q = delta/(1+eta_ref),

    so the nonlinearity difference carries the relative precision of delta
    however small delta is. Past 1 + eta = 0 (trial steps beyond a terminal
    event) the power is extended oddly so the field stays defined.
    """
    base = 1.0 + ref.eta
    q = delta / base
    if q > -1.0:
        jump = base**p * math.expm1(p * math.log1p(q))
    else:
        jump = -((-(base + delta)) ** p) - base**p
    ddd = (
        c.alpha * ddelta
        + delta
        - jump
        + c.m**2 * math.exp(-2.0 * c.m * ref.zeta) * delta
    )
    return ddelta, ddd


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


def energy_rate_deviation(
    traj: "RadialTrajectory",
    n_grid: int = 20001,
    clip: tuple[float, float] = (0.02, 0.98),
    floor_frac: float = 1e-2,
) -> float:
    """Worst relative mismatch between the discrete energy slope and the
    exact rate -(N-1) u'**2 / r.

    The trajectory is resampled densely and uniformly on the clipped interior
    of its range, centered differences of the sampled energy are compared to
    the exact rate, and points where the rate is below ``floor_frac`` of its
    maximum are excluded (the relative error is meaningless at critical
    points where the rate vanishes).
    """
    a = traj.r_start + clip[0] * (traj.r_end - traj.r_start)
    b = traj.r_start + clip[1] * (traj.r_end - traj.r_start)
    grid = np.linspace(a, b, n_grid)
    h = grid[1] - grid[0]
    u, du = traj.sample(grid)
    e = energy_values(u, du, traj.params.p)
    slope = (e[2:] - e[:-2]) / (2.0 * h)
    rate = energy_rate(grid[1:-1], u[1:-1], du[1:-1], traj.params.N)
    mask = np.abs(rate) >= floor_frac * np.max(np.abs(rate))
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(slope[mask] - rate[mask]) / np.abs(rate[mask])))


def transform_u_to_eta(state: RadialState, c: DerivedConstants) -> EtaState:
    """Map (r, u, u') to (zeta, eta, eta') via r = exp(-m zeta) and
    u = A r**(-theta) (1 + eta)."""
    zeta = -math.log(state.r) / c.m
    rt = state.r**c.theta
    eta = rt * state.u / c.A - 1.0
    deta = -c.m * rt / c.A * (c.theta * state.u + state.r * state.du)
    return EtaState(zeta=zeta, eta=eta, deta=deta)


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

    def crossings_upto(self, R: float, slack: float = 1e-9) -> int:
        """Number of unit crossings on (0, R], with relative slack at R."""
        return int(np.count_nonzero(self.unit_crossings <= R * (1.0 + slack)))

    def max_energy_rise(self, rtol: float | None = None, atol: float | None = None) -> float:
        """Worst normalized energy increase between consecutive samples.

        Values are scaled by the integrator tolerance so that a return value
        below 1 means monotone within tolerance.
        """
        rtol = self.rtol if rtol is None else rtol
        atol = self.atol if atol is None else atol
        de = np.diff(self.energy)
        scale = atol + rtol * np.maximum(
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
        idx = np.arange(self.r.size) if full else self.thinned_indices(max_rows)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,u,du,E\n")
            for k in idx:
                fh.write(
                    f"{self.r[k]:.17g},{self.u[k]:.17g},{self.du[k]:.17g},{self.energy[k]:.17g}\n"
                )

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(max_rows=max_rows, full=full), fh, indent=1)
            fh.write("\n")


def _vector_field(params: ProblemParams):
    N, p = params.N, params.p
    odd = not float(p).is_integer()

    def f(r, y):
        u, du = y
        # trial steps may probe u < 0 before the terminal event truncates the
        # run; extend u**p oddly so the field stays defined there
        if odd and u < 0.0:
            up = -((-u) ** p)
        else:
            up = u**p
        return (du, -(N - 1.0) / r * du + u - up)

    return f


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
    ``stop_at_critical = i`` ends the run at the i-th critical point; reaching u = 0 truncates the run and marks the trajectory
    nonpositive.

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

    event_list = (
        _dp45.Event(lambda r, y: y[0] - 1.0),
        _dp45.Event(lambda r, y: y[1], terminal=stop_at_critical or 0),
        _dp45.Event(lambda r, y: y[0], direction=-1.0, terminal=1),
    )

    run = _dp45.solve(_vector_field(params), start.r, (start.u, start.du), r_end,
                      rtol, atol, event_list)

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


@dataclass
class EtaDifferencePath:
    """Joint path of a reference solution eta_ref and a difference delta.

    ``status`` is ``"ok"`` when the run reached ``zeta_end``,
    ``"nonpositive"`` when the second solution reached 1 + eta = 0, and
    ``"underflow"`` when delta fell below the smallest size at which its
    relative error control still works in normal doubles; the last two
    truncate the run.
    """

    zeta: np.ndarray
    status: str
    dense: object | None = field(default=None, repr=False)

    def sample(self, zeta) -> tuple[np.ndarray, np.ndarray]:
        """Dense-output values (eta_ref, delta) at the requested log-radii."""
        lo, hi = sorted((self.zeta[0], self.zeta[-1]))
        vals = self.dense(np.clip(np.asarray(zeta, dtype=float), lo, hi))
        return vals[0], vals[2]


def integrate_eta_difference(
    c: DerivedConstants,
    p: float,
    ref: EtaState,
    delta: tuple[float, float],
    zeta_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> EtaDifferencePath:
    """Integrate eta_ref and delta = eta - eta_ref together from ``ref.zeta``.

    The error of delta is controlled relative to delta alone, with no
    absolute floor, so delta keeps its relative precision as it decays; this
    resolves distances between two solutions far below the round-off of
    either one. The run stops with status ``"underflow"`` once
    hypot(delta, delta') drops below ``float_info.min / rtol``, where the
    error scale ``rtol * |delta|`` would leave the normal double range.
    """
    floor = sys.float_info.min / rtol

    def f(z, y):
        st = EtaState(zeta=z, eta=y[0], deta=y[1])
        return (*rhs_eta(st, c, p), *rhs_eta_difference(st, y[2], y[3], c, p))

    events = (
        _dp45.Event(lambda z, y: math.hypot(y[2], y[3]) - floor, direction=-1.0, terminal=1),
        _dp45.Event(lambda z, y: 1.0 + y[0] + y[2], direction=-1.0, terminal=1),
    )
    run = _dp45.solve(f, ref.zeta, (ref.eta, ref.deta, delta[0], delta[1]), zeta_end,
                rtol, (atol, atol, 0.0, 0.0), events)
    if run.status == "failed":
        raise IntegrationError(f"eta difference integration failed: {run.message}")
    status = "ok"
    if run.status == "event":
        status = "underflow" if run.t_events[0].size else "nonpositive"
    return EtaDifferencePath(zeta=run.t, status=status, dense=run.dense)
