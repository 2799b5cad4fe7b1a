"""Radial ODE formulations, the energy functional, and adaptive integration.

Two equivalent formulations are exposed: the original equation in the
radius r, and the perturbation equation in logarithmic radius zeta (used for
the near-origin analysis and, jointly with the difference of two of its
solutions, for distances between them). The integrator wraps an embedded
adaptive Runge-Kutta 5(4) pair with dense output; unit crossings (u = 1) and
critical points (u' = 0) are located on the dense output and recorded on the
trajectory together with the energy trace, and a run can stop at the i-th
critical point.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    CoverageError,
    DegenerateEventError,
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
    "energy",
    "energy_values",
    "energy_rate",
    "energy_rate_deviation",
    "transform_eta_to_u",
    "transform_u_to_eta",
    "integrate_adaptive",
    "integrate_eta",
    "integrate_eta_difference",
]

# A critical point with |u - 1| below this is degenerate: u'(r) = 0 and
# u(r) = 1 force the constant solution.
DEGENERATE_EVENT_TOL = 1e-9


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


def energy(state: RadialState, p: float) -> float:
    """Lyapunov energy u'**2/2 - u**2/2 + u**(p+1)/(p+1), non-increasing in r."""
    if state.u <= 0.0:
        raise PositivityError("energy is defined on positive states")
    return float(energy_values(state.u, state.du, p))


def energy_values(u, du, p: float):
    """Vectorized energy along sampled (u, u') arrays."""
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


def transform_eta_to_u(state: EtaState, c: DerivedConstants) -> RadialState:
    """Map (zeta, eta, eta') to (r, u, u') via u = A r**(-theta) (1 + eta)."""
    r = math.exp(-c.m * state.zeta)
    u = c.A * r**-c.theta * (1.0 + state.eta)
    du = c.A * r ** (-c.theta - 1.0) * (-c.theta * (1.0 + state.eta) - state.deta / c.m)
    return RadialState(r=r, u=u, du=du)


def transform_u_to_eta(state: RadialState, c: DerivedConstants) -> EtaState:
    """Inverse of :func:`transform_eta_to_u`."""
    zeta = -math.log(state.r) / c.m
    rt = state.r**c.theta
    eta = rt * state.u / c.A - 1.0
    deta = -c.m * rt / c.A * (c.theta * state.u + state.r * state.du)
    return EtaState(zeta=zeta, eta=eta, deta=deta)


class _ConstantDense:
    """Dense output of the constant equilibrium, mirroring OdeSolution calls."""

    def __init__(self, u: float):
        self._u = u

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.array([self._u, 0.0])
        return np.vstack([np.full(t.shape, self._u), np.zeros(t.shape)])


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


def _dedupe(values: np.ndarray) -> np.ndarray:
    if values.size < 2:
        return values
    keep = np.concatenate([[True], np.diff(values) > 1e-13 * np.abs(values[1:])])
    return values[keep]


def integrate_adaptive(
    params: ProblemParams,
    start: RadialState,
    r_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    events: bool = True,
    stop_at_critical: int | None = None,
) -> RadialTrajectory:
    """Integrate the radial equation outward with event detection.

    Uses an embedded Runge-Kutta 5(4) pair with adaptive error control and
    dense output. When ``events`` is set, unit crossings and critical points
    are root-polished on the dense output and recorded in increasing order,
    and ``stop_at_critical = i`` ends the run at the i-th critical point;
    reaching u = 0 truncates the run and marks the trajectory nonpositive.

    Raises
    ------
    IntegrationError
        If the step size underflows; the partial trajectory is attached.
    DegenerateEventError
        If a critical point lies on u = 1, which forces u == 1.
    """
    if not (r_end > start.r):
        raise ParameterError(f"r_end={r_end} must exceed the start radius {start.r}")
    if stop_at_critical is not None and not (events and stop_at_critical >= 1):
        raise ParameterError(
            f"stop_at_critical={stop_at_critical} needs events and an index >= 1"
        )

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
            dense=_ConstantDense(1.0),
        )

    event_fns = []
    if events:
        def unit_event(r, y):
            return y[0] - 1.0

        def critical_event(r, y):
            return y[1]

        if stop_at_critical is not None:
            critical_event.terminal = stop_at_critical
        event_fns = [unit_event, critical_event]

    def floor_event(r, y):
        return y[0]

    floor_event.terminal = True
    floor_event.direction = -1.0
    event_fns = event_fns + [floor_event]

    sol = solve_ivp(
        _vector_field(params),
        (start.r, r_end),
        (start.u, start.du),
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=event_fns,
    )

    status, message = "ok", ""
    if sol.status == -1:
        partial = None
        if sol.t.size >= 2:
            partial = _build_trajectory(
                params, sol, events, rtol, atol, status="failed", message=sol.message
            )
        raise IntegrationError(f"integration failed: {sol.message}", partial=partial)
    if sol.t_events[-1].size:
        status, message = "nonpositive", "solution reached u = 0; run truncated"

    return _build_trajectory(params, sol, events, rtol, atol, status=status, message=message)


def _build_trajectory(params, sol, events, rtol, atol, status, message):
    unit = np.array([])
    crit = np.array([])
    kinds: tuple[PointKind, ...] = ()
    if events:
        unit = _dedupe(np.sort(np.asarray(sol.t_events[0], dtype=float)))
        crit = _dedupe(np.sort(np.asarray(sol.t_events[1], dtype=float)))
        if crit.size:
            u_at = np.atleast_1d(sol.sol(crit)[0])
            ties = np.abs(u_at - 1.0) < DEGENERATE_EVENT_TOL
            if np.any(ties):
                raise DegenerateEventError(
                    f"critical point on u = 1 at r={crit[ties][0]}: "
                    "only the constant solution admits this"
                )
            kinds = tuple(PointKind.MIN if v < 1.0 else PointKind.MAX for v in u_at)
    u = sol.y[0]
    du = sol.y[1]
    # the terminal floor event can leave a final sample with u <= 0; clip it
    if u.size and u[-1] <= 0.0:
        keep = u > 0.0
        tr, u, du = sol.t[keep], u[keep], du[keep]
    else:
        tr = sol.t
    return RadialTrajectory(
        params=params,
        r=np.asarray(tr, dtype=float),
        u=np.asarray(u, dtype=float),
        du=np.asarray(du, dtype=float),
        energy=energy_values(u, du, params.p),
        unit_crossings=unit,
        critical_points=crit,
        critical_kinds=kinds,
        rtol=rtol,
        atol=atol,
        status=status,
        message=message,
        dense=sol.sol,
    )


@dataclass
class EtaPath:
    """Sampled solution of the logarithmic-radius perturbation equation."""

    zeta: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    dense: object | None = field(default=None, repr=False)


def integrate_eta(
    c: DerivedConstants,
    p: float,
    start: EtaState,
    zeta_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> EtaPath:
    """Integrate the perturbation equation between two log-radii.

    Decreasing zeta corresponds to increasing radius; spans may run in either
    direction.
    """

    def f(z, y):
        st = EtaState(zeta=z, eta=y[0], deta=y[1])
        return rhs_eta(st, c, p)

    sol = solve_ivp(
        f,
        (start.zeta, zeta_end),
        (start.eta, start.deta),
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    if sol.status != 0:
        raise IntegrationError(f"eta integration failed: {sol.message}")
    return EtaPath(zeta=sol.t, eta=sol.y[0], deta=sol.y[1], dense=sol.sol)


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

    def underflow_event(z, y):
        return math.hypot(y[2], y[3]) - floor

    def floor_event(z, y):
        return 1.0 + y[0] + y[2]

    for ev in (underflow_event, floor_event):
        ev.terminal = True
        ev.direction = -1.0

    sol = solve_ivp(
        f,
        (ref.zeta, zeta_end),
        (ref.eta, ref.deta, delta[0], delta[1]),
        method="RK45",
        rtol=rtol,
        atol=(atol, atol, 0.0, 0.0),
        dense_output=True,
        events=(underflow_event, floor_event),
    )
    if sol.status == -1:
        raise IntegrationError(f"eta difference integration failed: {sol.message}")
    status = "ok"
    if sol.status == 1:
        status = "underflow" if sol.t_events[0].size else "nonpositive"
    return EtaDifferencePath(zeta=sol.t, status=status, dense=sol.sol)
