"""Dormand-Prince 5(4) stepper on tuples of floats, with events and dense
output.

:func:`solve` follows the step rules of scipy's RK45, so it takes the same
steps for the same problem, without the per-step cost of small numpy arrays.
The radial and log-radius integrations in :mod:`lntlab.ode` all run on it.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._brent import brentq
from .errors import ParameterError

# Dormand-Prince 5(4) tableau, as in scipy's RK45: stage nodes and
# couplings, the fifth-order weights, the error weights (fifth minus fourth
# order, including the FSAL stage), and the quartic dense-output matrix.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_EPS = sys.float_info.epsilon
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# Accepted steps allowed per run. The largest runs of the test suite and of
# the README examples take 17k and 20k steps; a run that needs more fails
# rather than growing without bound. A radial run that uses up the budget
# takes about 9 s and 84 MiB on a 2-vCPU VM.
MAX_STEPS = 200_000


def _quartic_value(y0, h, x, q0, q1, q2, q3):
    """Dense-output value y0 + h (q0 x + q1 x**2 + q2 x**3 + q3 x**4) at the
    fraction x of a step; works on floats and on arrays."""
    return y0 + h * x * (q0 + x * (q1 + x * (q2 + x * q3)))


class Dense:
    """Piecewise quartic dense output of a Dormand-Prince run.

    Step k starts at ``ts[k]`` from state ``y0[k]`` (shape (m, n)), has
    length ``h[k]`` and coefficients ``Q[k]`` (shape (m, n, 4)). A query on
    a breakpoint takes the step that ends there; ``ts`` may run in either
    direction, and its last entry may cut the last step short (a terminal
    event).
    """

    def __init__(self, ts, h, y0, Q):
        ts = np.asarray(ts, dtype=float)
        self._ts = ts
        self._sign = 1.0 if ts[-1] >= ts[0] else -1.0
        self._key = self._sign * ts  # increasing, for searchsorted
        self._h = np.asarray(h, dtype=float)
        # per component, so a query copies one (m,) array at a time
        self._y0 = np.asarray(y0, dtype=float).T
        self._Q = np.asarray(Q, dtype=float).transpose(1, 2, 0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self._key, self._sign * t, side="left") - 1
        k = np.clip(k, 0, self._h.size - 1)
        h = self._h[k]
        x = (t - self._ts[k]) / h
        return np.array([_quartic_value(y0[k], h, x, *(qj[k] for qj in q))
                         for y0, q in zip(self._y0, self._Q)])


def _rms(x, scale) -> float:
    return math.sqrt(sum((a / s) ** 2 for a, s in zip(x, scale))) / math.sqrt(len(x))


def _initial_step(fun, t0, y0, f0, t_end, direction, rtol, atol) -> float:
    """Hairer's starting step for a fifth-order pair with a fourth-order
    error estimate (scipy's ``select_initial_step``)."""
    interval = abs(t_end - t0)
    scale = [a + abs(v) * rtol for v, a in zip(y0, atol)]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, tuple(v + h0 * direction * g for v, g in zip(y0, f0)))
    d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, interval)


def _quartic(K) -> list[tuple[float, ...]]:
    """Dense-output coefficients Q = K^T P of one step, per component."""
    return [tuple(float(q) for q in row) for row in np.asarray(K).T @ _P]


def _interpolant(t0, h, y0, Q):
    def y(t):
        x = (t - t0) / h
        return tuple(_quartic_value(v, h, x, *q) for v, q in zip(y0, Q))

    return y


class Event(NamedTuple):
    """Event function g(t, y); a zero of g is recorded when g changes sign
    over a step in ``direction`` (0: either way), and the run stops at the
    ``terminal``-th such zero (0: never)."""

    g: Callable
    direction: float = 0.0
    terminal: int = 0


@dataclass
class Run:
    """Output of :func:`solve`: step ends ``t`` with states ``y`` (n, m),
    event roots per event, the dense output and the solver counters."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    status: str  # "finished", "event" (terminal event) or "failed"
    message: str
    dense: Dense
    nfev: int
    n_accepted: int
    n_rejected: int


def solve(fun, t0, y0, t_end, rtol, atol, events=()) -> Run:
    """Integrate y' = fun(t, y) from t0 to t_end with the Dormand-Prince 5(4)
    pair on tuples of floats.

    The step rules are those of scipy's RK45, so the same steps are taken:
    FSAL stages, Hairer's starting step, the RMS error norm with scale
    ``atol + max(|y|, |y_new|) rtol`` (``atol`` scalar or per component),
    step factors 0.9 err**(-1/5) within [0.2, 10], no growth right after a
    rejection, failure once the step falls below 10 ulp of t, and rtol
    raised to at least 100 eps. A run also fails once it has taken
    ``MAX_STEPS`` steps without reaching t_end. Event zeros are located by
    Brent's method on each step's quartic interpolant.
    """
    if t_end == t0:
        raise ParameterError(f"empty integration span at t={t0}")
    n = len(y0)
    y = tuple(float(v) for v in y0)
    rtol = max(rtol, 100 * _EPS)
    atol = tuple(atol) if isinstance(atol, tuple) else (atol,) * n
    direction = 1.0 if t_end > t0 else -1.0
    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end, direction, rtol, atol)
    nfev, n_accepted, n_rejected = 2, 0, 0
    # flat double arrays: a step keeps 2 + 8n doubles, not tuples of floats
    ts, ys, hs, stages = array("d", [t]), array("d", y), array("d"), array("d")
    g = [ev.g(t, y) for ev in events]
    counts = [0] * len(events)
    t_events = [[] for _ in events]
    status, message = None, ""
    sqrt_n = math.sqrt(n)
    while status is None:
        if n_accepted >= MAX_STEPS:
            status = "failed"
            message = f"Step budget of {MAX_STEPS} accepted steps exhausted."
            break
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = "failed"
                message = "Required step size is less than spacing between numbers."
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k1 = f
            k2 = fun(t + _C2 * h, tuple(v + (_A21 * a) * h for v, a in zip(y, k1)))
            k3 = fun(t + _C3 * h, tuple(v + (_A31 * a + _A32 * b) * h
                                        for v, a, b in zip(y, k1, k2)))
            k4 = fun(t + _C4 * h, tuple(v + (_A41 * a + _A42 * b + _A43 * c) * h
                                        for v, a, b, c in zip(y, k1, k2, k3)))
            k5 = fun(t + _C5 * h, tuple(v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                                        for v, a, b, c, d in zip(y, k1, k2, k3, k4)))
            k6 = fun(t + h, tuple(
                v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)))
            y_new = tuple(v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * q)
                          for v, a, c, d, e, q in zip(y, k1, k3, k4, k5, k6))
            f_new = fun(t + h, y_new)
            nfev += 6
            try:
                err = math.sqrt(sum(
                    ((_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * q + _E7 * w) * h
                     / (tol + max(abs(v), abs(vn)) * rtol)) ** 2
                    for a, c, d, e, q, w, v, vn, tol
                    in zip(k1, k3, k4, k5, k6, f_new, y, y_new, atol))) / sqrt_n
            except ZeroDivisionError:  # zero scale: the error cannot be controlled
                err = math.inf
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected = True
            n_rejected += 1
        if status == "failed":
            break
        n_accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        hs.append(h)
        stages.extend((*k1, *k2, *k3, *k4, *k5, *k6, *f_new))
        if direction * (t - t_end) >= 0:
            status = "finished"
        if events:
            g_new = [ev.g(t, y) for ev in events]
            active = [
                j for j, ev in enumerate(events)
                if (ev.direction >= 0 and g[j] <= 0 <= g_new[j])
                or (ev.direction <= 0 and g[j] >= 0 >= g_new[j])
            ]
            g = g_new
            if active:
                K = (k1, k2, k3, k4, k5, k6, f_new)
                interp = _interpolant(t_old, h, y_old, _quartic(K))
                roots = {}
                for j in active:
                    counts[j] += 1
                    ev = events[j]
                    roots[j] = brentq(lambda s, ev=ev: ev.g(s, interp(s)), t_old, t,
                                      xtol=4 * _EPS, rtol=4 * _EPS)
                done = {j for j in active if 0 < events[j].terminal <= counts[j]}
                if done:
                    # keep the zeros up to the first one that ends the run
                    active.sort(key=lambda j: direction * roots[j])
                    active = active[:1 + next(k for k, j in enumerate(active) if j in done)]
                    status = "event"
                    t = roots[active[-1]]
                    y = interp(t)
                for j in active:
                    t_events[j].append(roots[j])
        if len(ts) > 1 and t == ts[-1]:
            # a terminal zero on the step's start: the step adds nothing
            hs.pop()
            del stages[-7 * n:]
        else:
            ts.append(t)
            ys.extend(y)
    ys = np.array(ys).reshape(-1, n)
    Q = np.tensordot(np.array(stages).reshape(-1, 7, n), _P, axes=([1], [0]))
    return Run(
        t=np.array(ts),
        y=ys.T,
        t_events=[np.array(te) for te in t_events],
        status=status,
        message=message,
        dense=Dense(ts, hs, ys[:-1], Q),
        nfev=nfev,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
    )
