"""Dormand-Prince 5(4) stepper on tuples of floats, with events and dense
output.

:func:`solve` follows the step rules of scipy's RK45, so it takes the same
steps for the same problem, without the per-step cost of small numpy arrays.
The radial integrations of :mod:`lntlab.ode` all run on it, outward.
Each trial step is one call of a kernel generated from the tableau and
compiled once per state size (:func:`_trial_step`), which writes out every
component's stage sums on local variables. A step of the radial equation
costs 13-16 us on a 2-vCPU VM, the right-hand side and events included.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._brent import brentq
from .errors import ParameterError

# Dormand-Prince 5(4) tableau, as in scipy's RK45: the nodes _C and coupling
# rows _A of stages 2-6 (stage 6 sits at the step's end), the fifth-order
# weights _B, the error weights _E (fifth minus fourth order, the last on the
# FSAL stage) and the quartic dense-output matrix _P.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
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
    a breakpoint takes the step that ends there; ``ts`` increases, and its
    last entry may cut the last step short (a terminal event).
    """

    def __init__(self, ts, h, y0, Q):
        self._ts = np.asarray(ts, dtype=float)
        self._h = np.asarray(h, dtype=float)
        # per component, so a query copies one (m,) array at a time
        self._y0 = np.asarray(y0, dtype=float).T
        self._Q = np.asarray(Q, dtype=float).transpose(1, 2, 0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self._ts, t, side="left") - 1
        k = np.clip(k, 0, self._h.size - 1)
        h = self._h[k]
        x = (t - self._ts[k]) / h
        return np.array([_quartic_value(y0[k], h, x, *(qj[k] for qj in q))
                         for y0, q in zip(self._y0, self._Q)])


def _rms(x, scale) -> float:
    # a zero scale (zero value, zero atol) weighs nothing until a step moves it
    terms = [(a / s) ** 2 for a, s in zip(x, scale) if s]
    return math.sqrt(sum(terms)) / math.sqrt(len(terms))


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol) -> float:
    """Hairer's starting step for a fifth-order pair with a fourth-order
    error estimate (scipy's ``select_initial_step``)."""
    interval = t_end - t0
    scale = [a + abs(v) * rtol for v, a in zip(y0, atol)]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(v + h0 * g for v, g in zip(y0, f0)))
    d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, interval)


def _quartic(K) -> list[tuple[float, ...]]:
    """Dense-output coefficients Q = K^T P of one step, per component, from
    its flat stage tuple (stage by stage)."""
    return [tuple(float(q) for q in row) for row in np.asarray(K).reshape(7, -1).T @ _P]


@functools.lru_cache(maxsize=None)
def _trial_step(n: int) -> Callable:
    """The Dormand-Prince trial step for states of ``n`` components.

    ``step(fun, t, y, f, h, rtol, atol)`` takes one step of length ``h`` from
    state ``y`` with slope ``f = fun(t, y)`` and per-component ``atol``, and
    returns ``(y_new, f_new, err, K)``: the fifth-order state, its slope, the
    RMS error norm (``inf`` where a scale is zero) and the seven stages as
    one flat tuple, stage by stage. The body is generated from the tableau
    and compiled once per ``n``: every component's sum is written out on
    local variables, term by term in tableau order, so it rounds exactly as
    the per-component sums ``v + (A21 a + ...) h`` and ``v + h (B1 a + ...)``
    would, without a generator per stage.
    """
    idx = range(n)

    def names(prefix):
        return "".join(f"{prefix}{i}, " for i in idx)

    def weighted(weights, i):
        # zero weights drop out, as they do from the tableau's sums
        return " + ".join(f"{w!r} * k{s}_{i}" for s, w in enumerate(weights) if w)

    lines = ["def step(fun, t, y, f, h, rtol, atol):",
             f"    {names('y')}= y",
             f"    {names('tol')}= atol",
             f"    {names('k0_')}= f"]
    for s, (c, row) in enumerate(zip(_C, _A), start=1):
        at = f"t + {c!r} * h" if c != 1 else "t + h"
        state = "".join(f"y{i} + ({weighted(row, i)}) * h, " for i in idx)
        lines.append(f"    {names(f'k{s}_')}= fun({at}, ({state}))")
    lines += [f"    z{i} = y{i} + h * ({weighted(_B, i)})" for i in idx]
    lines.append(f"    y_new = ({names('z')})")
    lines.append(f"    {names('k6_')}= f_new = fun(t + h, y_new)")
    # scale atol + max(|y|, |y_new|) rtol, taking |y_new| only if larger, as
    # max() does
    for i in idx:
        lines += [f"    m{i} = abs(y{i})",
                  f"    a{i} = abs(z{i})",
                  f"    if a{i} > m{i}:",
                  f"        m{i} = a{i}"]
    terms = " + ".join(f"(({weighted(_E, i)}) * h / (tol{i} + m{i} * rtol)) ** 2"
                       for i in idx)
    stages = "".join(names(f"k{s}_") for s in range(7))
    lines += ["    try:",
              f"        err = sqrt({terms}) / {math.sqrt(n)!r}",
              "    except ZeroDivisionError:  # zero scale: the error cannot be controlled",
              "        err = inf",
              f"    return y_new, f_new, err, ({stages})"]
    namespace = {"sqrt": math.sqrt, "inf": math.inf}
    exec(compile("\n".join(lines), f"<dp45 trial step, n={n}>", "exec"), namespace)
    return namespace["step"]


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
    event roots per event with whether g rose across each, the dense output
    and the solver counters."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    rises: list
    status: str  # "finished", "event" (terminal event) or "failed"
    message: str
    dense: Dense
    nfev: int
    n_accepted: int
    n_rejected: int


def solve(fun, t0, y0, t_end, rtol, atol, events=()) -> Run:
    """Integrate y' = fun(t, y) from t0 forward to t_end > t0 with the
    Dormand-Prince 5(4) pair on tuples of floats.

    The step rules are those of scipy's RK45, so the same steps are taken:
    FSAL stages, Hairer's starting step, the RMS error norm with scale
    ``atol + max(|y|, |y_new|) rtol`` (``atol`` scalar or per component),
    step factors 0.9 err**(-1/5) within [0.2, 10], no growth right after a
    rejection, failure once the step falls below 10 ulp of t, and rtol
    raised to at least 100 eps. A trial step whose stages raise
    ``OverflowError`` is rejected as one with an infinite error norm, as
    scipy's overflowing stages are. A run also fails once it has taken
    ``MAX_STEPS`` steps without reaching t_end. Event zeros are located by
    Brent's method on each step's quartic interpolant, and each records
    whether g rose across its step; where the interpolant's end values miss
    the sign change that g shows at the accepted states, the search takes
    those values at the step's ends.
    """
    if not t_end > t0:
        raise ParameterError(f"integration runs forward: t_end={t_end} must exceed t0={t0}")
    n = len(y0)
    y = tuple(float(v) for v in y0)
    rtol = max(rtol, 100 * _EPS)
    atol = tuple(atol) if isinstance(atol, tuple) else (atol,) * n
    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end, rtol, atol)
    nfev, n_accepted, n_rejected = 2, 0, 0
    # flat double arrays: a step keeps 2 + 8n doubles, not tuples of floats
    ts, ys, hs, stages = array("d", [t]), array("d", y), array("d"), array("d")
    # per event: g, whether it may rise and whether it may fall through zero
    scan = [(ev.g, ev.direction >= 0, ev.direction <= 0) for ev in events]
    g = [ev.g(t, y) for ev in events]
    counts = [0] * len(events)
    t_events = [[] for _ in events]
    rises = [[] for _ in events]
    status, message = None, ""
    step = _trial_step(n)
    while status is None:
        if n_accepted >= MAX_STEPS:
            status = "failed"
            message = f"Step budget of {MAX_STEPS} accepted steps exhausted."
            break
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = "failed"
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            nfev += 6
            try:
                y_new, f_new, err, K = step(fun, t, y, f, h, rtol, atol)
            except OverflowError:
                # a stage left the double range: reject the step, as scipy's
                # RK45 does with its infinite error norm
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
        stages.extend(K)
        if t >= t_end:
            status = "finished"
        # one pass over the events: g is updated in place, and the old value
        # of each event that changed sign is kept for its crossing
        before = None
        for j, (gj, rise, fall) in enumerate(scan):
            old = g[j]
            g[j] = new = gj(t, y)
            if (rise and old <= 0 <= new) or (fall and old >= 0 >= new):
                if before is None:
                    before = {}
                before[j] = old
        if before is not None:
            active = list(before)
            interp = _interpolant(t_old, h, y_old, _quartic(K))
            roots = {}
            for j in active:
                counts[j] += 1
                ev = events[j]

                def on_step(s, ev=ev):
                    return ev.g(s, interp(s))

                try:
                    roots[j] = brentq(on_step, t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                except ValueError:
                    # the interpolant's ends miss the sign change of the
                    # accepted states: take those at the ends, it inside
                    ends = {t_old: before[j], t: g[j]}
                    roots[j] = brentq(lambda s: ends[s] if s in ends else on_step(s),
                                      t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
            done = {j for j in active if 0 < events[j].terminal <= counts[j]}
            if done:
                # keep the zeros up to the first one that ends the run
                active.sort(key=roots.get)
                active = active[:1 + next(k for k, j in enumerate(active) if j in done)]
                status = "event"
                t = roots[active[-1]]
                y = interp(t)
            for j in active:
                t_events[j].append(roots[j])
                rises[j].append(g[j] > before[j])
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
        rises=[np.array(up, dtype=bool) for up in rises],
        status=status,
        message=message,
        dense=Dense(ts, hs, ys[:-1], Q),
        nfev=nfev,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
    )
