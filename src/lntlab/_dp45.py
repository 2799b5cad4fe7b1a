"""Dormand-Prince 5(4) stepper on floats, with events and dense output.

:func:`solve` follows the step rules of scipy's RK45, so it takes the same
steps for the same problem, without the per-step cost of small numpy arrays.
The radial integrations of :mod:`lntlab.ode` all run on it, outward.
A vector field is a :class:`Field` declaration, and an event an expression
in its names. One stepping loop is generated from the tableau per field and
event set, and compiled on its first solve (:func:`_loop`): it writes the
field's rates into every stage and the events after every step, so an
accepted step makes no Python function call, and it stores only the step's
end and length and the new state. The same stage lines, compiled with the
loop, rebuild a stored step and return its quartic interpolant, which the
dense output (:class:`Dense`) and the event search share. After a step over
which an event crosses zero (:class:`Event`) the loop hands the step to
:func:`solve`'s polishing routine, which rebuilds it and finds the zero by
Brent's method on the event evaluated on its interpolant; the loop returns
only at a terminal event, at the end, or on failure. On a 2-vCPU VM a step
of the radial equation costs about 3.6 us in the loop, and a step whose
zeros are polished about 4 us more for its rebuild.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from bisect import bisect_left
from collections.abc import Callable
from typing import NamedTuple

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
_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0, 0, 0, 0),
      (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
      (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_EPS = sys.float_info.epsilon
# Accepted steps allowed per run. The largest runs of the test suite and of
# the README examples take 17k and 20k steps; a run that needs more fails
# rather than growing without bound. The radial run that uses up the budget,
# solve_singular(ProblemParams(5, 20.0), 1e8) with 122,165 event zeros,
# takes about 2.8 s and peaks at 39 MiB on a 2-vCPU VM.
MAX_STEPS = 200_000


class Column(array):
    """A column of doubles, the package's one array type: ``array('d')``
    that also answers ``size`` and, for bench/tracing.py, which reads the
    steps below a radius off a trajectory as ``(r[1:] < x).sum()``, keeps
    its type under slicing and compares elementwise with a number."""

    def __new__(cls, values=()):
        return super().__new__(cls, "d", values)

    size = property(len)

    def __getitem__(self, key):
        item = super().__getitem__(key)
        return Column(item) if isinstance(key, slice) else item

    def __lt__(self, x):
        return Column([v < x for v in self])

    def sum(self) -> float:
        return math.fsum(self)

    def increasing(self) -> bool:
        """Whether the values increase strictly."""
        return not any(map(operator.ge, self, self[1:]))


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced values from start to stop, as numpy's linspace
    computes them: ``start + k step``, the last one set to ``stop``."""
    if num < 0:
        raise ValueError(f"number of samples must be non-negative, got {num}")
    if num < 2:
        return [float(start)] * num
    step = (stop - start) / (num - 1)
    return [start + k * step for k in range(num - 1)] + [float(stop)]


class Dense:
    """Piecewise quartic dense output of a Dormand-Prince run of n
    components, on the run's own step ends ``ts``.

    ``step(k)`` rebuilds step k from its start ``ts[k]``, length and start
    state, and returns its interpolant ``at(t)``, a tuple of n floats; each
    queried step is rebuilt once per batch of points. A query on a
    breakpoint takes the step that ends there; ``ts`` increases, and its
    last entry may cut the last step short (a terminal event).
    """

    def __init__(self, n, ts, step):
        self._n, self._ts, self._step = n, ts, step

    def __call__(self, points) -> tuple[Column, ...]:
        """The n components at the floats ``points``, one column each. Over
        an increasing grid the steps are walked once, and each step is
        rebuilt once for all of its points."""
        ts, last = self._ts, len(self._ts) - 2
        columns = tuple(Column() for _ in range(self._n))

        def evaluate(k, batch):
            for col, values in zip(columns, zip(*map(self._step(k), batch))):
                col.extend(values)

        # step k serves the points in (lo, hi]; the first and the last step
        # also serve those before and after the run
        k, lo, hi, batch = 0, math.inf, -math.inf, []
        for t in points:
            if not lo < t <= hi:
                if batch:
                    evaluate(k, batch)
                    batch = []
                if t <= lo:
                    k = max(bisect_left(ts, t) - 1, 0)
                while k < last and ts[k + 1] < t:
                    k += 1
                lo = ts[k] if k else -math.inf
                hi = ts[k + 1] if k < last else math.inf
            batch.append(t)
        if batch:
            evaluate(k, batch)
        return columns


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


class Field(NamedTuple):
    """A vector field y' = f(t, y), declared in the names of its variables:
    ``t`` the independent one, ``state`` the components of y, ``consts`` the
    per-run constants; one-line statements ``body`` run before the
    ``rates``, one expression per component. The code sees :mod:`math`'s
    names; names that start with an underscore are the generated code's.
    """

    t: str
    state: tuple[str, ...]
    consts: tuple[str, ...]
    body: tuple[str, ...]
    rates: tuple[str, ...]

    def function(self, consts) -> Callable:
        """The plain ``f(t, y)`` of this field, returning a tuple, with its
        constants taken by name from the mapping ``consts``; with
        ``body=()`` and an event as its one rate, the event g(t, y) that
        :func:`solve` evaluates on a rebuilt step's interpolant."""
        return _function_factory(self)(*(consts[name] for name in self.consts))


def _compile(lines, label):
    namespace = {k: v for k, v in vars(math).items() if not k.startswith("_")}
    namespace.update(_inf=math.inf, _nextafter=math.nextafter, _sqrt=math.sqrt)
    exec(compile("\n".join(lines), f"<dp45 {label}>", "exec"), namespace)
    return namespace


def _tuple(names) -> str:
    return "(" + "".join(f"{v}, " for v in names) + ")"


def _assign(targets, values) -> list[str]:
    return [f"{t} = {v}" for t, v in zip(targets, values)]


def _weighted(weights, names) -> str:
    # zero weights drop out, as they do from the tableau's sums
    return " + ".join(f"{w!r} * {v}" for w, v in zip(weights, names) if w)


@functools.lru_cache(maxsize=None)
def _function_factory(field: Field) -> Callable:
    return _compile([f"def _bind({', '.join(field.consts)}):",
                     f"    def _f({field.t}, _y):",
                     f"        {_tuple(field.state)} = _y",
                     *(f"        {s}" for s in field.body),
                     f"        return {_tuple(field.rates)}",
                     "    return _f"], f"field {field.state}")["_bind"]


@functools.lru_cache(maxsize=None)
def _loop(field: Field, exprs: tuple[str, ...], scan: tuple[tuple[bool, bool], ...]):
    """``(advance, bind)``, compiled together from one set of stage lines.

    ``advance(t, y, f, h_abs, t_end, rtol, atol, max_steps, ts, ys, hs,
    polish, *consts)`` is the stepping loop of ``field`` with the events
    ``exprs``, which may rise and fall through zero as ``scan`` says. It steps
    from state y at t with slope f and appends each accepted step's end,
    length and state to the arrays. After a step over which an event crossed
    zero it calls ``polish(before, after, crossed)`` with the event values at
    the step's ends and, per event, whether it crossed, and returns if that
    is true ("event"); it also returns at t_end ("finished"), below the
    minimum step ("min_step") or after max_steps steps ("budget"): the
    reason and the accepted and rejected steps. Each component's stage sums
    are written out term by term in tableau order, so they round as
    ``v + (A21 a + ...) h`` would.

    ``bind(ts, hs, ys, *consts)`` returns ``step(k)``, which rebuilds step k
    of those arrays on the loop's stage lines, its first stage taken where
    the loop took it (at ``ts[k-1] + hs[k-1]``, the previous step's end as
    the loop computed it), so every stage keeps its bits. It returns the
    step's quartic interpolant ``at(t)``, a tuple of n floats: per component
    ``y + h x (q0 + x (q1 + x (q2 + x q3)))`` at x = (t - ts[k]) / h, each q
    a sum over the stages written out in tableau order.
    """
    n, m = len(field.state), len(exprs)
    y, z, tol = ([f"_{c}{i}" for i in range(n)] for c in ("y", "z", "tol"))
    k = [[f"_k{s}_{i}" for i in range(n)] for s in range(7)]
    old, new = _tuple(f"_o{j}" for j in range(m)), _tuple(f"_e{j}" for j in range(m))

    def weighted(weights, i):
        return _weighted(weights, [row[i] for row in k])

    def rates(at, state, s):
        return [f"{field.t} = {at}", *_assign(field.state, state), *field.body,
                *_assign(k[s], field.rates)]

    # stages 1-6 and the new state, from the state y and stage 0 at t
    stages = []
    for s, (c, row) in enumerate(zip(_C, _A), start=1):
        stages += rates(f"_t + {c!r} * _h" if c != 1 else "_t + _h",
                        [f"_y{i} + ({weighted(row, i)}) * _h" for i in range(n)], s)
    stages += [f"_z{i} = _y{i} + _h * ({weighted(_B, i)})" for i in range(n)]
    stages += rates("_t + _h", z, 6)
    trial = list(stages)
    # scale atol + max(|y|, |y_new|) rtol, taking |y_new| only if larger, as
    # max() does
    for i in range(n):
        trial += [f"_m{i} = abs(_y{i})", f"_a{i} = abs(_z{i})",
                  f"if _a{i} > _m{i}:", f"    _m{i} = _a{i}"]
    terms = " + ".join(f"(({weighted(_E, i)}) * _h / (_tol{i} + _m{i} * _rtol)) ** 2"
                       for i in range(n))
    trial += ["try:", f"    _err = _sqrt({terms}) / {math.sqrt(n)!r}",
              "except ZeroDivisionError:  # zero scale: the error cannot be controlled",
              "    _err = _inf"]
    # the crossing rule (see Event), per event
    flags = [" or ".join(c for c, on in ((f"_o{j} < 0.0 <= _e{j}", rise),
                                         (f"_o{j} > 0.0 >= _e{j}", fall)) if on)
             for j, (rise, fall) in enumerate(scan)]
    crossed = " or ".join(flags)
    # the event values at the current state
    events = [f"{field.t} = _t", *_assign(field.state, y),
              *(f"_e{j} = {expr}" for j, expr in enumerate(exprs))]
    lines = [
        "def advance(_t, _y, _f, _h_abs, _t_end, _rtol, _atol, _max_steps, _ts, _ys, _hs,"
        f" _polish, {', '.join(field.consts)}):",
        f"    {_tuple(y)}, {_tuple(k[0])}, {_tuple(tol)} = _y, _f, _atol",
        *(f"    {s}" for s in events),
        f"    {old}, _n_accepted, _n_rejected = {new}, 0, 0",
        "    while True:",
        "        if _n_accepted >= _max_steps:",
        "            return 'budget', _n_accepted, _n_rejected",
        "        _min_step = 10.0 * (_nextafter(_t, _inf) - _t)",
        "        if _min_step > _h_abs:",
        "            _h_abs = _min_step",
        "        _rejected = False",
        "        while True:",
        "            if _h_abs < _min_step:",
        "                return 'min_step', _n_accepted, _n_rejected",
        "            _t_new = _t + _h_abs",
        "            if _t_end < _t_new:",
        "                _t_new = _t_end",
        "            _h = _h_abs = _t_new - _t",
        "            try:",
        *(f"                {s}" for s in trial),
        "            except OverflowError:  # a stage left the double range: reject",
        "                _err = _inf  # the step, as scipy's infinite error norm does",
        "            if _err < 1.0:",
        "                break",
        "            _h_abs *= max(0.2, 0.9 * _err ** -0.2)",
        "            _rejected = True",
        "            _n_rejected += 1",
        "        _factor = 10.0 if _err == 0 else 0.9 * _err ** -0.2",
        "        if _factor > 10.0:",
        "            _factor = 10.0",
        "        if _rejected and _factor > 1.0:",
        "            _factor = 1.0",
        "        _h_abs *= _factor",
        "        _n_accepted += 1",
        "        _hs.append(_h)",
        "        _t = _t_new",
        *(f"        {s}" for s in _assign(y, z) + _assign(k[0], k[6])),
        "        _ts.append(_t)",
        f"        _ys.fromlist([{', '.join(y)}])",
        *(f"        {s}" for s in events),
        *([f"        if ({crossed}) and _polish({old}, {new}, {_tuple(flags)}):",
           "            return 'event', _n_accepted, _n_rejected"] if crossed else []),
        f"        {old} = {new}",
        "        if _t >= _t_end:",
        "            return 'finished', _n_accepted, _n_rejected"]
    horner = [f"_y{i} + _h * _x * (_q0_{i} + _x * (_q1_{i} + _x * (_q2_{i} + _x * _q3_{i})))"
              for i in range(n)]
    lines += [
        f"def _bind(_ts, _hs, _ys, {', '.join(field.consts)}):",
        "    def _step(_k):",
        "        _t, _h = _ts[_k], _hs[_k]",
        f"        {_tuple(y)} = _ys[{n} * _k:{n} * _k + {n}]",
        *(f"        {s}" for s in rates("_ts[_k - 1] + _hs[_k - 1] if _k else _t", y, 0)
          + stages),
        *(f"        _q{j}_{i} = {weighted([row[j] for row in _P], i)}"
          for i in range(n) for j in range(4)),
        "        def _at(_s):",
        "            _x = (_s - _t) / _h",
        f"            return {_tuple(horner)}",
        "        return _at",
        "    return _step"]
    namespace = _compile(lines, f"loop {field.state} {exprs}")
    return namespace["advance"], namespace["_bind"]


class Event(NamedTuple):
    """Event expression g in the names of a :class:`Field`; a zero of g is
    recorded when g crosses zero over a step in ``direction`` (0: either
    way), and the run stops at the ``terminal``-th such zero (0: never).

    g crosses zero over a step if it is nonzero at the step's start and zero
    or past zero at its end: a zero on a step end is recorded once, by the
    step that reaches it, and a g that sits at zero never crosses. Only the
    generated loop applies this rule (:func:`_loop`)."""

    expr: str
    direction: float = 0.0
    terminal: int = 0


class Run:
    """Output of :func:`solve`: the step ends ``t`` and, n per step end, the
    states ``y``, event roots per event with whether g rose across each, the
    dense output and the solver counters."""

    def __init__(self, t: array, y: array, t_events: list[list[float]],
                 rises: list[list[bool]], status: str, message: str, dense: Dense,
                 nfev: int, n_accepted: int, n_rejected: int):
        self.t, self.y, self.t_events, self.rises = t, y, t_events, rises
        # status: "finished", "event" (terminal event) or "failed"
        self.status, self.message, self.dense = status, message, dense
        self.nfev, self.n_accepted, self.n_rejected = nfev, n_accepted, n_rejected


_FAILURES = {"min_step": "Required step size is less than spacing between numbers.",
             "budget": "Step budget of {} accepted steps exhausted."}


def solve(field: Field, consts, t0, y0, t_end, rtol, atol, events=()) -> Run:
    """Integrate y' = f(t, y) of ``field``, its constants taken by name from
    the mapping ``consts``, from t0 forward to t_end > t0 with the
    Dormand-Prince 5(4) pair on floats.

    The step rules are those of scipy's RK45, so the same steps are taken:
    FSAL stages, Hairer's starting step, the RMS error norm with scale
    ``atol + max(|y|, |y_new|) rtol`` (``atol`` scalar or per component),
    step factors 0.9 err**(-1/5) within [0.2, 10], no growth right after a
    rejection, failure once the step falls below 10 ulp of t, and rtol
    raised to at least 100 eps. A trial step whose stages raise
    ``OverflowError`` is rejected as one with an infinite error norm, as
    scipy's overflowing stages are. A run also fails once it has taken
    ``MAX_STEPS`` steps without reaching t_end. The generated loop runs the
    whole integration: after a step over which an event crosses zero (as
    :class:`Event` says; scipy's rule differs only at an exact zero) it
    calls ``polish`` with the events that crossed, which rebuilds the step
    once, locates each zero by Brent's method on the event evaluated on the
    step's quartic interpolant and records whether g rose across the step;
    where the interpolant's end values miss the sign change that g shows at
    the accepted states, the search takes those values at the step's ends.
    At the zero that ends the run, ``polish`` cuts the last step there, or
    drops it if the zero is its start, and the loop returns. A step keeps
    2 + n doubles: its end, length and state.
    """
    if not t_end > t0:
        raise ParameterError(f"integration runs forward: t_end={t_end} must exceed t0={t0}")
    n = len(field.state)
    y = tuple(float(v) for v in y0)
    rtol = max(rtol, 100 * _EPS)
    atol = tuple(atol) if isinstance(atol, tuple) else (atol,) * n
    fun = field.function(consts)
    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, f, t_end, rtol, atol)
    # per event: whether it may rise and whether it may fall through zero
    scan = tuple((ev.direction >= 0, ev.direction <= 0) for ev in events)
    advance, bind = _loop(field, tuple(ev.expr for ev in events), scan)
    max_steps, values = MAX_STEPS, [consts[name] for name in field.consts]
    # each event as the plain function g(t, y) -> (g,) of the field's names
    gs = [field._replace(body=(), rates=(ev.expr,)).function(consts) for ev in events]
    # flat double arrays: a step keeps its end, length and state, 2 + n
    # doubles; its stages are rebuilt when it is queried
    ts, ys, hs = array("d", [t0]), array("d", y), array("d")
    step = bind(ts, hs, ys, *values)
    t_events, rises = [[] for _ in events], [[] for _ in events]

    def polish(before, after, crossed):
        # the zeros of the events that crossed zero over the last step, which
        # the arrays end with; true if one of them ends the run
        active = [j for j, x in enumerate(crossed) if x]
        t_old, t, at, roots = ts[-2], ts[-1], step(len(hs) - 1), {}
        for j in active:
            def g(s, event=gs[j]):
                return event(s, at(s))[0]

            try:
                roots[j] = brentq(g, t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
            except ValueError:
                # the interpolant's ends miss the sign change of the
                # accepted states: take those at the ends, it inside
                ends = {t_old: before[j], t: after[j]}
                roots[j] = brentq(lambda s: ends[s] if s in ends else g(s),
                                  t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
        done = {j for j in active if 0 < events[j].terminal <= len(t_events[j]) + 1}
        if done:
            # keep the zeros up to the first one that ends the run
            active.sort(key=roots.get)
            active = active[:1 + next(k for k, j in enumerate(active) if j in done)]
            t = roots[active[-1]]
            if t == t_old:
                # a terminal zero on the step's start: the step adds no
                # sample, but keeps its length, so a run cut back to its
                # start still has a step to serve its dense output
                del ts[-1], ys[-n:]
            else:
                ts[-1] = t
                ys[-n:] = array("d", at(t))
        for j in active:
            t_events[j].append(roots[j])
            rises[j].append(after[j] > before[j])
        return bool(done)

    why, n_accepted, n_rejected = advance(t0, y, f, h_abs, t_end, rtol, atol, max_steps,
                                          ts, ys, hs, polish, *values)
    status, message = why, ""
    if why in _FAILURES:
        status, message = "failed", _FAILURES[why].format(max_steps)
    return Run(t=ts, y=ys, t_events=t_events, rises=rises, status=status, message=message,
               dense=Dense(n, ts, step), nfev=2 + 6 * (n_accepted + n_rejected),
               n_accepted=n_accepted, n_rejected=n_rejected)
