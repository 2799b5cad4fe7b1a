"""Dormand-Prince 8(5,3) stepper (Hairer's DOP853) on floats, with events and
dense output.

:func:`solve` follows the step rules of scipy's DOP853, so it takes the same
steps for the same problem, without the per-step cost of small numpy arrays.
The radial integrations of :mod:`lntlab.ode` all run on it, outward.
A vector field is a :class:`Field` declaration, and an event an expression
in its names. One unit is generated from the tableau per field and event
set, and compiled on its first solve (:func:`_loop`). Its stepping loop
writes the field's rates into every stage and the events after every step,
so an accepted step makes no Python function call, and it stores only the
step's end and length and the new state. From the same lines the unit
rebuilds a stored step for the dense output (:class:`Dense`), turns a
step's stages into its seventh-order interpolant, and evaluates the field's
f(t, y) and the events' g(t, y). After a step over which an event crosses
zero (:class:`Event`) the loop builds that interpolant on its live stages,
which costs the 3 extra stages, and hands it to :func:`solve`'s polishing
routine. That finds the zero by Brent's method, bracketed by the event's
values at the two accepted states and evaluated on the interpolant only
inside the step; the loop returns only at a terminal event, at the end, or
on failure. On a 2-vCPU VM a trial step of the radial equation (12
evaluations) costs about 5.5 us in the loop, a rebuilt step with its
interpolant about 10 us, the interpolant alone about 4 us, and a polished
zero about 18 us, most of it in Brent's iterations.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from bisect import bisect_left
from typing import NamedTuple

from ._brent import brentq
from .errors import ParameterError

# Dormand-Prince 8(5,3) tableau (Hairer's DOP853), as in scipy's DOP853: the
# nodes _C and coupling rows _A of stages 1-11 (stage 0 is the step's start,
# stage 11 sits at its end), the eighth-order weights _B of the new state,
# whose rate is stage 12 (FSAL), and the weights _E5 and _E3 of the fifth- and
# third-order error estimates (none on stage 12). The dense output adds the
# stages _C_EXTRA, _A_EXTRA (13-15), and _D gives its coefficients 3-6.
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0)
_A = ((0.05260015195876773,),
      (0.0197250569845379, 0.0591751709536137),
      (0.02958758547680685, 0, 0.08876275643042054),
      (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
      (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
      (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
      (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
       -0.015319437748624402, 0.008273789163814023),
      (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
       27.59209969944671, 20.154067550477894, -43.48988418106996),
      (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
       21.230051448181193, 15.279233632882423, -33.28821096898486,
       -0.020331201708508627),
      (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
       -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
       -3.0467644718982196),
      (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
       -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
       12.360567175794303, 0.6433927460157636))
_B = (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
      0.04471061572777259)
_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_E3 = (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082)
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_A_EXTRA = ((0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
             -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
             0.007567897660545699, -0.008298),
            (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
             -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
             -0.00034046500868740456, 0.1413124436746325),
            (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
             4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
             2.9475147891527724, -9.15095847217987))
_D = ((-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
       2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
       0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
       -4.436036387594894),
      (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
       -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
       -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
       35.81684148639408),
      (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
       527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
       0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
       11.99229113618279),
      (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
       357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
       29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
       -149.72683625798564))
_EPS = sys.float_info.epsilon
# Accepted steps allowed per run. The largest runs of the test suite and of
# the README examples take 5.1k and 3.6k steps; a run that needs more fails
# rather than growing without bound. The radial run that uses up the budget,
# solve_singular(ProblemParams(5, 20.0), 1e8) with 61,989 event zeros,
# takes about 1.5 s and peaks at 23 MiB on a 2-vCPU VM.
MAX_STEPS = 50_000


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
    """Piecewise seventh-order dense output of a DOP853 run of n
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
    """Hairer's starting step for an error estimate of order 7, as scipy's
    ``select_initial_step`` takes it for DOP853."""
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
        h1 = (0.01 / max(d1, d2)) ** 0.125
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


def _compile(lines, label):
    namespace = {k: v for k, v in vars(math).items() if not k.startswith("_")}
    namespace.update(_inf=math.inf, _nextafter=math.nextafter, _sqrt=math.sqrt)
    exec(compile("\n".join(lines), f"<dop853 {label}>", "exec"), namespace)
    return namespace


def _tuple(names) -> str:
    return "(" + "".join(f"{v}, " for v in names) + ")"


def _assign(targets, values) -> list[str]:
    return [f"{t} = {v}" for t, v in zip(targets, values)]


def _weighted(weights, names) -> str:
    # zero weights drop out, as they do from the tableau's sums
    return " + ".join(f"{w!r} * {v}" for w, v in zip(weights, names) if w)


@functools.lru_cache(maxsize=None)
def _loop(field: Field, exprs: tuple[str, ...], scan: tuple[tuple[bool, bool], ...]):
    """``(advance, bind, rates, events)``, compiled together from one set of
    stage lines.

    ``advance(t, y, f, h_abs, t_end, rtol, atol, max_steps, ts, ys, hs,
    polish, *consts)`` is the stepping loop of ``field`` with the events
    ``exprs``, which may rise and fall through zero as ``scan`` says. It steps
    from state y at t with slope f and appends each accepted step's end,
    length and state to the arrays. After a step over which an event crossed
    zero it calls ``polish(before, after, crossed, at)`` with the event values
    at the step's ends, per event whether it crossed, and the step's
    interpolant, built on the loop's live stages, and returns if that is true
    ("event"); it also returns at t_end ("finished"), below the minimum step
    ("min_step"), after max_steps steps ("budget") or when an extra stage
    of that interpolant overflows ("interpolant"): the reason and the
    accepted and rejected steps. Each component's stage sums are written out
    term by term in tableau order, so they round as ``v + (A21 a + ...) h``
    would.

    ``bind(ts, hs, ys, *consts)`` returns ``step(k)``, which rebuilds step k
    of those arrays on the loop's stage lines, its first stage taken where
    the loop took it (at ``ts[k-1] + hs[k-1]``, the previous step's end as
    the loop computed it), so every stage keeps its bits, and returns the
    step's interpolant.

    ``rates(t, y, *consts)`` is the field's plain f(t, y), on the loop's
    stage lines, and ``events(t, y, *consts)`` the tuple of the events'
    values, on the lines that evaluate them after each step.

    The interpolant of a step adds the 3 extra stages and returns ``at(t)``,
    a tuple of n floats: per component the seventh-order polynomial
    ``y + x (F0 + (1 - x) (F1 + x (F2 + ... + x F6)))`` at x = (t - t0) / h,
    each F a sum over the stages written out in tableau order.
    """
    n, m = len(field.state), len(exprs)
    y, z, tol = ([f"_{c}{i}" for i in range(n)] for c in ("y", "z", "tol"))
    k = [[f"_k{s}_{i}" for i in range(n)] for s in range(16)]
    old, new = _tuple(f"_o{j}" for j in range(m)), _tuple(f"_e{j}" for j in range(m))
    consts = ", ".join(field.consts)
    # what the interpolant takes of a step besides t and h: its two states and
    # stages 0-12
    live = f"{_tuple(y + z)}, {_tuple(v for row in k[:13] for v in row)}"

    def weighted(weights, i):
        return _weighted(weights, [row[i] for row in k])

    def rates(at, state, s):
        return [f"{field.t} = {at}", *_assign(field.state, state), *field.body,
                *_assign(k[s], field.rates)]

    def stage(s, c, row):
        return rates(f"_t + {c!r} * _h" if c != 1 else "_t + _h",
                     [f"_y{i} + ({weighted(row, i)}) * _h" for i in range(n)], s)

    # stages 1-11, the new state and its rate (stage 12), from the state y and
    # stage 0 at t
    stages = []
    for s, (c, row) in enumerate(zip(_C, _A), start=1):
        stages += stage(s, c, row)
    stages += [f"_z{i} = _y{i} + _h * ({weighted(_B, i)})" for i in range(n)]
    stages += rates("_t + _h", z, 12)
    trial = list(stages)
    # scale atol + max(|y|, |y_new|) rtol, taking |y_new| only if larger, as
    # max() does
    for i in range(n):
        trial += [f"_m{i} = abs(_y{i})", f"_a{i} = abs(_z{i})",
                  f"if _a{i} > _m{i}:", f"    _m{i} = _a{i}", f"_sc{i} = _tol{i} + _m{i} * _rtol"]

    def square_norm(weights):
        return " + ".join(f"(({weighted(weights, i)}) / _sc{i}) ** 2" for i in range(n))

    trial += ["try:",
              f"    _e5 = {square_norm(_E5)}",
              f"    _e3 = {square_norm(_E3)}",
              "    _err = (0.0 if _e5 == 0.0 and _e3 == 0.0 else",
              f"            _h * _e5 / _sqrt((_e5 + 0.01 * _e3) * {float(n)!r}))",
              "except ZeroDivisionError:  # zero scale: the error cannot be controlled",
              "    _err = _inf"]
    # the crossing rule (see Event), per event
    flags = [" or ".join(c for c, on in ((f"_o{j} < 0.0 <= _e{j}", rise),
                                         (f"_o{j} > 0.0 >= _e{j}", fall)) if on)
             for j, (rise, fall) in enumerate(scan)]
    crossed = " or ".join(flags)
    def events(at, state):
        return [f"{field.t} = {at}", *_assign(field.state, state),
                *(f"_e{j} = {expr}" for j, expr in enumerate(exprs))]

    lines = [
        "def advance(_t, _y, _f, _h_abs, _t_end, _rtol, _atol, _max_steps, _ts, _ys, _hs,"
        f" _polish, {consts}):",
        f"    {_tuple(y)}, {_tuple(k[0])}, {_tuple(tol)} = _y, _f, _atol",
        *(f"    {s}" for s in events("_t", y)),
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
        "            _h_abs *= max(0.2, 0.9 * _err ** -0.125)",
        "            _rejected = True",
        "            _n_rejected += 1",
        "        _factor = 10.0 if _err == 0 else 0.9 * _err ** -0.125",
        "        if _factor > 10.0:",
        "            _factor = 10.0",
        "        if _rejected and _factor > 1.0:",
        "            _factor = 1.0",
        "        _h_abs *= _factor",
        "        _n_accepted += 1",
        "        _hs.append(_h)",
        "        _ts.append(_t_new)",
        f"        _ys.fromlist([{', '.join(z)}])",
        *(f"        {s}" for s in events("_t_new", z)),
        *([f"        if {crossed}:",
           "            try:",
           f"                _at = _interpolant(_t, _h, {live}, {consts})",
           "            except OverflowError:  # an extra stage left the double range",
           "                return 'interpolant', _n_accepted, _n_rejected",
           f"            if _polish({old}, {new}, {_tuple(flags)}, _at):",
           "                return 'event', _n_accepted, _n_rejected"] if crossed else []),
        f"        {old} = {new}",
        "        _t = _t_new",
        *(f"        {s}" for s in _assign(y, z) + _assign(k[0], k[12])),
        "        if _t >= _t_end:",
        "            return 'finished', _n_accepted, _n_rejected"]
    # the interpolant of a step from t to t + h: the 3 extra stages, then its
    # coefficients F0-F6 (scipy's F) and their nested form in x and 1 - x
    extra = []
    for s, (c, row) in enumerate(zip(_C_EXTRA, _A_EXTRA), start=13):
        extra += stage(s, c, row)
    nested = []
    for i in range(n):
        extra += [f"_F0_{i} = _z{i} - _y{i}", f"_F1_{i} = _h * _k0_{i} - _F0_{i}",
                  f"_F2_{i} = 2.0 * _F0_{i} - _h * (_k12_{i} + _k0_{i})",
                  *(f"_F{3 + r}_{i} = _h * ({weighted(row, i)})" for r, row in enumerate(_D))]
        expr = f"_x * _F6_{i}"
        for j in range(5, -1, -1):
            expr = f"{'_w' if j % 2 else '_x'} * (_F{j}_{i} + {expr})"
        nested.append(f"_y{i} + {expr}")
    lines += [
        f"def _interpolant(_t, _h, _Y, _K, {consts}):",
        f"    {_tuple(y + z)} = _Y",
        f"    {_tuple(v for row in k[:13] for v in row)} = _K",
        *(f"    {s}" for s in extra),
        "    def _at(_s):",
        "        _x = (_s - _t) / _h",
        "        _w = 1.0 - _x",
        f"        return {_tuple(nested)}",
        "    return _at",
        f"def _bind(_ts, _hs, _ys, {consts}):",
        "    def _step(_k):",
        "        _t, _h = _ts[_k], _hs[_k]",
        f"        {_tuple(y)} = _ys[{n} * _k:{n} * _k + {n}]",
        *(f"        {s}" for s in rates("_ts[_k - 1] + _hs[_k - 1] if _k else _t", y, 0)
          + stages),
        f"        return _interpolant(_t, _h, {live}, {consts})",
        "    return _step",
        f"def _rates(_t, _y, {consts}):",
        f"    {_tuple(y)} = _y",
        *(f"    {s}" for s in rates("_t", y, 0)),
        f"    return {_tuple(k[0])}",
        f"def _events(_t, _y, {consts}):",
        f"    {_tuple(y)} = _y",
        *(f"    {s}" for s in events("_t", y)),
        f"    return {new}"]
    namespace = _compile(lines, f"loop {field.state} {exprs}")
    return tuple(namespace[name] for name in ("advance", "_bind", "_rates", "_events"))


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
             "budget": "Step budget of {} accepted steps exhausted.",
             "interpolant": "An extra stage of a step's interpolant left the double range."}


def solve(field: Field, consts, t0, y0, t_end, rtol, atol, events=()) -> Run:
    """Integrate y' = f(t, y) of ``field``, its constants taken by name from
    the mapping ``consts``, from t0 forward to t_end > t0 with the
    Dormand-Prince 8(5,3) method on floats.

    The step rules are those of scipy's DOP853, so the same steps are taken:
    12 stages with FSAL (``nfev`` counts 12 per trial step and 2 for
    Hairer's starting step), the error norm ``h |e5|^2 / sqrt((|e5|^2 +
    0.01 |e3|^2) n)`` of the fifth- and third-order estimates, each
    component scaled by ``atol + max(|y|, |y_new|) rtol`` (``atol`` scalar
    or per component; a zero scale makes the error infinite), step factors
    0.9 err**(-1/8) within [0.2, 10], no growth right after a rejection,
    failure once the step falls below 10 ulp of t, and rtol raised to at
    least 100 eps. A trial step whose stages raise ``OverflowError`` is
    rejected as one with an infinite error norm, as scipy's overflowing
    stages are. A run also fails once it has taken ``MAX_STEPS`` steps
    without reaching t_end. The generated loop runs the whole integration:
    after a step over which an event crosses zero (as :class:`Event` says;
    scipy's rule differs only at an exact zero) it calls ``polish`` with the
    events that crossed and the step's interpolant, built on the loop's
    live stages with 3 more evaluations (which ``nfev`` does not count).
    ``polish`` locates each zero by Brent's method, on g's values at the
    accepted states for the step's ends and on g evaluated on the
    interpolant inside it, and records whether g rose across the step. At
    the zero that ends the run, ``polish`` cuts the last step there, or
    drops it if the zero is its start, and the loop returns. A run fails
    after a crossed step whose extra stages overflow, since that step has
    no interpolant. A step keeps 2 + n doubles: its end, length and state.
    """
    if not t_end > t0:
        raise ParameterError(f"integration runs forward: t_end={t_end} must exceed t0={t0}")
    n = len(field.state)
    y = tuple(float(v) for v in y0)
    rtol = max(rtol, 100 * _EPS)
    atol = tuple(atol) if isinstance(atol, tuple) else (atol,) * n
    # per event: whether it may rise and whether it may fall through zero
    scan = tuple((ev.direction >= 0, ev.direction <= 0) for ev in events)
    advance, bind, rates, g = _loop(field, tuple(ev.expr for ev in events), scan)
    max_steps, values = MAX_STEPS, [consts[name] for name in field.consts]
    f = rates(t0, y, *values)
    h_abs = _initial_step(lambda t, s: rates(t, s, *values), t0, y, f, t_end, rtol, atol)
    # flat double arrays: a step keeps its end, length and state, 2 + n
    # doubles; its stages are rebuilt when it is queried
    ts, ys, hs = array("d", [t0]), array("d", y), array("d")
    step = bind(ts, hs, ys, *values)
    t_events, rises = [[] for _ in events], [[] for _ in events]

    def polish(before, after, crossed, at):
        # the zeros of the events that crossed zero over the last step, which
        # the arrays end with, on its interpolant at(t); true if one of them
        # ends the run
        active = [j for j, x in enumerate(crossed) if x]
        t_old, t, roots = ts[-2], ts[-1], {}
        for j in active:
            # the values at the accepted states bracket the zero, and the
            # interpolant serves only inside the step
            ends = {t_old: before[j], t: after[j]}
            roots[j] = brentq(lambda s: ends[s] if s in ends else g(s, at(s), *values)[j],
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
               dense=Dense(n, ts, step), nfev=2 + 12 * (n_accepted + n_rejected),
               n_accepted=n_accepted, n_rejected=n_rejected)
