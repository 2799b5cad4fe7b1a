"""The in-house Dormand-Prince 8(5,3) stepper against scipy's DOP853.

Both take the same steps by the same rules. The step sizes come from an error
estimate that cancels to about rtol of the state, so its last bits depend on
the summation order of the tableau sums (scipy's go through BLAS, which may
fuse multiplies and adds, and square a norm it took the root of); that moves
the step radii by up to a few 1e-7 relative. The counts of steps and
right-hand-side evaluations are the same, and so is the solution: states,
dense output and event radii agree far below the tolerance when compared at
the same radius. scipy's nfev also counts the 3 extra stages of each step's
dense output, which the in-house stepper evaluates only when it is queried.
"""

import ast
import functools
import math
import operator
import os
import subprocess
import sys
from array import array
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from conftest import plain_function
import lntlab
from lntlab import (
    IntegrationError,
    ParameterError,
    ProblemParams,
    RadialState,
    convergence_to_singular,
    integrate_adaptive,
    integrate_difference,
    solve_singular,
)
from lntlab import _dop853, exponents, ode
from lntlab.ode import _DIFFERENCE, _RADIAL, _constants
from lntlab.shooting import _taylor_start
from lntlab.singular import seed_at_origin, seed_window

STEP_RTOL = 1e-6  # step radii: see the module docstring
STATE_RTOL = 1e-12
EVENT_RTOL = 1e-13


def _radial_events(stop_at_critical):
    def unit(r, y):
        return y[0] - 1.0

    def critical(r, y):
        return y[1]

    def floor(r, y):
        return y[0]

    critical.terminal = stop_at_critical
    floor.terminal = True
    floor.direction = -1.0
    return [unit, critical, floor]


def _function(field, params, rtol=1e-10):
    """The plain f(t, y) of one of ode's fields, as the stepper runs it at
    tolerance rtol."""
    return plain_function(field, _constants(params, rtol))


def _scaled_gap(a, b):
    """Largest |a - b| relative to max(|b|, 1), per component."""
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0), axis=-1)


def test_singular_solve_matches_rk45():
    params = ProblemParams(5, 20.0)
    sol = solve_singular(params, 5.0, stop_at_critical=3)
    traj = sol.trajectory
    seed = seed_at_origin(seed_window(params, 1e-10), sol.seed_radius)
    ref = solve_ivp(_function(_RADIAL, params), (seed.r, 5.0), (seed.u, seed.du),
                    method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True,
                    events=_radial_events(3))
    assert ref.status == 1 and traj.status == "ok"
    assert traj.r.size == ref.t.size
    assert traj.n_accepted == ref.t.size - 1
    # scipy's nfev also counts the 3 extra stages of every step's dense output
    assert traj.nfev == ref.nfev - 3 * (ref.t.size - 1)
    np.testing.assert_allclose(traj.r, ref.t, rtol=STEP_RTOL, atol=0.0)
    # states at this run's step radii, on scipy's dense output
    assert np.all(_scaled_gap(np.vstack([traj.u, traj.du]), ref.sol(traj.r)) < STATE_RTOL)
    r = np.asarray(traj.r)
    mid = 0.5 * (r[1:] + r[:-1])
    assert np.all(_scaled_gap(np.vstack(traj.sample(mid)), ref.sol(mid)) < STATE_RTOL)
    assert traj.critical_points.size == 3
    np.testing.assert_allclose(traj.critical_points, ref.t_events[1], rtol=EVENT_RTOL, atol=0)
    np.testing.assert_allclose(traj.unit_crossings, ref.t_events[0], rtol=EVENT_RTOL, atol=0)


def test_difference_run_matches_rk45():
    params = ProblemParams(5, 20.0)
    rtol, atol = 1e-10, 1e-12
    window = seed_window(params, rtol)
    start = _taylor_start(10.0, params, 2.1, rtol, atol, h_max=window.radius)
    ref_state = seed_at_origin(window, start.r)
    delta = (start.u - ref_state.u, start.du - ref_state.du)
    path = integrate_difference(params, ref_state, delta, 2.0, rtol, atol)

    ref = solve_ivp(_function(_DIFFERENCE, params), (ref_state.r, 2.0),
                    (ref_state.u, ref_state.du, *delta), method="DOP853",
                    rtol=rtol, atol=(atol, atol, 0.0, 0.0), dense_output=True)
    assert ref.status == 0 and path.status == "ok"
    assert path.r.size == ref.t.size
    np.testing.assert_allclose(path.r, ref.t, rtol=STEP_RTOL, atol=0.0)
    # the difference decays by orders of magnitude and oscillates, so it is
    # compared relative to its local size hypot(d, r d'); r d' has the size
    # of d however close to the origin, where d' alone runs like d / r
    r = np.asarray(path.r)
    mid = 0.5 * (r[1:] + r[:-1])
    got, want = np.asarray(path.dense(mid)), ref.sol(mid)
    assert np.all(_scaled_gap(got[:2], want[:2]) < STATE_RTOL)
    gap = np.hypot(got[2] - want[2], mid * (got[3] - want[3]))
    assert np.max(gap / np.hypot(want[2], mid * want[3])) < STATE_RTOL


@pytest.mark.parametrize("N, p, r_end, counts", [
    (5, 20.0, 50.0, (69, 68)),
    (5, 1e6, 1.0, (318, 317)),
    (12, 5.0, 40.0, (23, 22))], ids=["5-20", "5-1e6", "12-5"])
# at p = 1e6 some of scipy's trial stages overflow u**p on numpy floats, which
# warns and gives inf, and the step is rejected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_long_steps_miss_no_event(N, p, r_end, counts):
    # an eighth-order step may span a good part of an oscillation: the unit
    # crossings and critical points of the default tolerances are those
    # scipy's DOP853 finds at rtol 1e-13 from the same seed
    params = ProblemParams(N, p)
    sol = solve_singular(params, r_end)
    traj = sol.trajectory
    seed = seed_at_origin(seed_window(params, 1e-10), sol.seed_radius)
    ref = solve_ivp(_function(_RADIAL, params, 1e-13), (seed.r, r_end), (seed.u, seed.du),
                    method="DOP853", rtol=1e-13, atol=1e-12, events=_radial_events(0))
    assert ref.status == 0 and traj.status == "ok"
    assert (len(traj.unit_crossings), len(traj.critical_points)) == counts
    assert (ref.t_events[0].size, ref.t_events[1].size) == counts


_DECAY = _dop853.Field(t="t", state=("y",), consts=(), body=(), rates=("-y",))


@pytest.mark.parametrize("t_end", [1.0, 0.5, math.nan])
def test_solve_runs_forward_only(t_end):
    with pytest.raises(ParameterError):
        _dop853.solve(_DECAY, {}, 1.0, (1.0,), t_end, 1e-8, 1e-12)


def test_run_below_minimum_step_fails_like_rk45(monkeypatch):
    # u'' = u**3 from u = 2 blows up near r = 1.7, so the step size collapses
    blowup = _dop853.Field(t="r", state=("u", "du"), consts=(), body=(), rates=("du", "u ** 3"))
    monkeypatch.setattr(ode, "_RADIAL", blowup)
    params = ProblemParams(5, 20.0)
    start = RadialState(1.0, 2.0, 0.1)
    with pytest.raises(IntegrationError) as exc:
        integrate_adaptive(params, start, 3.0)
    partial = exc.value.partial
    assert partial is not None and partial.status == "failed"
    ref = solve_ivp(plain_function(blowup, {}), (1.0, 3.0), (2.0, 0.1), method="DOP853",
                    rtol=1e-10, atol=1e-12, events=_radial_events(0))
    assert ref.status == -1
    assert partial.r.size == ref.t.size
    assert partial.nfev == ref.nfev
    assert partial.r[-1] == pytest.approx(ref.t[-1], rel=EVENT_RTOL)


def test_solver_counters():
    traj = solve_singular(ProblemParams(5, 20.0), 5.0).trajectory
    assert traj.n_rejected > 0
    assert traj.n_accepted == traj.r.size - 1
    # two evaluations pick the first step, each attempt costs twelve (FSAL)
    assert traj.nfev == 12 * (traj.n_accepted + traj.n_rejected) + 2
    assert "nfev" not in traj.to_json_dict()


def test_step_budget_fails_with_partial_trajectory(monkeypatch):
    params = ProblemParams(5, 20.0)
    start = solve_singular(params, 1.0).trajectory
    state = RadialState(start.r[-1], start.u[-1], start.du[-1])
    assert integrate_adaptive(params, state, 5.0).n_accepted > 40
    monkeypatch.setattr(_dop853, "MAX_STEPS", 40)
    with pytest.raises(IntegrationError, match="budget") as exc:
        integrate_adaptive(params, state, 5.0)
    partial = exc.value.partial
    assert partial is not None and partial.status == "failed"
    assert partial.n_accepted == 40 and partial.r.size == 41
    assert partial.r[-1] < 5.0


def test_import_leaves_scipy_integrate_out(tmp_path):
    # nor numpy, scipy.optimize and scipy.linalg: no path of the package
    # imports them, not even a command that runs the stepper, the seed
    # checks, the Morse scan and the Hardy quadratic forms, and numpy alone
    # would cost a CLI call about 0.15 s of CPU; nor dataclasses (with
    # inspect) and statistics, which cost a call about 45 ms more; nor a
    # process pool, since a sweep runs its points in process, whatever --jobs
    env = dict(os.environ)
    src = str(Path(lntlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [["singular", "--N", "5", "--p", "20", "--r-end", "5", "--check-bounds",
                 "--emit", "csv,json"],
                ["morse", "--N", "12", "--p", "5", "--R", "1", "--deltas", "1e-2,1e-3,1e-4"],
                ["hardy", "--N", "5", "--p", "10", "--eps0", "1.0", "--j-max", "5"],
                ["sweep", "--N", "5", "--i", "1", "--p-list", "10,20,40,80", "--jobs", "2"]]
    code = ("import sys, lntlab, lntlab.cli\n"
            "for argv in sys.argv[2:]:\n"
            "    assert lntlab.cli.main([*argv.split(), '--out-dir', sys.argv[1]]) == 0\n"
            "print([m for m in sys.modules if m in ('numpy', 'dataclasses', 'inspect', "
            "'statistics', 'multiprocessing', 'concurrent.futures') or m.startswith("
            "('numpy.', 'scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
            "'multiprocessing.', 'concurrent.futures.'))])")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                          *(" ".join(argv) for argv in commands)],
                         capture_output=True, text=True, check=True, timeout=300, env=env)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("run-*/report.json"))) == len(commands)


def test_import_compiles_no_generated_code():
    # a fresh `import lntlab.cli` compiles no generated unit: a field's
    # stepping loop, step rebuild, f(t, y) and events are compiled together
    # on first use, so a command pays only for the units it runs
    env = dict(os.environ)
    src = str(Path(lntlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import builtins\n"
            "names, plain = [], builtins.compile\n"
            "def hooked(source, filename, *args, **kwargs):\n"
            "    names.append(str(filename))\n"
            "    return plain(source, filename, *args, **kwargs)\n"
            "builtins.compile = hooked\n"
            "import lntlab.cli\n"
            "print([name for name in names if name.startswith('<dop853')])\n"
            "lntlab.solve_singular(lntlab.ProblemParams(5, 20.0), 1.0)\n"
            "print(len([name for name in names if name.startswith('<dop853')]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    at_import, after_solve = out.stdout.strip().splitlines()[-2:]
    assert at_import == "[]"
    # the radial field with its three events
    assert int(after_solve) == 1


def test_package_source_imports_no_numpy_scipy_dataclasses_or_statistics():
    # at any level, in any function: numpy and scipy serve the tests only,
    # records are built without dataclasses, and nothing runs in a worker
    # process
    package = Path(lntlab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("numpy", "scipy", "dataclasses", "statistics",
                                                "concurrent", "multiprocessing")]
    assert len(list(package.glob("*.py"))) >= 12
    assert found == []


# The stepper as a plain Python loop over scipy's copy of the tableau, each
# stage sum a left-to-right sum of its nonzero terms in tableau order: the
# reference the generated stepping loop must match bit for bit. Rows 1-11 of
# _TABLEAU_A couple the stages, row 12 gives the new state and rows 13-15 the
# extra stages of the dense output.
_TABLEAU_C = [float(c) for c in dop853_coefficients.C]
_TABLEAU_A = [[float(a) for a in row[:s]] for s, row in enumerate(dop853_coefficients.A)]
_TABLEAU_E5 = [float(e) for e in dop853_coefficients.E5]
_TABLEAU_E3 = [float(e) for e in dop853_coefficients.E3]
_TABLEAU_D = [[float(d) for d in row] for row in dop853_coefficients.D]


def _sum(weights, values):
    return functools.reduce(operator.add, [w * v for w, v in zip(weights, values) if w])


def _add_stages(fun, t, y, h, K, stages):
    """Appends the rates of ``stages`` to the stage list K."""
    for s in stages:
        at = t + h if _TABLEAU_C[s] == 1 else t + _TABLEAU_C[s] * h
        K.append(fun(at, tuple(v + _sum(_TABLEAU_A[s], [k[i] for k in K]) * h
                               for i, v in enumerate(y))))


def _reference_trial_step(fun, t, y, f, h, rtol, atol):
    K = [f]
    _add_stages(fun, t, y, h, K, range(1, 12))
    y_new = tuple(v + h * _sum(_TABLEAU_A[12], [k[i] for k in K]) for i, v in enumerate(y))
    f_new = fun(t + h, y_new)
    K.append(f_new)
    scale = [tol + max(abs(v), abs(vn)) * rtol for v, vn, tol in zip(y, y_new, atol)]
    # plain left-to-right sums: sum() of floats compensates from Python 3.12
    try:
        e5 = e3 = 0
        for i, sc in enumerate(scale):
            e5 += (_sum(_TABLEAU_E5, [k[i] for k in K]) / sc) ** 2
        for i, sc in enumerate(scale):
            e3 += (_sum(_TABLEAU_E3, [k[i] for k in K]) / sc) ** 2
        err = 0.0 if e5 == 0 and e3 == 0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
    except ZeroDivisionError:
        err = math.inf
    return y_new, f_new, err, K


def _reference_event(field, consts, expr):
    """g(t, y) of an event expression, evaluated by eval() on the names."""
    code = compile(expr, "<event>", "eval")

    def g(t, y):
        return eval(code, {**vars(math), **consts, field.t: t, **dict(zip(field.state, y))})

    return g


def _reference_interpolant(fun, t0, h, y0, y1, K):
    """The seventh-order interpolant of one step from its 13 stages K, as
    scipy's DOP853 builds it: the 3 extra stages, the coefficients F, and
    their alternating form in x and 1 - x."""
    K = list(K)
    _add_stages(fun, t0, y0, h, K, range(13, 16))
    F = []
    for i, (v, vn) in enumerate(zip(y0, y1)):
        column = [k[i] for k in K]
        d = vn - v
        F.append([d, h * column[0] - d, 2.0 * d - h * (column[12] + column[0]),
                  *(h * _sum(row, column) for row in _TABLEAU_D)])

    def y(t):
        x = (t - t0) / h
        values = []
        for v, Fi in zip(y0, F):
            acc = x * Fi[6]
            for j in range(5, -1, -1):
                acc = (1.0 - x if j % 2 else x) * (Fi[j] + acc)
            values.append(v + acc)
        return tuple(values)

    return y


class _ReferenceDense:
    """Dense output over the steps' interpolants, each built when queried; a
    point on a breakpoint takes the step that ends there, and the first and
    the last step serve the points before and after the run."""

    def __init__(self, ts, steps):
        self.ts, self.steps = ts, steps

    def __call__(self, points):
        last = max(len(self.ts) - 2, 0)
        values = [self.steps[min(max(bisect_left(self.ts, t) - 1, 0), last)]()(t)
                  for t in points]
        return tuple(array("d", column) for column in zip(*values))


def _reference_solve(field, consts, t0, y0, t_end, rtol, atol, events=()):
    """The stepper's Python loop on the field's plain f(t, y)."""
    fun = plain_function(field, consts)
    n = len(y0)
    y = tuple(float(v) for v in y0)
    rtol = max(rtol, 100 * _dop853._EPS)
    atol = tuple(atol) if isinstance(atol, tuple) else (atol,) * n
    t = t0
    f = fun(t, y)
    h_abs = _dop853._initial_step(fun, t, y, f, t_end, rtol, atol)
    nfev, n_accepted, n_rejected = 2, 0, 0
    ts, ys, steps = [t], list(y), []
    gs = [_reference_event(field, consts, ev.expr) for ev in events]
    scan = [(ev.direction >= 0, ev.direction <= 0) for ev in events]
    g = [gj(t, y) for gj in gs]
    counts = [0] * len(events)
    t_events = [[] for _ in events]
    rises = [[] for _ in events]
    status, message = None, ""
    while status is None:
        if n_accepted >= _dop853.MAX_STEPS:
            status = "failed"
            message = f"Step budget of {_dop853.MAX_STEPS} accepted steps exhausted."
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
            nfev += 12
            try:
                y_new, f_new, err, K = _reference_trial_step(fun, t, y, f, h, rtol, atol)
            except OverflowError:
                err = math.inf
            if err < 1.0:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err**-0.125)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.125)
            rejected = True
            n_rejected += 1
        if status == "failed":
            break
        n_accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        steps.append(functools.cache(functools.partial(
            _reference_interpolant, fun, t_old, h, y_old, y_new, K)))
        if t >= t_end:
            status = "finished"
        before = {}
        for j, (gj, (rise, fall)) in enumerate(zip(gs, scan)):
            old = g[j]
            g[j] = new = gj(t, y)
            # half-open: a zero on a step end belongs to the step that
            # reaches it, and a g that sits at zero never crosses
            if (rise and old < 0 <= new) or (fall and old > 0 >= new):
                before[j] = old
        if before:
            try:
                interp = steps[-1]()
            except OverflowError:
                status = "failed"
                message = "An extra stage of a step's interpolant left the double range."
                before = {}
        if before:
            active, roots = list(before), {}
            for j in active:
                counts[j] += 1

                # g at the accepted states on the step's ends, on the
                # interpolant inside it
                ends = {t_old: before[j], t: g[j]}
                roots[j] = _dop853.brentq(
                    lambda s, gj=gs[j]: ends[s] if s in ends else gj(s, interp(s)),
                    t_old, t, xtol=4 * _dop853._EPS, rtol=4 * _dop853._EPS)
            done = {j for j in active if 0 < events[j].terminal <= counts[j]}
            if done:
                active.sort(key=roots.get)
                active = active[:1 + next(k for k, j in enumerate(active) if j in done)]
                status = "event"
                t = roots[active[-1]]
                y = interp(t)
            for j in active:
                t_events[j].append(roots[j])
                rises[j].append(g[j] > before[j])
        if t != ts[-1]:
            ts.append(t)
            ys.extend(y)
    ts, ys = array("d", ts), array("d", ys)
    return _dop853.Run(t=ts, y=ys, t_events=t_events, rises=rises, status=status,
                       message=message, dense=_ReferenceDense(ts, steps), nfev=nfev,
                       n_accepted=n_accepted, n_rejected=n_rejected)


def test_tableau_is_scipys_float_for_float():
    # the nodes, couplings, weights, error weights and dense-output rows of
    # the generated stepper are scipy's DOP853 coefficients, zeros included
    def floats(values):
        return [float(v) for v in values]

    assert floats(_dop853._C) == _TABLEAU_C[1:12]
    assert [floats(row) for row in _dop853._A] == _TABLEAU_A[1:12]
    assert floats(_dop853._B) == _TABLEAU_A[12] == floats(dop853_coefficients.B)
    # no error weight falls on the new state's rate, stage 12
    assert floats(_dop853._E5) + [0.0] == _TABLEAU_E5
    assert floats(_dop853._E3) + [0.0] == _TABLEAU_E3
    assert floats(_dop853._C_EXTRA) == _TABLEAU_C[13:]
    assert [floats(row) for row in _dop853._A_EXTRA] == _TABLEAU_A[13:]
    assert [floats(row) for row in _dop853._D] == _TABLEAU_D
    assert _TABLEAU_C[12] == _TABLEAU_C[11] == 1.0


def test_dense_grid_matches_single_point_queries(sing_5_20):
    # one walk over the steps for an increasing grid, a search per point
    # otherwise: the same floats either way
    dense, traj = sing_5_20.trajectory.dense, sing_5_20.trajectory
    grid = np.linspace(traj.r_start, traj.r_end, 999).tolist()
    walked = dense(grid)
    assert len(walked) == 2 and all(len(col) == 999 for col in walked)
    single = list(zip(*(dense([t]) for t in grid)))
    backward = dense(grid[::-1])
    for col, one, back in zip(walked, single, backward):
        assert _hex(col) == _hex([c[0] for c in one]) == _hex(back[::-1])


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _assert_same_run(got, want):
    assert (got.status, got.message) == (want.status, want.message)
    assert (got.nfev, got.n_accepted, got.n_rejected) == (
        want.nfev, want.n_accepted, want.n_rejected)
    assert _hex(got.t) == _hex(want.t)
    assert _hex(got.y) == _hex(want.y)
    assert [_hex(te) for te in got.t_events] == [_hex(te) for te in want.t_events]
    assert got.rises == want.rises
    if got.n_accepted:
        grid = np.linspace(got.t[0], got.t[-1], 999)
        assert _hex(got.dense(grid)) == _hex(want.dense(grid))


@pytest.fixture
def checked_solves(monkeypatch):
    """Runs every _dop853.solve call also on the reference loop, compares the
    two bit for bit, and records the runs."""
    solve, runs = _dop853.solve, []

    def both(*args):
        got = solve(*args)
        _assert_same_run(got, _reference_solve(*args))
        runs.append(got)
        return got

    monkeypatch.setattr(_dop853, "solve", both)
    return runs


def _difference_start(gamma=10.0):
    params = ProblemParams(5, 20.0)
    window = seed_window(params, 1e-10)
    start = _taylor_start(gamma, params, 2.1, 1e-10, 1e-12, h_max=window.radius)
    return params, seed_at_origin(window, start.r)


def _exponent_round(monkeypatch):
    p_i = [exponents.find_exponent(i, 1.0, 5, 6.0).p_i for i in range(1, 5)]
    assert [p.hex() for p in p_i] == ["0x1.6c99f999c6676p+4", "0x1.0e4b9ce04167dp+6",
                                      "0x1.05febbed090fdp+7", "0x1.accea1965880cp+7"]


def _huge_power(monkeypatch):
    # oscillations dense enough that most steps hold a zero of an event
    traj = solve_singular(ProblemParams(5, 1e6), 1.0).trajectory
    assert (len(traj.unit_crossings), len(traj.critical_points)) == (318, 317)


def _c08_differences(monkeypatch):
    # one singular solve and three difference runs
    rep = convergence_to_singular(ProblemParams(5, 20.0), [10.0, 100.0, 1000.0], (0.5, 2.0))
    assert [d.hex() for d in rep.distances] == [
        "0x1.620915f3550b4p-50", "0x1.4ba16ac440b79p-95", "0x1.a129b1958a6c8p-138"]


def _difference_underflow(monkeypatch):
    # a difference run that ends at its terminal floor event
    params, ref = _difference_start()
    assert integrate_difference(params, ref, (1e-296, 0.0), 2.0).status == "underflow"


def _shot_to_zero(monkeypatch):
    traj = integrate_adaptive(ProblemParams(5, 20.0), RadialState(1.0, 0.5, -2.0), 5.0)
    assert traj.status == "nonpositive"


def _difference_with_zero_component(monkeypatch):
    # d starts at 0 with no absolute tolerance: its scale is 0 until d' moves it
    params, ref = _difference_start()
    assert integrate_difference(params, ref, (0.0, 1e-3), 2.0).status == "ok"
    # d stays 0, so every trial step's error is infinite
    with pytest.raises(IntegrationError, match="spacing"):
        integrate_difference(params, ref, (0.0, 0.0), 2.0)


def _step_budget(monkeypatch):
    monkeypatch.setattr(_dop853, "MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="budget"):
        integrate_adaptive(ProblemParams(5, 20.0), RadialState(0.5, 1.5, -1.0), 5.0)


# case -> (runs it, number of solves)
_CASES = {
    "exponent-round": (_exponent_round, 25),
    "p=1e6": (_huge_power, 1),
    "c08-differences": (_c08_differences, 4),
    "difference-underflow": (_difference_underflow, 1),
    "shot-to-zero": (_shot_to_zero, 1),
    "difference-zero-component": (_difference_with_zero_component, 2),
    "step-budget": (_step_budget, 1),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_generated_loop_matches_reference(case, checked_solves, monkeypatch):
    run_case, solves = _CASES[case]
    run_case(monkeypatch)
    assert len(checked_solves) == solves


def test_generated_loop_is_entered_once_per_solve(monkeypatch):
    # the loop polishes the zeros of events inside it and returns only at a
    # terminal event, at the end or on failure
    loop, entries = _dop853._loop, []

    def counted(*key):
        advance, *rest = loop(*key)

        def entered(*args):
            entries.append(key)
            return advance(*args)

        return entered, *rest

    monkeypatch.setattr(_dop853, "_loop", counted)
    traj = solve_singular(ProblemParams(5, 1e6), 1.0).trajectory
    assert len(entries) == 1
    assert len(traj.unit_crossings) + len(traj.critical_points) == 635
    entries.clear()
    exponents.find_exponent(1, 1.0, 5, 6.0)
    assert len(entries) == 7


def test_event_functions_are_built_once_per_field_and_expression():
    # the events' g(t, y), the field's f(t, y) and the step rebuild come with
    # the loop, one unit per field and event set: a second solve of equal
    # declarations builds no new one
    params, start = ProblemParams(5, 20.0), RadialState(0.5, 1.5, -1.0)
    integrate_adaptive(params, start, 2.0)
    before = _dop853._loop.cache_info()
    traj = integrate_adaptive(params, start, 3.0)
    assert traj.unit_crossings.size + traj.critical_points.size > 0
    after = _dop853._loop.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_run_buffers_hold_step_ends_lengths_and_states(monkeypatch):
    # the loop appends to three arrays only: per step its end, its length
    # and its state, 2 + n doubles; the dense output rebuilds the stages
    loop, buffers = _dop853._loop, []

    def recorded(*key):
        advance, *rest = loop(*key)

        def entered(*args):
            buffers.append([a for a in args if isinstance(a, array)])
            return advance(*args)

        return entered, *rest

    monkeypatch.setattr(_dop853, "_loop", recorded)
    params, rtol = ProblemParams(5, 20.0), 1e-10
    window = seed_window(params, rtol)
    start = _taylor_start(10.0, params, 2.1, rtol, 1e-12, h_max=window.radius)
    ref = seed_at_origin(window, start.r)
    args = (_DIFFERENCE, _constants(params, rtol), ref.r,
            (ref.u, ref.du, start.u - ref.u, start.du - ref.du), 2.0, rtol,
            (1e-12, 1e-12, 0.0, 0.0))
    run = _dop853.solve(*args)
    [(ts, ys, hs)] = buffers
    assert ts is run.t and ys is run.y and run.n_accepted > 100
    assert len(ys) == 4 * len(ts) and len(hs) == len(ts) - 1 == run.n_accepted
    assert _hex(hs) == _hex(np.diff(run.t))


# states drawn where each field is tame: u > 0 for the radial field, and
# u* > 0 with |d| well below u* for the difference pair
@pytest.mark.parametrize("field, y_lo, y_hi", [
    (_RADIAL, 0.2, 1.5),
    (_DIFFERENCE, (0.2, 0.2, -0.1, -0.1), (1.5, 1.5, 0.1, 0.1))], ids=["radial", "difference"])
def test_trial_step_kernel_matches_reference(field, y_lo, y_hi, monkeypatch):
    # short runs from random states, tolerances and zero absolute tolerances
    monkeypatch.setattr(_dop853, "MAX_STEPS", 5)
    n = len(field.state)
    rng = np.random.default_rng(20 + n)
    for _ in range(40):
        t = float(rng.uniform(0.05, 5.0))
        y = tuple(rng.uniform(y_lo, y_hi, n).tolist())
        t_end = t + float(10.0 ** rng.uniform(-6, 0))
        rtol = float(10.0 ** rng.uniform(-13, -3))
        atol = tuple((10.0 ** rng.uniform(-14, -6, n) * rng.integers(0, 2, n)).tolist())
        consts = _constants(ProblemParams(5, 20.0), rtol)
        _assert_same_run(_dop853.solve(field, consts, t, y, t_end, rtol, atol),
                         _reference_solve(field, consts, t, y, t_end, rtol, atol))


# y' = 1: the error estimate is 0, so each step is ten times the last, and a
# run without events shows where the steps of any run end
_RAMP = _dop853.Field(t="t", state=("y",), consts=("c",), body=(), rates=("1.0",))


@pytest.mark.parametrize("terminal", [0, 1])
@pytest.mark.parametrize("expr", ["t - c", "c - t"])
def test_zero_on_a_step_end_is_recorded_once(expr, terminal):
    # the step that reaches the zero records it; the next one starts on it
    # and records nothing, where an inclusive rule would record it again
    free = _dop853.solve(_RAMP, {"c": 0.0}, 0.0, (0.0,), 1.0, 1e-6, 1e-9)
    c = free.t[3]
    args = (_RAMP, {"c": c}, 0.0, (0.0,), 1.0, 1e-6, 1e-9,
            (_dop853.Event(expr, terminal=terminal),))
    run = _dop853.solve(*args)
    _assert_same_run(run, _reference_solve(*args))
    assert run.t_events == [[c]]
    assert run.rises == [[expr == "t - c"]]
    if terminal:
        assert run.status == "event" and run.t.tolist() == free.t[:4].tolist()
    else:
        assert run.status == "finished" and run.t.tolist() == free.t.tolist()


@pytest.mark.parametrize("k", range(6))
def test_terminal_zero_on_a_step_start_drops_the_step(k):
    # brentq returns the start of the step over which t - c crosses, a step
    # end of the event-free run: the run ends there, with k + 1 samples. At
    # k = 0 that leaves the start alone, where keeping the step would leave
    # the step ends [0, 0], and the dropped step still serves the dense
    # output there
    free = _dop853.solve(_RAMP, {"c": 0.0}, 0.0, (0.0,), 10.0, 1e-6, 1e-9)
    c = math.nextafter(free.t[k], math.inf)
    args = (_RAMP, {"c": c}, 0.0, (0.0,), 10.0, 1e-6, 1e-9, (_dop853.Event("t - c", terminal=1),))
    run = _dop853.solve(*args)
    _assert_same_run(run, _reference_solve(*args))
    assert run.status == "event" and run.t_events == [[free.t[k]]]
    assert run.t.tolist() == free.t[:k + 1].tolist()
    assert run.y.tolist() == free.y[:k + 1].tolist()


def test_trial_step_zero_scale_gives_infinite_error():
    # a component that stays 0 with no absolute tolerance has a zero scale,
    # so every trial step is rejected until the step floor
    steady = _dop853.Field(t="t", state=("a", "b"), consts=(), body=(), rates=("0.0", "1.0"))
    args = (steady, {}, 0.0, (0.0, 1.0), 1.0, 1e-6, (0.0, 0.0))
    run = _dop853.solve(*args)
    assert run.status == "failed" and run.n_accepted == 0 and run.n_rejected > 0
    assert "spacing between numbers" in run.message
    _assert_same_run(run, _reference_solve(*args))


def _hook(raising, error=OverflowError):
    """A hook whose calls numbered in ``raising`` (0-based) raise ``error``;
    an OverflowError stands for u**p leaving the double range."""
    calls = iter(range(10**6))

    def hook():
        if next(calls) in raising:
            raise error("raised by the hook")

    return hook


# y' = -y, calling the hook once per evaluation
_HOOKED_DECAY = _dop853.Field(t="t", state=("y",), consts=("hook",), body=("hook()",),
                            rates=("-y",))


def _hooked_decay(overflows):
    run = _dop853.solve(_HOOKED_DECAY, {"hook": _hook(overflows)},
                      0.0, (1.0,), 1.0, 1e-8, 1e-12)
    _assert_same_run(run, _reference_solve(_HOOKED_DECAY, {"hook": _hook(overflows)},
                                           0.0, (1.0,), 1.0, 1e-8, 1e-12))
    return run


def test_overflowing_stage_rejects_the_step():
    clean = _hooked_decay(())
    # evaluations 0 and 1 pick the first step; 3 is the first trial's second stage
    run = _hooked_decay({3})
    assert run.status == "finished"
    assert run.n_rejected == clean.n_rejected + 1
    assert run.nfev == 12 * (run.n_accepted + run.n_rejected) + 2
    assert run.y[-1] == pytest.approx(math.exp(-1.0), rel=1e-7)
    # a stage that overflows on every trial ends the run at the minimum step
    always = _hooked_decay(range(2, 10**6))
    assert always.status == "failed" and always.n_accepted == 0
    assert "spacing between numbers" in always.message


def test_polish_evaluates_only_the_extra_stages():
    # the loop hands polish the crossed step's live stages: its interpolant
    # costs the 3 extra stages, however many zeros the step holds, where a
    # rebuild of the step would cost 15
    calls = []

    def solve(*events):
        calls.clear()
        run = _dop853.solve(_HOOKED_DECAY, {"hook": lambda: calls.append(1)},
                            0.0, (1.0,), 1.0, 1e-8, 1e-12, events)
        return run, len(calls)

    free, free_calls = solve()
    assert free_calls == free.nfev
    for levels in (("0.5",), ("0.5", "0.5000001")):
        run, run_calls = solve(*(_dop853.Event(f"y - {c}") for c in levels))
        assert _hex(run.t) == _hex(free.t) and run.nfev == free.nfev
        assert [len(te) for te in run.t_events] == [1] * len(levels)
        assert len(set(bisect_left(run.t, te[0]) for te in run.t_events)) == 1
        assert run_calls == free_calls + 3


def test_overflowing_extra_stage_fails_the_run(monkeypatch):
    # an extra stage of the interpolant of a step over which an event crossed
    # leaves the double range: the run fails after that step, whose zero is
    # not recorded
    calls, at_brent = [], []
    brentq = _dop853.brentq

    def noted(*args, **kwargs):
        at_brent.append(len(calls))
        return brentq(*args, **kwargs)

    monkeypatch.setattr(_dop853, "brentq", noted)
    event = (_dop853.Event("y - 0.5"),)
    clean = _dop853.solve(_HOOKED_DECAY, {"hook": lambda: calls.append(1)},
                          0.0, (1.0,), 1.0, 1e-8, 1e-12, event)
    # the step's 3 extra stages are the evaluations just before Brent's
    extra = at_brent[0] - 3

    def args():
        return (_HOOKED_DECAY, {"hook": _hook({extra})}, 0.0, (1.0,), 1.0, 1e-8, 1e-12, event)

    run = _dop853.solve(*args())
    _assert_same_run(run, _reference_solve(*args()))
    assert run.status == "failed" and "interpolant" in run.message
    k = bisect_left(clean.t, clean.t_events[0][0])
    assert run.t.tolist() == clean.t[:k + 1].tolist() and run.t_events == [[]]


def test_other_stage_errors_propagate():
    # the first trial's second stage, inside the stepping loop
    with pytest.raises(ZeroDivisionError, match="hook"):
        _dop853.solve(_HOOKED_DECAY, {"hook": _hook({3}, ZeroDivisionError)},
                    0.0, (1.0,), 1.0, 1e-8, 1e-12)
