"""The in-house Dormand-Prince 5(4) stepper against scipy's RK45.

Both take the same steps by the same rules. The step sizes come from an error
estimate that cancels to about rtol of the state, so its last bits depend on
the summation order of the tableau sums (scipy's go through BLAS, which may
fuse multiplies and adds); that moves the step radii by about 1e-8
relative. The counts of steps and right-hand-side evaluations are the same,
and so is the solution: states, dense output and event radii agree far
below the tolerance when compared at the same radius.
"""

import ast
import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import lntlab
from lntlab import (
    IntegrationError,
    ParameterError,
    ProblemParams,
    RadialState,
    integrate_adaptive,
    integrate_difference,
    solve_singular,
)
from lntlab import _dp45, exponents, ode
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
    """The plain f(t, y) of one of ode's fields, as the stepper runs it."""
    return field.function(_constants(params, rtol))


def _scaled_gap(a, b):
    """Largest |a - b| relative to max(|b|, 1), per component."""
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0), axis=-1)


def test_singular_solve_matches_rk45():
    params = ProblemParams(5, 20.0)
    sol = solve_singular(params, 5.0, stop_at_critical=3)
    traj = sol.trajectory
    seed = seed_at_origin(seed_window(params, 1e-10), sol.seed_radius)
    ref = solve_ivp(_function(_RADIAL, params), (seed.r, 5.0), (seed.u, seed.du),
                    method="RK45", rtol=1e-10, atol=1e-12, dense_output=True,
                    events=_radial_events(3))
    assert ref.status == 1 and traj.status == "ok"
    assert traj.r.size == ref.t.size
    assert traj.n_accepted == ref.t.size - 1
    assert traj.nfev == ref.nfev
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
                    (ref_state.u, ref_state.du, *delta), method="RK45",
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


_DECAY = _dp45.Field(t="t", state=("y",), consts=(), body=(), rates=("-y",))


@pytest.mark.parametrize("t_end", [1.0, 0.5, math.nan])
def test_solve_runs_forward_only(t_end):
    with pytest.raises(ParameterError):
        _dp45.solve(_DECAY, {}, 1.0, (1.0,), t_end, 1e-8, 1e-12)


def test_run_below_minimum_step_fails_like_rk45(monkeypatch):
    # u'' = u**3 from u = 2 blows up near r = 1.7, so the step size collapses
    blowup = _dp45.Field(t="r", state=("u", "du"), consts=(), body=(), rates=("du", "u ** 3"))
    monkeypatch.setattr(ode, "_RADIAL", blowup)
    params = ProblemParams(5, 20.0)
    start = RadialState(1.0, 2.0, 0.1)
    with pytest.raises(IntegrationError) as exc:
        integrate_adaptive(params, start, 3.0)
    partial = exc.value.partial
    assert partial is not None and partial.status == "failed"
    ref = solve_ivp(blowup.function({}), (1.0, 3.0), (2.0, 0.1), method="RK45",
                    rtol=1e-10, atol=1e-12, events=_radial_events(0))
    assert ref.status == -1
    assert partial.r.size == ref.t.size
    assert partial.nfev == ref.nfev
    assert partial.r[-1] == pytest.approx(ref.t[-1], rel=EVENT_RTOL)


def test_solver_counters():
    traj = solve_singular(ProblemParams(5, 20.0), 5.0).trajectory
    assert traj.n_rejected > 0
    assert traj.n_accepted == traj.r.size - 1
    # two evaluations pick the first step, each attempt costs six (FSAL)
    assert traj.nfev == 6 * (traj.n_accepted + traj.n_rejected) + 2
    assert "nfev" not in traj.to_json_dict()


def test_step_budget_fails_with_partial_trajectory(monkeypatch):
    params = ProblemParams(5, 20.0)
    start = solve_singular(params, 1.0).trajectory
    state = RadialState(start.r[-1], start.u[-1], start.du[-1])
    assert integrate_adaptive(params, state, 5.0).n_accepted > 40
    monkeypatch.setattr(_dp45, "MAX_STEPS", 40)
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


# The trial step as the stepper once wrote it, one generator per stage sum,
# with its own copy of scipy's tableau, and the Python loop that drove it:
# the reference the generated stepping loop must match bit for bit.
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


def _reference_trial_step(fun, t, y, f, h, rtol, atol):
    k1 = f
    k2 = fun(t + _C2 * h, tuple(v + (_A21 * a) * h for v, a in zip(y, k1)))
    k3 = fun(t + _C3 * h, tuple(v + (_A31 * a + _A32 * b) * h
                                for v, a, b in zip(y, k1, k2)))
    k4 = fun(t + _C4 * h, tuple(v + (_A41 * a + _A42 * b + _A43 * c) * h
                                for v, a, b, c in zip(y, k1, k2, k3)))
    k5 = fun(t + _C5 * h, tuple(v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                                for v, a, b, c, d in zip(y, k1, k2, k3, k4)))
    k6 = fun(t + h, tuple(v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                          for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)))
    y_new = tuple(v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * q)
                  for v, a, c, d, e, q in zip(y, k1, k3, k4, k5, k6))
    f_new = fun(t + h, y_new)
    # a plain left-to-right sum: sum() of floats compensates from Python 3.12
    total = 0
    try:
        for a, c, d, e, q, w, v, vn, tol in zip(k1, k3, k4, k5, k6, f_new, y, y_new, atol):
            total += ((_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * q + _E7 * w) * h
                      / (tol + max(abs(v), abs(vn)) * rtol)) ** 2
        err = math.sqrt(total) / math.sqrt(len(y))
    except ZeroDivisionError:
        err = math.inf
    return y_new, f_new, err, (*k1, *k2, *k3, *k4, *k5, *k6, *f_new)


def _reference_event(field, consts, expr):
    """g(t, y) of an event expression, evaluated by eval() on the names."""
    code = compile(expr, "<event>", "eval")

    def g(t, y):
        return eval(code, {**vars(math), **consts, field.t: t, **dict(zip(field.state, y))})

    return g


def _reference_interpolant(t0, h, y0, K):
    """The quartic interpolant of one step from its stages K (stage by
    stage), per component on the coefficients of _dp45._quartic."""
    n = len(y0)
    Q = [_dp45._quartic(*K[i::n]) for i in range(n)]

    def y(t):
        x = (t - t0) / h
        return tuple(v + h * x * (q0 + x * (q1 + x * (q2 + x * q3)))
                     for v, (q0, q1, q2, q3) in zip(y0, Q))

    return y


def _reference_solve(field, consts, t0, y0, t_end, rtol, atol, events=()):
    """The stepper's Python loop on the field's plain f(t, y)."""
    fun = field.function(consts)
    n = len(y0)
    y = tuple(float(v) for v in y0)
    rtol = max(rtol, 100 * _dp45._EPS)
    atol = tuple(atol) if isinstance(atol, tuple) else (atol,) * n
    t = t0
    f = fun(t, y)
    h_abs = _dp45._initial_step(fun, t, y, f, t_end, rtol, atol)
    nfev, n_accepted, n_rejected = 2, 0, 0
    ts, ys, hs, stages = [t], list(y), [], []
    gs = [_reference_event(field, consts, ev.expr) for ev in events]
    scan = [(ev.direction >= 0, ev.direction <= 0) for ev in events]
    g = [gj(t, y) for gj in gs]
    counts = [0] * len(events)
    t_events = [[] for _ in events]
    rises = [[] for _ in events]
    status, message = None, ""
    while status is None:
        if n_accepted >= _dp45.MAX_STEPS:
            status = "failed"
            message = f"Step budget of {_dp45.MAX_STEPS} accepted steps exhausted."
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
                y_new, f_new, err, K = _reference_trial_step(fun, t, y, f, h, rtol, atol)
            except OverflowError:
                err = math.inf
            if err < 1.0:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err**-0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.2)
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
        before = {}
        for j, (gj, (rise, fall)) in enumerate(zip(gs, scan)):
            old = g[j]
            g[j] = new = gj(t, y)
            if (rise and old <= 0 <= new) or (fall and old >= 0 >= new):
                before[j] = old
        if before:
            active = list(before)
            interp = _reference_interpolant(t_old, h, y_old, K)
            roots = {}
            for j in active:
                counts[j] += 1

                def on_step(s, gj=gs[j]):
                    return gj(s, interp(s))

                try:
                    roots[j] = _dp45.brentq(on_step, t_old, t,
                                            xtol=4 * _dp45._EPS, rtol=4 * _dp45._EPS)
                except ValueError:
                    ends = {t_old: before[j], t: g[j]}
                    roots[j] = _dp45.brentq(lambda s: ends[s] if s in ends else on_step(s),
                                            t_old, t, xtol=4 * _dp45._EPS, rtol=4 * _dp45._EPS)
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
        if len(ts) > 1 and t == ts[-1]:
            hs.pop()
            del stages[-7 * n:]
        else:
            ts.append(t)
            ys.extend(y)
    ts, ys, hs, stages = (array("d", a) for a in (ts, ys, hs, stages))
    return _dp45.Run(t=ts, y=ys, t_events=t_events, rises=rises, status=status,
                     message=message, dense=_dp45.Dense(n, ts, hs, ys, stages), nfev=nfev,
                     n_accepted=n_accepted, n_rejected=n_rejected)


# the dense-output matrix of Dormand and Prince's 5(4) pair as exact
# rationals, stage by stage
_P_EXACT = (
    (1, Fraction(-8048581381, 2820520608), Fraction(8663915743, 2820520608),
     Fraction(-12715105075, 11282082432)),
    (0, 0, 0, 0),
    (0, Fraction(131558114200, 32700410799), Fraction(-68118460800, 10900136933),
     Fraction(87487479700, 32700410799)),
    (0, Fraction(-1754552775, 470086768), Fraction(14199869525, 1410260304),
     Fraction(-10690763975, 1880347072)),
    (0, Fraction(127303824393, 49829197408), Fraction(-318862633887, 49829197408),
     Fraction(701980252875, 199316789632)),
    (0, Fraction(-282668133, 205662961), Fraction(2019193451, 616988883),
     Fraction(-1453857185, 822651844)),
    (0, Fraction(40617522, 29380423), Fraction(-110615467, 29380423),
     Fraction(69997945, 29380423)))


def test_quartic_coefficients_match_exact_tableau_sums():
    # each coefficient of each component, from 1,000 random stage tuples of
    # 2 and 4 components with magnitudes from 1e-5 to 1e5, lies within 4 eps
    # of the sum of its terms' absolute values from the exact sum
    assert [[float(q) for q in row] for row in _P_EXACT] == [list(row) for row in _dp45._P]
    rng = random.Random(19)
    for case in range(1000):
        n = 2 if case % 2 else 4
        K = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0) for _ in range(7 * n)]
        for i in range(n):
            stages = K[i::n]
            got = _dp45._quartic(*stages)
            for j in range(4):
                terms = [row[j] * Fraction(k) for row, k in zip(_P_EXACT, stages)]
                bound = 4 * _dp45._EPS * sum(abs(t) for t in terms)
                assert abs(Fraction(got[j]) - sum(terms)) <= bound, (case, i, j)


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
    if len(got.t) > 1:
        grid = np.linspace(got.t[0], got.t[-1], 999)
        assert _hex(got.dense(grid)) == _hex(want.dense(grid))


@pytest.fixture
def checked_solves(monkeypatch):
    """Runs every _dp45.solve call also on the reference loop, compares the
    two bit for bit, and records the runs."""
    solve, runs = _dp45.solve, []

    def both(*args):
        got = solve(*args)
        _assert_same_run(got, _reference_solve(*args))
        runs.append(got)
        return got

    monkeypatch.setattr(_dp45, "solve", both)
    return runs


def _difference_start(gamma=10.0):
    params = ProblemParams(5, 20.0)
    window = seed_window(params, 1e-10)
    start = _taylor_start(gamma, params, 2.1, 1e-10, 1e-12, h_max=window.radius)
    return params, seed_at_origin(window, start.r)


def _exponent_round(monkeypatch):
    p_i = [exponents.find_exponent(i, 1.0, 5, 6.0).p_i for i in range(1, 5)]
    assert [p.hex() for p in p_i] == ["0x1.6c99f999cd067p+4", "0x1.0e4b9cdfb1cc4p+6",
                                      "0x1.05febbed604c3p+7", "0x1.accea19b87622p+7"]


def _huge_power(monkeypatch):
    solve_singular(ProblemParams(5, 1e6), 1.0)


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
    monkeypatch.setattr(_dp45, "MAX_STEPS", 40)
    with pytest.raises(IntegrationError, match="budget"):
        integrate_adaptive(ProblemParams(5, 20.0), RadialState(0.5, 1.5, -1.0), 5.0)


# case -> (runs it, number of solves)
_CASES = {
    "exponent-round": (_exponent_round, 25),
    "p=1e6": (_huge_power, 1),
    "shot-to-zero": (_shot_to_zero, 1),
    "difference-zero-component": (_difference_with_zero_component, 2),
    "step-budget": (_step_budget, 1),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_generated_loop_matches_reference(case, checked_solves, monkeypatch):
    run_case, solves = _CASES[case]
    run_case(monkeypatch)
    assert len(checked_solves) == solves


def test_event_functions_are_built_once_per_field_and_expression():
    # each event's g(t, y) comes from one factory per field and expression:
    # a second solve of equal declarations builds no new one
    params, start = ProblemParams(5, 20.0), RadialState(0.5, 1.5, -1.0)
    integrate_adaptive(params, start, 2.0)
    before = _dp45._event_factory.cache_info()
    integrate_adaptive(params, start, 3.0)
    after = _dp45._event_factory.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


# states drawn where each field is tame: u > 0 for the radial field, and
# u* > 0 with |d| well below u* for the difference pair
@pytest.mark.parametrize("field, y_lo, y_hi", [
    (_RADIAL, 0.2, 1.5),
    (_DIFFERENCE, (0.2, 0.2, -0.1, -0.1), (1.5, 1.5, 0.1, 0.1))], ids=["radial", "difference"])
def test_trial_step_kernel_matches_reference(field, y_lo, y_hi, monkeypatch):
    # short runs from random states, tolerances and zero absolute tolerances
    monkeypatch.setattr(_dp45, "MAX_STEPS", 5)
    n = len(field.state)
    rng = np.random.default_rng(20 + n)
    for _ in range(40):
        t = float(rng.uniform(0.05, 5.0))
        y = tuple(rng.uniform(y_lo, y_hi, n).tolist())
        t_end = t + float(10.0 ** rng.uniform(-6, 0))
        rtol = float(10.0 ** rng.uniform(-13, -3))
        atol = tuple((10.0 ** rng.uniform(-14, -6, n) * rng.integers(0, 2, n)).tolist())
        consts = _constants(ProblemParams(5, 20.0), rtol)
        _assert_same_run(_dp45.solve(field, consts, t, y, t_end, rtol, atol),
                         _reference_solve(field, consts, t, y, t_end, rtol, atol))


def test_trial_step_zero_scale_gives_infinite_error():
    # a component that stays 0 with no absolute tolerance has a zero scale,
    # so every trial step is rejected until the step floor
    steady = _dp45.Field(t="t", state=("a", "b"), consts=(), body=(), rates=("0.0", "1.0"))
    args = (steady, {}, 0.0, (0.0, 1.0), 1.0, 1e-6, (0.0, 0.0))
    run = _dp45.solve(*args)
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
_HOOKED_DECAY = _dp45.Field(t="t", state=("y",), consts=("hook",), body=("hook()",),
                            rates=("-y",))


def _hooked_decay(overflows):
    run = _dp45.solve(_HOOKED_DECAY, {"hook": _hook(overflows)},
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
    assert run.nfev == 6 * (run.n_accepted + run.n_rejected) + 2
    assert run.y[-1] == pytest.approx(math.exp(-1.0), rel=1e-7)
    # a stage that overflows on every trial ends the run at the minimum step
    always = _hooked_decay(range(2, 10**6))
    assert always.status == "failed" and always.n_accepted == 0
    assert "spacing between numbers" in always.message


def test_other_stage_errors_propagate():
    # the first trial's second stage, inside the stepping loop
    with pytest.raises(ZeroDivisionError, match="hook"):
        _dp45.solve(_HOOKED_DECAY, {"hook": _hook({3}, ZeroDivisionError)},
                    0.0, (1.0,), 1.0, 1e-8, 1e-12)
