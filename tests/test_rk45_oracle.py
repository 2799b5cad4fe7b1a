"""The in-house Dormand-Prince 5(4) stepper against scipy's RK45.

Both take the same steps by the same rules. The step sizes come from an error
estimate that cancels to about rtol of the state, so its last bits depend on
the summation order of the tableau sums (scipy's go through BLAS, which may
fuse multiplies and adds); that moves the step radii by about 1e-8
relative. The counts of steps and right-hand-side evaluations are the same,
and so is the solution: states, dense output and event radii agree far
below the tolerance when compared at the same radius.
"""

import math
import os
import subprocess
import sys
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
from lntlab import _dp45, ode
from lntlab.ode import _difference_field, _vector_field
from lntlab.params import derive_constants, lemma_constants
from lntlab.shooting import _taylor_start
from lntlab.singular import _default_seed_radius, seed_at_origin

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


def _scaled_gap(a, b):
    """Largest |a - b| relative to max(|b|, 1), per component."""
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0), axis=-1)


def test_singular_solve_matches_rk45():
    params = ProblemParams(5, 20.0)
    sol = solve_singular(params, 5.0, stop_at_critical=3)
    traj = sol.trajectory
    seed = seed_at_origin(params, derive_constants(params), sol.seed_radius)
    ref = solve_ivp(_vector_field(params), (seed.r, 5.0), (seed.u, seed.du),
                    method="RK45", rtol=1e-10, atol=1e-12, dense_output=True,
                    events=_radial_events(3))
    assert ref.status == 1 and traj.status == "ok"
    assert traj.r.size == ref.t.size
    assert traj.n_accepted == ref.t.size - 1
    assert traj.nfev == ref.nfev
    np.testing.assert_allclose(traj.r, ref.t, rtol=STEP_RTOL, atol=0.0)
    # states at this run's step radii, on scipy's dense output
    assert np.all(_scaled_gap(np.vstack([traj.u, traj.du]), ref.sol(traj.r)) < STATE_RTOL)
    mid = 0.5 * (traj.r[1:] + traj.r[:-1])
    assert np.all(_scaled_gap(np.vstack(traj.sample(mid)), ref.sol(mid)) < STATE_RTOL)
    assert traj.critical_points.size == 3
    np.testing.assert_allclose(traj.critical_points, ref.t_events[1], rtol=EVENT_RTOL, atol=0)
    np.testing.assert_allclose(traj.unit_crossings, ref.t_events[0], rtol=EVENT_RTOL, atol=0)


def test_difference_run_matches_rk45():
    params = ProblemParams(5, 20.0)
    c = derive_constants(params)
    rtol, atol = 1e-10, 1e-12
    seed_cap = _default_seed_radius(c, lemma_constants(params).rtilde_p, rtol)
    start = _taylor_start(10.0, params, 2.1, rtol, atol, h_max=seed_cap)
    ref_state = seed_at_origin(params, c, start.r)
    delta = (start.u - ref_state.u, start.du - ref_state.du)
    path = integrate_difference(params, ref_state, delta, 2.0, rtol, atol)

    ref = solve_ivp(_difference_field(params), (ref_state.r, 2.0),
                    (ref_state.u, ref_state.du, *delta), method="RK45",
                    rtol=rtol, atol=(atol, atol, 0.0, 0.0), dense_output=True)
    assert ref.status == 0 and path.status == "ok"
    assert path.r.size == ref.t.size
    np.testing.assert_allclose(path.r, ref.t, rtol=STEP_RTOL, atol=0.0)
    # the difference decays by orders of magnitude and oscillates, so it is
    # compared relative to its local size hypot(d, r d'); r d' has the size
    # of d however close to the origin, where d' alone runs like d / r
    mid = 0.5 * (path.r[1:] + path.r[:-1])
    got, want = path.dense(mid), ref.sol(mid)
    assert np.all(_scaled_gap(got[:2], want[:2]) < STATE_RTOL)
    gap = np.hypot(got[2] - want[2], mid * (got[3] - want[3]))
    assert np.max(gap / np.hypot(want[2], mid * want[3])) < STATE_RTOL


@pytest.mark.parametrize("t_end", [1.0, 0.5, math.nan])
def test_solve_runs_forward_only(t_end):
    with pytest.raises(ParameterError):
        _dp45.solve(lambda t, y: (-y[0],), 1.0, (1.0,), t_end, 1e-8, 1e-12)


def test_run_below_minimum_step_fails_like_rk45(monkeypatch):
    # u'' = u**3 from u = 2 blows up near r = 1.7, so the step size collapses
    def blowup(params):
        def f(r, y):
            return (y[1], y[0] ** 3)

        return f

    monkeypatch.setattr(ode, "_vector_field", blowup)
    params = ProblemParams(5, 20.0)
    start = RadialState(1.0, 2.0, 0.1)
    with pytest.raises(IntegrationError) as exc:
        integrate_adaptive(params, start, 3.0)
    partial = exc.value.partial
    assert partial is not None and partial.status == "failed"
    ref = solve_ivp(blowup(params), (1.0, 3.0), (2.0, 0.1), method="RK45",
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


def test_import_leaves_scipy_integrate_out():
    # nor scipy.optimize and scipy.linalg, which take most of a second to
    # load; scipy.linalg is imported by smallest_eigenvalues alone
    env = dict(os.environ)
    src = str(Path(lntlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, lntlab, lntlab.cli; print([m for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.optimize', 'scipy.linalg'))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip() == "[]"


# The trial step as the stepper once wrote it, one generator per stage sum,
# with its own copy of scipy's tableau: the reference the generated kernel
# must match bit for bit.
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


def _hex(values):
    return [float(v).hex() for v in values]


# states drawn where each field is tame: u > 0 for the radial field, and
# u* > 0 with |d| well below u* for the difference pair
@pytest.mark.parametrize("n, field, y_lo, y_hi", [
    (2, _vector_field, 0.2, 1.5),
    (4, _difference_field, (0.2, 0.2, -0.1, -0.1), (1.5, 1.5, 0.1, 0.1))])
def test_trial_step_kernel_matches_reference(n, field, y_lo, y_hi):
    fun = field(ProblemParams(5, 20.0))
    step = _dp45._trial_step(n)
    rng = np.random.default_rng(20 + n)
    for _ in range(200):
        t = float(rng.uniform(0.05, 5.0))
        y = tuple(rng.uniform(y_lo, y_hi, n).tolist())
        f = fun(t, y)
        h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, -2))
        rtol = float(10.0 ** rng.uniform(-13, -3))
        atol = tuple((10.0 ** rng.uniform(-14, -6, n) * rng.integers(0, 2, n)).tolist())
        got = step(fun, t, y, f, h, rtol, atol)
        want = _reference_trial_step(fun, t, y, f, h, rtol, atol)
        assert _hex(got[0]) == _hex(want[0])
        assert _hex(got[1]) == _hex(want[1])
        assert float(got[2]).hex() == float(want[2]).hex()
        assert _hex(got[3]) == _hex(want[3])


def test_trial_step_zero_scale_gives_infinite_error():
    # a component that stays 0 with no absolute tolerance has a zero scale
    def fun(t, y):
        return (0.0, 1.0)

    step = _dp45._trial_step(2)
    assert step(fun, 0.0, (0.0, 1.0), (0.0, 1.0), 0.1, 1e-6, (0.0, 0.0))[2] == math.inf
    assert _reference_trial_step(fun, 0.0, (0.0, 1.0), (0.0, 1.0), 0.1, 1e-6,
                                 (0.0, 0.0))[2] == math.inf


def _overflowing_decay(overflows):
    """y' = -y, whose evaluations number ``overflows`` (0-based) raise
    OverflowError, as u**p does once u leaves the double range."""
    calls = iter(range(10**6))

    def fun(t, y):
        if next(calls) in overflows:
            raise OverflowError("Numerical result out of range")
        return (-y[0],)

    return fun


def test_overflowing_stage_rejects_the_step():
    clean = _dp45.solve(_overflowing_decay(()), 0.0, (1.0,), 1.0, 1e-8, 1e-12)
    # evaluations 0 and 1 pick the first step; 3 is the first trial's second stage
    run = _dp45.solve(_overflowing_decay({3}), 0.0, (1.0,), 1.0, 1e-8, 1e-12)
    assert run.status == "finished"
    assert run.n_rejected == clean.n_rejected + 1
    assert run.nfev == 6 * (run.n_accepted + run.n_rejected) + 2
    assert run.y[0, -1] == pytest.approx(math.exp(-1.0), rel=1e-7)
    # a stage that overflows on every trial ends the run at the minimum step
    always = _dp45.solve(_overflowing_decay(range(2, 10**6)), 0.0, (1.0,), 1.0, 1e-8, 1e-12)
    assert always.status == "failed" and always.n_accepted == 0
    assert "spacing between numbers" in always.message
