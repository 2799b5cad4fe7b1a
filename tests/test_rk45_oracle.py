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
    ProblemParams,
    RadialState,
    integrate_adaptive,
    integrate_eta_difference,
    solve_singular,
    transform_u_to_eta,
)
from lntlab import _dp45, ode
from lntlab.ode import EtaState, _vector_field, rhs_eta, rhs_eta_difference
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


def test_eta_difference_toward_decreasing_zeta_matches_rk45():
    params = ProblemParams(5, 20.0)
    c = derive_constants(params)
    rtol, atol = 1e-10, 1e-12
    seed_cap = _default_seed_radius(c, lemma_constants(params).rtilde_p, rtol)
    start = _taylor_start(10.0, params, 2.1, rtol, atol, h_max=seed_cap)
    ref_state = transform_u_to_eta(seed_at_origin(params, c, start.r), c)
    shot = transform_u_to_eta(start, c)
    delta = (shot.eta - ref_state.eta, shot.deta - ref_state.deta)
    zeta_end = -math.log(2.0) / c.m
    assert zeta_end < ref_state.zeta
    path = integrate_eta_difference(c, params.p, ref_state, delta, zeta_end, rtol, atol)

    def f(z, y):
        st = EtaState(zeta=z, eta=y[0], deta=y[1])
        return (*rhs_eta(st, c, params.p), *rhs_eta_difference(st, y[2], y[3], c, params.p))

    ref = solve_ivp(f, (ref_state.zeta, zeta_end),
                    (ref_state.eta, ref_state.deta, *delta), method="RK45",
                    rtol=rtol, atol=(atol, atol, 0.0, 0.0), dense_output=True)
    assert ref.status == 0 and path.status == "ok"
    assert path.zeta.size == ref.t.size
    # zeta passes through 0, so positions are compared on the span's scale
    span = abs(zeta_end - ref_state.zeta)
    np.testing.assert_allclose(path.zeta, ref.t, rtol=0.0, atol=STEP_RTOL * span)
    # delta decays by orders of magnitude and oscillates, so it is compared
    # relative to its local size hypot(delta, delta')
    mid = 0.5 * (path.zeta[1:] + path.zeta[:-1])
    got, want = path.dense(mid), ref.sol(mid)
    assert np.all(_scaled_gap(got[:2], want[:2]) < STATE_RTOL)
    size = np.hypot(want[2], want[3])
    assert np.max(np.abs(got[2:] - want[2:]) / size) < STATE_RTOL
    assert np.all(np.diff(path.zeta) < 0)


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
