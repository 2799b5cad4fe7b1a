import math

import numpy as np
import pytest

from conftest import plain_function
from lntlab import (
    CoverageError,
    ParameterError,
    PointKind,
    ProblemParams,
    RadialState,
    energy_rate_deviation,
    integrate_adaptive,
    integrate_difference,
)
from lntlab import ode
from lntlab.ode import _DIFFERENCE, _RADIAL, _constants, energy_values
from lntlab.singular import seed_at_origin, seed_window


def _function(field, params):
    return plain_function(field, _constants(params, 1e-10))


def test_vector_field_equilibrium_and_hand_value():
    du, ddu = _function(_RADIAL, ProblemParams(3, 5.5))(2.0, (1.0, 0.0))
    assert du == 0.0 and ddu == 0.0
    du, ddu = _function(_RADIAL, ProblemParams(3, 5.0))(1.0, (2.0, -1.0))
    assert du == -1.0
    assert ddu == pytest.approx(-28.0, rel=1e-14)


def test_difference_field_matches_subtraction():
    # for an O(1) difference the field is the difference of two radial
    # fields; for a tiny one it is the linearization, which subtraction
    # cannot resolve
    params = ProblemParams(5, 20.0)
    radial, pair = _function(_RADIAL, params), _function(_DIFFERENCE, params)
    r, u, du = 0.7, 1.3, -0.2
    for d, dd in [(0.4, 0.1), (-0.5, 0.7)]:
        _, want = radial(r, (u + d, du + dd))
        _, base = radial(r, (u, du))
        got = pair(r, (u, du, d, dd))
        assert got[:2] == radial(r, (u, du))
        assert got[2] == dd
        assert got[3] == pytest.approx(want - base, rel=1e-12)
    d = 1e-200
    got = pair(r, (u, du, d, 0.0))[3]
    assert got == pytest.approx(d - 20.0 * u**19 * d, rel=1e-12)


def test_energy_equilibrium_values():
    assert energy_values([1.0], [0.0], 3.0)[0] == pytest.approx(-0.25, rel=1e-15)
    for p in (2.5, 7.0, 30.0):
        want = -0.5 + 1.0 / (p + 1.0)
        assert energy_values([1.0], [0.0], p)[0] == pytest.approx(want, rel=1e-14)


def test_integrate_equilibrium_stays_constant():
    params = ProblemParams(5, 20.0)
    traj = integrate_adaptive(params, RadialState(0.1, 1.0, 0.0), 3.0)
    # it runs through the stepper like any start: the field is exactly 0, so
    # no event crosses zero and every step is ten times the last
    assert traj.n_accepted > 0 and traj.status == "ok"
    assert traj.unit_crossings.size == 0
    assert traj.critical_points.size == 0
    assert traj.r[0] == 0.1 and traj.r[-1] == 3.0
    assert np.all(np.asarray(traj.u) == 1.0) and np.all(np.asarray(traj.du) == 0.0)
    u, du = map(np.asarray, traj.sample(np.linspace(0.1, 3.0, 101)))
    assert np.all(u == 1.0) and np.all(du == 0.0)


def test_integrate_tolerance_convergence():
    # global error tracks the requested tolerance against a tight reference
    params = ProblemParams(5, 20.0)
    start = RadialState(0.5, 1.3, 0.0)
    ref = integrate_adaptive(params, start, 3.0, rtol=1e-13, atol=1e-15)
    u_ref = ref.sample([3.0])[0][0]
    errs = {}
    for rt in (1e-6, 1e-8, 1e-10):
        tr = integrate_adaptive(params, start, 3.0, rtol=rt, atol=rt * 1e-2)
        errs[rt] = abs(tr.sample([3.0])[0][0] - u_ref)
    assert errs[1e-8] < errs[1e-6]
    assert errs[1e-10] < errs[1e-8]
    # two orders of tolerance buy at least one order of error
    assert errs[1e-8] <= errs[1e-6] / 10.0
    assert errs[1e-10] <= errs[1e-8] / 10.0


def test_events_ordered_and_interlaced(sing_5_20):
    traj = sing_5_20.trajectory
    unit, crit = np.asarray(traj.unit_crossings), np.asarray(traj.critical_points)
    assert np.all(np.diff(traj.r) > 0)
    assert np.all(np.diff(unit) > 0)
    assert np.all(np.diff(crit) > 0)
    # each unit crossing separates two critical points on the oscillating tail
    for lo, hi in zip(crit[:-1], crit[1:]):
        inside = unit[(unit > lo) & (unit < hi)]
        assert inside.size == 1
    # Rolle: between consecutive crossings there is a critical point
    for lo, hi in zip(unit[:-1], unit[1:]):
        inside = crit[(crit > lo) & (crit < hi)]
        assert inside.size >= 1


def test_event_function_residuals(sing_5_20):
    traj = sing_5_20.trajectory
    u = np.asarray(traj.sample(traj.unit_crossings)[0])
    assert np.max(np.abs(u - 1.0)) < 1e-10
    _, du = traj.sample(traj.critical_points)
    assert np.max(np.abs(du)) < 1e-9


def test_critical_kinds_alternate(sing_5_20):
    kinds = sing_5_20.trajectory.critical_kinds
    assert kinds[0] is PointKind.MIN
    for a, b in zip(kinds, kinds[1:]):
        assert a is not b


def test_energy_monotone_and_rate(sing_5_20):
    traj = sing_5_20.trajectory
    assert traj.max_energy_rise() <= 1.0
    assert energy_rate_deviation(traj) <= 1e-4


def test_positivity_truncation():
    # a strongly inward-pointing state reaches u = 0 and the run stops there
    params = ProblemParams(3, 6.0)
    traj = integrate_adaptive(params, RadialState(1.0, 0.5, -100.0), 3.0)
    assert traj.status == "nonpositive"
    assert np.all(np.asarray(traj.u) > 0.0)
    assert traj.r_end < 3.0


def test_stop_at_critical_validation():
    start = RadialState(0.5, 1.5, -1.0)
    for index in (0, -1):
        with pytest.raises(ParameterError):
            integrate_adaptive(ProblemParams(5, 20.0), start, 3.0, stop_at_critical=index)


def test_trajectory_serialization(tmp_path, sing_5_20, monkeypatch):
    traj = sing_5_20.trajectory
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    traj.to_csv(csv_a)
    traj.to_csv(csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header, first = csv_a.read_text().splitlines()[:2]
    assert header == "r,u,du,E"
    assert len(first.split(",")) == 4

    monkeypatch.setattr(ode, "MAX_ROWS", 500)
    blob = traj.to_json_dict()
    assert blob["schema"] == "trajectory-v1"
    assert len(blob["r"]) <= 500
    assert blob["critical_kinds"][0] == "min"
    assert blob["params"]["N"] == 5


def test_trajectory_thinning_cap(sing_5_20, monkeypatch):
    traj = sing_5_20.trajectory
    monkeypatch.setattr(ode, "MAX_ROWS", 100)
    idx = traj.thinned_indices()
    assert len(idx) <= 100
    assert idx[0] == 0 and idx[-1] == traj.r.size - 1


def test_sample_outside_coverage_raises(sing_5_20):
    with pytest.raises(CoverageError):
        sing_5_20.trajectory.sample([1e-9])
    with pytest.raises(CoverageError):
        sing_5_20.trajectory.sample([100.0])


def test_integrate_rejects_backward_span():
    params = ProblemParams(5, 20.0)
    with pytest.raises(ParameterError):
        integrate_adaptive(params, RadialState(1.0, 2.0, 0.0), 0.5)


@pytest.mark.parametrize("r_end", [math.inf, math.nan])
def test_integrate_rejects_non_finite_end(r_end):
    with pytest.raises(ParameterError):
        integrate_adaptive(ProblemParams(5, 20.0), RadialState(1.0, 2.0, 0.0), r_end)


def _seed_window(params):
    """The seed state of the singular solution at rtilde_p / 16 and an end
    radius of 4 rtilde_p."""
    window = seed_window(params, 1e-10)
    rtilde_p = window.lemma.rtilde_p
    return seed_at_origin(window, rtilde_p / 16.0), 4.0 * rtilde_p


def test_difference_track_matches_radial():
    # the reference track of the joint difference integration agrees with
    # the direct radial integration on the overlap
    params = ProblemParams(5, 20.0)
    start, r1 = _seed_window(params)
    # a small difference shaped like the state itself
    path = integrate_difference(params, start, (1e-3 * start.u, 1e-3 * start.du), r1)
    assert path.status == "ok"
    direct = integrate_adaptive(params, start, r1)
    r = np.linspace(start.r, r1, 200)
    u_track = np.asarray(path.sample(r)[0])
    u_direct = np.asarray(direct.sample(r)[0])
    assert np.max(np.abs(u_track - u_direct) / np.abs(u_direct)) < 1e-8


@pytest.mark.parametrize("delta", [(1e-3, 0.0), (0.0, 1e-3)])
def test_difference_from_zero_component(delta):
    # a difference with a zero component (zero value, zero atol) starts and
    # matches the difference of two tight radial integrations
    params = ProblemParams(5, 20.0)
    start, r1 = _seed_window(params)
    path = integrate_difference(params, start, delta, r1)
    assert path.status == "ok"
    moved = RadialState(start.r, start.u + delta[0], start.du + delta[1])
    u_end = [integrate_adaptive(params, st, r1, rtol=1e-13, atol=1e-15).u[-1]
             for st in (start, moved)]
    assert path.sample([r1])[1][0] == pytest.approx(u_end[1] - u_end[0], rel=1e-6)


def test_half_density_form_residual(sing_5_20):
    # w = r**((N-1)/2) (u - 1) satisfies the half-density equation; the
    # discrete second difference shows the O(h**2) truncation error
    params = sing_5_20.params
    nu = (params.N - 1) / 2.0

    def residual(n):
        grid = np.linspace(0.3, 2.5, n)
        h = grid[1] - grid[0]
        u = np.asarray(sing_5_20.trajectory.sample(grid)[0])
        w = grid**nu * (u - 1.0)
        wpp = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
        mid_u = u[1:-1]
        ratio = np.where(
            np.abs(mid_u - 1.0) < 1e-8,
            params.p - 1.0,
            (mid_u**params.p - mid_u) / (mid_u - 1.0),
        )
        pot = ratio - (params.N - 1) * (params.N - 3) / (4.0 * grid[1:-1] ** 2)
        scale = np.max(np.abs(pot * w[1:-1]))
        return np.max(np.abs(wpp + pot * w[1:-1])) / scale

    r1, r2 = residual(1001), residual(2001)
    assert r1 < 1e-4
    assert r2 < r1  # refining still reduces the truncation error here


def test_energy_values_vectorized():
    u = np.array([1.0, 2.0])
    du = np.array([0.0, 1.0])
    vals = energy_values(u, du, 3.0)
    assert vals[0] == pytest.approx(-0.25)
    assert vals[1] == pytest.approx(0.5 - 2.0 + 4.0)
