import math

import numpy as np
import pytest

from lntlab import (
    EventError,
    IntegrationError,
    ParameterError,
    PointKind,
    ProblemParams,
    critical_radius,
    derivative_bound_check,
    derive_constants,
    first_unit_crossing,
    lemma_constants,
    seed_at_origin,
    solve_singular,
    solve_with_criticals,
    verify_origin_bounds,
)
from lntlab import singular
from lntlab.singular import CriticalRadii, derivative_decay_sweep

# regression fixtures from a run at rtol=1e-12, atol=1e-14
REF_R_P_5_20 = 0.78556695084947
REF_R1_5_20 = 1.06900443866014


def test_seed_at_origin_hand_value():
    params = ProblemParams(4, 3.0)
    c = derive_constants(params)
    seed = seed_at_origin(params, c, 0.01)
    # A = theta = 1, Dp = 1/6: u = 100 (1 + 1e-4/6), u' = -1e4 (1 - 1e-4/6)
    assert seed.u == pytest.approx(100.0 * (1.0 + 1e-4 / 6.0), rel=1e-14)
    assert seed.du == pytest.approx(1e4 * (-1.0 + 1e-4 / 6.0), rel=1e-14)


def test_seed_rejects_radius_outside_window():
    params = ProblemParams(5, 20.0)
    c = derive_constants(params)
    lem = lemma_constants(params)
    with pytest.raises(ParameterError):
        seed_at_origin(params, c, 2.0 * lem.rtilde_p)
    with pytest.raises(ParameterError):
        seed_at_origin(params, c, 0.0)


def test_solve_singular_regression(sing_5_20):
    assert sing_5_20.r_p == pytest.approx(REF_R_P_5_20, rel=1e-8)
    assert sing_5_20.critical_radii[0] == pytest.approx(REF_R1_5_20, rel=1e-8)


def test_solve_singular_rejects_short_range():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(params)
    with pytest.raises(ParameterError):
        solve_singular(params, r_end=0.5 * lem.rtilde_p)


def test_first_crossing_beyond_window(sing_5_20):
    assert first_unit_crossing(sing_5_20) > sing_5_20.lemma.rtilde_p


def test_first_crossing_absent_raises():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(params)
    sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
    assert sol.r_p is None
    with pytest.raises(EventError):
        first_unit_crossing(sol)


def test_origin_sandwich(sing_5_20):
    rep = verify_origin_bounds(sing_5_20, n_samples=64)
    assert rep.passed
    assert rep.lower_margin >= -rep.tol
    assert rep.upper_margin <= rep.tol
    assert rep.radii.size == 64


def test_monotone_before_first_critical(sing_5_20):
    traj = sing_5_20.trajectory
    r1 = sing_5_20.critical_radii[0]
    inside = (traj.r < r1 * 0.999)
    _, du = traj.sample(traj.r[inside])
    assert np.all(du < 0.0)
    assert sing_5_20.critical_radii.kinds[0] is PointKind.MIN
    # the first minimum dips below the equilibrium
    u_min, _ = traj.sample(r1)
    assert u_min[0] < 1.0


def test_uniqueness_proxy_two_seeds():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(params)
    r0 = lem.rtilde_p / 16.0
    a = solve_singular(params, r_end=3.0, seed_radius=r0, seed_check=False)
    b = solve_singular(params, r_end=3.0, seed_radius=r0 / 2.0, seed_check=False)
    grid = np.linspace(lem.rtilde_p, 3.0, 800)
    ua, _ = a.sample(grid)
    ub, _ = b.sample(grid)
    assert np.max(np.abs(ua - ub)) < 10.0 * (1e-12 + 1e-10 * np.max(np.abs(ua)))


def test_seed_sensitivity_catches_bad_seed():
    # seeding at the window edge makes the expansion error visible
    params = ProblemParams(5, 10.0)
    lem = lemma_constants(params)
    with pytest.raises(IntegrationError):
        solve_singular(params, r_end=1.0, seed_radius=lem.rtilde_p)


def test_critical_radius_ordering_and_extension():
    params = ProblemParams(5, 20.0)
    sol = solve_with_criticals(params, 3, r_end=0.5)  # runs past r_end
    radii = sol.critical_radii.radii
    assert radii.size >= 3
    assert radii[0] < radii[1] < radii[2]
    assert critical_radius(params, 1) == pytest.approx(REF_R1_5_20, rel=1e-8)


@pytest.mark.parametrize("i", [1, 3])
def test_solve_with_criticals_stops_at_requested_point(i):
    sol = solve_with_criticals(ProblemParams(5, 20.0), i)
    assert len(sol.critical_radii) == i
    assert sol.trajectory.status == "ok"
    assert sol.trajectory.r_end == pytest.approx(sol.critical_radii[i - 1], rel=1e-15)


def test_solve_with_criticals_cap_too_small(monkeypatch):
    monkeypatch.setattr(singular, "R_END_EXTENSION_CAP", 1)
    with pytest.raises(EventError):
        solve_with_criticals(ProblemParams(5, 20.0), 3, r_end=0.5)


def test_critical_radius_rejects_bad_index():
    with pytest.raises(ParameterError):
        critical_radius(ProblemParams(5, 20.0), 0)


def test_crossing_count_grows_with_power():
    counts = []
    for p in (10.0, 20.0, 40.0):
        sol = solve_singular(ProblemParams(5, p), r_end=2.0)
        counts.append(sol.trajectory.crossings_upto(2.0))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_derivative_bound_single_run(sing_5_20):
    rep = derivative_bound_check(sing_5_20)
    assert rep.du_at_rtilde == pytest.approx(-1.0976, abs=2e-3)
    assert rep.sup_remainder_ratio < 1.0
    assert rep.u_at_rtilde > 1.0


def test_derivative_decay_sweep():
    reps = derivative_decay_sweep(5, [20.0, 80.0, 320.0])
    scaled = [r.du_scaled for r in reps]
    # |u'(rtilde)| sqrt(p) stays in a narrow band over the sweep
    assert max(scaled) < 6.0
    assert min(scaled) > 2.0
    gaps = [abs(r.u_at_rtilde - 1.0) for r in reps]
    assert gaps == sorted(gaps, reverse=True)  # u(rtilde) -> 1


def test_critical_radii_validation():
    with pytest.raises(ParameterError):
        CriticalRadii(radii=np.array([1.0, 0.5]), kinds=(PointKind.MIN, PointKind.MAX))
    with pytest.raises(ParameterError):
        CriticalRadii(radii=np.array([0.5, 1.0]), kinds=(PointKind.MIN, PointKind.MIN))
    ok = CriticalRadii(radii=np.array([0.5, 1.0]), kinds=(PointKind.MIN, PointKind.MAX))
    assert len(ok) == 2
    assert ok[1] == 1.0


def test_deep_seed_covers_small_radii():
    # seeding below the default window supports eigenproblem sampling there
    params = ProblemParams(12, 3.0, R=1.0)
    sol = solve_singular(params, r_end=1.05, seed_radius=5e-5)
    u, _ = sol.sample(1e-4)
    c = sol.constants
    assert u[0] == pytest.approx(c.A * 1e-4**-c.theta, rel=1e-4)
