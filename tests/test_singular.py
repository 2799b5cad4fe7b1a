
import numpy as np
import pytest

from lntlab import (
    DegenerateEventError,
    EventError,
    IntegrationError,
    ParameterError,
    PointKind,
    ProblemParams,
    derivative_bound_check,
    derive_constants,
    integrate_adaptive,
    lemma_constants,
    seed_at_origin,
    solve_singular,
    solve_with_criticals,
    verify_origin_bounds,
)
from lntlab import _dp45, ode, singular
from lntlab.params import critical_exponent
from lntlab.singular import CriticalRadii, _default_seed_radius, _max_seed_radius

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
    assert sing_5_20.r_p > sing_5_20.lemma.rtilde_p


def test_first_crossing_absent():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(params)
    sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
    assert sol.r_p is None


def test_origin_sandwich(sing_5_20):
    rep = verify_origin_bounds(sing_5_20)
    assert rep.passed
    assert rep.lower_margin >= -rep.tol
    assert rep.upper_margin <= rep.tol


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
    a = solve_singular(params, r_end=3.0, seed_radius=r0)
    b = solve_singular(params, r_end=3.0, seed_radius=r0 / 2.0)
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


def _probe_at_rtilde(params, r0, rtol, atol):
    """(u, u') at rtilde_p of the run seeded at r0."""
    lem = lemma_constants(params)
    seed = seed_at_origin(params, derive_constants(params), r0)
    run = integrate_adaptive(params, seed, lem.rtilde_p, rtol, atol)
    u, du = run.sample(lem.rtilde_p)
    return float(u[0]), float(du[0])


def _probes_accept(params, r0, rtol, atol=1e-12):
    """Empirical seed check: runs seeded at r0 and r0/2, at a quarter of the
    tolerances, agree at rtilde_p within 10 (atol + rtol scale)."""
    ua, dua = _probe_at_rtilde(params, r0, rtol / 4.0, atol / 4.0)
    ub, dub = _probe_at_rtilde(params, r0 / 2.0, rtol / 4.0, atol / 4.0)
    budget = 10.0 * (atol + rtol * max(abs(ua), abs(ub), abs(dua), abs(dub), 1.0))
    return abs(ua - ub) <= budget and abs(dua - dub) <= budget


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
@pytest.mark.parametrize("ratio", [1.0, 1.1, 2.0])
@pytest.mark.parametrize("N", [3, 4, 8, 12])
def test_seed_bound_against_probe_oracle(N, ratio, rtol):
    # the a priori bound |D2| r0**4 <= rtol against two probe runs from r0
    # and r0/2: the default seed passes the probes, and so does every other
    # seed the bound accepts
    params = ProblemParams(N, ratio * critical_exponent(N))
    c = derive_constants(params)
    rtilde_p = lemma_constants(params).rtilde_p
    r0 = _default_seed_radius(c, rtilde_p, rtol)
    assert _probes_accept(params, r0, rtol)
    for r in (rtilde_p / 16.0, rtilde_p / 8.0, 2.0 * r0):
        if r <= _max_seed_radius(c, rtol):
            assert _probes_accept(params, r, rtol)


def test_critical_exponent_seed_solves():
    # at p = (N+2)/(N-2) the default seed shrinks below rtilde_p / 16, to the
    # radius where the truncation meets rtol
    sol = solve_singular(ProblemParams(3, 5.0), 5.0)
    assert sol.seed_radius < sol.lemma.rtilde_p / 16.0
    assert sol.seed_truncation == pytest.approx(1e-10, rel=1e-12)


def test_critical_radius_ordering_and_extension():
    params = ProblemParams(5, 20.0)
    sol = solve_with_criticals(params, 3, r_end=0.5)  # runs past r_end
    radii = sol.critical_radii.radii
    assert radii.size >= 3
    assert radii[0] < radii[1] < radii[2]
    first = solve_with_criticals(params, 1).critical_radii[0]
    assert first == pytest.approx(REF_R1_5_20, rel=1e-8)


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
        solve_with_criticals(ProblemParams(5, 20.0), 0)


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
    reps = []
    for p in (20.0, 80.0, 320.0):
        params = ProblemParams(5, p)
        sol = solve_singular(params, r_end=2.0 * lemma_constants(params).rtilde_p)
        reps.append(derivative_bound_check(sol))
    scaled = [r.du_scaled for r in reps]
    # |u'(rtilde)| sqrt(p) stays in a narrow band over the sweep
    assert max(scaled) < 6.0
    assert min(scaled) > 2.0
    gaps = [abs(r.u_at_rtilde - 1.0) for r in reps]
    assert gaps == sorted(gaps, reverse=True)  # u(rtilde) -> 1


def test_critical_radii_validation():
    with pytest.raises(ParameterError):
        CriticalRadii(radii=np.array([1.0, 0.5]), kinds=(PointKind.MIN, PointKind.MAX))
    with pytest.raises(DegenerateEventError, match="both of kind min"):
        CriticalRadii(radii=np.array([0.5, 1.0]), kinds=(PointKind.MIN, PointKind.MIN))
    ok = CriticalRadii(radii=np.array([0.5, 1.0]), kinds=(PointKind.MIN, PointKind.MAX))
    assert len(ok) == 2
    assert ok[1] == 1.0


@pytest.mark.parametrize("rises, kinds", [
    ((True, False), (PointKind.MIN, PointKind.MAX)),
    ((False, True), (PointKind.MAX, PointKind.MIN)),
    ((True, True), (PointKind.MIN, PointKind.MIN)),
])
def test_kinds_from_crossing_direction(rises, kinds):
    # a critical point is a minimum where u' rises through zero, whatever u
    # is there; two of one kind in a row mean u' touched zero without
    # crossing, which the critical radii reject
    run = _dp45.Run(t=np.array([0.1, 1.0]), y=np.array([[2.0, 0.5], [-1.0, 0.1]]),
                    t_events=[np.array([]), np.array([0.4, 0.7]), np.array([])],
                    rises=[np.array([], bool), np.array(rises), np.array([], bool)],
                    status="finished", message="", dense=None,
                    nfev=0, n_accepted=1, n_rejected=0)
    traj = ode._build_trajectory(ProblemParams(5, 20.0), run, 1e-10, 1e-12,
                                 status="ok", message="")
    assert traj.critical_kinds == kinds
    if kinds[0] is kinds[1]:
        with pytest.raises(DegenerateEventError):
            singular._critical_radii_from(traj, require_first_min=False)
    else:
        assert len(singular._critical_radii_from(traj, require_first_min=False)) == 2


def test_deep_seed_covers_small_radii():
    # seeding below the default window supports eigenproblem sampling there
    params = ProblemParams(12, 3.0, R=1.0)
    sol = solve_singular(params, r_end=1.05, seed_radius=5e-5)
    u, _ = sol.sample(1e-4)
    c = sol.constants
    assert u[0] == pytest.approx(c.A * 1e-4**-c.theta, rel=1e-4)


def test_step_budget_error_surfaces(monkeypatch):
    # the p = 1e6 run takes about 1,900 steps; a failed run reports the budget,
    # whatever its partial critical points look like
    monkeypatch.setattr(_dp45, "MAX_STEPS", 1000)
    with pytest.raises(IntegrationError, match="Step budget") as exc:
        solve_singular(ProblemParams(5, 1e6), 1.0)
    assert exc.value.partial.critical_points.size > 0
