
import math
from array import array

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lntlab import (
    CoverageError,
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
    seed_window,
    solve_singular,
    solve_with_criticals,
    verify_origin_bounds,
)
from lntlab import _dop853, ode, singular
from lntlab.params import critical_exponent
from lntlab.singular import CriticalRadii

# regression fixtures from a run at rtol=1e-12, atol=1e-14
REF_R_P_5_20 = 0.78556695084947
REF_R1_5_20 = 1.06900443866014


def test_seed_at_origin_hand_value():
    params = ProblemParams(4, 3.0)
    c = derive_constants(params)
    # A = theta = a = 1 and p = 3: the recurrence gives c = 1, 1/6, 1/216, -1/8208
    assert singular.origin_series(c)[:4] == pytest.approx(
        (1.0, 1.0 / 6.0, 1.0 / 216.0, -1.0 / 8208.0), rel=1e-14)
    seed = seed_at_origin(seed_window(params, 1e-10), 0.01)
    # u = 100 sum c_k 1e-4**k, u' = 1e4 sum (2k - 1) c_k 1e-4**k; the c_3
    # terms sit below the tolerance
    assert seed.u == pytest.approx(100.0 * (1.0 + 1e-4 / 6.0 + 1e-8 / 216.0), rel=1e-14)
    assert seed.du == pytest.approx(1e4 * (-1.0 + 1e-4 / 6.0 + 3e-8 / 216.0), rel=1e-14)


def test_seed_rejects_radius_outside_window():
    params = ProblemParams(5, 20.0)
    window = seed_window(params, 1e-10)
    with pytest.raises(ParameterError):
        seed_at_origin(window, 2.0 * window.lemma.rtilde_p)
    with pytest.raises(ParameterError):
        seed_at_origin(window, 0.0)


def test_solve_singular_regression(sing_5_20):
    assert sing_5_20.r_p == pytest.approx(REF_R_P_5_20, rel=1e-8)
    assert sing_5_20.critical_radii[0] == pytest.approx(REF_R1_5_20, rel=1e-8)


def test_solve_singular_rejects_short_range():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(derive_constants(params))
    with pytest.raises(ParameterError):
        solve_singular(params, r_end=0.5 * lem.rtilde_p)


def test_first_crossing_beyond_window(sing_5_20):
    assert sing_5_20.r_p > sing_5_20.lemma.rtilde_p


def test_first_crossing_absent():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(derive_constants(params))
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
    r = np.asarray(traj.r)
    _, du = traj.sample(r[r < r1 * 0.999])
    assert np.all(np.asarray(du) < 0.0)
    assert sing_5_20.critical_radii.kinds[0] is PointKind.MIN
    # the first minimum dips below the equilibrium
    u_min, _ = traj.sample([r1])
    assert u_min[0] < 1.0


def test_uniqueness_proxy_two_seeds():
    params = ProblemParams(5, 20.0)
    lem = lemma_constants(derive_constants(params))
    r0 = lem.rtilde_p / 16.0
    a = solve_singular(params, r_end=3.0, seed_radius=r0)
    b = solve_singular(params, r_end=3.0, seed_radius=r0 / 2.0)
    grid = np.linspace(lem.rtilde_p, 3.0, 800)
    ua, ub = (np.asarray(sol.trajectory.sample(grid)[0]) for sol in (a, b))
    assert np.max(np.abs(ua - ub)) < 10.0 * (1e-12 + 1e-10 * np.max(np.abs(ua)))


def test_seed_sensitivity_catches_bad_seed():
    # a seed past the certified radius is refused before integrating, even
    # where it lies outside the window too
    params = ProblemParams(5, 10.0)
    window = seed_window(params, 1e-10)
    certified = window.certified_radius
    assert certified > window.lemma.rtilde_p
    with pytest.raises(IntegrationError, match="certified"):
        solve_singular(params, r_end=1.0, seed_radius=1.01 * certified)


def _probe_at(params, r0, r_probe, rtol, atol):
    """(u, u') at r_probe of the run seeded at r0."""
    seed = seed_at_origin(seed_window(params, rtol), r0)
    run = integrate_adaptive(params, seed, r_probe, rtol, atol)
    u, du = run.sample([r_probe])
    return float(u[0]), float(du[0])


def _probes_accept(params, r0, rtol, atol=1e-12):
    """Empirical seed check: runs seeded at r0 and r0/2, at a quarter of the
    tolerances, agree at 2 rtilde_p within 10 (atol + rtol scale)."""
    r_probe = 2.0 * lemma_constants(derive_constants(params)).rtilde_p
    ua, dua = _probe_at(params, r0, r_probe, rtol / 4.0, atol / 4.0)
    ub, dub = _probe_at(params, r0 / 2.0, r_probe, rtol / 4.0, atol / 4.0)
    budget = 10.0 * (atol + rtol * max(abs(ua), abs(ub), abs(dua), abs(dub), 1.0))
    return abs(ua - ub) <= budget and abs(dua - dub) <= budget


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
@pytest.mark.parametrize("ratio", [1.0, 1.1, 2.0])
@pytest.mark.parametrize("N", [3, 4, 8, 12])
def test_seed_bound_against_probe_oracle(N, ratio, rtol):
    # the a priori certificate against two probe runs from r0 and r0/2: the
    # default seed, at the window edge, passes the probes, and so does every
    # other seed the certificate accepts
    params = ProblemParams(N, ratio * critical_exponent(N))
    window = seed_window(params, rtol)
    rtilde_p = window.lemma.rtilde_p
    r0 = window.radius
    assert r0 == rtilde_p
    assert _probes_accept(params, r0, rtol)
    for r in (rtilde_p / 16.0, rtilde_p / 4.0):
        if r <= window.certified_radius:
            assert _probes_accept(params, r, rtol)


def test_critical_exponent_seed_solves():
    # at p = (N+2)/(N-2), N = 3: theta = 1/2 and a = 1/4 give the series
    # c = 1, 1/5, 1/170, -1/1850, certified well past the window edge
    params = ProblemParams(3, 5.0)
    c = derive_constants(params)
    series = singular.origin_series(c)
    assert series[:4] == pytest.approx((1.0, 0.2, 1.0 / 170.0, -1.0 / 1850.0), rel=1e-14)
    sol = solve_singular(params, 5.0)
    r0 = sol.lemma.rtilde_p
    assert sol.seed_radius == r0
    assert sol.seed_truncation == pytest.approx(
        sum(abs(series[k]) * r0 ** (2 * k) for k in range(9, 13)), rel=1e-12)
    assert sol.seed_truncation <= 1e-10
    seed = seed_at_origin(seed_window(params, 1e-10), r0)
    assert (sol.trajectory.u[0], sol.trajectory.du[0]) == (seed.u, seed.du)


def _closed_form_d2(c):
    """D2 of A r**(-theta) (1 + Dp r**2 + D2 r**4 + ...): matching the
    r**(2-theta) terms of the equation, with a = theta (N-2-theta),
    D2 ((4-theta)(N+2-theta) + p a) = Dp (1 - p (p-1) a Dp / 2)."""
    a = c.theta * (c.N - 2.0 - c.theta)
    return c.Dp * (1.0 - 0.5 * c.p * (c.p - 1.0) * a * c.Dp) / (
        (4.0 - c.theta) * (c.N + 2.0 - c.theta) + c.p * a)


_SERIES_GRID = [(N, p) for N in (3, 5, 12, 30)
                for p in (1.05 * critical_exponent(N), 22.8, 214.0, 1e4)]


@pytest.mark.parametrize("N, p", _SERIES_GRID)
def test_series_leading_coefficients(N, p):
    c = derive_constants(ProblemParams(N, p))
    series = singular.origin_series(c)
    assert series[0] == 1.0
    assert series[1] == pytest.approx(c.Dp, rel=1e-14)
    assert series[2] == pytest.approx(_closed_form_d2(c), rel=1e-12)


@pytest.mark.parametrize("N, p", _SERIES_GRID)
def test_series_state_at_window_edge_matches_dop853(N, p):
    # scipy's DOP853 at rtol 1e-13 from the two-term seed where the first
    # omitted term |D2| r**4 is 1e-16, run out to rtilde_p
    params = ProblemParams(N, p)
    window = seed_window(params, 1e-10)
    c, rtilde_p = window.constants, window.lemma.rtilde_p
    r0 = (1e-16 / abs(_closed_form_d2(c))) ** 0.25
    u0 = c.A * r0**-c.theta * (1.0 + c.Dp * r0 * r0)
    du0 = c.A * r0 ** (-c.theta - 1.0) * (-c.theta + (2.0 - c.theta) * c.Dp * r0 * r0)

    def rhs(r, y):
        return (y[1], -(N - 1.0) / r * y[1] + y[0] - max(y[0], 0.0) ** p)

    ref = solve_ivp(rhs, (r0, rtilde_p), (u0, du0), method="DOP853", rtol=1e-13, atol=0.0)
    assert ref.status == 0
    seed = seed_at_origin(window, rtilde_p)
    assert seed.u == pytest.approx(ref.y[0, -1], rel=1e-11)
    assert seed.du == pytest.approx(ref.y[1, -1], rel=1e-11)


@pytest.mark.parametrize("N, p", _SERIES_GRID)
def test_origin_profile_values_are_origin_scaled(N, p):
    c = derive_constants(ProblemParams(N, p))
    radii = [lemma_constants(c).rtilde_p * 2.0**-k for k in range(8)]
    assert singular.origin_profile(c, radii)[0] == singular.origin_scaled(c, radii)


def test_scaled_profile_straddles_the_seed(sing_5_20):
    # the origin series below the seed radius, the trajectory from the seed
    # on, in the order the radii come
    sol = sing_5_20
    c, r0, r_end = sol.constants, sol.seed_radius, sol.trajectory.r_end
    radii = [r0 / 2.0, r0, r0 / 8.0, 3.0, r_end, r0 * (1.0 - 1e-12), 1.0]
    for r, t in zip(radii, sol.scaled(radii)):
        if r < r0:
            assert t == singular.origin_scaled(c, [r])[0]
        else:
            assert t == sol.trajectory.sample([r])[0][0] * r**c.theta
    # the profile adds u' r**(theta+1), split the same way
    ts, dts = sol.profile(radii)
    assert ts == sol.scaled(radii)
    for r, dt in zip(radii, dts):
        if r < r0:
            assert dt == singular.origin_profile(c, [r])[1][0]
        else:
            assert dt == sol.trajectory.sample([r])[1][0] * r ** (c.theta + 1.0)
    for bad in (math.nextafter(r_end * (1.0 + 1e-14), math.inf), 0.0, -1.0):
        with pytest.raises(CoverageError):
            sol.scaled([1.0, bad])
        with pytest.raises(CoverageError):
            sol.profile([1.0, bad])


@pytest.mark.parametrize("rtol", [1e-10, 1e-13])
def test_certified_radius_covers_window(rtol):
    # so the default seed is the window edge over the whole grid
    for N, p in _SERIES_GRID:
        window = seed_window(ProblemParams(N, p), rtol)
        assert window.certified_radius >= window.lemma.rtilde_p
        assert window.radius == window.lemma.rtilde_p


def test_origin_checks_sample_the_window(sing_5_20, monkeypatch):
    # 64 distinct radii spanning [rtilde_p / 16, rtilde_p], though the seed
    # sits at rtilde_p
    seen = []
    profile = singular.SingularSolution.profile

    def recorded(self, radii):
        seen.append(np.asarray(radii))
        return profile(self, radii)

    monkeypatch.setattr(singular.SingularSolution, "profile", recorded)
    verify_origin_bounds(sing_5_20)
    derivative_bound_check(sing_5_20)
    rtilde_p = sing_5_20.lemma.rtilde_p
    assert sing_5_20.seed_radius == rtilde_p
    assert len(seen) == 2
    for radii in seen:
        assert np.unique(radii).size == 64
        assert radii.min() == pytest.approx(rtilde_p / 16.0, rel=1e-14)
        assert radii.max() == pytest.approx(rtilde_p, rel=1e-14)


def test_origin_checks_stay_finite_where_u_is_huge():
    # at N = 300, p = 1.02, theta = 100 and A is about 6.8e214: u is about
    # 1e245 at rtilde_p and overflows at rtilde_p / 16, but the checks read
    # the scaled profile, so every margin is a finite number
    sol = solve_singular(ProblemParams(300, 1.02), 5.0)
    c, rtilde_p = sol.constants, sol.lemma.rtilde_p
    c1, c2 = singular.origin_series(c)[1:3]
    assert sol.seed_radius == rtilde_p
    rep = verify_origin_bounds(sol)
    # the envelope's lower edge is closest at the inner end of the window,
    # by about Dp r**2
    assert rep.lower_margin == pytest.approx(c.Dp * (rtilde_p / 16.0) ** 2, rel=1e-3)
    # the upper edge needs c_2 <= 0, but c_2 is positive here: the check
    # fails by about c_2 rtilde_p**4, with no NaN in sight
    assert c1 == pytest.approx(c.Dp, rel=1e-14) and c2 > 0.0
    assert rep.upper_margin == pytest.approx(c2 * rtilde_p**4, rel=1e-3)
    assert not rep.passed
    der = derivative_bound_check(sol)
    # u' r**(theta+1) + theta A = A ((2 - theta) Dp r**2 + ...)
    assert der.sup_remainder_ratio == pytest.approx(c.A * (c.theta - 2.0) * c.Dp, rel=1e-3)
    assert all(map(math.isfinite, der))


def test_origin_sandwich_catches_raised_series(sing_5_20, monkeypatch):
    # c_1 raised by 1% lifts u above A r**(-theta) (1 + Dp r**2) by about
    # 6e-6 at rtilde_p, far past the tolerance
    series = singular.origin_series(sing_5_20.constants)
    raised = (series[0], 1.01 * series[1], *series[2:])
    monkeypatch.setattr(singular, "origin_series", lambda c: raised)
    rep = verify_origin_bounds(sing_5_20)
    assert not rep.passed
    assert 1e-6 < rep.upper_margin < 1e-5
    assert rep.upper_margin > 1e3 * rep.tol


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
        sol = solve_singular(params, r_end=2.0 * lemma_constants(derive_constants(params)).rtilde_p)
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
    # (u, u') = (2.0, -1.0) at r = 0.1 and (0.5, 0.1) at r = 1.0
    run = _dop853.Run(t=array("d", [0.1, 1.0]), y=array("d", [2.0, -1.0, 0.5, 0.1]),
                    t_events=[[], [0.4, 0.7], []], rises=[[], list(rises), []],
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
    (t,), _ = sol.profile([1e-4])
    assert t == pytest.approx(sol.constants.A, rel=1e-4)


def test_step_budget_error_surfaces(monkeypatch):
    # the p = 1e6 run takes about 680 steps; a failed run reports the budget,
    # whatever its partial critical points look like
    monkeypatch.setattr(_dop853, "MAX_STEPS", 300)
    with pytest.raises(IntegrationError, match="Step budget") as exc:
        solve_singular(ProblemParams(5, 1e6), 1.0)
    assert exc.value.partial.critical_points.size > 0
