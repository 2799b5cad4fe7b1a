import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jv

from lntlab import (
    BracketError,
    EventError,
    IntegrationError,
    ParameterError,
    ProblemParams,
    branch_sample,
    convergence_to_singular,
    shoot,
    solve_singular,
)
from lntlab import shooting
from lntlab.ode import _DIFFERENCE, _constants
from lntlab.shooting import _critical_radius_of_shot, _taylor_start
from lntlab.singular import seed_at_origin, seed_window

# regression fixture from a run at rtol=1e-12, atol=1e-14
REF_SHOT_R1 = 1.06900443866011


def test_equilibrium_shot():
    result = shoot(1.0, ProblemParams(5, 20.0), r_end=3.0)
    traj = result.trajectory
    assert traj.unit_crossings.size == 0
    assert traj.critical_points.size == 0
    assert np.all(traj.u == 1.0)


def test_large_gamma_initially_decreasing():
    result = shoot(10.0, ProblemParams(5, 20.0), r_end=0.5)
    traj = result.trajectory
    small = traj.r < 1e-6
    assert np.all(traj.du[small] <= 0.0)
    assert traj.du[1] < 0.0


def test_shot_regression(shot_gamma10):
    assert shot_gamma10.critical_radii[0] == pytest.approx(REF_SHOT_R1, rel=1e-8)


def test_shot_stops_at_requested_critical_point(shot_gamma10):
    stopped = shoot(10.0, ProblemParams(5, 20.0), r_end=5.0, stop_at_critical=2)
    traj = stopped.trajectory
    assert traj.status == "ok" and not stopped.nonpositive
    assert len(stopped.critical_radii) == 2
    assert traj.r_end == pytest.approx(stopped.critical_radii[1], rel=1e-15)
    assert stopped.critical_radii[1] == pytest.approx(shot_gamma10.critical_radii[1], rel=1e-12)


def test_shot_critical_radius_cap_too_small(monkeypatch):
    monkeypatch.setattr(shooting, "R_END_EXTENSION_CAP", 1)
    with pytest.raises(EventError):
        _critical_radius_of_shot(10.0, ProblemParams(5, 20.0), 3, 1e-10, 1e-12, 0.5)


def test_shot_rejects_nonpositive_gamma():
    with pytest.raises(ParameterError):
        shoot(0.0, ProblemParams(5, 20.0), r_end=1.0)


def test_taylor_start_sits_below_collapse_layer():
    result = shoot(1000.0, ProblemParams(5, 20.0), r_end=0.1)
    layer = 1000.0 ** (-(20.0 - 1.0) / 2.0)
    assert result.trajectory.r_start < 0.05 * layer


def test_gamma_power_overflow_guard():
    with pytest.raises(ParameterError):
        shoot(10.0, ProblemParams(5, 500.0), r_end=1.0)


def test_small_amplitude_matches_bessel_zero():
    # linearizing about 1 gives a Bessel profile whose first critical radius
    # is the first positive zero of J_{N/2}(sqrt(p-1) r)
    N, p = 5, 10.0
    order = N / 2.0
    xs = np.linspace(0.1, 12.0, 2000)
    vals = jv(order, xs)
    k = np.where(np.diff(np.sign(vals)))[0][0]
    zero = brentq(lambda x: jv(order, x), xs[k], xs[k + 1])
    r_lin = zero / math.sqrt(p - 1.0)
    result = shoot(1.0 + 1e-3, ProblemParams(N, p), r_end=2.0 * r_lin)
    assert result.critical_radii[0] == pytest.approx(r_lin, rel=1e-2)


def test_energy_monotone_along_shots(shot_gamma10):
    assert shot_gamma10.trajectory.max_energy_rise() <= 1.0


def test_convergence_report_resolvable_regime():
    # the sup-distance is resolvable for moderate gamma and collapses fast
    params = ProblemParams(5, 20.0)
    singular = solve_singular(params, r_end=2.2)
    rep = convergence_to_singular(params, [2.0, 3.0, 5.0], (0.5, 2.0), singular=singular)
    assert rep.complete and rep.passed
    d = rep.distances
    assert d[0] > d[1] > d[2]
    assert d[2] < d[0] / 50.0
    assert d[0] == pytest.approx(2.0e-6, rel=0.2)  # frozen reference scale


@pytest.fixture(scope="module")
def collapse_report():
    """Distances at the acceptance instance, default tolerances."""
    return convergence_to_singular(ProblemParams(5, 20.0), [10.0, 100.0, 1000.0],
                                   (0.5, 2.0))


# C08's distances as the log-radius perturbation form u = A r**(-theta)
# (1 + eta) measured them at default tolerances: a frozen oracle for the
# difference integrated in r
ETA_FORM_DISTANCES = (1.2283073574477278e-15, 3.270129562968246e-29, 4.676557480485855e-42)


def test_convergence_distances_match_log_radius_form(collapse_report):
    assert collapse_report.distances == pytest.approx(ETA_FORM_DISTANCES, rel=1e-6)


@pytest.mark.parametrize("k", [0, 2])
def test_convergence_distance_matches_dop853(collapse_report, k):
    # scipy's eighth-order DOP853 at tight tolerance, on the same difference
    # field from the same start, is an independent integration of d
    params = ProblemParams(5, 20.0)
    window = seed_window(params, 1e-10)
    start = _taylor_start(collapse_report.gammas[k], params, 2.1, 1e-10, 1e-12,
                          h_max=window.radius)
    ref = seed_at_origin(window, start.r)
    sol = solve_ivp(_DIFFERENCE.function(_constants(params, 1e-13)), (start.r, 2.0),
                    (ref.u, ref.du, start.u - ref.u, start.du - ref.du), method="DOP853",
                    rtol=1e-13, atol=(1e-15, 1e-15, 0.0, 0.0), dense_output=True)
    d = np.max(np.abs(sol.sol(np.linspace(0.5, 2.0, 2048))[2]))
    assert collapse_report.distances[k] == pytest.approx(d, rel=1e-6)


def test_convergence_distances_stable_under_tolerance(collapse_report):
    tight = convergence_to_singular(ProblemParams(5, 20.0), [10.0, 100.0, 1000.0],
                                    (0.5, 2.0), rtol=1e-12, atol=1e-14)
    assert collapse_report.complete and tight.complete
    for loose, fine in zip(collapse_report.distances, tight.distances):
        assert loose == pytest.approx(fine, rel=1e-6)


@pytest.mark.parametrize("gamma", [3.0, 5.0])
def test_convergence_distance_matches_direct_subtraction(gamma):
    # where the distance sits well above the round-off of two trajectories,
    # subtracting tightly integrated runs is an independent measurement
    params = ProblemParams(5, 20.0)
    grid = np.linspace(0.5, 2.0, 2048)
    u_sing, _ = solve_singular(params, r_end=2.1, rtol=1e-13, atol=1e-15).sample(grid)
    u_shot, _ = shoot(gamma, params, r_end=2.1, rtol=1e-13, atol=1e-15).trajectory.sample(grid)
    direct = float(np.max(np.abs(u_shot - u_sing)))
    rep = convergence_to_singular(params, [gamma], (0.5, 2.0))
    assert rep.distances[0] == pytest.approx(direct, rel=1e-3)


def test_convergence_distance_decay_rate(collapse_report):
    # |u_gamma - u*| scales like gamma**(-(N-2-2 theta)/(2 theta))
    theta = 2.0 / 19.0
    rate = (5 - 2 - 2 * theta) / (2 * theta)
    d = collapse_report.distances
    assert abs(math.log10(d[0] / d[1]) - rate) < 1.0


def test_convergence_refuses_underflowing_distance():
    rep = convergence_to_singular(ProblemParams(12, 5.0), [1e10, 1e50], (0.5, 2.0))
    assert rep.statuses == ("ok", "underflow")
    assert 0.0 < rep.distances[0] < 1e-50
    assert math.isnan(rep.distances[1])
    assert not rep.complete and not rep.passed


def test_convergence_rejects_mismatched_singular():
    # the singular track integrated with each shot cross-checks the given one
    singular = solve_singular(ProblemParams(5, 21.0), r_end=2.2)
    with pytest.raises(IntegrationError):
        convergence_to_singular(ProblemParams(5, 20.0), [2.0, 3.0], (0.5, 2.0),
                                singular=singular)


def test_convergence_validation():
    params = ProblemParams(5, 20.0)
    with pytest.raises(ParameterError):
        convergence_to_singular(params, [3.0, 2.0], (0.5, 2.0))
    with pytest.raises(ParameterError):
        convergence_to_singular(params, [0.5, 2.0], (0.5, 2.0))
    with pytest.raises(ParameterError):
        convergence_to_singular(params, [2.0, 3.0], (2.0, 0.5))


def test_branch_sample_contract():
    # one diagram sample per gamma of the README example: the second critical
    # radius of the shot hits R = 1 at the power Brent's method in p on the
    # whole bracket found, frozen here as an oracle; the bracket search in
    # log(p - 1) agrees with it to the radii's own noise
    for gamma, p_ref in ((5.0, 175.9893336468279), (10.0, 175.98933365752626)):
        p_found = branch_sample(2, 1.0, 12, gamma, (150.0, 250.0))
        assert p_found == pytest.approx(p_ref, rel=1e-11)
        shot = shoot(gamma, ProblemParams(12, p_found, R=1.0), r_end=2.0)
        assert abs(shot.critical_radii[1] - 1.0) < 1e-8


def test_branch_sample_requires_sign_change():
    # the second critical radius of the gamma = 5 shot is still above R at
    # the cap 160, and already below it at the lower end 200
    for bracket in ((150.0, 160.0), (200.0, 250.0)):
        with pytest.raises(BracketError):
            branch_sample(2, 1.0, 12, 5.0, bracket)


def test_branch_sample_validation(monkeypatch):
    # a reversed bracket or an upper end that is not finite is rejected
    # before the first shot
    def no_shot(*args):
        raise AssertionError("shot")

    monkeypatch.setattr(shooting, "_critical_radius_of_shot", no_shot)
    with pytest.raises(ParameterError):
        branch_sample(0, 1.0, 12, 5.0, (150.0, 250.0))
    for bracket in ((250.0, 150.0), (150.0, math.inf)):
        with pytest.raises(ParameterError):
            branch_sample(2, 1.0, 12, 5.0, bracket)


def test_branch_sample_shoots_each_power_once(monkeypatch):
    # the lower end and the root are reused, not re-shot; the search starts
    # at the lower end and never shoots above the upper one
    powers = []

    def counted(gamma, params, *args):
        powers.append(params.p)
        return _critical_radius_of_shot(gamma, params, *args)

    monkeypatch.setattr(shooting, "_critical_radius_of_shot", counted)
    p_found = branch_sample(1, 1.0, 5, 2.0, (5.0, 40.0))
    assert 5.0 < p_found < 40.0
    assert len(powers) == len(set(powers))
    assert {5.0, p_found} <= set(powers)
    assert max(powers) <= 40.0
    # Brent's method on the whole bracket in p took 11 shots
    assert len(powers) <= 7
