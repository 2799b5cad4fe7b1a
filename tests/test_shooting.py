import math

import numpy as np
import pytest
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
from lntlab.shooting import _critical_radius_of_shot

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
    # one diagram sample: the second critical radius of the gamma = 5 shot
    # hits R = 1 at a power inside the bracket
    p_found = branch_sample(2, 1.0, 12, 5.0, (150.0, 250.0))
    assert 150.0 < p_found < 250.0
    shot = shoot(5.0, ProblemParams(12, p_found, R=1.0), r_end=2.0)
    assert abs(shot.critical_radii[1] - 1.0) < 1e-8


def test_branch_sample_requires_sign_change():
    with pytest.raises(BracketError):
        branch_sample(2, 1.0, 12, 5.0, (150.0, 160.0))


def test_branch_sample_validation():
    with pytest.raises(ParameterError):
        branch_sample(0, 1.0, 12, 5.0, (150.0, 250.0))
    with pytest.raises(ParameterError):
        branch_sample(2, 1.0, 12, 5.0, (250.0, 150.0))


def test_branch_sample_shoots_each_power_once(monkeypatch):
    # the bracket ends and the root are reused, not re-shot
    powers = []

    def counted(gamma, params, *args):
        powers.append(params.p)
        return _critical_radius_of_shot(gamma, params, *args)

    monkeypatch.setattr(shooting, "_critical_radius_of_shot", counted)
    p_found = branch_sample(1, 1.0, 5, 2.0, (5.0, 40.0))
    assert 5.0 < p_found < 40.0
    assert len(powers) == len(set(powers))
    assert {5.0, 40.0, p_found} <= set(powers)
