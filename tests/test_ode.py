import math

import numpy as np
import pytest

from lntlab import (
    CoverageError,
    EtaState,
    ParameterError,
    PointKind,
    PositivityError,
    ProblemParams,
    RadialState,
    energy_rate_deviation,
    integrate_adaptive,
    integrate_eta_difference,
    rhs_eta,
    rhs_eta_difference,
    transform_u_to_eta,
)
from lntlab.ode import _vector_field, energy_values
from lntlab.params import derive_constants, lemma_constants


def test_vector_field_equilibrium_and_hand_value():
    du, ddu = _vector_field(ProblemParams(3, 5.5))(2.0, (1.0, 0.0))
    assert du == 0.0 and ddu == 0.0
    du, ddu = _vector_field(ProblemParams(3, 5.0))(1.0, (2.0, -1.0))
    assert du == -1.0
    assert ddu == pytest.approx(-28.0, rel=1e-14)


def _alpha_zero_constants():
    return derive_constants(ProblemParams(4, 3.0))


def test_rhs_eta_hand_value():
    c = _alpha_zero_constants()
    deta, ddeta = rhs_eta(EtaState(0.0, 0.1, 0.0), c, 3.0)
    assert deta == 0.0
    assert ddeta == pytest.approx(0.869, abs=1e-12)


def test_rhs_eta_envelope_solves_linearization():
    # eta = f(zeta), eta' = -2 m f solves the linearized equation by the
    # construction of the envelope amplitude
    for N, p in [(5, 20.0), (12, 7.0)]:
        c = derive_constants(ProblemParams(N, p))
        assert c.Dp * (4 * c.m**2 + 2 * c.alpha * c.m + (p - 1)) == pytest.approx(
            c.m**2, rel=1e-14
        )
        zeta = 1.7
        f = c.Dp * math.exp(-2.0 * c.m * zeta)
        _, ddeta = rhs_eta(EtaState(zeta, f, -2.0 * c.m * f), c, p)
        from lntlab.params import phi_nonlinearity

        extra = phi_nonlinearity(f, p) + c.m**2 * math.exp(-2 * c.m * zeta) * f
        assert ddeta - extra == pytest.approx(4.0 * c.m**2 * f, rel=1e-11)


def test_rhs_eta_difference_matches_subtraction():
    # for an O(1) difference the field is the difference of two rhs_eta calls;
    # for a tiny one it is the linearization, which subtraction cannot resolve
    c = derive_constants(ProblemParams(5, 20.0))
    ref = EtaState(2.0, 0.3, -0.2)
    for d, dd in [(0.4, 0.1), (-0.5, 0.7)]:
        _, want = rhs_eta(EtaState(2.0, 0.3 + d, -0.2 + dd), c, 20.0)
        _, base = rhs_eta(ref, c, 20.0)
        _, got = rhs_eta_difference(ref, d, dd, c, 20.0)
        assert got == pytest.approx(want - base, rel=1e-12)
    d = 1e-200
    _, got = rhs_eta_difference(ref, d, 0.0, c, 20.0)
    lin = d - 20.0 * 1.3**19 * d + c.m**2 * math.exp(-4.0 * c.m) * d
    assert got == pytest.approx(lin, rel=1e-12)


def test_eta_state_rejects_nonpositive_base():
    with pytest.raises(PositivityError):
        EtaState(0.0, -1.0, 0.0)


def test_energy_equilibrium_values():
    assert energy_values(1.0, 0.0, 3.0) == pytest.approx(-0.25, rel=1e-15)
    for p in (2.5, 7.0, 30.0):
        want = -0.5 + 1.0 / (p + 1.0)
        assert energy_values(1.0, 0.0, p) == pytest.approx(want, rel=1e-14)


def _eta_to_u(st: EtaState, c) -> RadialState:
    """The closed form u = A r**(-theta) (1 + eta), r = exp(-m zeta), and its
    derivative in r."""
    r = math.exp(-c.m * st.zeta)
    u = c.A * r**-c.theta * (1.0 + st.eta)
    du = c.A * r ** (-c.theta - 1.0) * (-c.theta * (1.0 + st.eta) - st.deta / c.m)
    return RadialState(r, u, du)


def test_transform_power_law_and_hand_value():
    c = _alpha_zero_constants()
    st = transform_u_to_eta(RadialState(1.0, 1.1, -1.1), c)
    assert (st.zeta, st.eta, st.deta) == pytest.approx((0.0, 0.1, 0.0), abs=1e-14)
    # the pure power law is eta = 0
    r = math.exp(-1.3)
    st0 = transform_u_to_eta(RadialState(r, c.A * r**-c.theta, -c.theta * c.A * r ** (-c.theta - 1.0)), c)
    assert st0.zeta == pytest.approx(1.3, rel=1e-14)
    assert (st0.eta, st0.deta) == pytest.approx((0.0, 0.0), abs=1e-13)


def test_transform_round_trip():
    rng = np.random.default_rng(3)
    c = derive_constants(ProblemParams(7, 9.0))
    for _ in range(50):
        st = EtaState(rng.uniform(-1, 4), rng.uniform(-0.5, 2.0), rng.uniform(-3, 3))
        back = transform_u_to_eta(_eta_to_u(st, c), c)
        assert back.zeta == pytest.approx(st.zeta, rel=1e-12, abs=1e-12)
        assert back.eta == pytest.approx(st.eta, rel=1e-10, abs=1e-12)
        assert back.deta == pytest.approx(st.deta, rel=1e-10, abs=1e-10)


def test_integrate_equilibrium_stays_constant():
    params = ProblemParams(5, 20.0)
    traj = integrate_adaptive(params, RadialState(0.1, 1.0, 0.0), 3.0)
    assert traj.unit_crossings.size == 0
    assert traj.critical_points.size == 0
    assert np.all(traj.u == 1.0)
    u, du = traj.sample([0.5, 2.0])
    assert np.all(u == 1.0) and np.all(du == 0.0)


def test_integrate_tolerance_convergence():
    # global error tracks the requested tolerance against a tight reference
    params = ProblemParams(5, 20.0)
    start = RadialState(0.5, 1.3, 0.0)
    ref = integrate_adaptive(params, start, 3.0, rtol=1e-13, atol=1e-15)
    u_ref = ref.sample(3.0)[0][0]
    errs = {}
    for rt in (1e-6, 1e-8, 1e-10):
        tr = integrate_adaptive(params, start, 3.0, rtol=rt, atol=rt * 1e-2)
        errs[rt] = abs(tr.sample(3.0)[0][0] - u_ref)
    assert errs[1e-8] < errs[1e-6]
    assert errs[1e-10] < errs[1e-8]
    # two orders of tolerance buy at least one order of error
    assert errs[1e-8] <= errs[1e-6] / 10.0
    assert errs[1e-10] <= errs[1e-8] / 10.0


def test_events_ordered_and_interlaced(sing_5_20):
    traj = sing_5_20.trajectory
    assert np.all(np.diff(traj.r) > 0)
    assert np.all(np.diff(traj.unit_crossings) > 0)
    assert np.all(np.diff(traj.critical_points) > 0)
    # each unit crossing separates two critical points on the oscillating tail
    for lo, hi in zip(traj.critical_points[:-1], traj.critical_points[1:]):
        inside = traj.unit_crossings[(traj.unit_crossings > lo) & (traj.unit_crossings < hi)]
        assert inside.size == 1
    # Rolle: between consecutive crossings there is a critical point
    for lo, hi in zip(traj.unit_crossings[:-1], traj.unit_crossings[1:]):
        inside = traj.critical_points[(traj.critical_points > lo) & (traj.critical_points < hi)]
        assert inside.size >= 1


def test_event_function_residuals(sing_5_20):
    traj = sing_5_20.trajectory
    u, _ = traj.sample(traj.unit_crossings)
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
    assert np.all(traj.u > 0.0)
    assert traj.r_end < 3.0


def test_stop_at_critical_validation():
    start = RadialState(0.5, 1.5, -1.0)
    for index in (0, -1):
        with pytest.raises(ParameterError):
            integrate_adaptive(ProblemParams(5, 20.0), start, 3.0, stop_at_critical=index)


def test_trajectory_serialization(tmp_path, sing_5_20):
    traj = sing_5_20.trajectory
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    traj.to_csv(csv_a)
    traj.to_csv(csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header, first = csv_a.read_text().splitlines()[:2]
    assert header == "r,u,du,E"
    assert len(first.split(",")) == 4

    blob = traj.to_json_dict(max_rows=500)
    assert blob["schema"] == "trajectory-v1"
    assert len(blob["r"]) <= 500
    assert blob["critical_kinds"][0] == "min"
    assert blob["params"]["N"] == 5


def test_trajectory_thinning_cap(sing_5_20):
    traj = sing_5_20.trajectory
    idx = traj.thinned_indices(100)
    assert idx.size <= 100
    assert idx[0] == 0 and idx[-1] == traj.r.size - 1


def test_sample_outside_coverage_raises(sing_5_20):
    with pytest.raises(CoverageError):
        sing_5_20.trajectory.sample(1e-9)
    with pytest.raises(CoverageError):
        sing_5_20.trajectory.sample(100.0)


def test_integrate_rejects_backward_span():
    params = ProblemParams(5, 20.0)
    with pytest.raises(ParameterError):
        integrate_adaptive(params, RadialState(1.0, 2.0, 0.0), 0.5)


@pytest.mark.parametrize("r_end", [math.inf, math.nan])
def test_integrate_rejects_non_finite_end(r_end):
    with pytest.raises(ParameterError):
        integrate_adaptive(ProblemParams(5, 20.0), RadialState(1.0, 2.0, 0.0), r_end)


def test_eta_integration_matches_radial():
    # the reference track of the log-radius difference integration, mapped
    # back through u = A r**(-theta) (1 + eta), agrees with the direct radial
    # integration on the overlap
    params = ProblemParams(5, 20.0)
    c = derive_constants(params)
    lem = lemma_constants(params)
    r0 = lem.rtilde_p / 16.0
    r1 = 4.0 * lem.rtilde_p
    z0 = -math.log(r0) / c.m
    z1 = -math.log(r1) / c.m
    f0 = c.Dp * math.exp(-2.0 * c.m * z0)
    start = EtaState(z0, f0, -2.0 * c.m * f0)
    # the difference's error is controlled relative to itself, so neither of
    # its components may start at zero; a small envelope-shaped one serves
    path = integrate_eta_difference(c, params.p, start, (1e-3 * f0, -2e-3 * c.m * f0), z1)
    assert path.status == "ok"
    direct = integrate_adaptive(params, _eta_to_u(start, c), r1)
    zz = np.linspace(z0, z1, 200)
    eta, _ = path.sample(zz)
    r = np.exp(-c.m * zz)
    u_eta = c.A * r**-c.theta * (1.0 + eta)
    u_direct = direct.sample(r)[0]
    assert np.max(np.abs(u_eta - u_direct) / np.abs(u_direct)) < 1e-8


@pytest.mark.parametrize("delta", [(1e-3, 0.0), (0.0, 1e-3)])
def test_eta_difference_from_zero_component(delta):
    # a difference with a zero component (zero value, zero atol) starts and
    # matches the difference of two radial integrations mapped to eta
    params = ProblemParams(5, 20.0)
    c = derive_constants(params)
    lem = lemma_constants(params)
    z0 = -math.log(lem.rtilde_p / 16.0) / c.m
    r1 = 4.0 * lem.rtilde_p
    z1 = -math.log(r1) / c.m
    f0 = c.Dp * math.exp(-2.0 * c.m * z0)
    start = EtaState(z0, f0, -2.0 * c.m * f0)
    path = integrate_eta_difference(c, params.p, start, delta, z1)
    assert path.status == "ok"
    moved = EtaState(z0, start.eta + delta[0], start.deta + delta[1])
    eta_end = [integrate_adaptive(params, _eta_to_u(st, c), r1).u[-1] * r1**c.theta / c.A - 1.0
               for st in (start, moved)]
    assert path.sample([z1])[1][0] == pytest.approx(eta_end[1] - eta_end[0], rel=1e-6)


def test_half_density_form_residual(sing_5_20):
    # w = r**((N-1)/2) (u - 1) satisfies the half-density equation; the
    # discrete second difference shows the O(h**2) truncation error
    params = sing_5_20.params
    nu = (params.N - 1) / 2.0

    def residual(n):
        grid = np.linspace(0.3, 2.5, n)
        h = grid[1] - grid[0]
        u, _ = sing_5_20.sample(grid)
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
