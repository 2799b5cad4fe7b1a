import math

import numpy as np
import pytest

from lntlab import (
    ParameterError,
    ProblemParams,
    Regime,
    asymptotic_limits,
    choose_ctilde,
    compute_PN,
    critical_exponent,
    derive_constants,
    joseph_lundgren,
    lemma_constants,
    phi_nonlinearity,
)


def test_critical_exponent_values():
    assert critical_exponent(3) == 5.0
    assert critical_exponent(4) == 3.0
    assert critical_exponent(6) == 2.0


def test_critical_exponent_rejects_low_dimension():
    with pytest.raises(ParameterError):
        critical_exponent(2)
    with pytest.raises(ParameterError):
        joseph_lundgren(1)


def test_joseph_lundgren_sentinel_and_values():
    for N in range(3, 11):
        assert math.isinf(joseph_lundgren(N))
    # closed form at N >= 11
    assert joseph_lundgren(11) == pytest.approx(1.0 + 4.0 / (7.0 - 2.0 * math.sqrt(10.0)), rel=1e-15)
    assert joseph_lundgren(12) == pytest.approx(3.9266499161, abs=1e-9)
    # the sentinel orders correctly against any float
    assert 1e300 < joseph_lundgren(5)


def test_problem_params_validation():
    with pytest.raises(ParameterError):
        ProblemParams(2, 10.0)
    with pytest.raises(ParameterError):
        ProblemParams(5, 2.0)  # below (N+2)/(N-2) = 7/3
    with pytest.raises(ParameterError):
        ProblemParams(5, 10.0, R=0.0)
    # boundary power is admitted: every closed form is finite there
    ProblemParams(4, 3.0)
    ProblemParams(5, 10.0, R=2.0)


def test_derive_constants_boundary_example():
    # alpha = 0 instance where everything is hand-checkable
    c = derive_constants(ProblemParams(4, 3.0))
    assert c.theta == pytest.approx(1.0, abs=1e-15)
    assert c.A == pytest.approx(1.0, abs=1e-15)
    assert c.m == pytest.approx(1.0, abs=1e-15)
    assert c.alpha == pytest.approx(0.0, abs=1e-15)
    assert c.beta == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c.Dp == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert c.regime is Regime.OSCILLATORY


def test_derive_constants_high_dimension_example():
    c = derive_constants(ProblemParams(12, 5.0))
    assert c.theta == pytest.approx(0.5, abs=1e-15)
    assert c.alpha == pytest.approx(4.1295, abs=1e-4)
    assert (c.alpha / 2.0) ** 2 > c.p - 1.0
    assert c.regime is Regime.NON_OSCILLATORY


def test_regime_split_at_large_power():
    # low dimensions oscillate for large p, high dimensions do not
    for N in (3, 5, 10):
        assert derive_constants(ProblemParams(N, 1e3)).regime is Regime.OSCILLATORY
    for N in (11, 12, 20):
        assert derive_constants(ProblemParams(N, 1e3)).regime is Regime.NON_OSCILLATORY


def test_profile_identity_random_instances():
    # A**(p-1) * m**2 == 1 is an exact algebraic identity
    rng = np.random.default_rng(7)
    for _ in range(1000):
        N = int(rng.integers(3, 31))
        p = critical_exponent(N) + 10.0 ** rng.uniform(-2, 3)
        c = derive_constants(ProblemParams(N, p))
        assert abs(c.A ** (p - 1.0) * c.m * c.m - 1.0) < 1e-12
        assert 0.0 < c.Dp < 0.25
        assert c.alpha > 0.0
        disc = (p - 1.0) - (c.alpha / 2.0) ** 2
        expected = (
            Regime.OSCILLATORY if disc > 0
            else Regime.NON_OSCILLATORY if disc < 0
            else Regime.DEGENERATE
        )
        assert c.regime is expected


def test_asymptotic_limit_values():
    assert asymptotic_limits(5).Dp == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert asymptotic_limits(10).alpha_over_sqrt_p == pytest.approx(2.0, rel=1e-15)
    assert asymptotic_limits(7).p_theta == 2.0


def test_asymptotic_limits_match_constants_at_huge_power():
    for N in range(3, 21):
        lim = asymptotic_limits(N)
        c = derive_constants(ProblemParams(N, 1e6))
        sq = math.sqrt(1e6)
        for got, want in [
            (c.beta / sq, lim.beta_over_sqrt_p),
            (1e6 * c.theta, lim.p_theta),
            (c.A, lim.A),
            (c.alpha / sq, lim.alpha_over_sqrt_p),
            (c.m / sq, lim.m_over_sqrt_p),
            (c.Dp, lim.Dp),
        ]:
            assert abs(got - want) <= 1e-3 * (1.0 + abs(want))


def test_beta_dimension10_closed_form_matches_generic():
    # at N = 10 the generic formula simplifies algebraically
    for p in (2.0, 5.0, 50.0, 1e4):
        c = derive_constants(ProblemParams(10, p))
        want = math.sqrt((3.0 * (p - 1.0) - 1.0) / (4.0 * (p - 1.0) - 1.0))
        assert c.beta == pytest.approx(want, rel=1e-10)


def test_phi_zero_at_origin_and_hand_value():
    assert phi_nonlinearity(0.0, 7.3) == 0.0
    # -(3 eta**2 + eta**3) at eta = 0.1
    assert phi_nonlinearity(0.1, 3.0) == pytest.approx(-0.031, abs=1e-12)


def test_phi_negative_away_from_origin():
    rng = np.random.default_rng(11)
    eta = np.concatenate([rng.uniform(-0.99, -1e-3, 200), rng.uniform(1e-3, 5.0, 200)])
    vals = phi_nonlinearity(eta, 4.7)
    assert np.all(vals < 0.0)


def test_phi_over_eta_squared_decreasing():
    eta = np.geomspace(1e-4, 10.0, 200)
    ratio = phi_nonlinearity(eta, 6.0) / eta**2
    assert np.all(np.diff(ratio) < 0.0)


def test_phi_small_argument_envelope():
    # (1 + k/p)**p increases to e**k, so |phi(k/p)| <= e**k - k - 1
    for k in (0.1, 0.5, 1.0):
        cap = math.exp(k) - k - 1.0
        for p in (5.0, 50.0, 500.0, 5e3):
            assert abs(phi_nonlinearity(k / p, p)) <= cap * (1.0 + 1e-12)


def test_phi_rejects_nonpositive_base():
    with pytest.raises(ParameterError):
        phi_nonlinearity(-1.0, 3.0)


def test_f_envelope_at_window_edge():
    # the envelope Dp exp(-2 m zeta) at the window edge is the value
    # compute_PN takes there
    params = ProblemParams(5, 50.0)
    c = derive_constants(params)
    lem = lemma_constants(params)
    want = c.Dp * lem.ctilde**2 / params.p
    assert c.Dp * math.exp(-2.0 * c.m * lem.zetatilde_p) == pytest.approx(want, rel=1e-12)


def test_lemma_constants_at_critical_exponent():
    # the log-spaced power samples must not round the critical exponent below
    # itself, which ProblemParams admits
    for N in (3, 4, 5):
        p = critical_exponent(N)
        lem = lemma_constants(ProblemParams(N, p))
        assert lem.p == p
        assert lem.PN < lem.PN_threshold


def test_compute_PN_threshold_below_half():
    for N, p in [(5, 50.0), (12, 50.0), (10, 30.0), (3, 100.0)]:
        c = derive_constants(ProblemParams(N, p))
        pn, threshold = compute_PN(c, 0.25, p)
        assert threshold <= 0.5
        assert pn > 0.0


def test_compute_PN_superlinear_in_ctilde():
    c = derive_constants(ProblemParams(5, 50.0))
    pn_full, _ = compute_PN(c, 0.5, 50.0)
    pn_half, _ = compute_PN(c, 0.25, 50.0)
    assert pn_half < pn_full / 2.0


def test_compute_PN_margin_positive_at_instance():
    params = ProblemParams(5, 50.0)
    c = derive_constants(params)
    ct = choose_ctilde(5, (50.0, 1e4))
    pn, threshold = compute_PN(c, ct, 50.0)
    assert pn < threshold
    assert threshold - pn > 0.01  # recorded margin is far from tight


def test_compute_PN_rejects_bad_ctilde():
    c = derive_constants(ProblemParams(5, 50.0))
    with pytest.raises(ParameterError):
        compute_PN(c, 1.5, 50.0)
    with pytest.raises(ParameterError):
        compute_PN(c, 0.0, 50.0)


def test_choose_ctilde_contract():
    ct = choose_ctilde(5, (20.0, 1e4))
    assert 0.0 < ct < 1.0
    assert ct == 0.5  # regression: largest grid point is admissible here
    # the chosen constant is admissible with a margin at every sampled power
    for p in np.geomspace(20.0, 1e4, 32):
        pn, threshold = compute_PN(derive_constants(ProblemParams(5, float(p))), ct, float(p))
        assert threshold - pn > 0.0
    # shrinking the lower endpoint never increases the constant
    assert choose_ctilde(5, (6.0, 1e4)) <= ct
    # the cached search returns the same constant
    assert choose_ctilde(5, (20.0, 1e4)) == ct


def test_choose_ctilde_rejects_subcritical_range():
    with pytest.raises(ParameterError):
        choose_ctilde(5, (1.0, 100.0))


def test_lemma_constants_relations():
    params = ProblemParams(5, 50.0)
    c = derive_constants(params)
    lem = lemma_constants(params)
    assert lem.rtilde_p == pytest.approx(lem.ctilde / math.sqrt(50.0), rel=1e-15)
    assert lem.rtilde_p == pytest.approx(math.exp(-c.m * lem.zetatilde_p), rel=1e-12)
    assert lem.PN < lem.PN_threshold


def test_constants_json_round_trip():
    c = derive_constants(ProblemParams(5, 20.0))
    d = c.as_dict()
    for key in ("theta", "A", "m", "alpha", "beta", "Dp", "pS", "pJL", "regime"):
        assert key in d
    assert d["pJL"] == "inf"
    assert d["regime"] == "OSCILLATORY"
    d11 = derive_constants(ProblemParams(11, 10.0)).as_dict()
    assert isinstance(d11["pJL"], float)


@pytest.mark.parametrize("p, R", [(math.inf, None), (math.nan, None),
                                  (20.0, math.inf), (20.0, math.nan)])
def test_problem_params_rejects_non_finite(p, R):
    with pytest.raises(ParameterError):
        ProblemParams(5, p, R=R)
