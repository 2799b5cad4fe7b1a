import math

import numpy as np
import pytest

from lntlab import (
    FeasibilityError,
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


def test_problem_params_dimension_types():
    # any integral type is a dimension, numpy's included; a float is not
    params = ProblemParams(np.int64(5), 20.0)
    assert params.N == 5 and derive_constants(params) == derive_constants(ProblemParams(5, 20.0))
    with pytest.raises(ParameterError, match="integer"):
        ProblemParams(5.0, 20.0)


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
    vals = np.asarray([phi_nonlinearity(e, 4.7) for e in eta])
    assert np.all(vals < 0.0)


def test_phi_over_eta_squared_decreasing():
    eta = np.geomspace(1e-4, 10.0, 200)
    ratio = np.asarray([phi_nonlinearity(e, 6.0) for e in eta]) / eta**2
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


def test_envelope_amplitude_identity():
    # Dp is the amplitude at which the envelope Dp exp(-2 m zeta) solves the
    # linearization at the power law: Dp (4 m**2 + 2 alpha m + p - 1) = m**2
    for N, p in [(5, 20.0), (12, 7.0)]:
        c = derive_constants(ProblemParams(N, p))
        assert c.Dp * (4 * c.m**2 + 2 * c.alpha * c.m + (p - 1)) == pytest.approx(
            c.m**2, rel=1e-14
        )


def test_f_envelope_at_window_edge():
    # the envelope Dp r**2 at the window edge is the value compute_PN takes
    # there
    params = ProblemParams(5, 50.0)
    c = derive_constants(params)
    lem = lemma_constants(c)
    want = c.Dp * lem.ctilde**2 / params.p
    assert c.Dp * lem.rtilde_p**2 == pytest.approx(want, rel=1e-12)


def test_lemma_constants_at_critical_exponent():
    # ProblemParams admits the critical exponent itself, and below N = 10
    # the search at that power finds an admissible ctilde
    for N in (3, 4, 5):
        p = critical_exponent(N)
        lem = lemma_constants(derive_constants(ProblemParams(N, p)))
        assert lem.p == p
        assert lem.PN < lem.PN_threshold


def test_compute_PN_threshold_below_half():
    for N, p in [(5, 50.0), (12, 50.0), (10, 30.0), (3, 100.0)]:
        c = derive_constants(ProblemParams(N, p))
        pn, threshold = compute_PN(c, 0.25)
        assert threshold <= 0.5
        assert pn > 0.0


def test_compute_PN_superlinear_in_ctilde():
    c = derive_constants(ProblemParams(5, 50.0))
    pn_full, _ = compute_PN(c, 0.5)
    pn_half, _ = compute_PN(c, 0.25)
    assert pn_half < pn_full / 2.0


def test_compute_PN_margin_positive_at_instance():
    c = derive_constants(ProblemParams(5, 50.0))
    ct = choose_ctilde(c)
    pn, threshold = compute_PN(c, ct)
    assert pn < threshold
    assert threshold - pn > 0.01  # recorded margin is far from tight
    # the lemma records the margin of its own search
    lem = lemma_constants(c)
    assert (lem.ctilde, lem.PN, lem.PN_threshold) == (ct, pn, threshold)


def test_compute_PN_rejects_bad_ctilde():
    c = derive_constants(ProblemParams(5, 50.0))
    with pytest.raises(ParameterError):
        compute_PN(c, 1.5)
    with pytest.raises(ParameterError):
        compute_PN(c, 0.0)


def test_choose_ctilde_contract():
    # the largest grid value admissible at the instance's own power: it is
    # admissible there, and the grid value above it is not
    grid = [2.0**-k for k in range(1, 21)]
    for N, p in [(5, 20.0), (10, 3.5e5), (10, 1e7), (18, 1.2500013)]:
        c = derive_constants(ProblemParams(N, p))
        ct = choose_ctilde(c)
        assert ct in grid
        pn, threshold = compute_PN(c, ct)
        assert pn < threshold
        if ct < 0.5:
            pn, threshold = compute_PN(c, 2.0 * ct)
            assert not pn < threshold


# (N, p, ctilde) of the search over the power range (min(p, 10), max(p, 1e4))
# that choose_ctilde replaced; None where that search found no admissible
# ctilde. The search at the power itself must reproduce every entry.
RANGE_SEARCH_CTILDE = [
    (3, 5.0, 0.5),
    (3, 1e7, 0.5),
    (4, 3.0, 0.5),
    (5, 7.0 / 3.0, 0.5),
    (5, 6.0, 0.5),
    (5, 20.0, 0.5),
    (5, 1e4, 0.5),
    (5, 1e7, 0.5),
    (9, 1e7, 0.5),
    (10, 1.5, 0.5),
    (10, 1e4, 0.5),
    (10, 2.5e5, 0.25),
    (10, 3.5e5, 0.25),
    (10, 1e6, 0.25),
    (10, 1e7, 0.125),
    (12, 5.0, 0.5),
    (12, 1e7, 0.5),
    (18, 1.25, None),
    (18, 1.2500013, 2.0**-6),
    (18, 1.250013, 2.0**-5),
    (18, 1.25013, 2.0**-3),
    (18, 1.2513, 0.5),
    (18, 1e7, 0.5),
    (20, 1.2223, None),
    (20, 1.2224, None),
    (20, 1.3, 0.5),
    (30, 1.15, None),
    (30, 1.16, 0.5),
    (30, 1e7, 0.5),
    (40, 1.2, 0.5),
]


@pytest.mark.parametrize("N, p, want", RANGE_SEARCH_CTILDE)
def test_choose_ctilde_matches_range_search(N, p, want):
    c = derive_constants(ProblemParams(N, p))
    if want is None:
        with pytest.raises(FeasibilityError, match="no admissible"):
            choose_ctilde(c)
    else:
        assert choose_ctilde(c) == want


def test_choose_ctilde_rejects_subcritical_range():
    # a power below the critical exponent never reaches the search, and one
    # at it is infeasible from N = 10 on
    with pytest.raises(ParameterError):
        choose_ctilde(derive_constants(ProblemParams(5, 1.0)))
    with pytest.raises(FeasibilityError, match="no admissible"):
        choose_ctilde(derive_constants(ProblemParams(18, critical_exponent(18))))


def test_lemma_constants_relations():
    lem = lemma_constants(derive_constants(ProblemParams(5, 50.0)))
    assert lem.rtilde_p == pytest.approx(lem.ctilde / math.sqrt(50.0), rel=1e-15)
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
