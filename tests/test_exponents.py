import numpy as np
import pytest

from lntlab import (
    BracketError,
    ParameterError,
    ProblemParams,
    critical_radius,
    find_exponent,
    find_istar,
)
from lntlab import exponents
from lntlab.exponents import continuity_scan

# regression fixture: power with first critical radius at R = 1 (N = 5)
REF_P1_5 = 22.78759155
# powers with i-th critical radius at R = 1 (N = 5, p_lo = 6, default
# tolerances), found by plain bisection to a relative bracket width of 5e-12
REF_P_5 = {1: 22.78759155284206, 2: 67.573840613215,
           3: 130.9975275202305, 4: 214.40357669850346}


def test_find_istar_fixture_and_monotonicity():
    assert find_istar(5, 6.0, 1.0) == 1
    r1 = critical_radius(ProblemParams(5, 6.0), 1)
    r2 = critical_radius(ProblemParams(5, 6.0), 2)
    assert r1 > 1.0  # consistent with istar = 1 at R = 1
    # smallest index above R steps up once R passes each critical radius
    assert find_istar(5, 6.0, 0.5 * r1) == 1
    assert find_istar(5, 6.0, 0.5 * (r1 + r2)) == 2


def test_find_exponent_first_index():
    sol = find_exponent(1, 1.0, 5, p_lo=6.0)
    assert sol.p_i == pytest.approx(REF_P1_5, rel=1e-6)
    assert sol.residual < 1e-6
    assert sol.crossings == 1
    # the endpoint signs of the accepted bracket
    assert critical_radius(ProblemParams(5, 6.0), 1) > 1.0
    assert critical_radius(ProblemParams(5, 2.0 * sol.p_i), 1) < 1.0


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_find_exponent_reference_powers_and_evaluations(i, monkeypatch):
    calls = []
    helper = exponents._critical_radius_and_crossings

    def counted(*args):
        calls.append(args)
        return helper(*args)

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", counted)
    sol = find_exponent(i, 1.0, 5, p_lo=6.0)
    assert sol.p_i == pytest.approx(REF_P_5[i], rel=1e-10)
    assert len(calls) <= 20


def test_find_exponent_rejects_index_below_istar():
    # at p_lo = 6 the first critical radius is about 1.9, so R = 2.5 needs i >= 2
    with pytest.raises(ParameterError):
        find_exponent(1, 2.5, 5, p_lo=6.0)


def test_find_exponent_bracket_cap():
    with pytest.raises(BracketError):
        find_exponent(1, 0.05, 5, p_lo=6.0, p_cap=20.0)


def test_find_exponent_validation():
    with pytest.raises(ParameterError):
        find_exponent(0, 1.0, 5, p_lo=6.0)
    with pytest.raises(ParameterError):
        find_exponent(1, 1.0, 5, p_lo=1.0)


def test_continuity_scan_small_grid():
    rep = continuity_scan(1, 5, np.linspace(15.0, 30.0, 6))
    assert rep.passed
    assert 1.0 / 3.0 <= rep.ratio <= 2.0 / 3.0
    assert rep.refined_grid.size == 11
    # refined grid interleaves the coarse one
    assert np.all(np.diff(rep.refined_grid) > 0)


def test_continuity_scan_constant_grid_degenerate():
    rep = continuity_scan(1, 5, [20.0, 20.0, 20.0])
    assert rep.modulus_coarse == 0.0
    assert rep.modulus_fine == 0.0
    assert rep.passed


def test_continuity_scan_validation():
    with pytest.raises(ParameterError):
        continuity_scan(1, 5, [10.0, 20.0])
    with pytest.raises(ParameterError):
        continuity_scan(1, 5, [1.0, 10.0, 20.0])


def test_find_exponent_solves_each_power_once(monkeypatch):
    # the bracket ends and the root are reused, not re-solved
    keys = []
    helper = exponents._critical_radius_and_crossings

    def counted(params, i, rtol, atol):
        keys.append((params.p, rtol, atol))
        return helper(params, i, rtol, atol)

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", counted)
    sol = find_exponent(1, 1.0, 5, p_lo=6.0)
    assert sol.p_i == pytest.approx(REF_P_5[1], rel=1e-10)
    assert len(keys) == len(set(keys))
    assert (sol.p_i, 1e-10, 1e-12) in keys
