import math

import numpy as np
import pytest

from lntlab import (
    BracketError,
    EventError,
    ParameterError,
    ProblemParams,
    find_exponent,
    find_istar,
    solve_with_criticals,
)
from lntlab import _dop853, exponents, singular
from lntlab.exponents import continuity_scan

# regression fixture: power with first critical radius at R = 1 (N = 5)
REF_P1_5 = 22.78759155
# powers with i-th critical radius at R = 1 (N = 5, p_lo = 6, default
# tolerances), found by plain bisection to a relative bracket width of 5e-12
REF_P_5 = {1: 22.787591553377524, 2: 67.57384062195433,
           3: 130.99752751122105, 4: 214.40357656278866}


def test_find_istar_fixture_and_monotonicity():
    assert find_istar(5, 6.0, 1.0) == 1
    r1, r2 = solve_with_criticals(ProblemParams(5, 6.0), 2).critical_radii.radii
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
    assert solve_with_criticals(ProblemParams(5, 6.0), 1).critical_radii[0] > 1.0
    assert solve_with_criticals(ProblemParams(5, 2.0 * sol.p_i), 1).critical_radii[0] < 1.0


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
    # the slope -1/2 step and one secant step close the bracket
    assert len(calls) <= 8
    assert sol.solves == len(calls)
    lo, hi = sol.bracket
    assert lo <= sol.p_i <= hi


@pytest.mark.parametrize("k", [0.3, 0.8])
@pytest.mark.parametrize("p_root", [7.0, 50.0, 5000.0])
def test_find_exponent_off_law_radii(k, p_root, monkeypatch):
    # radii c (p - 1)^(-k): the slope -1/2 step falls short of the root for
    # k = 0.3 and overshoots it for k = 0.8; the secant repairs either
    powers = []
    c = (p_root - 1.0) ** k

    def law(params, i, rtol, atol):
        powers.append(params.p)
        return c * (params.p - 1.0) ** -k, i

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", law)
    sol = find_exponent(1, 1.0, 5, p_lo=6.0)
    assert sol.p_i == pytest.approx(p_root, rel=1e-10)
    lo, hi = sol.bracket
    assert lo <= p_root <= hi
    assert len(powers) <= 6
    # p_lo itself is the only power reused from outside: log(p_lo - 1) maps
    # back to 5.999999999999999, which must not be solved
    assert min(powers) == 6.0
    assert max(powers) <= exponents.P_CAP_DEFAULT


def test_find_exponent_flat_stretch(monkeypatch):
    # log(R_p / R) stays at 1e-7 up to p = 1000 and falls with slope -1/2
    # in log(p - 1) beyond: steps of the size f suggests would need some
    # 1e7 solves to get there; doubling steps need about 25, and Brent's
    # method about 40 more on the kink next to the root
    powers = []
    x_knee = math.log(999.0)

    def flat(params, i, rtol, atol):
        powers.append(params.p)
        if len(powers) > 200:
            raise RuntimeError("the bracket search does not progress")
        x = math.log(params.p - 1.0)
        return math.exp(1e-7 - 0.5 * max(x - x_knee, 0.0)), i

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", flat)
    sol = find_exponent(1, 1.0, 5, p_lo=6.0)
    assert sol.p_i == pytest.approx(1.0 + 999.0 * math.exp(2e-7), rel=1e-10)
    assert len(powers) <= 70


def test_find_exponent_target_just_below_start():
    # R a relative 1e-9 below the first critical radius at p_lo: the root
    # lies about 1e-8 above p_lo, and the first two steps bracket it
    r_lo = solve_with_criticals(ProblemParams(5, 6.0), 1).critical_radii[0]
    R = r_lo * (1.0 - 1e-9)
    sol = find_exponent(1, R, 5, p_lo=6.0)
    assert 6.0 < sol.p_i < 6.0 + 1e-7
    assert sol.residual < 1e-10 * R
    assert sol.solves <= 5


def test_find_exponent_rejects_index_below_istar():
    # at p_lo = 6 the first critical radius is about 1.9, so R = 2.5 needs i >= 2
    with pytest.raises(ParameterError, match=r"choose i >= 2$"):
        find_exponent(1, 2.5, 5, p_lo=6.0)


def test_find_exponent_bracket_cap(monkeypatch):
    # the search stops at the cap and evaluates no power above it
    powers = []
    helper = exponents._critical_radius_and_crossings

    def counted(params, i, rtol, atol):
        powers.append(params.p)
        return helper(params, i, rtol, atol)

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", counted)
    with pytest.raises(BracketError):
        find_exponent(1, 0.05, 5, p_lo=6.0, p_cap=20.0)
    assert max(powers) <= 20.0
    # 1 + exp(log(18.5 - 1)) rounds to 18.500000000000004, above the cap
    powers.clear()
    with pytest.raises(BracketError):
        find_exponent(1, 0.05, 5, p_lo=6.0, p_cap=18.5)
    assert max(powers) == 18.5


def test_find_exponent_validation(monkeypatch):
    # every input is checked before the first solve
    def no_solve(*args):
        raise AssertionError("radius evaluated")

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", no_solve)
    with pytest.raises(ParameterError):
        find_exponent(0, 1.0, 5, p_lo=6.0)
    with pytest.raises(ParameterError):
        find_exponent(1, 1.0, 5, p_lo=1.0)
    # a cap that is not finite would leave the search unbounded, and one at
    # or below p_lo leaves it no room
    for p_cap in (math.nan, math.inf, 5.0, 6.0, -3.0):
        with pytest.raises(ParameterError, match="p_cap must be finite"):
            find_exponent(1, 1.0, 5, p_lo=6.0, p_cap=p_cap)


def test_continuity_scan_small_grid():
    rep = continuity_scan(1, 5, np.linspace(15.0, 30.0, 6))
    assert rep.passed
    assert 1.0 / 3.0 <= rep.ratio <= 2.0 / 3.0
    assert rep.refined_grid.size == 11
    # refined grid interleaves the coarse one
    assert np.all(np.diff(rep.refined_grid) > 0)


def test_continuity_scan_constant_grid_degenerate(monkeypatch):
    # a repeated power is solved twice and adds a zero increment, and so is a
    # grid power that its midpoint with a neighbour rounds onto (20 and the
    # next double have none between them); a constant grid would pass with a
    # vacuous zero modulus. All are rejected before the first solve.
    def no_solve(*args):
        raise AssertionError("radius evaluated")

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", no_solve)
    for grid, match in (([20.0, 20.0, 20.0], "repeats a power"),
                        ([10.0, 10.0, 20.0], "repeats a power"),
                        ([20.0, 20.000000000000004, 20.000000000000014], "strictly between")):
        with pytest.raises(ParameterError, match=match):
            continuity_scan(1, 5, grid)


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


def _miscounted(monkeypatch, at_rtol=None):
    """Patches the solves to show one unit crossing too many, at the
    tolerance ``at_rtol`` only or, if None, at every tolerance; the bracket
    search reads only the radii, which stay as they were."""
    helper = exponents._critical_radius_and_crossings

    def miscounted(params, i, rtol, atol):
        radius, crossings = helper(params, i, rtol, atol)
        if at_rtol is None or rtol == at_rtol:
            crossings += 1
        return radius, crossings

    monkeypatch.setattr(exponents, "_critical_radius_and_crossings", miscounted)


@pytest.mark.parametrize("i", [1, 2])
def test_find_exponent_retries_a_crossing_mismatch(i, monkeypatch):
    # a count that disagrees at rtol is solved again at rtol / 10 before the
    # solution is accepted: the same power, one solve more
    clean = find_exponent(i, 1.0, 5, p_lo=6.0)
    _miscounted(monkeypatch, at_rtol=1e-10)
    sol = find_exponent(i, 1.0, 5, p_lo=6.0)
    assert sol.p_i == clean.p_i and sol.bracket == clean.bracket
    assert sol.solves == clean.solves + 1
    assert sol.crossings == i
    assert sol.residual < 1e-6


def test_find_exponent_fails_a_mismatch_that_persists(monkeypatch):
    _miscounted(monkeypatch)
    with pytest.raises(EventError, match="after retry"):
        find_exponent(1, 1.0, 5, p_lo=6.0)


def test_find_exponent_round_counters(monkeypatch):
    # the counters that do not depend on the machine, summed over the
    # trajectories of one round: another step or another solve shows here
    trajs = []
    integrate = singular.integrate_adaptive

    def recorded(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(singular, "integrate_adaptive", recorded)
    # and the seed windows: one ctilde search per solve
    windows = []
    lemma = singular.lemma_constants

    def counted(c):
        windows.append(c.p)
        return lemma(c)

    monkeypatch.setattr(singular, "lemma_constants", counted)
    solves = [find_exponent(i, 1.0, 5, p_lo=6.0).solves for i in range(1, 5)]
    assert solves == [7, 6, 6, 6] and len(trajs) == 25
    assert len(windows) == 25
    # seeded at the window edge rtilde_p, none of them steps through the
    # power-law stretch below it
    assert sum(t.n_accepted for t in trajs) == 912
    assert sum(t.n_rejected for t in trajs) == 167
    assert sum(t.nfev for t in trajs) == 12998


def test_polish_evaluates_events_only_inside_the_step(monkeypatch):
    # Brent's bracket holds the events' values at the accepted states, so
    # the interpolant of a crossed step is evaluated strictly between its
    # stored ends: 630 times in a round, where also evaluating it at the
    # ends made 874
    loop, runs, inside = _dop853._loop, [], []

    def hooked(*key):
        advance, bind, rates, events = loop(*key)

        def entered(*args):
            runs.append(args[8])  # the step ends, ts
            return advance(*args)

        def counted(t, y, *consts):
            inside.append(runs[-1][-2] < t < runs[-1][-1])
            return events(t, y, *consts)

        return entered, bind, rates, counted

    monkeypatch.setattr(_dop853, "_loop", hooked)
    for i in range(1, 5):
        find_exponent(i, 1.0, 5, p_lo=6.0)
    assert len(runs) == 25 and len(inside) == 630 and all(inside)
