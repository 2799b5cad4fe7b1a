"""The in-house Brent root finder against scipy.optimize.brentq.

The port follows scipy's C code line for line, so it must return the same
root to the bit after the same number of calls of f, and raise the same
errors.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from lntlab import ProblemParams, solve_singular
from lntlab import _brent, _dp45


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def _assert_same(f, a, b, **kw):
    ours, theirs = _counted(f), _counted(f)
    root = _brent.brentq(ours, a, b, **kw)
    want = scipy.optimize.brentq(theirs, a, b, **kw)
    assert root == want  # bit for bit
    assert ours.calls == theirs.calls
    return root


def _poly(x):
    return x**3 - 2.0 * x - 5.0


def _tiny_cubic(x):
    # the extrapolation denominator dblk * dpre * (fblk - fpre) underflows to
    # zero here, where C divides into inf or nan and bisects
    return 1e-150 * (x**3 - 0.1)


@pytest.mark.parametrize("f, a, b, kw", [
    (_poly, 2.0, 3.0, {}),
    (_poly, 3.0, 2.0, {"xtol": 5e-324}),
    (lambda x: math.tan(x) - x, math.pi + 0.1, 1.5 * math.pi - 1e-9, {}),
    (lambda x: math.tan(x) - x, math.pi + 0.1, 1.5 * math.pi - 1e-9, {"xtol": 1e-3}),
    (_tiny_cubic, 0.0, 1.0, {}),
    (_tiny_cubic, 0.0, 1.0, {"xtol": 1e-300}),
    (lambda x: x - 0.5, 0.5, 1.0, {}),  # a root on the bracket end
    (lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0, {}),  # a jump: bisection
])
def test_same_root_and_calls_as_scipy(f, a, b, kw):
    root = _assert_same(f, a, b, **kw)
    assert min(a, b) <= root <= max(a, b)


def test_random_cubics_match_scipy():
    rng = np.random.default_rng(5)
    compared = 0
    for _ in range(200):
        c = rng.normal(size=4)
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
        f = np.polynomial.Polynomial(c)
        if f(a) * f(b) < 0:
            _assert_same(lambda x: float(f(x)), float(a), float(b),
                         xtol=float(10.0 ** rng.uniform(-15, -3)))
            compared += 1
    assert compared >= 50


def test_stepper_events_match_scipy(monkeypatch):
    # the step quartics whose zeros are the unit crossings and critical points
    # of a real singular solve
    roots = []

    def compared(f, a, b, **kw):
        # f reads the current step's interpolant, so compare while it is current
        roots.append(_assert_same(f, a, b, **kw))
        return roots[-1]

    monkeypatch.setattr(_dp45, "brentq", compared)
    traj = solve_singular(ProblemParams(5, 20.0), 3.0).trajectory
    assert len(roots) >= 4
    assert set(traj.unit_crossings) | set(traj.critical_points) <= set(roots)


@pytest.mark.parametrize("f, a, b, kw, exc", [
    (lambda x: x * x + 1.0, 2.0, 3.0, {}, ValueError),  # same sign
    (lambda x: math.nan if x > 2.5 else x - 2.7, 2.0, 3.0, {}, ValueError),
    (lambda x: math.nan if 2.05 < x < 2.95 else x - 2.7, 2.0, 3.0, {}, ValueError),
    (_poly, 2.0, 3.0, {"xtol": 0.0}, ValueError),
    (_poly, 2.0, 3.0, {"xtol": -1e-12}, ValueError),
    (_poly, 2.0, 3.0, {"rtol": 1e-16}, ValueError),
    (_poly, 2.0, 3.0, {"maxiter": -1}, ValueError),
    (_poly, 2.0, 3.0, {"maxiter": 3}, RuntimeError),
    (_poly, 2.0, 3.0, {"maxiter": 0}, RuntimeError),
])
def test_same_errors_as_scipy(f, a, b, kw, exc):
    with pytest.raises(exc) as ours:
        _brent.brentq(f, a, b, **kw)
    with pytest.raises(exc) as theirs:
        scipy.optimize.brentq(f, a, b, **kw)
    assert str(ours.value) == str(theirs.value)
