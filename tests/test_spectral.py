import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from lntlab import (
    CoverageError,
    ParameterError,
    ProblemParams,
    assemble_operator,
    hardy_test_function,
    lemma_constants,
    morse_scan,
    negative_count,
    potential_threshold_check,
    rayleigh_quotient,
    smallest_eigenvalues,
    solve_singular,
)
from lntlab.spectral import SampledRadialFunction, TailClass, TridiagonalForm
from lntlab.params import derive_constants


def radial_neumann_mu1():
    """First nonzero radial Neumann Laplacian eigenvalue on the unit ball, N=3.

    Eigenfunctions are sin(k r)/(k r); the Neumann condition at r=1 gives
    tan k = k, whose first positive root squares to the eigenvalue.
    """
    k = brentq(lambda x: math.tan(x) - x, math.pi + 0.1, 1.5 * math.pi - 1e-9)
    return k * k


def test_single_node_form_is_diagonal():
    form = TridiagonalForm(diag=np.array([3.5]), offdiag=np.array([]))
    assert negative_count(form) == 0
    assert smallest_eigenvalues(form, 1) == (3.5,)
    form_neg = TridiagonalForm(diag=np.array([-2.0]), offdiag=np.array([]))
    assert negative_count(form_neg) == 1


def test_constant_solution_potential_and_lowest_mode():
    params = ProblemParams(3, 5.0, R=1.0)
    op = assemble_operator(1.0, params, delta=1e-3, grid_size=2048)
    assert np.allclose(op.spec.potential, 4.0)  # p - 1 everywhere
    evs = smallest_eigenvalues(op, 2)
    assert evs[0] == pytest.approx(1.0 - 5.0, abs=5e-3)
    mu1 = radial_neumann_mu1()
    assert evs[1] == pytest.approx(mu1 + 1.0 - 5.0, rel=5e-2)
    assert negative_count(op) == 1


def test_constant_solution_count_at_least_one():
    for p in (2.5, 5.0, 11.0):
        params = ProblemParams(3, max(p, 5.0), R=1.0)
        op = assemble_operator(1.0, params, delta=1e-3, grid_size=512)
        assert negative_count(op) >= 1


def test_negative_potential_makes_form_positive():
    # q = -1 turns the operator into -Lap + 1, whose form is positive
    params = ProblemParams(3, 5.0, R=1.0)
    op = assemble_operator(1.0, params, delta=1e-2, grid_size=256)
    # replace q = p - 1 by q = -1: the diagonal gains (q_old + 1) * mass
    lifted = TridiagonalForm(
        diag=op.form.diag + (op.spec.potential[1:] + 1.0) * op.form.mass,
        offdiag=op.form.offdiag,
        mass=op.form.mass,
    )
    assert negative_count(lifted) == 0


def test_inertia_matches_full_diagonalization():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 201))
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        form = TridiagonalForm(diag=d, offdiag=e)
        want = int(np.count_nonzero(eigh_tridiagonal(d, e, eigvals_only=True) < 0))
        assert negative_count(form) == want


def test_inertia_shift_counts_below_threshold():
    rng = np.random.default_rng(5)
    d = rng.normal(size=80)
    e = rng.normal(size=79)
    form = TridiagonalForm(diag=d, offdiag=e)
    evs = eigh_tridiagonal(d, e, eigvals_only=True)
    for s in (-1.0, 0.3, 2.0):
        assert negative_count(form, shift=s) == int(np.count_nonzero(evs < s))


def test_eigenvalue_grid_convergence_second_order():
    params = ProblemParams(3, 5.0, R=1.0)
    vals = {}
    for M in (256, 512, 1024, 2048):
        op = assemble_operator(1.0, params, delta=1e-2, grid_size=M)
        vals[M] = smallest_eigenvalues(op, 2)[1]
    d1 = abs(vals[256] - vals[512])
    d2 = abs(vals[512] - vals[1024])
    d3 = abs(vals[1024] - vals[2048])
    assert 3.0 < d1 / d2 < 5.5
    assert 3.0 < d2 / d3 < 5.5


def test_assemble_validation():
    params = ProblemParams(3, 5.0, R=1.0)
    with pytest.raises(ParameterError):
        assemble_operator(1.0, params, delta=2.0, grid_size=256)
    with pytest.raises(ParameterError):
        assemble_operator(1.0, params, delta=1e-2, grid_size=16)
    with pytest.raises(ParameterError):
        assemble_operator(1.0, ProblemParams(3, 5.0), delta=1e-2, grid_size=256)


def test_assemble_coverage_error(sing_5_20):
    params = ProblemParams(5, 20.0, R=10.0)
    with pytest.raises(CoverageError):
        assemble_operator(sing_5_20, params, delta=1e-2, grid_size=256)


def test_courant_monotonicity_in_cutoff():
    params = ProblemParams(5, 10.0, R=1.0)
    sol = solve_singular(params, r_end=1.05, seed_radius=5e-5)
    counts = []
    for delta in (1e-2, 1e-3, 1e-4):
        scan = morse_scan(params, sol, [delta])
        counts.append(scan.reports[0].negative_count)
    assert counts == sorted(counts)


def test_morse_scan_plateau_above_joseph_lundgren():
    params = ProblemParams(12, 5.0, R=1.0)
    sol = solve_singular(params, r_end=1.05, seed_radius=5e-5)
    scan = morse_scan(params, sol, [1e-2, 1e-3, 1e-4])
    assert scan.classification is TailClass.SUPERCRITICAL_STABLE_TAIL
    assert scan.counts == (1, 1, 1)


def test_morse_scan_validation(sing_5_20):
    params = ProblemParams(5, 20.0, R=1.0)
    with pytest.raises(ParameterError):
        morse_scan(params, sing_5_20, [1e-3, 1e-2])
    with pytest.raises(ParameterError, match="double range"):
        morse_scan(params, sing_5_20, [1e-2, 1e-76])


def test_sturm_oscillation_rate_below_joseph_lundgren():
    # below pJL the count grows by sqrt(C - H) / pi per unit of ln(1/delta)
    for N, p in [(12, 3.0), (5, 10.0)]:
        params = ProblemParams(N, p, R=1.0)
        sol = solve_singular(params, r_end=1.05)
        scan = morse_scan(params, sol, [1e-6, 1e-12])
        c = derive_constants(params)
        C = p * c.theta * (N - 2.0 - c.theta)
        H = 0.25 * (N - 2.0) ** 2
        predicted = math.sqrt(C - H) / math.pi * math.log(1e6)
        assert scan.classification is TailClass.UNBOUNDED
        assert abs(scan.counts[1] - scan.counts[0] - predicted) <= 1.0


def test_count_and_spectrum_flat_above_joseph_lundgren():
    params = ProblemParams(12, 5.0, R=1.0)
    sol = solve_singular(params, r_end=1.05)
    scan = morse_scan(params, sol, [1e-6, 1e-12])
    assert scan.counts == (1, 1)
    # the low eigenvalues live near R and must not move with the cutoff
    shallow, deep = (rep.smallest_eigenvalues for rep in scan.reports)
    assert deep == pytest.approx(shallow, rel=1e-2)


def test_hardy_function_shape():
    fj = hardy_test_function(2, 0.35, 5)
    assert fj.scaled[0] == 0.0 and fj.scaled[-1] == 0.0
    assert fj.log_r.size >= 256
    r = fj.radii
    assert r[0] == pytest.approx(math.exp(-2.0 * math.pi * 3.0 / 0.35), rel=1e-12)
    assert r[-1] == pytest.approx(math.exp(-2.0 * math.pi * 2.0 / 0.35), rel=1e-12)


def test_hardy_supports_disjoint():
    f1 = hardy_test_function(1, 0.35, 5)
    f2 = hardy_test_function(2, 0.35, 5)
    assert f2.radii[-1] <= f1.radii[0] * (1.0 + 1e-12)


def test_hardy_validation():
    with pytest.raises(ParameterError):
        hardy_test_function(0, 0.35, 5)
    for eps0 in (-0.1, 0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="positive and finite"):
            hardy_test_function(1, eps0, 5)
    # the support would reach radii below the smallest normal double
    with pytest.raises(ParameterError, match="smallest normal double"):
        hardy_test_function(1, 1e-3, 5)


def test_hardy_log_ode_residual_second_order():
    # the scaled profile solves y'' + (eps0**2/4) y = 0 in log-radius
    res = {}
    for n in (512, 1024):
        fj = hardy_test_function(2, 0.35, 5, n_points=n)
        s, y = fj.log_r, fj.scaled
        h = s[1] - s[0]
        r = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2 + (0.35**2 / 4.0) * y[1:-1]
        res[n] = np.max(np.abs(r))
    assert res[512] < 1e-6
    assert 3.0 < res[512] / res[1024] < 5.5


def test_rayleigh_zero_function():
    s = np.linspace(-3.0, -1.0, 300)
    zero = SampledRadialFunction(N=5, log_r=s, scaled=np.zeros_like(s),
                                 scaled_d=np.zeros_like(s))
    assert rayleigh_quotient(zero, 1.0, ProblemParams(5, 10.0)) == 0.0


def test_rayleigh_constant_function_on_constant_solution():
    # phi = const, u = 1: the value is -(p-1) * integral of phi**2 r**(N-1)
    N, p = 4, 3.5
    params = ProblemParams(N, p, R=1.0)
    delta, R = 0.2, 1.0
    r = np.geomspace(delta, R, 4000)
    phi = SampledRadialFunction.from_plain(r, np.full(r.size, 2.0), np.zeros(r.size), N)
    got = rayleigh_quotient(phi, 1.0, params)
    want = -(p - 1.0) * 4.0 * (R**N - delta**N) / N
    assert got == pytest.approx(want, rel=1e-6)
    # any vectorized callable stands for a solution
    assert rayleigh_quotient(phi, lambda r: np.ones_like(r), params) == pytest.approx(got, rel=1e-14)


def test_rayleigh_negative_on_hardy_functions():
    params = ProblemParams(5, 10.0)
    prof = derive_constants(params)  # stands for its two-term origin expansion
    vals = [rayleigh_quotient(hardy_test_function(j, 0.35, 5), prof, params)
            for j in (1, 3, 5)]
    assert all(v < 0.0 for v in vals)
    # deep supports converge to the scale-invariant limit value
    assert vals[1] == pytest.approx(vals[2], rel=1e-6)


def test_rayleigh_coverage_error(sing_5_20):
    # the bare trajectory starts at the seed radius; the singular solution
    # itself covers (0, r_end] through its origin expansion
    fj = hardy_test_function(1, 0.35, 5)
    params = ProblemParams(5, 20.0)
    with pytest.raises(CoverageError):
        rayleigh_quotient(fj, sing_5_20.trajectory, params)
    # below the seed radius the solution is its two-term origin expansion
    assert fj.radii[-1] < sing_5_20.seed_radius
    assert (rayleigh_quotient(fj, sing_5_20, params)
            == rayleigh_quotient(fj, sing_5_20.constants, params))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_origin_expansion_at_large_theta():
    # theta = 6.7, so A r**(-theta) overflows on the support of f_5 (r ~ 1e-47);
    # constants stand for their origin expansion, evaluated in scaled form,
    # and the scale-invariant value is the same on every support
    params = ProblemParams(30, 1.3)
    c = derive_constants(params)
    vals = [rayleigh_quotient(hardy_test_function(j, 0.35, 30), c, params) for j in (1, 5)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-6)


def test_discrete_projection_stays_negative():
    params = ProblemParams(5, 10.0)
    prof = derive_constants(params)  # stands for its two-term origin expansion
    fj = hardy_test_function(1, 1.0, 5)
    r = fj.radii
    sub = ProblemParams(5, 10.0, R=float(r[-1]))
    op = assemble_operator(prof, sub, float(r[0]), 8192)
    # the unknowns are y = r**nu phi, the test function's scaled samples
    y = np.interp(np.log(op.spec.grid[1:]), fj.log_r, fj.scaled)
    quad = float(np.sum(op.form.diag * y**2)
                 + 2.0 * np.sum(op.form.offdiag * y[:-1] * y[1:]))
    assert quad < 0.0
    # consistent with the quadrature value of the same functional
    J = rayleigh_quotient(fj, prof, params)
    assert quad == pytest.approx(J, rel=1e-2)


def test_potential_threshold_sides():
    # finite-index side: limit 23.75 below the Hardy constant 25
    params = ProblemParams(12, 5.0)
    lem = lemma_constants(params)
    sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
    rep = potential_threshold_check(sol)
    assert rep.limit_closed_form == pytest.approx(23.75, rel=1e-12)
    assert rep.hardy_constant == 25.0
    assert rep.side == "below" and rep.passed

    # infinite-index side: limit 27 above 25
    params = ProblemParams(12, 3.0)
    lem = lemma_constants(params)
    sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
    rep = potential_threshold_check(sol)
    assert rep.limit_closed_form == pytest.approx(27.0, rel=1e-12)
    assert rep.side == "above" and rep.passed
    assert rep.limit_computed == pytest.approx(rep.limit_closed_form, rel=1e-3)
