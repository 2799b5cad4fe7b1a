import math
import sys
from array import array
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from conftest import constant_profile
from lntlab import (
    ConvergenceFailure,
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
from lntlab import spectral
from lntlab.spectral import SampledRadialFunction, TailClass, TridiagonalForm
from lntlab.params import derive_constants
from lntlab.singular import origin_scaled


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
    form = assemble_operator(constant_profile(1.0, params.p), params, delta=1e-3,
                             grid_size=2048).form
    evs = smallest_eigenvalues(form, 2)
    assert evs[0] == pytest.approx(1.0 - 5.0, abs=5e-3)
    mu1 = radial_neumann_mu1()
    assert evs[1] == pytest.approx(mu1 + 1.0 - 5.0, rel=5e-2)
    assert negative_count(form) == 1


def test_constant_solution_count_at_least_one():
    for p in (2.5, 5.0, 11.0):
        params = ProblemParams(3, max(p, 5.0), R=1.0)
        op = assemble_operator(constant_profile(1.0, params.p), params, delta=1e-3,
                               grid_size=512)
        assert negative_count(op.form) >= 1


def test_negative_potential_makes_form_positive():
    # q = -1 turns the operator into -Lap + 1, whose form is positive
    params = ProblemParams(3, 5.0, R=1.0)
    form = assemble_operator(constant_profile(1.0, params.p), params, delta=1e-2,
                             grid_size=256).form
    # replace q = p - 1 by q = -1: the diagonal gains (q_old + 1) * mass
    q_old = params.p - 1.0
    lifted = TridiagonalForm(
        diag=np.asarray(form.diag) + (q_old + 1.0) * np.asarray(form.mass),
        offdiag=form.offdiag,
        mass=form.mass,
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


def test_pass_landing_on_a_zero_pivot():
    # eigenvalues 0 and 2; a zero pivot counts as negative and the pivot after
    # it as +inf, so each pass counts the eigenvalues at or below its shift
    form = TridiagonalForm(diag=np.array([1.0, 1.0]), offdiag=np.array([1.0]))
    assert [negative_count(form, s) for s in (0.0, 1.0, 2.0)] == [1, 1, 2]
    assert smallest_eigenvalues(form, 2) == pytest.approx((0.0, 2.0), abs=4e-16)
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        negative_count(TridiagonalForm(diag=np.array([1.0, math.nan]), offdiag=np.array([1.0])))


def test_eigenvalue_grid_convergence_second_order():
    params = ProblemParams(3, 5.0, R=1.0)
    vals = {}
    for M in (256, 512, 1024, 2048):
        op = assemble_operator(constant_profile(1.0, params.p), params, delta=1e-2,
                               grid_size=M)
        vals[M] = smallest_eigenvalues(op.form, 2)[1]
    d1 = abs(vals[256] - vals[512])
    d2 = abs(vals[512] - vals[1024])
    d3 = abs(vals[1024] - vals[2048])
    assert 3.0 < d1 / d2 < 5.5
    assert 3.0 < d2 / d3 < 5.5


def _lapack_eigenvalues(form, k):
    """The k smallest eigenvalues by LAPACK bisection on the mass-normalized
    standard form, to relative accuracy."""
    diag = np.asarray(form.diag)
    mass = np.ones_like(diag) if form.mass is None else np.asarray(form.mass)
    d = diag / mass
    e = np.asarray(form.offdiag) / np.sqrt(mass[:-1] * mass[1:])
    return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), eigvals_only=True,
                            tol=sys.float_info.min)


def _oracle_forms():
    for (N, p), deltas in [((12, 5.0), (1e-2, 1e-3, 1e-4)),  # the README example
                           ((5, 10.0), (1e-2, 1e-4, 1e-12)),
                           ((12, 3.0), (1e-2, 1e-4, 1e-12))]:
        params = ProblemParams(N, p, R=1.0)
        sol = solve_singular(params, r_end=1.05)
        for delta in deltas:
            yield assemble_operator(sol.scaled, params, delta, 2048).form, 3
    rng = np.random.default_rng(1312)  # the random tridiagonals of C11
    for _ in range(50):
        n = int(rng.integers(2, 201))
        d = rng.normal(size=n)
        yield TridiagonalForm(diag=d, offdiag=rng.normal(size=n - 1)), 4


def test_eigenvalues_match_lapack_in_at_most_64_passes(monkeypatch):
    passes = []
    count = spectral._pivot_count
    monkeypatch.setattr(spectral, "_pivot_count",
                        lambda *args: passes.append(1) or count(*args))
    for form, k in _oracle_forms():
        want = _lapack_eigenvalues(form, k)
        # the j-th eigenvalue resumes from where the (j-1)-th ended, so the
        # passes of eigenvalue j are those of k = j+1 less those of k = j
        used = []
        for j in range(1, k + 1):
            passes.clear()
            got = smallest_eigenvalues(form, j)
            used.append(len(passes))
        assert len(got) == k
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(abs(w), 1.0)
        assert max(np.diff([0, *used])) <= 64


def _mp_count_below(form, shift):
    """Sturm count of the pencil below ``shift`` in 60-digit arithmetic."""
    with mpmath.workdps(60):
        shift = mpmath.mpf(shift)
        count = 0
        for i, (d, m) in enumerate(zip(form.diag.tolist(), form.mass.tolist())):
            pivot = d - shift * m
            if i:
                pivot -= mpmath.mpf(form.offdiag[i - 1]) ** 2 / prev
            count += pivot < 0
            prev = pivot
        return count


@pytest.mark.parametrize("N, p", [(12, 5.0), (30, 1.3)])
def test_eigenvalues_certified_at_deepest_cutoff(N, p):
    # at delta = MIN_CUTOFF the standard form's off-diagonals reach 1e150,
    # which a pivot floor scaled by them turns into wrong eigenvalues
    params = ProblemParams(N, p, R=1.0)
    sol = solve_singular(params, r_end=1.05)
    form = assemble_operator(sol.scaled, params, spectral.MIN_CUTOFF, 2048).form
    for j, lam in enumerate(smallest_eigenvalues(form, 3)):
        assert _mp_count_below(form, lam - 1e-9 * abs(lam)) == j
        assert _mp_count_below(form, lam + 1e-9 * abs(lam)) == j + 1


def test_eigenvalue_input_validation():
    form = TridiagonalForm(diag=np.array([1.0, 2.0]), offdiag=np.array([0.5]))
    for k in (0, -1):
        with pytest.raises(ParameterError, match="at least 1"):
            smallest_eigenvalues(form, k)
    with pytest.raises(ParameterError, match="no unknowns"):
        smallest_eigenvalues(TridiagonalForm(diag=np.array([]), offdiag=np.array([])))
    for bad in (math.nan, math.inf):
        for diag, off in [([1.0, bad], [0.5]), ([1.0, 2.0], [bad])]:
            with pytest.raises(ParameterError, match="finite"):
                smallest_eigenvalues(TridiagonalForm(diag=np.array(diag), offdiag=np.array(off)))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_form_rejects_mass_not_positive_and_finite(bad):
    with pytest.raises(ParameterError, match="positive and finite"):
        TridiagonalForm(diag=np.array([1.0, 2.0]), offdiag=np.array([0.5]),
                        mass=np.array([1.0, bad]))


def test_form_from_lists_validates_like_arrays():
    # fields are converted on construction, so lists are checked, not
    # refused with an AttributeError
    form = TridiagonalForm(diag=[1.0, 2.0], offdiag=[0.5], mass=[1.0, 1.0])
    ref = TridiagonalForm(diag=np.array([1.0, 2.0]), offdiag=np.array([0.5]),
                          mass=np.array([1.0, 1.0]))
    assert isinstance(form.diag, array) and form.diag.typecode == "d"
    assert negative_count(form, 1.5) == negative_count(ref, 1.5)
    assert smallest_eigenvalues(form, 2) == smallest_eigenvalues(ref, 2)
    with pytest.raises(ParameterError, match="one shorter"):
        TridiagonalForm(diag=[1.0, 2.0], offdiag=[0.5, 0.5])
    with pytest.raises(ParameterError, match="mass must match"):
        TridiagonalForm(diag=[1.0, 2.0], offdiag=[0.5], mass=[1.0])
    with pytest.raises(ParameterError, match="positive and finite"):
        TridiagonalForm(diag=[1.0, 2], offdiag=[0.5], mass=[1.0, 0])


def test_assemble_validation():
    params = ProblemParams(3, 5.0, R=1.0)
    one = constant_profile(1.0, 5.0)
    with pytest.raises(ParameterError):
        assemble_operator(one, params, delta=2.0, grid_size=256)
    with pytest.raises(ParameterError):
        assemble_operator(one, params, delta=1e-2, grid_size=16)
    with pytest.raises(ParameterError):
        assemble_operator(one, ProblemParams(3, 5.0), delta=1e-2, grid_size=256)


def test_assemble_coverage_error(sing_5_20):
    params = ProblemParams(5, 20.0, R=10.0)
    with pytest.raises(CoverageError):
        assemble_operator(sing_5_20.scaled, params, delta=1e-2, grid_size=256)


def test_courant_monotonicity_in_cutoff():
    params = ProblemParams(5, 10.0, R=1.0)
    sol = solve_singular(params, r_end=1.05, seed_radius=5e-5)
    counts = []
    for delta in (1e-2, 1e-3, 1e-4):
        scan = morse_scan(params, sol, [delta])
        # one count says nothing about the tail
        assert scan.classification is TailClass.INCONCLUSIVE
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
    with pytest.raises(ParameterError, match="at least one cutoff"):
        morse_scan(params, sing_5_20, [])
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
        s, y = np.asarray(fj.log_r), np.asarray(fj.scaled)
        h = s[1] - s[0]
        r = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2 + (0.35**2 / 4.0) * y[1:-1]
        res[n] = np.max(np.abs(r))
    assert res[512] < 1e-6
    assert 3.0 < res[512] / res[1024] < 5.5


def test_rayleigh_zero_function():
    s = np.linspace(-3.0, -1.0, 300)
    zero = SampledRadialFunction(N=5, log_r=s, scaled=np.zeros_like(s),
                                 scaled_d=np.zeros_like(s))
    assert rayleigh_quotient(zero, constant_profile(1.0, 10.0), ProblemParams(5, 10.0)) == 0.0


def test_rayleigh_constant_function_on_constant_solution():
    # phi = const, u = 1: the value is -(p-1) * integral of phi**2 r**(N-1)
    N, p = 4, 3.5
    params = ProblemParams(N, p, R=1.0)
    delta, R = 0.2, 1.0
    # phi = 2 is y = 2 r**nu in the scaled variables, with dy/ds = nu y
    s = np.linspace(math.log(delta), math.log(R), 4000)
    nu = 0.5 * (N - 2.0)
    y = 2.0 * np.exp(nu * s)
    phi = SampledRadialFunction(N=N, log_r=s, scaled=y, scaled_d=nu * y)
    got = rayleigh_quotient(phi, constant_profile(1.0, p), params)
    want = -(p - 1.0) * 4.0 * (R**N - delta**N) / N
    assert got == pytest.approx(want, rel=1e-6)


def test_rayleigh_negative_on_hardy_functions():
    params = ProblemParams(5, 10.0)
    prof = partial(origin_scaled, derive_constants(params))
    vals = [rayleigh_quotient(hardy_test_function(j, 0.35, 5), prof, params)
            for j in (1, 3, 5)]
    assert all(v < 0.0 for v in vals)
    # deep supports converge to the scale-invariant limit value
    assert vals[1] == pytest.approx(vals[2], rel=1e-6)


def test_rayleigh_coverage_error(sing_5_20):
    # the singular solution covers (0, r_end] through its origin expansion,
    # and nothing beyond r_end = 5
    params = ProblemParams(5, 20.0)
    s = np.linspace(math.log(4.0), math.log(6.0), 300)
    beyond = SampledRadialFunction(N=5, log_r=s, scaled=np.sin(s), scaled_d=np.cos(s))
    with pytest.raises(CoverageError):
        rayleigh_quotient(beyond, sing_5_20.scaled, params)
    # below the seed radius the solution is its origin series
    fj = hardy_test_function(1, 0.35, 5)
    assert fj.radii[-1] < sing_5_20.seed_radius
    assert (rayleigh_quotient(fj, sing_5_20.scaled, params)
            == rayleigh_quotient(fj, partial(origin_scaled, sing_5_20.constants), params))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_origin_expansion_at_large_theta():
    # theta = 6.7, so A r**(-theta) overflows on the support of f_5 (r ~ 1e-47);
    # the origin expansion is evaluated in scaled form, and the
    # scale-invariant value is the same on every support
    params = ProblemParams(30, 1.3)
    prof = partial(origin_scaled, derive_constants(params))
    vals = [rayleigh_quotient(hardy_test_function(j, 0.35, 30), prof, params) for j in (1, 5)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-6)


def test_discrete_projection_stays_negative():
    params = ProblemParams(5, 10.0)
    prof = partial(origin_scaled, derive_constants(params))
    fj = hardy_test_function(1, 1.0, 5)
    r = fj.radii
    sub = ProblemParams(5, 10.0, R=float(r[-1]))
    op = assemble_operator(prof, sub, float(r[0]), 8192)
    # the unknowns are y = r**nu phi, the test function's scaled samples
    log_nodes = np.linspace(np.log(r[0]), np.log(r[-1]), 8192 + 1)[1:]
    y = np.interp(log_nodes, fj.log_r, fj.scaled)
    quad = float(np.sum(op.form.diag * y**2)
                 + 2.0 * np.sum(op.form.offdiag * y[:-1] * y[1:]))
    assert quad < 0.0
    # consistent with the quadrature value of the same functional
    J = rayleigh_quotient(fj, prof, params)
    assert quad == pytest.approx(J, rel=1e-2)


def test_potential_threshold_sides():
    # finite-index side: limit 23.75 below the Hardy constant 25
    params = ProblemParams(12, 5.0)
    lem = lemma_constants(derive_constants(params))
    sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
    rep = potential_threshold_check(sol)
    assert rep.limit_closed_form == pytest.approx(23.75, rel=1e-12)
    assert rep.hardy_constant == 25.0
    assert rep.side == "below" and rep.passed
    # evaluated at the inner edge rtilde_p / 16 of the window, below the
    # seed at rtilde_p, where the solution is its origin series
    assert sol.seed_radius == lem.rtilde_p
    r = lem.rtilde_p / 16.0
    (t,), _ = sol.profile([r])
    u = t * r**-sol.constants.theta
    assert rep.limit_computed == pytest.approx(r * r * (5.0 * u**4 - 1.0), rel=1e-14)

    # infinite-index side: limit 27 above 25
    params = ProblemParams(12, 3.0)
    lem = lemma_constants(derive_constants(params))
    sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
    rep = potential_threshold_check(sol)
    assert rep.limit_closed_form == pytest.approx(27.0, rel=1e-12)
    assert rep.side == "above" and rep.passed
    assert rep.limit_computed == pytest.approx(rep.limit_closed_form, rel=1e-3)


def test_potential_threshold_at_large_theta():
    # theta = 100: u = t r**(-theta) overflows at the inner window edge, so
    # the limit is read from the scaled profile
    sol = solve_singular(ProblemParams(300, 1.02), 5.0)
    rep = potential_threshold_check(sol)
    assert rep.limit_closed_form == pytest.approx(20196.0, rel=1e-12)
    assert rep.limit_computed == pytest.approx(rep.limit_closed_form, rel=1e-6)
    assert rep.side == "below" and rep.passed
