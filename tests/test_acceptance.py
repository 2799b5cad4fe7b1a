"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 8 is implemented exactly as stated. At N=5, p=20 the sup-distances
of the shots gamma in {10, 100, 1000} to the singular solution are about
1.2e-15, 3.3e-29 and 4.7e-42: ordinary normal doubles, far below the
round-off of either trajectory. convergence_to_singular therefore integrates
the difference of the two solutions itself, with error control relative to
the difference, instead of subtracting two separately integrated
trajectories; test_shooting checks that measurement against tolerance
refinement, direct subtraction where that resolves, and the decay rate.
"""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from conftest import constant_profile, record_verdict
from lntlab import (
    ProblemParams,
    asymptotic_limits,
    convergence_to_singular,
    critical_exponent,
    derive_constants,
    energy_rate_deviation,
    find_exponent,
    find_istar,
    hardy_test_function,
    joseph_lundgren,
    lemma_constants,
    morse_scan,
    negative_count,
    rayleigh_quotient,
    smallest_eigenvalues,
    solve_singular,
    verify_origin_bounds,
)
from lntlab.singular import origin_scaled
from lntlab.spectral import TailClass, TridiagonalForm, assemble_operator

# r_p * sqrt(p) at N=5 recorded from the first reference run (rtol=1e-12)
FIRST_CROSSING_BAND = {
    10.0: 3.538165733010,
    20.0: 3.513162205953,
    40.0: 3.499063516401,
    80.0: 3.491695579824,
}


def test_c01_constants_algebra():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    ok = True
    for _ in range(10_000):
        N = int(rng.integers(3, 31))
        p = critical_exponent(N) + 10.0 ** rng.uniform(-2, 3)
        c = derive_constants(ProblemParams(N, p))
        worst = max(worst, abs(c.A ** (p - 1.0) * c.m**2 - 1.0))
        disc = (p - 1.0) - (c.alpha / 2.0) ** 2
        trichotomy = (
            (disc > 0 and c.regime.name == "OSCILLATORY")
            or (disc < 0 and c.regime.name == "NON_OSCILLATORY")
            or (disc == 0 and c.regime.name == "DEGENERATE")
        )
        ok = ok and trichotomy
    # "exactly" up to the pow round-trip, which is amplified by p - 1
    ok = ok and worst < 1e-12
    limits_ok = True
    for N in range(3, 31):
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
            limits_ok = limits_ok and abs(got - want) <= 1e-3 * (1.0 + abs(want))
    elapsed = time.time() - t0
    ok = ok and limits_ok and elapsed < 1.0
    assert record_verdict(1, "constants-algebra", ok,
                          f"identity worst {worst:.2e}, {elapsed:.2f}s")


def test_c02_joseph_lundgren_values():
    t0 = time.time()
    import mpmath

    mpmath.mp.dps = 50
    oracle = {
        11: float(1 + 4 / (mpmath.mpf(7) - 2 * mpmath.sqrt(10))),
        12: float(1 + 4 / (mpmath.mpf(8) - 2 * mpmath.sqrt(11))),
    }
    ok = (
        abs(joseph_lundgren(11) - oracle[11]) < 1e-12
        and abs(joseph_lundgren(12) - oracle[12]) < 1e-12
        and abs(joseph_lundgren(11) - 6.92195) < 1e-4
        and abs(joseph_lundgren(12) - 3.92666) < 1e-4
        and all(math.isinf(joseph_lundgren(N)) for N in range(3, 11))
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    assert record_verdict(2, "joseph-lundgren-values", ok,
                          f"pJL(11)={joseph_lundgren(11):.6f}, pJL(12)={joseph_lundgren(12):.6f}")


def test_c03_origin_sandwich():
    t0 = time.time()
    margins = []
    ok = True
    for N in (5, 12):
        for p in (10.0, 50.0):
            params = ProblemParams(N, p)
            lem = lemma_constants(derive_constants(params))
            sol = solve_singular(params, r_end=2.0 * lem.rtilde_p)
            rep = verify_origin_bounds(sol, tol=1e-6)
            margins.append((N, p, rep.lower_margin, rep.upper_margin))
            ok = ok and rep.passed
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    worst_lower = min(m[2] for m in margins)
    worst_upper = max(m[3] for m in margins)
    assert record_verdict(3, "origin-sandwich", ok,
                          f"lower>={worst_lower:.2e}, upper<={worst_upper:.2e}, {elapsed:.1f}s")


def test_c04_energy_monotonicity(sing_5_20, shot_gamma10, shot_gamma1000, sweep_5):
    trajectories = [sing_5_20.trajectory, shot_gamma10.trajectory,
                    shot_gamma1000.trajectory]
    trajectories += [sol.trajectory for sol in sweep_5.values()]
    worst_rise = max(t.max_energy_rise() for t in trajectories)
    worst_dev = max(energy_rate_deviation(t) for t in trajectories)
    ok = worst_rise <= 10.0 and worst_dev <= 1e-4
    assert record_verdict(4, "energy-monotonicity", ok,
                          f"worst rise {worst_rise:.2e} (10x tol), rate dev {worst_dev:.2e}")


def test_c05_critical_radius_decay(sweep_5):
    t0 = time.time()
    ps = sorted(sweep_5)
    radii = [sweep_5[p].critical_radii[0] for p in ps]
    decreasing = all(a > b for a, b in zip(radii, radii[1:]))
    banded = True
    for p in ps:
        scaled = sweep_5[p].r_p * math.sqrt(p)
        banded = banded and abs(scaled - FIRST_CROSSING_BAND[p]) <= 0.05 * FIRST_CROSSING_BAND[p]
    elapsed = time.time() - t0
    ok = decreasing and banded and elapsed < 120.0
    assert record_verdict(5, "critical-radius-decay", ok,
                          f"R1={['%.4f' % r for r in radii]}")


def test_c06_continuity_refinement():
    t0 = time.time()
    from lntlab.exponents import continuity_scan

    rep = continuity_scan(1, 5, np.linspace(10.0, 40.0, 16))
    elapsed = time.time() - t0
    ok = (1.0 / 3.0 <= rep.ratio <= 2.0 / 3.0) and elapsed < 300.0
    assert record_verdict(6, "continuity-refinement", ok,
                          f"modulus ratio {rep.ratio:.3f}, {elapsed:.1f}s")


def test_c07_prescribed_critical_radius():
    t0 = time.time()
    istar = find_istar(5, 6.0, 1.0)
    ok = True
    details = []
    for i in range(istar, istar + 4):
        sol = find_exponent(i, 1.0, 5, p_lo=6.0)
        sol_tight = find_exponent(i, 1.0, 5, p_lo=6.0, rtol=1e-10 / 4, atol=1e-12 / 4)
        shift = abs(sol_tight.p_i - sol.p_i)
        ok = ok and sol.residual < 1e-6 and sol.crossings == i and shift < 1e-5
        details.append(f"p^{i}={sol.p_i:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    assert record_verdict(7, "prescribed-critical-radius", ok,
                          ", ".join(details) + f", {elapsed:.0f}s")


def test_c08_convergence_to_singular():
    # Stated instance: gamma in {10, 100, 1000} at N=5, p=20 on [0.5, 2].
    # The distances scale like gamma**(-(N-2-2 theta)/(2 theta)) =
    # gamma**(-13.25), about 1.2e-15, 3.3e-29 and 4.7e-42. They are resolved
    # because the difference to the singular solution is integrated with
    # relative error control, not obtained by subtracting two trajectories.
    t0 = time.time()
    params = ProblemParams(5, 20.0)
    rep = convergence_to_singular(params, [10.0, 100.0, 1000.0], (0.5, 2.0))
    d = rep.distances
    decreasing = d[0] > d[1] > d[2]
    halved = d[2] < d[0] / 2.0
    elapsed = time.time() - t0
    ok = rep.complete and decreasing and halved and elapsed < 120.0
    record_verdict(8, "convergence-to-singular", ok,
                   f"d={['%.2e' % x for x in d]}, {elapsed:.1f}s")
    assert ok, (
        "sup-distances at gamma={10,100,1000} must be resolved and decrease "
        f"strictly, the last below half the first, within 120 s: measured "
        f"{d}, statuses {rep.statuses}, {elapsed:.1f}s"
    )


def test_c09_morse_dichotomy():
    t0 = time.time()
    results = {}
    for N, p in [(12, 5.0), (12, 3.0), (5, 10.0)]:
        params = ProblemParams(N, p, R=1.0)
        lem = lemma_constants(derive_constants(params))
        seed = min(lem.rtilde_p / 16.0, 0.5e-4)
        sol = solve_singular(params, r_end=1.05, seed_radius=seed)
        results[(N, p)] = morse_scan(params, sol, [1e-2, 1e-3, 1e-4])

    plateau = results[(12, 5.0)]
    inc_12 = results[(12, 3.0)]
    inc_5 = results[(5, 10.0)]

    def strictly_increasing(counts):
        return all(b > a for a, b in zip(counts, counts[1:]))

    ok = (
        plateau.classification is TailClass.SUPERCRITICAL_STABLE_TAIL
        and plateau.counts[-1] == plateau.counts[-2]
        and strictly_increasing(inc_12.counts)
        and strictly_increasing(inc_5.counts)
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    assert record_verdict(
        9, "morse-dichotomy", ok,
        f"counts (12,5)={plateau.counts} (12,3)={inc_12.counts} "
        f"(5,10)={inc_5.counts}, {elapsed:.1f}s",
    )


def test_c10_hardy_certificates():
    t0 = time.time()
    params = ProblemParams(5, 10.0)
    prof = partial(origin_scaled, derive_constants(params))
    eps0 = 1.0
    ok = True
    for j in range(1, 6):
        fj = hardy_test_function(j, eps0, 5)
        ok = ok and rayleigh_quotient(fj, prof, params) < 0.0
        r = fj.radii
        sub = ProblemParams(5, 10.0, R=float(r[-1]))
        op = assemble_operator(prof, sub, float(r[0]), 16384)
        log_nodes = np.linspace(np.log(r[0]), np.log(r[-1]), 16384 + 1)[1:]
        y = np.interp(log_nodes, fj.log_r, fj.scaled)
        quad = float(np.sum(op.form.diag * y**2)
                     + 2.0 * np.sum(op.form.offdiag * y[:-1] * y[1:]))
        ok = ok and quad < 0.0
    # the log-domain quadrature also certifies the default small eps0
    for j in range(1, 6):
        ok = ok and rayleigh_quotient(hardy_test_function(j, 0.35, 5), prof, params) < 0.0
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert record_verdict(10, "hardy-certificates", ok, f"{elapsed:.1f}s")


def test_c11_inertia_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1312)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 201))
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        form = TridiagonalForm(diag=d, offdiag=e)
        want = int(np.count_nonzero(eigh_tridiagonal(d, e, eigvals_only=True) < 0.0))
        ok = ok and negative_count(form) == want
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    assert record_verdict(11, "inertia-oracle", ok, f"{elapsed:.2f}s")


def test_c12_constant_solution_morse_oracle():
    t0 = time.time()
    params = ProblemParams(3, 5.0, R=1.0)
    form = assemble_operator(constant_profile(1.0, params.p), params, delta=1e-3,
                             grid_size=4096).form
    count = negative_count(form)
    # first nonzero radial Neumann eigenvalue on the unit ball: tan k = k
    k1 = brentq(lambda k: math.tan(k) - k, math.pi + 0.1, 1.5 * math.pi - 1e-9,
                xtol=1e-14)
    mu1 = k1 * k1
    evs = smallest_eigenvalues(form, 2)
    ok = (
        count == 1
        and mu1 > params.p - 1.0  # the oracle predicts exactly one negative mode
        and abs(mu1 - 20.19) < 0.01
        and abs(evs[1] - (mu1 + 1.0 - params.p)) < 0.05 * mu1
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    assert record_verdict(12, "constant-solution-morse-oracle", ok,
                          f"count={count}, mu1={mu1:.4f}")
