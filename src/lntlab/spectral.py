"""Radial Morse index machinery: log-radius Sturm-Liouville discretization,
inertia-based negative-eigenvalue counting, Rayleigh quotients, and the
logarithmically oscillating Hardy test functions.

The linearized operator at a radial solution u is

    L phi = -phi'' - (N-1)/r phi' - q(r) phi,      q(r) = p u**(p-1) - 1,

restricted to radial functions, with a Dirichlet cutoff at an inner radius
delta > 0 and a natural Neumann condition at the outer radius R. The inner
Dirichlet condition shrinks the form domain, so a negative-eigenvalue count
that keeps growing as delta -> 0 is unambiguous evidence of an infinite
index, while a plateau indicates a finite one.

Everything is carried in s = ln r with y = r**nu phi and nu = (N-2)/2, the
variables in which the near-origin potential q r**2 tends to a constant and
the threshold modes oscillate uniformly; one grid uniform in s serves every
cutoff.
"""

from __future__ import annotations

import math
import struct
import sys
from enum import Enum
from typing import NamedTuple

from ._dp45 import Column, linspace
from ._record import Frozen
from .errors import ConvergenceFailure, ParameterError, PositivityError
from .params import ProblemParams
from .singular import WINDOW_SHRINK, SingularSolution

__all__ = [
    "TridiagonalForm",
    "AssembledOperator",
    "SpectrumReport",
    "MorseScanResult",
    "TailClass",
    "SampledRadialFunction",
    "assemble_operator",
    "negative_count",
    "smallest_eigenvalues",
    "morse_scan",
    "rayleigh_quotient",
    "hardy_test_function",
    "potential_threshold_check",
    "ThresholdReport",
]

DEFAULT_EPS0 = 0.35
MIN_GRID_SIZE = 32
GRID_START = 1024  # intervals of the first grid a cutoff scan tries
GRID_CAP = 2**16  # largest grid a cutoff scan tries before giving up
# the pencil's largest eigenvalues grow like delta**-2 and its mass like
# delta**2: at this cutoff on 2048 nodes they reach about 4e152 and 1e-151,
# well inside double range; deeper cutoffs are untested, so the bound stays
MIN_CUTOFF = 1e-75


class TailClass(Enum):
    SUPERCRITICAL_STABLE_TAIL = "supercritical_stable_tail"
    UNBOUNDED = "unbounded"
    INCONCLUSIVE = "inconclusive"


class TridiagonalForm(Frozen):
    """Symmetric tridiagonal pencil (A, B) with diagonal positive mass B."""

    __slots__ = ("diag", "offdiag", "mass")

    def __init__(self, diag: Column, offdiag: Column, mass: Column | None = None):
        diag, offdiag = Column(diag), Column(offdiag)
        mass = None if mass is None else Column(mass)
        if len(offdiag) != max(len(diag) - 1, 0):
            raise ParameterError("offdiagonal must be one shorter than the diagonal")
        if mass is not None:
            if len(mass) != len(diag):
                raise ParameterError("mass must match the diagonal size")
            if not all(0.0 < m < math.inf for m in mass):
                raise ParameterError("mass must be positive and finite")
        self._set(diag=diag, offdiag=offdiag, mass=mass)


class AssembledOperator(NamedTuple):
    """The pencil of one (cutoff, grid) pair, on the nodes
    delta = r_0 < ... < r_M = R, uniform in ln r."""

    form: TridiagonalForm


class SpectrumReport(NamedTuple):
    """Negative-eigenvalue count at one (cutoff, grid) pair."""

    negative_count: int
    smallest_eigenvalues: tuple[float, ...]
    cutoff: float
    grid_size: int


class MorseScanResult(NamedTuple):
    reports: tuple[SpectrumReport, ...]
    classification: TailClass

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(rep.negative_count for rep in self.reports)


def assemble_operator(
    scaled,
    params: ProblemParams,
    delta: float,
    grid_size: int,
) -> AssembledOperator:
    """Symmetric tridiagonal discretization of the linearized operator.

    Nodes are uniform in s = ln r over [ln delta, ln R] and the unknowns are
    y = r**nu phi, nu = (N-2)/2. In these variables the form
    integral of (phi'**2 - q phi**2) r**(N-1) dr is

        Q(y) = integral of y_s**2 + (nu**2 - q r**2) y**2 ds - nu y(ln R)**2,

    whose entries stay of order one however small delta is, and the pencil
    mass is r**2 ds. Linear elements with lumped mass give the three-point
    stiffness; the node at delta is eliminated (Dirichlet) and the node at R
    carries a half cell (natural Neumann condition). ``grid_size`` counts
    intervals; unknowns are the ``grid_size`` nodes strictly above delta.
    ``scaled`` maps a list of radii to the solution's u r**theta, theta =
    2/(p-1), and raises CoverageError where the solution is not known.
    """
    if params.R is None:
        raise ParameterError("params.R is required to assemble the operator")
    R = params.R
    if not (0.0 < delta < R):
        raise ParameterError(f"cutoff must satisfy 0 < delta < R, got {delta}")
    if grid_size < MIN_GRID_SIZE:
        raise ParameterError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size}")
    M = int(grid_size)
    s = linspace(math.log(delta), math.log(R), M + 1)
    h = s[1] - s[0]
    nodes = [delta, *map(math.exp, s[1:-1]), R]
    tvals = scaled(nodes)
    if any(t <= 0.0 for t in tvals):
        raise PositivityError("solution must be positive on the eigenproblem domain")
    qr2 = [_q_r2(t, r, params.p) for t, r in zip(tvals, nodes)]

    nu = 0.5 * (params.N - 2.0)
    # the node at R carries a half cell and the boundary term (Neumann end)
    cell = [h] * (M - 1) + [h * 0.5]
    stiffness = [2.0 / h] * (M - 1) + [1.0 / h - nu]
    diag = [a + c * (nu * nu - q) for a, c, q in zip(stiffness, cell, qr2[1:])]
    mass = [c * (r * r) for c, r in zip(cell, nodes[1:])]
    form = TridiagonalForm(diag=diag, offdiag=[-1.0 / h] * (M - 1), mass=mass)
    return AssembledOperator(form=form)


def _pencil(form: TridiagonalForm) -> tuple[list, list, list] | None:
    """The pencil as Python float lists (diag, mass, off2) for the pivot
    recurrence, taken once per operator. off2 holds the squared off-diagonal
    behind a leading 0.0, so the first pivot is diag[0] - shift*mass[0] with
    no special case. None if an entry is not finite."""
    diag, off = form.diag.tolist(), form.offdiag.tolist()
    if not all(map(math.isfinite, diag + off)):
        return None
    mass = [1.0] * len(diag) if form.mass is None else form.mass.tolist()
    return diag, mass, [0.0] + [o * o for o in off]


def _pivot_count(diag: list, mass: list, off2: list, shift: float) -> int:
    """Negative pivots of the LDL^T factorization of A - shift*B,

        piv_i = a_i - shift*m_i - o_{i-1}**2 / piv_{i-1},

    which by Sylvester's law of inertia is the number of pencil eigenvalues
    below ``shift``. Every pivot decreases with the shift, so a zero pivot is
    taken as it would be just above the shift: negative, standing as the
    smallest negative normal double, which makes the next pivot +inf and the
    one after it finite again. The count is then the number of eigenvalues at
    or below the shift.
    """
    tiny = -sys.float_info.min
    pivot, count = 1.0, 0
    for d, m, o2 in zip(diag, mass, off2):
        pivot = d - shift * m - o2 / pivot
        if pivot <= 0.0:
            count += 1
            if pivot == 0.0:
                pivot = tiny
    return count


def negative_count(form: TridiagonalForm, shift: float = 0.0) -> int:
    """Number of pencil eigenvalues below ``shift`` via a Sturm/inertia pass.

    Exact for the discrete system up to floating-point sign evaluation at the
    shift; an eigenvalue on which the pass lands exactly is counted.
    """
    pencil = _pencil(form)
    if pencil is None:
        raise ConvergenceFailure("inertia pass over non-finite form entries")
    return _pivot_count(*pencil, shift)


_DOUBLE = struct.Struct("<d")
_INT = struct.Struct("<q")
_SIGN = 1 << 63


def _order(x: float) -> int:
    """Position of x among the doubles: adjacent doubles are one apart."""
    bits = _INT.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else -(bits + _SIGN)


def _from_order(key: int) -> float:
    return _DOUBLE.unpack(_INT.pack(key if key >= 0 else -key - _SIGN))[0]


def smallest_eigenvalues(form: TridiagonalForm, k: int = 4) -> tuple[float, ...]:
    """The k smallest pencil eigenvalues (all of them if there are fewer), by
    Sturm bisection on the pivot count of A - shift*B (Barth, Martin and
    Wilkinson, Numer. Math. 9, 1967).

    The bracket is the pencil's Gershgorin interval: at an eigenvector's
    largest component i, |a_i - lambda m_i| <= |o_{i-1}| + |o_i|. It is
    bisected in the integer order of doubles down to two adjacent doubles, at
    most 64 passes per eigenvalue, and the upper one is returned; the j-th
    eigenvalue starts from the lower end the (j-1)-th ended on. The count
    runs on the pencil itself, with no pivot floor that scales with the
    entries, so the graded log-radius pencil keeps its small eigenvalues
    accurate down to MIN_CUTOFF.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    pencil = _pencil(form)
    if pencil is None:
        raise ParameterError("form entries must be finite")
    if not pencil[0]:
        raise ParameterError("the form has no unknowns")
    diag, mass, _ = pencil
    # |o_{i-1}| + |o_i| per row, with 0.0 past either end
    off = [0.0, *map(abs, form.offdiag), 0.0]
    radius = [a + b for a, b in zip(off, off[1:])]
    lo = min((d - g) / m for d, g, m in zip(diag, radius, mass))
    hi = max((d + g) / m for d, g, m in zip(diag, radius, mass))
    # rounding may leave an extreme eigenvalue just outside the computed
    # bounds; any bracket inside double range costs at most 64 passes
    pad = 2.0**-40 * max(abs(lo), abs(hi))
    big = sys.float_info.max
    key_lo, key_top = _order(max(lo - pad, -big)), _order(min(hi + pad, big))

    vals = []
    for j in range(min(k, len(diag))):
        key_hi = key_top
        while key_hi - key_lo > 1:
            key = (key_lo + key_hi) // 2
            if _pivot_count(*pencil, _from_order(key)) > j:
                key_hi = key
            else:
                key_lo = key
        vals.append(_from_order(key_hi))
    return tuple(vals)


def check_cutoffs(deltas, R) -> list[float]:
    """The cutoffs as floats: a non-empty, strictly decreasing list of finite
    values below the ball radius R and down to MIN_CUTOFF."""
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ParameterError("at least one cutoff is required")
    if not all(math.isfinite(d) for d in deltas):
        raise ParameterError(f"cutoffs must be finite, got {deltas}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ParameterError("cutoffs must be strictly decreasing")
    if R is None or not deltas[0] < R:
        raise ParameterError(f"cutoffs must lie below the ball radius R={R}, got {deltas[0]}")
    if not deltas[-1] >= MIN_CUTOFF:
        raise ParameterError(
            f"cutoff {deltas[-1]} below {MIN_CUTOFF}: eigenvalues of order "
            "delta**-2 leave double range"
        )
    return deltas


def morse_scan(params: ProblemParams, sol, deltas) -> MorseScanResult:
    """Grid-converged negative-eigenvalue counts along a decreasing cutoff list.

    At each cutoff the grid is refined, doubling from GRID_START up to
    GRID_CAP intervals, until two successive grids agree on the count; only
    then is the count accepted. The tail is classified from at least two
    counts: counts that keep increasing as the cutoff shrinks are UNBOUNDED,
    a plateau at the last two cutoffs is SUPERCRITICAL_STABLE_TAIL, and
    anything else, a single cutoff included, is INCONCLUSIVE.
    """
    deltas = check_cutoffs(deltas, params.R)
    reports = []
    for delta in deltas:
        size, prev_count = GRID_START, None
        while True:
            if size > GRID_CAP:
                raise ConvergenceFailure(
                    f"negative count did not stabilize under grid refinement at delta={delta}"
                )
            form = assemble_operator(sol.scaled, params, delta, size).form
            count = negative_count(form)
            if count == prev_count:
                break
            size, prev_count = 2 * size, count
        reports.append(
            SpectrumReport(
                negative_count=count,
                smallest_eigenvalues=smallest_eigenvalues(form, 3),
                cutoff=delta,
                grid_size=size,
            )
        )
    counts = [rep.negative_count for rep in reports]
    classification = TailClass.INCONCLUSIVE
    if len(counts) >= 2:
        if all(b > a for a, b in zip(counts, counts[1:])):
            classification = TailClass.UNBOUNDED
        elif counts[-1] == counts[-2]:
            classification = TailClass.SUPERCRITICAL_STABLE_TAIL
    return MorseScanResult(reports=tuple(reports), classification=classification)


class SampledRadialFunction(Frozen):
    """Radial function carried in log-radius with the r**(-(N-2)/2) factor split off.

    The stored samples are y(s) = phi(e**s) * e**(nu*s) with nu = (N-2)/2 and
    s = ln r, together with dy/ds. This representation keeps quadratic forms
    of steeply singular functions inside double-precision range.
    """

    __slots__ = ("N", "log_r", "scaled", "scaled_d")

    def __init__(self, N: int, log_r: Column, scaled: Column, scaled_d: Column):
        log_r, scaled, scaled_d = Column(log_r), Column(scaled), Column(scaled_d)
        if not log_r.increasing():
            raise ParameterError("log-radius samples must be strictly increasing")
        self._set(N=N, log_r=log_r, scaled=scaled, scaled_d=scaled_d)

    @property
    def nu(self) -> float:
        return 0.5 * (self.N - 2.0)

    @property
    def radii(self) -> Column:
        return Column(map(math.exp, self.log_r))


def _q_r2(t: float, r: float, p: float) -> float:
    """r**2 (p u**(p-1) - 1) from the scaled profile t = u r**theta at r;
    theta (p-1) = 2, so r**2 u**(p-1) = t**(p-1)."""
    return p * t ** (p - 1.0) - r * r


def rayleigh_quotient(phi: SampledRadialFunction, scaled, params: ProblemParams) -> float:
    """Quadratic-form value integral of (phi'**2 - q phi**2) r**(N-1) dr.

    Composite trapezoid on the sample grid in log-radius; the surface-area
    constant of the unit sphere is omitted since only the sign matters. In
    the scaled representation the integrand is

        (dy/ds - nu y)**2 - (q r**2) y**2,

    which stays order one even when the support sits at radii where phi
    itself would overflow; ``scaled`` is as for :func:`assemble_operator`.
    """
    if phi.N != params.N:
        raise ParameterError("test function and problem dimension disagree")
    r = phi.radii
    nu = phi.nu
    f = [(dy - nu * y) * (dy - nu * y) - _q_r2(t, x, params.p) * (y * y)
         for y, dy, t, x in zip(phi.scaled, phi.scaled_d, scaled(r), r)]
    s = phi.log_r
    return math.fsum((b - a) * (fa + fb) / 2.0 for a, b, fa, fb in zip(s, s[1:], f, f[1:]))


def hardy_test_function(j: int, eps0: float, N: int,
                        n_points: int = 1024) -> SampledRadialFunction:
    """The j-th logarithmically oscillating test function with Hardy-critical decay.

    f_j(r) = r**(-(N-2)/2) sin(eps0 ln(r) / 2) restricted to the annulus
    [r_{j+1}, r_j] with r_j = exp(-2 pi j / eps0), where the sine vanishes.
    Different j have disjoint supports. Sampling is uniform in log-radius
    with at least 256 points per support so quadratures resolve the arch.
    """
    if j < 1:
        raise ParameterError(f"index must be >= 1, got {j}")
    if not (eps0 > 0 and math.isfinite(eps0)):
        raise ParameterError(f"eps0 must be positive and finite, got {eps0}")
    s_in = -2.0 * math.pi * (j + 1) / eps0
    if not math.exp(s_in) >= sys.float_info.min:
        raise ParameterError(
            f"support of f_{j} at eps0={eps0} reaches r = exp({s_in:.6g}), "
            "below the smallest normal double"
        )
    n_points = max(int(n_points), 256)
    s = linspace(s_in, -2.0 * math.pi * j / eps0, n_points)
    # the sine vanishes at both endpoints by construction; make it exact
    y = [0.0, *(math.sin(0.5 * eps0 * x) for x in s[1:-1]), 0.0]
    dy = [0.5 * eps0 * math.cos(0.5 * eps0 * x) for x in s]
    return SampledRadialFunction(N=N, log_r=s, scaled=y, scaled_d=dy)


class ThresholdReport(NamedTuple):
    """Comparison of the linearized potential against the Hardy constant."""

    limit_computed: float  # r**2 (p u**(p-1) - 1) at the smallest covered radius
    limit_closed_form: float  # p theta (N - 2 - theta)
    hardy_constant: float  # (N-2)**2 / 4
    margin: float  # limit_closed_form - hardy_constant
    side: str  # "above" or "below"
    passed: bool


def potential_threshold_check(sol: SingularSolution) -> ThresholdReport:
    """Locate the near-origin potential relative to the Hardy constant.

    Evaluates r**2 (p u**(p-1) - 1) at the inner edge rtilde_p /
    WINDOW_SHRINK of the validated window. The limit at the origin is
    p theta (N-2-theta); the potential admits infinitely many negative
    directions when the limit exceeds (N-2)**2/4 (power below the
    Joseph-Lundgren exponent) and only finitely many when it falls below.
    PASS requires the side to match the power's side of pJL and the computed
    value to match the limit within 1e-3.
    """
    params = sol.params
    c = sol.constants
    r = sol.lemma.rtilde_p / WINDOW_SHRINK
    # from the scaled profile: u itself overflows at large theta
    limit_computed = _q_r2(sol.scaled([r])[0], r, params.p)
    limit_closed = params.p * c.theta * (params.N - 2.0 - c.theta)
    hardy = 0.25 * (params.N - 2.0) ** 2
    margin = limit_closed - hardy
    consistent = (margin > 0.0) == (params.p < c.pJL)
    limit_match = abs(limit_computed - limit_closed) <= 1e-3 * limit_closed
    return ThresholdReport(
        limit_computed=limit_computed,
        limit_closed_form=limit_closed,
        hardy_constant=hardy,
        margin=margin,
        side="above" if margin > 0 else "below",
        passed=consistent and limit_match,
    )
