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
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, CoverageError, ParameterError, PositivityError
from .params import DerivedConstants, ProblemParams
from .singular import SingularSolution

__all__ = [
    "EigenProblemSpec",
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
# eigenvalues grow like delta**-2 and their Sturm sequences square them, which
# leaves double range below about 1e-77
MIN_CUTOFF = 1e-75


class TailClass(Enum):
    SUPERCRITICAL_STABLE_TAIL = "supercritical_stable_tail"
    UNBOUNDED = "unbounded"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EigenProblemSpec:
    """Discretization metadata of one eigenvalue problem instance."""

    grid: np.ndarray  # nodes delta = r_0 < ... < r_M = R, uniform in ln r
    potential: np.ndarray  # q(r) = p u**(p-1) - 1 at the nodes


@dataclass(frozen=True)
class TridiagonalForm:
    """Symmetric tridiagonal pencil (A, B) with diagonal positive mass B."""

    diag: np.ndarray
    offdiag: np.ndarray
    mass: np.ndarray | None = None

    def __post_init__(self):
        if self.offdiag.size != max(self.diag.size - 1, 0):
            raise ParameterError("offdiagonal must be one shorter than the diagonal")
        if self.mass is not None and self.mass.size != self.diag.size:
            raise ParameterError("mass must match the diagonal size")


@dataclass(frozen=True)
class AssembledOperator:
    spec: EigenProblemSpec
    form: TridiagonalForm


@dataclass(frozen=True)
class SpectrumReport:
    """Negative-eigenvalue count at one (cutoff, grid) pair."""

    negative_count: int
    smallest_eigenvalues: tuple[float, ...]
    cutoff: float
    grid_size: int


@dataclass(frozen=True)
class MorseScanResult:
    reports: tuple[SpectrumReport, ...]
    classification: TailClass

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(rep.negative_count for rep in self.reports)


def _scaled_profile(u, p: float):
    """Normalize the solution argument to a vectorized callable for the
    scaled profile r -> u(r) r**theta, theta = 2/(p-1), and the radii it
    covers (None: all). The solution is a ``SingularSolution``, the
    ``DerivedConstants`` standing for their two-term origin expansion, or a
    positive constant.

    The scaled profile tends to A at the origin, where u itself overflows
    once theta is large.
    """
    theta = 2.0 / (p - 1.0)
    if isinstance(u, DerivedConstants):
        # the two-term origin expansion A r**(-theta) (1 + Dp r**2)
        return lambda r: u.A * (1.0 + u.Dp * np.square(r)), None
    if isinstance(u, SingularSolution):
        # below the seed radius the two-term origin expansion the run was
        # seeded from is at least as accurate as at the seed itself
        traj = u.trajectory
        inner, _ = _scaled_profile(u.constants, p)
        r0 = traj.r_start

        def scaled(r):
            r = np.asarray(r, dtype=float)
            return np.where(r < r0, inner(r), traj.sample(np.maximum(r, r0))[0] * r**theta)

        return scaled, (0.0, traj.r_end)
    if isinstance(u, (int, float)):
        val = float(u)
        if val <= 0:
            raise PositivityError("constant solution must be positive")
        return lambda r: val * np.asarray(r, dtype=float) ** theta, None
    raise ParameterError(f"unsupported solution object {type(u)!r}")


def assemble_operator(
    u,
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
    """
    if params.R is None:
        raise ParameterError("params.R is required to assemble the operator")
    R = params.R
    if not (0.0 < delta < R):
        raise ParameterError(f"cutoff must satisfy 0 < delta < R, got {delta}")
    if grid_size < MIN_GRID_SIZE:
        raise ParameterError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size}")
    scaled, coverage = _scaled_profile(u, params.p)
    if coverage is not None and not (coverage[0] <= delta and R <= coverage[1]):
        raise CoverageError(
            f"solution covers [{coverage[0]}, {coverage[1]}] but the "
            f"eigenproblem needs [{delta}, {R}]"
        )
    M = int(grid_size)
    s = np.linspace(math.log(delta), math.log(R), M + 1)
    h = s[1] - s[0]
    nodes = np.exp(s)
    nodes[0], nodes[-1] = delta, R
    tvals = scaled(nodes)
    if np.any(tvals <= 0.0):
        raise PositivityError("solution must be positive on the eigenproblem domain")
    qr2 = _q_r2(tvals, nodes, params.p)

    nu = 0.5 * (params.N - 2.0)
    cell = np.full(M, h)
    cell[-1] *= 0.5  # half cell at the Neumann end
    diag = np.full(M, 2.0 / h)
    diag[-1] = 1.0 / h - nu
    diag += cell * (nu * nu - qr2[1:])
    off = np.full(M - 1, -1.0 / h)
    mass = cell * nodes[1:] ** 2

    # q itself overflows where r**2 underflows; the form only uses q r**2
    with np.errstate(over="ignore", divide="ignore"):
        spec = EigenProblemSpec(grid=nodes, potential=qr2 / nodes**2)
    return AssembledOperator(spec=spec, form=TridiagonalForm(diag=diag, offdiag=off, mass=mass))


def _ldl_negative_count(diag: np.ndarray, off: np.ndarray) -> int | None:
    """Inertia of a symmetric tridiagonal matrix from the LDL^T pivots.

    Returns None on pivot breakdown (a zero or non-finite pivot).
    """
    # on Python floats: indexing numpy scalars would cost most of the pass
    diag, off = diag.tolist(), off.tolist()
    pivot = diag[0]
    if pivot == 0.0 or not math.isfinite(pivot):
        return None
    count = int(pivot < 0.0)
    for d, o in zip(diag[1:], off):
        pivot = d - o * o / pivot
        if pivot == 0.0 or not math.isfinite(pivot):
            return None
        count += int(pivot < 0.0)
    return count


def negative_count(system, shift: float = 0.0) -> int:
    """Number of pencil eigenvalues below ``shift`` via a Sturm/inertia pass.

    Exact for the discrete system up to floating-point sign evaluation at the
    shift. A pivot breakdown perturbs the shift by 1e-12 times the matrix
    scale and retries, at most three times.
    """
    form = system.form if isinstance(system, AssembledOperator) else system
    diag = np.asarray(form.diag, dtype=float)
    off = np.asarray(form.offdiag, dtype=float)
    mass = np.ones_like(diag) if form.mass is None else np.asarray(form.mass, dtype=float)
    if diag.size == 0:
        return 0
    scale = max(
        float(np.max(np.abs(diag))),
        float(np.max(np.abs(off))) if off.size else 0.0,
        1.0,
    )
    s = shift
    for _ in range(4):
        count = _ldl_negative_count(diag - s * mass, off)
        if count is not None:
            return count
        s += 1e-12 * scale
    raise ConvergenceFailure("inertia recurrence broke down after three shift perturbations")


def smallest_eigenvalues(system, k: int = 4) -> tuple[float, ...]:
    """The k smallest pencil eigenvalues via the mass-normalized standard form."""
    # imported here: scipy.linalg takes about 0.3 s to load, and no other
    # path of the package needs it
    from scipy.linalg import eigh_tridiagonal

    form = system.form if isinstance(system, AssembledOperator) else system
    diag = np.asarray(form.diag, dtype=float)
    off = np.asarray(form.offdiag, dtype=float)
    mass = np.ones_like(diag) if form.mass is None else np.asarray(form.mass, dtype=float)
    d = diag / mass
    e = off / np.sqrt(mass[:-1] * mass[1:]) if off.size else off
    k = min(k, diag.size)
    # the log-radius pencil is graded: its standard form grows like r**-2
    # towards the cutoff, so LAPACK's default tolerance eps * |T| would swamp
    # eigenvalues of order one; bisect to relative accuracy instead
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), eigvals_only=True,
                            tol=sys.float_info.min)
    return tuple(float(v) for v in vals)


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
            op = assemble_operator(sol, params, delta, size)
            count = negative_count(op)
            if count == prev_count:
                break
            size, prev_count = 2 * size, count
        reports.append(
            SpectrumReport(
                negative_count=count,
                smallest_eigenvalues=smallest_eigenvalues(op, 3),
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


@dataclass(frozen=True)
class SampledRadialFunction:
    """Radial function carried in log-radius with the r**(-(N-2)/2) factor split off.

    The stored samples are y(s) = phi(e**s) * e**(nu*s) with nu = (N-2)/2 and
    s = ln r, together with dy/ds. This representation keeps quadratic forms
    of steeply singular functions inside double-precision range.
    """

    N: int
    log_r: np.ndarray
    scaled: np.ndarray
    scaled_d: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.log_r) <= 0):
            raise ParameterError("log-radius samples must be strictly increasing")

    @property
    def nu(self) -> float:
        return 0.5 * (self.N - 2.0)

    @property
    def radii(self) -> np.ndarray:
        return np.exp(self.log_r)


def _q_r2(t: np.ndarray, r: np.ndarray, p: float) -> np.ndarray:
    """r**2 (p u**(p-1) - 1) from the scaled profile t = u r**theta at r;
    theta (p-1) = 2, so r**2 u**(p-1) = t**(p-1)."""
    return p * t ** (p - 1.0) - r * r


def rayleigh_quotient(phi: SampledRadialFunction, u, params: ProblemParams) -> float:
    """Quadratic-form value integral of (phi'**2 - q phi**2) r**(N-1) dr.

    Composite trapezoid on the sample grid in log-radius; the surface-area
    constant of the unit sphere is omitted since only the sign matters. In
    the scaled representation the integrand is

        (dy/ds - nu y)**2 - (q r**2) y**2,

    which stays order one even when the support sits at radii where phi
    itself would overflow.
    """
    if phi.N != params.N:
        raise ParameterError("test function and problem dimension disagree")
    scaled, coverage = _scaled_profile(u, params.p)
    r = phi.radii
    if coverage is not None and not (coverage[0] <= r[0] and r[-1] <= coverage[1]):
        raise CoverageError(
            f"solution covers [{coverage[0]}, {coverage[1]}] but the test "
            f"function is supported on [{r[0]}, {r[-1]}]"
        )
    grad = (phi.scaled_d - phi.nu * phi.scaled) ** 2
    pot = _q_r2(scaled(r), r, params.p) * phi.scaled**2
    return float(np.trapezoid(grad - pot, phi.log_r))


def hardy_test_function(
    j: int,
    eps0: float = DEFAULT_EPS0,
    N: int = 3,
    n_points: int = 1024,
) -> SampledRadialFunction:
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
    s = np.linspace(s_in, -2.0 * math.pi * j / eps0, n_points)
    y = np.sin(0.5 * eps0 * s)
    dy = 0.5 * eps0 * np.cos(0.5 * eps0 * s)
    # the sine vanishes at both endpoints by construction; make it exact
    y[0] = 0.0
    y[-1] = 0.0
    return SampledRadialFunction(N=N, log_r=s, scaled=y, scaled_d=dy)


@dataclass(frozen=True)
class ThresholdReport:
    """Comparison of the linearized potential against the Hardy constant."""

    limit_computed: float  # r**2 (p u**(p-1) - 1) at the smallest covered radius
    limit_closed_form: float  # p theta (N - 2 - theta)
    hardy_constant: float  # (N-2)**2 / 4
    margin: float  # limit_closed_form - hardy_constant
    side: str  # "above" or "below"
    passed: bool


def potential_threshold_check(sol: SingularSolution) -> ThresholdReport:
    """Locate the near-origin potential relative to the Hardy constant.

    Evaluates r**2 (p u**(p-1) - 1) at the inner edge of the validated seed
    window. The limit at the origin is p theta (N-2-theta); the potential
    admits infinitely many negative directions when the limit exceeds
    (N-2)**2/4 (power below the Joseph-Lundgren exponent) and only finitely
    many when it falls below. PASS requires the side to match the power's
    side of pJL and the computed value to match the limit within 1e-3.
    """
    params = sol.params
    c = sol.constants
    r = np.array([sol.seed_radius * (1.0 + 1e-12)])
    limit_computed = float(_q_r2(sol.trajectory.sample(r)[0] * r**c.theta, r, params.p)[0])
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
