"""Closed-form parameter algebra for the supercritical radial Neumann problem.

Everything in this module is scalar arithmetic derived from the dimension N
and the power p: exponent thresholds, the constants of the near-origin
power-law profile ``A * r**(-theta)``, the regime of the constant-coefficient
comparison operator in logarithmic radius, and the smallness constant that
bounds the validated seeding window ``r <= ctilde / sqrt(p)``.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import NamedTuple

from ._record import Frozen
from .errors import FeasibilityError, ParameterError

__all__ = [
    "Regime",
    "ProblemParams",
    "DerivedConstants",
    "LemmaConstants",
    "AsymptoticLimits",
    "critical_exponent",
    "joseph_lundgren",
    "derive_constants",
    "asymptotic_limits",
    "phi_nonlinearity",
    "compute_PN",
    "lemma_constants",
]


class Regime(Enum):
    """Sign class of p - 1 - (alpha/2)**2, which selects the kernel shape."""

    OSCILLATORY = "oscillatory"
    NON_OSCILLATORY = "non_oscillatory"
    DEGENERATE = "degenerate"


def _check_dimension(N: int) -> None:
    if not isinstance(N, numbers.Integral):
        raise ParameterError(f"dimension must be an integer, got {N!r}")
    if N < 3:
        raise ParameterError(f"dimension must satisfy N >= 3, got N={N}")


def critical_exponent(N: int) -> float:
    """Sobolev threshold (N+2)/(N-2) separating sub- and supercritical powers."""
    _check_dimension(N)
    return (N + 2) / (N - 2)


def joseph_lundgren(N: int) -> float:
    """Joseph-Lundgren exponent 1 + 4/(N - 4 - 2*sqrt(N-1)); +inf for N <= 10.

    The infinite branch is returned as ``math.inf`` so that comparisons like
    ``p < joseph_lundgren(N)`` are correct without magic large numbers.
    """
    _check_dimension(N)
    if N <= 10:
        return math.inf
    return 1.0 + 4.0 / (N - 4 - 2.0 * math.sqrt(N - 1.0))


class ProblemParams(Frozen):
    """One instance of -u'' - (N-1)/r u' + u = u**p on a ball of radius R.

    R may be omitted for operations that only use the equation on a ray.
    Powers strictly below the critical exponent are rejected; the boundary
    p = (N+2)/(N-2) itself is admitted because every closed form stays
    finite there (it is the alpha = 0 case).
    """

    __slots__ = ("N", "p", "R")

    def __init__(self, N: int, p: float, R: float | None = None):
        _check_dimension(N)
        if not math.isfinite(p):
            raise ParameterError(f"power must be finite, got p={p}")
        ps = critical_exponent(N)
        if not (p >= ps):
            raise ParameterError(
                f"supercritical power required: p={p} < (N+2)/(N-2)={ps} at N={N}"
            )
        if R is not None and not (math.isfinite(R) and R > 0):
            raise ParameterError(f"ball radius must be positive and finite, got R={R}")
        self._set(N=N, p=p, R=R)

    def as_dict(self) -> dict:
        return {"N": self.N, "p": self.p, "R": self.R}


class DerivedConstants(NamedTuple):
    """Closed-form constants of one (N, p) instance.

    ``A * r**(-theta)`` is the leading singular profile, ``m`` the slope of
    the logarithmic-radius substitution ``r = exp(-m*zeta)``, ``alpha`` and
    ``beta`` the drift and frequency of the comparison operator, and ``Dp``
    the amplitude of the decaying envelope ``f(zeta) = Dp*exp(-2*m*zeta)``.
    """

    N: int
    p: float
    theta: float
    A: float
    m: float
    alpha: float
    beta: float
    Dp: float
    pJL: float
    regime: Regime


def derive_constants(params: ProblemParams) -> DerivedConstants:
    """Evaluate all closed-form constants for one problem instance."""
    N, p = params.N, params.p
    theta = 2.0 / (p - 1.0)
    # theta < N-2 is implied by p > (N+2)/(N-2); assert defensively since A
    # requires theta*(N-2-theta) > 0.
    if theta >= N - 2:
        raise ParameterError(f"theta={theta} >= N-2={N - 2}: leading profile undefined")
    base = theta * (N - 2.0 - theta)
    A = math.exp(math.log(base) / (p - 1.0))
    m = 1.0 / math.sqrt(base)
    alpha = m * (N - 2.0 - 2.0 * theta)
    disc = (p - 1.0) - (alpha / 2.0) ** 2
    beta = math.sqrt(abs(disc))
    Dp = m * m / (4.0 * m * m + 2.0 * alpha * m + (p - 1.0))
    if disc > 0.0:
        regime = Regime.OSCILLATORY
    elif disc < 0.0:
        regime = Regime.NON_OSCILLATORY
    else:
        regime = Regime.DEGENERATE
    return DerivedConstants(
        N=N,
        p=p,
        theta=theta,
        A=A,
        m=m,
        alpha=alpha,
        beta=beta,
        Dp=Dp,
        pJL=joseph_lundgren(N),
        regime=regime,
    )


class AsymptoticLimits(NamedTuple):
    """Limits of the derived constants as p -> infinity at fixed N."""

    N: int
    beta_over_sqrt_p: float
    p_theta: float
    A: float
    alpha_over_sqrt_p: float
    m_over_sqrt_p: float
    Dp: float


def asymptotic_limits(N: int) -> AsymptoticLimits:
    """Large-p limits of the derived constants.

    ``beta_over_sqrt_p`` is sqrt(|1 - (N-2)/8|); it vanishes at N = 10 where
    beta itself stays bounded.
    """
    _check_dimension(N)
    return AsymptoticLimits(
        N=N,
        beta_over_sqrt_p=math.sqrt(abs(1.0 - (N - 2.0) / 8.0)),
        p_theta=2.0,
        A=1.0,
        alpha_over_sqrt_p=math.sqrt((N - 2.0) / 2.0),
        m_over_sqrt_p=1.0 / math.sqrt(2.0 * (N - 2.0)),
        Dp=1.0 / (4.0 * (N - 1.0)),
    )


def phi_nonlinearity(eta: float, p: float) -> float:
    """Quadratic remainder -( (1+eta)**p - 1 - p*eta ), nonpositive, 0 only at 0.

    Evaluated through expm1/log1p so the cancellation for small eta does not
    destroy accuracy.
    """
    if not 1.0 + eta > 0.0:
        raise ParameterError("phi_nonlinearity requires 1 + eta > 0")
    return -(math.expm1(p * math.log1p(eta)) - p * eta)


def compute_PN(c: DerivedConstants, ctilde: float) -> tuple[float, float]:
    """Smallness functional and its admissibility threshold for one (c, ctilde).

    Returns ``(PN, threshold)`` at the power ``c.p``. The envelope value at
    the edge of the seed window is ``f = Dp * ctilde**2 / p``; PN multiplies
    ``|phi(f)|/f`` by a kernel bound whose form depends on whether N < 10 or
    N >= 10. The constant ctilde is admissible when PN < threshold.
    """
    if not (0.0 < ctilde < 1.0):
        raise ParameterError(f"ctilde must lie in (0, 1), got {ctilde}")
    if c.Dp * ctilde * ctilde > 1.0:
        raise ParameterError("Dp * ctilde**2 must not exceed 1")
    if not (c.beta > 0):
        raise ParameterError("kernel bound undefined for beta = 0")
    p = c.p
    f_edge = c.Dp * ctilde * ctilde / p
    ratio = abs(phi_nonlinearity(f_edge, p)) / f_edge
    if c.N < 10:
        damp = math.exp(-(c.alpha + 8.0 * c.m) * math.pi / (2.0 * c.beta))
        bracket = 4.0 * (1.0 + damp) / ((c.alpha + 8.0 * c.m) ** 2 + 4.0 * c.beta**2)
        threshold = 0.5 * (1.0 - damp) / (1.0 + damp)
    else:
        denom = 2.0 * c.beta * (0.5 * c.alpha + 4.0 * c.m - c.beta)
        if denom <= 0.0:
            raise FeasibilityError(
                f"no admissible ctilde: the kernel bound is degenerate at N={c.N}, "
                f"p={p}, where alpha/2 + 4m - beta is not positive"
            )
        bracket = 1.0 / denom
        threshold = 0.5
    return ratio * bracket, threshold


_CTILDE_GRID = [2.0**-k for k in range(1, 21)]


class LemmaConstants(NamedTuple):
    """Seed-window constants of one instance: ctilde and its radius.

    ``ctilde`` is the largest grid value admissible at this p, ``rtilde_p =
    ctilde / sqrt(p)`` bounds the window on which the two-sided power-law
    envelope is validated, and ``PN`` with ``PN_threshold`` is the
    admissibility margin the search found for that ctilde.
    """

    N: int
    p: float
    ctilde: float
    rtilde_p: float
    PN: float
    PN_threshold: float


def lemma_constants(c: DerivedConstants) -> LemmaConstants:
    """Seed-window constants at the power ``c.p``: the first ctilde of the
    grid {2**-1, ..., 2**-20} whose ``compute_PN`` lies below its threshold,
    with that PN.

    Raises :class:`FeasibilityError` when no grid value is admissible.
    """
    for ctilde in _CTILDE_GRID:
        pn, threshold = compute_PN(c, ctilde)
        if pn < threshold:
            return LemmaConstants(
                N=c.N,
                p=c.p,
                ctilde=ctilde,
                rtilde_p=ctilde / math.sqrt(c.p),
                PN=pn,
                PN_threshold=threshold,
            )
    raise FeasibilityError(f"no admissible ctilde on the search grid at N={c.N}, p={c.p}")
