"""Numerical laboratory for singular radial solutions of the supercritical
Lin-Ni-Takagi equation -Du + u = u**p on a ball with Neumann boundary.

The package constructs the singular solution from its origin asymptotics,
locates regular solutions by shooting, finds powers that prescribe a given
critical radius, counts the radial Morse index of the singular solution, and
ships a command-line harness that persists every check as a report bundle.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConvergenceFailure,
    CoverageError,
    DegenerateEventError,
    EventError,
    FeasibilityError,
    IntegrationError,
    ParameterError,
    PositivityError,
)
from .exponents import ExponentSolution, continuity_scan, find_exponent, find_istar
from .ode import (
    DifferencePath,
    PointKind,
    RadialState,
    RadialTrajectory,
    energy_rate_deviation,
    integrate_adaptive,
    integrate_difference,
)
from .params import (
    AsymptoticLimits,
    DerivedConstants,
    LemmaConstants,
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
from .shooting import ShootingResult, branch_sample, convergence_to_singular, shoot
from .singular import (
    CriticalRadii,
    SingularSolution,
    derivative_bound_check,
    seed_at_origin,
    solve_singular,
    solve_with_criticals,
    verify_origin_bounds,
)
from .spectral import (
    AssembledOperator,
    EigenProblemSpec,
    MorseScanResult,
    SampledRadialFunction,
    SpectrumReport,
    TailClass,
    TridiagonalForm,
    assemble_operator,
    hardy_test_function,
    morse_scan,
    negative_count,
    potential_threshold_check,
    rayleigh_quotient,
    smallest_eigenvalues,
)
