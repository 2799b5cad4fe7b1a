"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid problem parameters or arguments outside an operation's domain."""


class PositivityError(RuntimeError):
    """A state left the positive cone on which the equation is defined."""


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the last good partial trajectory."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateEventError(RuntimeError):
    """Critical points fail to alternate between minima and maxima."""


class EventError(RuntimeError):
    """A requested trajectory event is absent or could not be located."""


class BracketError(RuntimeError):
    """A root bracket could not be established or shows no sign change."""


class CoverageError(ValueError):
    """A sampled object does not cover the requested radii."""


class FeasibilityError(RuntimeError):
    """No admissible smallness constant satisfies the required inequalities."""


class ConvergenceFailure(RuntimeError):
    """An iterative refinement did not stabilize within its budget."""
