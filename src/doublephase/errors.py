"""Exception types shared across the package."""


class DoublePhaseError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(DoublePhaseError):
    """Two grid-bearing objects do not live on the same grid."""


class SingularJacobian(DoublePhaseError):
    """Flux Jacobian requested at a point where it does not exist
    (unregularized singular exponent at a vanishing gradient)."""


class _SolveFailure(DoublePhaseError):
    """A failed solve, carrying ``field`` and ``report`` (either may be None)."""

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


class NonConvergence(_SolveFailure):
    """An iterative solve hit its iteration cap.

    Carries the partial state so callers can inspect what was reached.
    """


class LinearSolveFailure(_SolveFailure):
    """The inner linear system is singular or not positive definite, or
    its solution is not finite.

    Carries the iterate the failing solve started from, like
    :class:`NonConvergence`.
    """


class InfeasibleObstacle(DoublePhaseError):
    """Obstacle lies above the boundary data somewhere on the boundary."""


class InvalidField(DoublePhaseError):
    """Nodal values are non-finite or have the wrong length."""


class MalformedHeader(DoublePhaseError):
    """Field file header is missing or does not parse."""


class CountMismatch(DoublePhaseError):
    """Field file value count disagrees with the header."""


class DegenerateGradient(DoublePhaseError):
    """Non-divergence operator evaluated at a vanishing gradient with a
    singular exponent; the value is undefined there."""


class NoTouchFound(DoublePhaseError):
    """No admissible touching test function exists at the requested node."""


class InvalidExponent(DoublePhaseError):
    """Penalty exponent violates its lower bound."""


class _Diagnosed(DoublePhaseError):
    """An input error carrying (line, key, reason) ``diagnostics``."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class ParseError(_Diagnosed):
    """Configuration text failed to parse.

    ``diagnostics`` is a list of (line, key, reason) triples.
    """


class ValidationError(_Diagnosed):
    """A structurally valid input violates a documented invariant."""
