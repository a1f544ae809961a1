"""Exception types shared across the package."""


class DoublePhaseError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(DoublePhaseError):
    """Two grid-bearing objects do not live on the same grid."""


class SingularJacobian(DoublePhaseError):
    """Flux Jacobian requested at a point where it does not exist
    (unregularized singular exponent at a vanishing gradient)."""


class NonConvergence(DoublePhaseError):
    """An iterative solve hit its iteration cap.

    Carries the partial state so callers can inspect what was reached.
    """

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


class LinearSolveFailure(DoublePhaseError):
    """The inner linear system is singular or not positive definite, or
    its solution is not finite.

    Carries the iterate the failing solve started from, like
    :class:`NonConvergence`.
    """

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


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


class ZeroGradient(DoublePhaseError):
    """Gradient norm vanished where a ratio was requested."""


class ParseError(DoublePhaseError):
    """Configuration text failed to parse.

    ``diagnostics`` is a list of (line, key, reason) triples.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class ValidationError(DoublePhaseError):
    """A structurally valid input violates a documented invariant."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])
