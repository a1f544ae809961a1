"""Numerical laboratory for the double-phase elliptic equation.

Solves -div(|Du|^(p-2) Du + a(x) |Du|^(q-2) Du) = eps two ways — by
energy minimization over P1 fields and by a finite-difference scheme
for the expanded non-divergence operator — and verifies the
structural facts tying the two together: solver equivalence, comparison
principles, Caccioppoli bounds, obstacle approximation monotonicity,
and regularization convergence.
"""

__version__ = "0.1.0"

from .errors import (
    CountMismatch,
    DegenerateGradient,
    DoublePhaseError,
    GridMismatch,
    InfeasibleObstacle,
    InvalidExponent,
    InvalidField,
    LinearSolveFailure,
    MalformedHeader,
    NonConvergence,
    NoTouchFound,
    ParseError,
    SingularJacobian,
    ValidationError,
)
from .grids import (
    BoundaryData,
    Grid,
    NodalField,
    element_gradients,
    element_means,
    interpolate,
    p1_gradient,
    read_field,
    write_field,
)
from .operators import (
    CoefficientField,
    DoublePhaseParams,
    ExponentCheck,
    a_flux,
    a_flux_jacobian,
    h_eval,
    monotonicity_gap,
    validate_exponents,
    vector_inequality_check,
)
from .orlicz import (
    gradient_modular,
    luxemburg_norm,
    modular,
    norm_modular_bounds_check,
    poincare_ratio,
)
from .variational import (
    ProblemSpec,
    SolveReport,
    approximation_sequence,
    complementarity_summary,
    energy,
    residual,
    solve_dirichlet,
    solve_obstacle,
)
from .viscosity import (
    DoublingResult,
    Quadratic,
    SecondOrderJet,
    TouchingQuadratic,
    TouchReport,
    consistency_check,
    doubling_penalty,
    generate_touching_quadratics,
    local_equation,
    nondiv_eval,
    solve_viscosity,
    touch_test,
)
from .studies import (
    StudyTable,
    caccioppoli_study,
    comparison_study,
    equivalence_study,
    obstacle_approximation_study,
    regularization_study,
    trig_series,
)
