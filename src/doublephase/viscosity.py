"""Non-divergence (viscosity) side of the equation.

The expanded operator is

    F(x, eta, X) = -|eta|^(p-2) ( tr X + (p-2) <X w, w> )
                   - a(x) |eta|^(q-2) ( tr X + (q-2) <X w, w> )
                   - |eta|^(q-2) eta . grad a(x),          w = eta/|eta|,

which equals -div A(x, Dphi) on smooth phi; ``nondiv_eval``,
``consistency_check``, ``touch_test`` and ``local_equation`` take a
variable a(x). The grid solver takes a constant a only: the first-order
term of a variable a gives neighbour weights of either sign, and
Barles-Souganidis convergence needs a monotone scheme. It discretizes F
with centered gradients, centered second differences, the sign-adapted
pair of diagonal stencils for the mixed derivative, and a gradient floor
|eta| -> max(|eta|, h) tying regularization to resolution. The scheme is
monotone only with its coefficients frozen: S, Gamma and the direction w
are read from the centered gradient, which moves with the axis
neighbours, and on rough data the scheme can have more than one discrete
solution (known defect KD-3 in ROADMAP.md). It solves the scheme F = eps
by semismooth Newton: the Newton matrix is the frozen M-matrix (coefficients and mixed-stencil
choice held at the current field, the matrix of Howard's policy
iteration) plus the derivative of the coefficients through the centered
gradient, with one-sided derivatives at the floor and the policy switch.
An Armijo line search on the squared residual globalizes it, and a
continuation in the gradient floor, from 1 down to h, takes over when
that line search stalls. Each iterate's residual, frozen weights and
Newton matrix read one ``_Scheme``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGradient,
    GridMismatch,
    InvalidExponent,
    NonConvergence,
    NoTouchFound,
    ValidationError,
)
from .grids import InteriorPattern, NodalField, poisson_start
from .operators import a_flux, first_order_term, flux_coefficient_derivatives, flux_coefficients
from .variational import SolveReport, _gate

__all__ = [
    "SecondOrderJet",
    "TouchReport",
    "Quadratic",
    "TouchingQuadratic",
    "nondiv_eval",
    "consistency_check",
    "solve_viscosity",
    "local_equation",
    "generate_touching_quadratics",
    "touch_test",
    "doubling_penalty",
    "DoublingResult",
]

SCHEME_TOL = 1e-10
MAX_NEWTON_ITER = 500
ROUNDING_ULPS = 8.0
ARMIJO = 1e-4
# a step shorter than 2^-7 counts as a stall: on degenerate data longer
# searches only crawl along a local minimum of |R|^2 before failing
MAX_BACKTRACK = 8
# gradient floors of the continuation, 1 down to 2^-12; a solve that
# needs it visits those above its grid spacing h, then h itself
FLOOR_SCHEDULE = tuple(0.5 ** k for k in range(13))
# values alive at once in a block of the doubling search: about eight
# arrays of one value per pair, so a block holds BLOCK_PAIRS / 8 pairs
BLOCK_PAIRS = 1 << 20


@dataclass(frozen=True)
class SecondOrderJet:
    """Point, gradient and symmetric Hessian of a smooth test function,
    or a batch of them: x (..., n), eta (..., n) and hess (..., n, n),
    with batch shapes that broadcast. Each Hessian must be symmetric."""

    x: np.ndarray
    eta: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "hess", np.asarray(self.hess, dtype=float))
        X = self.hess
        asym = np.max(np.abs(X - np.swapaxes(X, -1, -2)), axis=(-2, -1))
        if np.any(asym > 1e-12 * np.maximum(1.0, np.max(np.abs(X), axis=(-2, -1)))):
            raise ValueError("Hessian must be symmetric")


@dataclass
class TouchReport:
    """One touching test function and its operator verdict."""

    point: np.ndarray
    slope: np.ndarray
    curvature: float
    grad_norm: float
    value: float
    epsilon: float
    tolerance: float
    passed: bool


class Quadratic:
    """phi(x) = const + lin . x + 0.5 x . quad x with symmetric quad."""

    def __init__(self, const, lin, quad):
        self.const = float(const)
        self.lin = np.asarray(lin, dtype=float)
        self.quad = np.asarray(quad, dtype=float)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.const + self.lin @ x + 0.5 * x @ self.quad @ x

    def gradient(self, x):
        return self.lin + self.quad @ np.asarray(x, dtype=float)

    def hessian(self, x):
        return self.quad

    def jet(self, x):
        return SecondOrderJet(x, self.gradient(x), self.hessian(x))


class TouchingQuadratic(Quadratic):
    """phi(x) = u0 + b.(x - x0) - (curvature/2) |x - x0|^2 with slope = b."""

    def __init__(self, x0, u0, b, curvature):
        self.x0 = x0 = np.asarray(x0, dtype=float)
        self.slope = b = np.asarray(b, dtype=float)
        self.curvature = k = float(curvature)
        super().__init__(u0 - b @ x0 - 0.5 * k * (x0 @ x0), b + k * x0, -k * np.eye(len(x0)))


def nondiv_eval(params, jet):
    """Value of the expanded operator F on a second-order jet:
    -(S tr X + Gamma <X w, w>) - |eta|^(q-2) eta . grad a(x).

    A batch of jets gives an array over the broadcast batch shape, a
    single jet a float. At a vanishing gradient and p >= 2 the degenerate
    factors take their limits (0^0 = 1 keeps the exponent-2 phases, w w^T
    drops out); for p < 2 the value is undefined and
    :class:`DegenerateGradient` is raised if any jet has eta = 0.
    """
    p, q = params.p, params.q
    eta, X = jet.eta, jet.hess
    n = eta.shape[-1]
    batch = np.broadcast_shapes(jet.x.shape[:-1], eta.shape[:-1], X.shape[:-2])
    pts = np.broadcast_to(jet.x, batch + (n,)).reshape(-1, n)
    a = params.coeff.value(pts).reshape(batch)
    grad_a = params.coeff.grad_value(pts).reshape(batch + (n,))
    nrm = np.linalg.norm(eta, axis=-1)
    flat = nrm == 0.0
    if p < 2.0 and np.any(flat):
        raise DegenerateGradient("operator undefined at a vanishing gradient for p < 2")
    w = eta / np.where(flat, 1.0, nrm)[..., None]
    first = first_order_term(q, nrm, eta, grad_a)
    S, gam = flux_coefficients(p, q, a, nrm)
    trace = np.trace(X, axis1=-2, axis2=-1)
    wXw = np.sum(w * np.sum(X * w[..., None, :], axis=-1), axis=-1)
    value = -(S * trace + gam * wXw) - first
    return float(value) if value.ndim == 0 else value


def consistency_check(params, phi, x):
    """Compare -div A(x, Dphi) (finite differences of the flux field)
    with the expanded operator on phi's exact jet.

    Returns (divergence_form_value, nondiv_value, relative_gap). The
    divergence is a fourth-order central difference of the flux with
    step h = 1e-3. Raises :class:`DegenerateGradient` where
    :func:`nondiv_eval` does: at a vanishing gradient for p < 2.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    h = 1e-3
    nd_value = nondiv_eval(params, phi.jet(x))

    def flux_component(y, k):
        return a_flux(params, y, phi.gradient(y))[k]

    div = 0.0
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        div += (
            -flux_component(x + 2 * e, k)
            + 8.0 * flux_component(x + e, k)
            - 8.0 * flux_component(x - e, k)
            + flux_component(x - 2 * e, k)
        ) / (12.0 * h)
    div_value = -div
    gap = abs(div_value - nd_value) / max(1.0, abs(div_value), abs(nd_value))
    return div_value, nd_value, gap


def _offsets(dim):
    """The 3^dim node offsets (dx[, dy]) of a node's neighbourhood, x
    fastest: W C E in 1D, SW S SE W C E NW N NE in 2D."""
    return [o[::-1] for o in itertools.product((-1, 0, 1), repeat=dim)]


class _Stencil:
    """Interior 3-point (1D) or 9-point (2D) pattern of the scheme on one
    grid, built once: the geometry every :class:`_Scheme` on it reads.

    Row k of ``nbr`` holds the neighbor at offset k of :func:`_offsets`
    of every interior node. A weight array W with one row per offset is
    one Newton matrix: the pattern writes row k into band row k and drops
    the weights of (fixed) boundary neighbors. It is not symmetric, so the
    pattern stores the general band (half-bandwidth nx - 1 in 2D) and
    solves it by banded LU with partial pivoting.
    """

    def __init__(self, grid):
        self.grid = grid
        offsets = _offsets(grid.dim)
        unit = np.eye(grid.dim, dtype=int)
        # rows of the centre and of its +-1 neighbours along each axis
        self.centre = offsets.index((0,) * grid.dim)
        self.plus, self.minus = ([offsets.index(tuple(s * e)) for e in unit] for s in (1, -1))
        self.h = np.asarray(grid.spacing, dtype=float)[:, None]
        self.h2 = self.h ** 2
        self.hxy = float(np.prod(grid.spacing))
        self.pattern = InteriorPattern(grid, offsets, symmetric=False)
        self.nbr = self.pattern.steps[:, None] + grid.interior_idx[None, :]


class _Scheme:
    """The scheme read off the centered gradient ``eta`` of one field ``u``
    with gradient floor ``dv``, per interior node of ``stencil``: modulus
    ``norm`` = |eta|, floored modulus m, direction w = eta/m, the law S and
    ``gam``, the diagonal and mixed entries of M = S I + Gamma w w^T, the
    mixed-stencil ``policy`` (NE-SW pair where M12 >= 0), the axis and
    sign-adapted mixed second differences, the diagonal (``centre``)
    weight and the ``residual`` F - eps = -tr(M D^2 u) - eps. ``law`` is
    (p, q, a) with a constant ``a`` given at the interior nodes, so F has
    no first-order term. Vectors are (dim, n); 1D has no mixed entry
    (``m12`` = ``dxy`` = 0)."""

    def __init__(self, stencil, u, law, dv, eps):
        p, q, a = law
        self.stencil, self.law = stencil, law
        uv = u[stencil.nbr]
        up, um, uc = uv[stencil.plus], uv[stencil.minus], uv[stencil.centre]
        self.eta = (up - um) / (2.0 * stencil.h)
        self.norm = np.sqrt((self.eta * self.eta).sum(axis=0))
        self.m = np.maximum(self.norm, dv)
        self.w = self.eta / self.m
        S, self.gam = flux_coefficients(p, q, a, self.m)
        self.mdiag = S + self.gam * self.w * self.w
        self.d2 = (up - 2.0 * uc + um) / stencil.h2
        if stencil.grid.dim == 1:
            self.m12 = self.dxy = 0.0
            self.policy = None
        else:
            # sign-adapted mixed difference: the NE-SW pair when M12 >= 0,
            # the NW-SE pair otherwise, so every off-diagonal weight is <= 0
            self.m12 = self.gam * self.w[0] * self.w[1]
            self.policy = self.m12 >= 0.0
            cross = (up + um).sum(axis=0) - 2.0 * uc
            self.dxy = np.where(self.policy, uv[0] + uv[8] - cross, cross - uv[2] - uv[6]) / (2.0 * stencil.hxy)
        self.centre = 2.0 * (self.mdiag / stencil.h2).sum(axis=0) - 2.0 * np.abs(self.m12) / stencil.hxy
        self.residual = -((self.mdiag * self.d2).sum(axis=0) + 2.0 * self.m12 * self.dxy) - eps

    def weights(self):
        """Frozen weights W, one row per stencil offset: W u = -tr(M D^2 u)
        with M, the policy and the floor held at their values here."""
        st = self.stencil
        c = self.mdiag / st.h2
        cm = np.abs(self.m12) / st.hxy
        W = np.empty(st.nbr.shape)
        W[st.plus] = W[st.minus] = cm - c
        W[st.centre] = self.centre
        if st.grid.dim == 2:
            W[0] = W[8] = np.where(self.policy, -cm, 0.0)
            W[2] = W[6] = np.where(self.policy, 0.0, -cm)
        return W

    def jacobian(self):
        """Band of the Newton matrix dR/du_int here: the frozen weights W
        plus the derivative of W u through the centered gradient, which
        only touches the axis neighbors. The policy stays fixed; below the
        floor m does not move (dm = 0) and w = eta/dv."""
        p, q, a = self.law
        st, w, m = self.stencil, self.w, self.m
        W = self.weights()
        dm = np.where(self.norm >= m, w, 0.0)
        dS, dgam = flux_coefficient_derivatives(p, q, a, m)
        Dw = self.d2 * w + self.dxy * w[::-1]  # D^2 u w with D^2 u = [[d2x, dxy], [dxy, d2y]]
        wDw = (w * Dw).sum(axis=0)
        g = (dS * self.d2.sum(axis=0) + dgam * wDw) * dm + 2.0 * self.gam * (Dw - dm * wDw) / m
        g /= 2.0 * st.h  # d eta_j / d u at the +h_j and -h_j neighbors
        W[st.plus] -= g
        W[st.minus] += g
        return st.pattern.fill(W)


def _rounding_floor(centre, u):
    """Smallest residual max |F - eps| that rounding lets a solve certify:
    a few ulps of the largest diagonal (``centre``) weight times max |u|."""
    scale = float(np.max(centre)) * (1.0 + float(np.max(np.abs(u))))
    return ROUNDING_ULPS * np.finfo(float).eps * scale


def _newton(stencil, u, law, dv, eps, tol, history):
    """Semismooth Newton on R(u) = F(u) - eps at gradient floor ``dv``,
    globalized by an Armijo line search on |R|^2 / 2 whose trials only
    evaluate R. Appends the residual after every step to ``history``;
    returns (u, residual, status) with status "converged", "stalled" (the
    line search found no decrease) or "capped" (``MAX_NEWTON_ITER`` steps
    taken in all)."""
    interior = stencil.grid.interior_idx
    scheme = _Scheme(stencil, u, law, dv, eps)
    while True:
        r = scheme.residual
        residual = float(np.max(np.abs(r)))
        if residual <= max(tol, _rounding_floor(scheme.centre, u)):
            return u, residual, "converged"
        if len(history) >= MAX_NEWTON_ITER:
            return u, residual, "capped"
        d = stencil.pattern.solve(stencil.pattern.factor(scheme.jacobian(), u), -r, u)
        phi = float(r @ r)
        trial = u.copy()
        t = 1.0
        for _ in range(MAX_BACKTRACK):
            trial[interior] = u[interior] + t * d
            trial_scheme = _Scheme(stencil, trial, law, dv, eps)
            r_t = trial_scheme.residual
            if float(r_t @ r_t) <= (1.0 - 2.0 * ARMIJO * t) * phi:
                break
            t *= 0.5
        else:
            return u, residual, "stalled"
        u, scheme = trial, trial_scheme
        history.append(float(np.max(np.abs(scheme.residual))))


def solve_viscosity(spec, tol=SCHEME_TOL):
    """Semismooth Newton on the scheme; (field, report).

    Each step solves the Newton matrix of R(u) = F(u) - eps (the frozen
    M-matrix plus the derivative through the centered gradient) and takes
    the largest step 2^-k that passes an Armijo test on |R|^2 / 2. It
    stops once max |F - eps| is at most ``tol`` (or the rounding floor of
    the scheme, if larger), and fails after ``MAX_NEWTON_ITER`` steps in
    all. The gradient floor is the grid spacing h, so consistency error
    and regularization error vanish together under refinement. If the
    line search stalls at floor h, the solve restarts from the warm start
    and walks the floors of ``FLOOR_SCHEDULE`` above h, then h.
    ``iterations`` counts every Newton step taken and ``delta_schedule``
    lists the floors visited. A non-constant a raises
    :class:`ValidationError` (see the module docstring), and ``energy`` is
    NaN: the discrete energy is the variational route's.
    """
    if spec.obstacle is not None:
        raise ValidationError("the viscosity solver has no obstacle support")
    if spec.boundary is None:
        raise ValidationError("solve_viscosity needs boundary data")
    _gate(spec, "tol", tol)
    coeff = spec.params.coeff
    if not coeff.is_constant:
        raise ValidationError("the viscosity route requires a constant coefficient a(x)")
    grid = spec.grid
    a = coeff.value(grid.coords[grid.interior_idx])
    law = (spec.params.p, spec.params.q, a)
    h = float(np.max(grid.spacing))
    eps = spec.epsilon
    stencil = _Stencil(grid)
    # warm start: the scheme at p = q = 2, -(1 + a) Lap_h u = eps
    start = poisson_start(grid, spec.boundary.values_on(grid), eps / (1.0 + a))
    history = []
    floors = [h]
    u, residual, status = _newton(stencil, start, law, h, eps, tol, history)
    if status == "stalled":
        u = start
        for dv in [f for f in FLOOR_SCHEDULE if f > h] + [h]:
            floors.append(dv)
            u, residual, status = _newton(stencil, u, law, dv, eps, tol, history)
            if status != "converged":
                break
    converged = status == "converged"

    field = NodalField(grid, u)
    report = SolveReport(
        converged=converged,
        iterations=len(history),
        residual_norm=residual,
        energy=float("nan"),
        delta_schedule=tuple(floors),
        residual_history=tuple(history),
        method="viscosity",
    )
    if not converged:
        reason = "the line search stalled" if status == "stalled" else f"{MAX_NEWTON_ITER} steps were taken"
        raise NonConvergence(
            f"Newton did not reach tol={tol:g}: {reason} at residual {residual:.3e} "
            f"(gradient floor {floors[-1]:g})",
            field=field,
            report=report,
        )
    return field, report


def local_equation(field, params, node, epsilon=0.0, dv=None):
    """(F - eps, dF/du_C, update target) of the scheme at one interior node.

    Scalar mirror of the scheme; used for monotonicity probes and as an
    independent check on the vectorized solver.
    """
    grid = field.grid
    if grid.boundary_mask[node]:
        raise ValueError("local_equation expects an interior node")
    if dv is None:
        dv = float(np.max(grid.spacing))
    p, q = params.p, params.q
    a = params.coeff.value(grid.coords[node])
    ga = params.coeff.grad_value(grid.coords[node])
    u = field.values
    if grid.dim == 1:
        h = float(grid.spacing[0])
        uE, uW, uC = u[node + 1], u[node - 1], u[node]
        ex = (uE - uW) / (2 * h)
        m = max(abs(ex), dv)
        w = ex / m
        Ap = m ** (p - 2.0)
        Aq = a * m ** (q - 2.0)
        Mc = Ap * (1 + (p - 2) * w * w) + Aq * (1 + (q - 2) * w * w)
        uxx = (uE - 2 * uC + uW) / (h * h)
        F = -Mc * uxx - (m ** (q - 2.0)) * ex * ga[0]
        dF = 2 * Mc / (h * h)
    else:
        nx = grid.shape[0]
        hx, hy = float(grid.spacing[0]), float(grid.spacing[1])
        uC = u[node]
        uE, uW = u[node + 1], u[node - 1]
        uN, uS = u[node + nx], u[node - nx]
        uNE, uNW = u[node + nx + 1], u[node + nx - 1]
        uSE, uSW = u[node - nx + 1], u[node - nx - 1]
        ex = (uE - uW) / (2 * hx)
        ey = (uN - uS) / (2 * hy)
        m = max(float(np.hypot(ex, ey)), dv)
        wx, wy = ex / m, ey / m
        Ap = m ** (p - 2.0)
        Aq = a * m ** (q - 2.0)
        S = Ap + Aq
        Gam = (p - 2.0) * Ap + (q - 2.0) * Aq
        M11 = S + Gam * wx * wx
        M22 = S + Gam * wy * wy
        M12 = Gam * wx * wy
        uxx = (uE - 2 * uC + uW) / (hx * hx)
        uyy = (uN - 2 * uC + uS) / (hy * hy)
        if M12 >= 0.0:
            uxy = (uNE + uSW + 2 * uC - uE - uW - uN - uS) / (2 * hx * hy)
        else:
            uxy = (uE + uW + uN + uS - uNW - uSE - 2 * uC) / (2 * hx * hy)
        L = M11 * uxx + M22 * uyy + 2 * M12 * uxy
        F = -L - (m ** (q - 2.0)) * (ex * ga[0] + ey * ga[1])
        dF = 2 * M11 / (hx * hx) + 2 * M22 / (hy * hy) - 2 * abs(M12) / (hx * hy)
    residual = F - epsilon
    return residual, dF, u[node] - residual / dF


def _neighbor_indices(grid, node):
    """The nodes at index distance 1 from ``node``, in :func:`_offsets` order."""
    return node + np.array([o for o in _offsets(grid.dim) if any(o)]) @ grid.strides


def generate_touching_quadratics(field, x0, count, rng=None):
    """Quadratics phi = u(x0) + b.(x-x0) - (K/2)|x-x0|^2 touching the
    discrete field from below at node x0 with positive margin.

    Slopes b come from one-sided/centered difference sampling of the
    field (a discrete subgradient fan), topped up with seeded
    perturbations when more are requested; K is the smallest curvature
    keeping phi below u at every other node, so the touch is strict.
    """
    grid = field.grid
    if grid.boundary_mask[x0]:
        raise ValueError("touch node must be interior")
    if rng is None:
        rng = np.random.default_rng(0)
    u = field.values
    coords = grid.coords
    p0 = coords[x0]
    u0 = u[x0]
    scale = 1.0 + float(np.max(np.abs(u)))
    margin = 1e-12 * scale

    # per axis the forward, backward and centered quotients; every
    # combination of one per axis, x outermost (the top-ups below pick
    # candidates by position)
    quotients = [
        ((u[x0 + s] - u0) / h, (u0 - u[x0 - s]) / h, (u[x0 + s] - u[x0 - s]) / (2 * h))
        for s, h in zip(grid.strides, grid.spacing)
    ]
    cands = np.array(list(itertools.product(*quotients)))

    # top-up perturbations stay on the scale of the local difference
    # quotients, so a flat node still yields no admissible slope
    base_count = len(cands)
    slope_scale = float(np.max(np.abs(cands)))
    if slope_scale > 1e-13 * scale and count + 8 > base_count:
        noise = rng.normal(scale=0.3 * slope_scale, size=(count + 8 - base_count, grid.dim))
        cands = np.concatenate([cands, cands[np.arange(base_count, count + 8) % base_count] + noise])
    slopes = cands[np.linalg.norm(cands, axis=1) > 1e-13 * (1.0 + slope_scale)][:count]
    if not len(slopes):
        raise NoTouchFound(f"no nonzero touching slope at node {x0}")

    diff = coords.T - p0[:, None]
    d2 = np.sum(diff * diff, axis=0)
    d2[x0] = np.inf  # exclude the touch node itself
    gap = (u0 - u) + slopes @ diff + margin
    curvatures = np.maximum(np.max(2.0 * gap / d2, axis=1), margin)
    return [TouchingQuadratic(p0, u0, b, k) for b, k in zip(slopes, curvatures)]


def touch_test(field, params, count, epsilon=0.0, seed=0):
    """Pointwise supersolution check on touching quadratics.

    Up to 5 quadratics touch at each node, the nodes taken in seeded
    random order until there are ``count``. For each quadratic the
    reported value is the max of -div A(x, Dphi) over the touch node's
    grid neighbors (the punctured-neighborhood limsup surrogate); pass
    means value >= epsilon - C_tol * h with C_tol = 10 (1 + max|u|).
    """
    grid = field.grid
    rng = np.random.default_rng(seed)
    h = float(np.max(grid.spacing))
    c_tol = 10.0 * (1.0 + float(np.max(np.abs(field.values))))
    tolerance = c_tol * h
    nodes = grid.interior_idx.copy()
    rng.shuffle(nodes)
    eye = np.eye(grid.dim)
    reports = []
    for node in nodes:
        if len(reports) >= count:
            break
        take = min(5, count - len(reports))
        try:
            quads = generate_touching_quadratics(field, node, take, rng=rng)
        except NoTouchFound:
            continue
        # every (quadratic, neighbor) pair in one jet batch:
        # D phi(y) = b - K (y - x0), D^2 phi = -K I
        ys = grid.coords[_neighbor_indices(grid, node)]
        slopes = np.array([phi.slope for phi in quads])
        curvatures = np.array([phi.curvature for phi in quads])
        eta = slopes[:, None, :] - curvatures[:, None, None] * (ys - grid.coords[node])
        hess = -curvatures[:, None, None, None] * eye
        # at p < 2 the operator is undefined where D phi vanishes: drop those pairs
        pair = (np.linalg.norm(eta, axis=-1) > 0.0) | (params.p >= 2.0)
        values = np.full(pair.shape, -np.inf)
        values[pair] = nondiv_eval(params, SecondOrderJet(
            np.broadcast_to(ys, eta.shape)[pair],
            eta[pair],
            np.broadcast_to(hess, eta.shape + (grid.dim,))[pair],
        ))
        for phi, value in zip(quads, values.max(axis=1).tolist()):
            reports.append(
                TouchReport(
                    point=grid.coords[node].copy(),
                    slope=phi.slope.copy(),
                    curvature=phi.curvature,
                    grad_norm=float(np.linalg.norm(phi.slope)),
                    value=value,
                    epsilon=epsilon,
                    tolerance=tolerance,
                    passed=bool(value >= epsilon - tolerance),
                )
            )
    return reports


@dataclass
class DoublingResult:
    """Maximizer of Psi_j(x, y) = u(x) - v(y) - (j/s)|x - y|^s and the
    penalty diagnostics attached to it."""

    x_index: int
    y_index: int
    x: np.ndarray
    y: np.ndarray
    psi_max: float
    separation: float
    decay_bound: float   # j |x - y|^(s-1)
    vanish_term: float   # j |x - y|^(s-1+sigma)
    j: float
    s: float
    sigma: float


def _search_by_value(u, v, floor, z, px, py, j, s):
    """Best (Psi, x index, y index) over the diagonal pair (z, z) and the
    pairs (x, y) with fl(u(x) - v(y)) >= floor; px and py are the node
    coordinates along the rows and across them."""
    n = len(u)
    order = np.argsort(v)
    v_sorted = v[order]
    # fl(u(x) - v) falls as v grows, so each x pairs with a prefix, empty
    # where fl(u(x) - min v) fails. A slack of 8 ulps of |u(x)| + |floor|
    # + max |v| exceeds the rounding of the threshold u(x) - floor and of
    # the difference, so two searchsorted results bracket the prefix end;
    # bisection with the exact test closes each bracket
    nodes = np.flatnonzero(u - v_sorted[0] >= floor)
    ux = u[nodes]
    slack = 8.0 * np.finfo(float).eps * (np.abs(ux) + abs(floor) + max(-v_sorted[0], v_sorted[-1]))
    counts = np.searchsorted(v_sorted, (ux - floor) - slack, side="left")
    hi = np.searchsorted(v_sorted, (ux - floor) + slack, side="right")
    live = np.flatnonzero(counts < hi)
    while live.size:
        mid = (counts[live] + hi[live]) // 2
        ok = ux[live] - v_sorted[mid] >= floor
        counts[live[ok]] = mid[ok] + 1
        hi[live[~ok]] = mid[~ok]
        live = live[counts[live] < hi[live]]
    starts = np.concatenate(([0], np.cumsum(counts)))
    limit = BLOCK_PAIRS // 8
    best, best_key, a = float(u[z] - v[z]), z * n + z, 0
    while a < len(nodes):
        b = max(a + 1, int(np.searchsorted(starts, starts[a] + limit, side="right")) - 1)
        ix = np.repeat(nodes[a:b], counts[a:b])
        iy = order[np.arange(len(ix)) - np.repeat(starts[a:b] - starts[a], counts[a:b])]
        a = b
        dx, dy = px[ix] - px[iy], py[ix] - py[iy]
        psi = u[ix] - v[iy]
        psi -= (j / s) * np.sqrt(dx ** 2 + dy * dy) ** s
        top = psi.max()
        if top >= best:
            key = int(np.min((ix * n + iy)[psi == top]))
            if top > best or key < best_key:
                best, best_key = float(top), key
    return best, best_key // n, best_key % n


def doubling_penalty(u, v, j, s, sigma=0.5, params=None):
    """Exact maximization of the doubled-variables penalty function.

    The diagonal gives Psi(x, x) = u(x) - v(x) exactly, so the maximum is
    at least L = max(u - v), reached first at the diagonal pair (z, z).
    Distinct nodes are at least one node step h apart, so any other pair
    that ties or beats L has a rounded difference u(x) - v(y) of at least
    L + (j/s) h^s; the search takes that floor, widened against rounding
    (the penalty times 1 - 1e-9, less 8 ulps of |L| + max |u| + max |v|).
    For each x the pairs above the floor are a prefix of v sorted
    ascending; the prefix lengths are found exactly by bisection, and Psi
    is evaluated on those pairs only, in blocks of at most about
    BLOCK_PAIRS / 8 pairs so memory stays bounded. Ties break to the
    lexicographically smallest (x index, y index). Fields whose slopes
    exceed the smallest penalty slope, identical fields at small j among
    them, leave many pairs above the floor and cost up to O(N^2).
    Requires sigma > 0, a finite j > 0 and a finite
    s > max{2, p/(p-1), q/(q-1)} (the last two only when params are given).
    """
    if not (sigma > 0.0 and 0.0 < j < np.inf):
        raise ValueError("sigma must be positive and j finite and positive")
    lower = 2.0
    if params is not None:
        lower = max(lower, params.p / (params.p - 1.0), params.q / (params.q - 1.0))
    if not lower < s < np.inf:
        raise InvalidExponent(f"s = {s:g} must be finite and exceed {lower:g}")
    if not u.grid.compatible_with(v.grid):
        raise GridMismatch("penalty requires both fields on one grid")
    coords = u.grid.coords
    nx = u.grid.shape[0]
    xs, ys = coords[:nx, 0], coords[::nx, -1]
    diff = u.values - v.values
    z = int(np.argmax(diff))
    with np.errstate(over="ignore"):  # a penalty too large for a float is inf
        penalty = (j / s) * np.min(u.grid.spacing) ** s * (1.0 - 1e-9)
    slack = 8.0 * np.finfo(float).eps * (abs(diff[z]) + np.max(np.abs(u.values)) + np.max(np.abs(v.values)))
    floor = float(diff[z] + penalty - slack)
    px, py = np.tile(xs, len(ys)), np.repeat(ys, nx)
    best, best_ix, best_iy = _search_by_value(u.values, v.values, floor, z, px, py, j, s)
    d = float(np.linalg.norm(coords[best_ix] - coords[best_iy]))
    return DoublingResult(
        x_index=best_ix, y_index=best_iy,
        x=coords[best_ix].copy(), y=coords[best_iy].copy(),
        psi_max=best, separation=d,
        decay_bound=j * d ** (s - 1.0),
        vanish_term=j * d ** (s - 1.0 + sigma),
        j=float(j), s=float(s), sigma=float(sigma),
    )
