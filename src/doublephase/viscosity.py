"""Non-divergence (viscosity) side of the equation.

The expanded operator is

    F(x, eta, X) = -|eta|^(p-2) ( tr X + (p-2) <X w, w> )
                   - a(x) |eta|^(q-2) ( tr X + (q-2) <X w, w> )
                   - |eta|^(q-2) eta . grad a(x),          w = eta/|eta|,

which equals -div A(x, Dphi) on smooth phi. The grid solver discretizes
it monotonically: centered gradients, centered second differences, the
sign-adapted pair of diagonal stencils for the mixed derivative, and a
gradient floor |eta| -> max(|eta|, h) tying regularization to
resolution. It solves the scheme F = eps by a Howard-type policy
iteration: freeze the coefficients, the mixed-stencil choice and the
first-order term at the current field, solve the resulting M-matrix
system, and repeat until the scheme residual of the new field is small.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateGradient,
    GridMismatch,
    InvalidExponent,
    NonConvergence,
    NoTouchFound,
    ValidationError,
)
from .grids import InteriorPattern, NodalField
from .operators import a_flux, flux_coefficients
from .variational import SolveReport, _strict_gate, energy

__all__ = [
    "SecondOrderJet",
    "TouchReport",
    "Quadratic",
    "TouchingQuadratic",
    "touching_quadratic",
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
MAX_POLICY_ITER = 500
ROUNDING_ULPS = 8.0


@dataclass(frozen=True)
class SecondOrderJet:
    """Point, gradient and symmetric Hessian of a smooth test function."""

    x: np.ndarray
    eta: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "hess", np.asarray(self.hess, dtype=float))
        asym = float(np.max(np.abs(self.hess - self.hess.T)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(self.hess)))):
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


touching_quadratic = TouchingQuadratic


def nondiv_eval(params, jet):
    """Value of the expanded operator F on a second-order jet:
    -(S tr X + Gamma <X w, w>) - |eta|^(q-2) eta . grad a(x).

    At a vanishing gradient and p >= 2 the degenerate factors take their
    limits (0^0 = 1 keeps the exponent-2 phases, w w^T drops out); for
    p < 2 the value is undefined and :class:`DegenerateGradient` is raised.
    """
    p, q = params.p, params.q
    a = params.coeff.value(jet.x)
    nrm = float(np.linalg.norm(jet.eta))
    if nrm == 0.0:
        if p < 2.0:
            raise DegenerateGradient("operator undefined at a vanishing gradient for p < 2")
        w, first = jet.eta, 0.0
    else:
        w = jet.eta / nrm
        first = nrm ** (q - 2.0) * float(jet.eta @ params.coeff.grad_value(jet.x))
    S, gam = flux_coefficients(p, q, a, nrm)
    return -(S * float(np.trace(jet.hess)) + gam * float(w @ jet.hess @ w)) - first


def consistency_check(params, phi, x, h=1e-3):
    """Compare -div A(x, Dphi) (finite differences of the flux field)
    with the expanded operator on phi's exact jet.

    Returns (divergence_form_value, nondiv_value, relative_gap). The
    divergence is a fourth-order central difference of the flux.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    grad_x = phi.gradient(x)
    if np.linalg.norm(grad_x) == 0.0 and params.p < 2.0:
        raise DegenerateGradient("consistency check needs a nonvanishing gradient")

    def flux_component(y, k):
        return a_flux(params, y, phi.gradient(y), delta=0.0)[k]

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
    nd_value = nondiv_eval(params, phi.jet(x))
    gap = abs(div_value - nd_value) / max(1.0, abs(div_value), abs(nd_value))
    return div_value, nd_value, gap


def _coefficient_fields(spec, allow_nonconstant):
    params = spec.params
    if not params.coeff.is_constant and not allow_nonconstant:
        raise ValidationError(
            "the viscosity route requires a constant coefficient a(x); "
            "pass allow_nonconstant=True to run it anyway (experimental)"
        )
    grid = spec.grid
    a_nodes = params.coeff.value(grid.coords)
    ga_nodes = params.coeff.grad_value(grid.coords)
    return a_nodes, ga_nodes


class _Frozen(NamedTuple):
    """The scheme linearized at one field: K u_int = rhs with frozen
    coefficients, policy and first-order term, K held as the general
    (gbsv) band of the stencil's pattern; ``residual`` is F - eps of that
    same field at every interior node."""

    band: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray


class _Stencil:
    """Interior 3-point (1D) or 9-point (2D) pattern of the scheme on one
    grid, built once.

    Row k of ``nbr`` holds the neighbor at offset k of every interior node;
    2D offsets run SW S SE W C E NW N NE. Boundary neighbors move into the
    right-hand side and the inactive diagonal pair stays as explicit zeros,
    so each frozen system only fills the pattern. The frozen matrix is an
    M-matrix but not symmetric, so the pattern stores the general band
    (half-bandwidth nx - 1 in 2D) and solves it by banded LU.
    """

    def __init__(self, grid):
        self.grid = grid
        interior = grid.interior_idx
        if grid.dim == 1:
            offsets = np.array([-1, 0, 1])
        else:
            nx = grid.shape[0]
            offsets = np.array([dy * nx + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
        self.nbr = offsets[:, None] + interior[None, :]
        self.inside = ~grid.boundary_mask[self.nbr]
        self.pattern = InteriorPattern(
            grid, np.broadcast_to(interior, self.nbr.shape), self.nbr, symmetric=False
        )

    def freeze(self, u, p, q, a, ga, dv, eps):
        """Coefficients, cross-stencil policy and first-order term read off
        the centered gradient of ``u``; ``a``/``ga`` are given at interior
        nodes."""
        grid = self.grid
        uv = u[self.nbr]
        W = np.empty_like(uv)
        if grid.dim == 1:
            h = float(grid.spacing[0])
            ex = (uv[2] - uv[0]) / (2.0 * h)
            m = np.maximum(np.abs(ex), dv)
            w = ex / m
            S, Gam = flux_coefficients(p, q, a, m)
            cx = (S + Gam * w * w) / (h * h)
            W[0] = W[2] = -cx
            W[1] = 2.0 * cx
            first = (m ** (q - 2.0)) * ex * ga[:, 0]
        else:
            hx, hy = float(grid.spacing[0]), float(grid.spacing[1])
            ex = (uv[5] - uv[3]) / (2.0 * hx)
            ey = (uv[7] - uv[1]) / (2.0 * hy)
            m = np.maximum(np.hypot(ex, ey), dv)
            wx = ex / m
            wy = ey / m
            S, Gam = flux_coefficients(p, q, a, m)
            cx = (S + Gam * wx * wx) / (hx * hx)
            cy = (S + Gam * wy * wy) / (hy * hy)
            M12 = Gam * wx * wy
            c = np.abs(M12) / (hx * hy)
            # sign-adapted mixed difference: the NE-SW pair when M12 >= 0,
            # the NW-SE pair otherwise, so every off-diagonal is <= 0
            policy = M12 >= 0.0
            W[0] = W[8] = np.where(policy, -c, 0.0)
            W[2] = W[6] = np.where(policy, 0.0, -c)
            W[1] = W[7] = c - cy
            W[3] = W[5] = c - cx
            W[4] = 2.0 * cx + 2.0 * cy - 2.0 * c
            first = (m ** (q - 2.0)) * (ex * ga[:, 0] + ey * ga[:, 1])
        source = eps + first
        Wu = W * uv
        rhs = source - np.sum(Wu, axis=0, where=~self.inside)
        return _Frozen(self.pattern.fill(W), rhs, np.sum(Wu, axis=0) - source)


def _rounding_floor(diagonal, u):
    """Smallest residual max |F - eps| that rounding lets a solve of the
    frozen system certify: a few ulps of its largest row (read off the
    band's ``diagonal``) times max |u|."""
    scale = float(np.max(diagonal)) * (1.0 + float(np.max(np.abs(u))))
    return ROUNDING_ULPS * np.finfo(float).eps * scale


def solve_viscosity(spec, tol=SCHEME_TOL, max_iter=MAX_POLICY_ITER, allow_nonconstant=False):
    """Policy iteration on the monotone scheme; (field, report).

    Each iteration freezes the coefficients, the mixed-stencil policy and
    the first-order term at the current field and solves the resulting
    M-matrix system. It stops once the scheme residual max |F - eps| of
    the new field, evaluated with that field's own policy, is at most
    ``tol`` (or the rounding floor of the frozen system, if larger). The
    gradient floor is the grid spacing, so consistency error and
    regularization error vanish together under refinement.
    """
    if spec.obstacle is not None:
        raise ValidationError("the viscosity solver has no obstacle support")
    if spec.boundary is None:
        raise ValidationError("solve_viscosity needs boundary data")
    _strict_gate(spec)
    a_nodes, ga_nodes = _coefficient_fields(spec, allow_nonconstant)
    grid = spec.grid
    interior = grid.interior_idx
    a, ga = a_nodes[interior], ga_nodes[interior]
    p, q = spec.params.p, spec.params.q
    dv = float(np.max(grid.spacing))
    eps = spec.epsilon
    stencil = _Stencil(grid)
    u = np.zeros(grid.n_nodes)
    u[grid.boundary_idx] = spec.boundary.values_on(grid)

    # warm start: the p = q = 2 build, i.e. -(1 + a) Lap u = eps
    frozen = stencil.freeze(u, 2.0, 2.0, a, np.zeros_like(ga), dv, eps)
    u[interior] = stencil.pattern.solve(frozen.band, frozen.rhs, u)
    del frozen  # a solved band holds LU factors: drop it before the next fill
    frozen = stencil.freeze(u, p, q, a, ga, dv, eps)
    residual = float(np.max(np.abs(frozen.residual)))
    history = []
    converged = False
    while not converged and len(history) < max_iter:
        u[interior] = stencil.pattern.solve(frozen.band, frozen.rhs, u)
        del frozen
        frozen = stencil.freeze(u, p, q, a, ga, dv, eps)
        residual = float(np.max(np.abs(frozen.residual)))
        history.append(residual)
        converged = residual <= max(tol, _rounding_floor(stencil.pattern.diagonal(frozen.band), u))

    field = NodalField(grid, u)
    notes = "" if spec.params.coeff.is_constant else "experimental: non-constant coefficient"
    report = SolveReport(
        converged=converged,
        iterations=len(history),
        residual_norm=residual,
        energy=energy(field, spec, delta=0.0),
        delta_schedule=(dv,),
        residual_history=tuple(history),
        method="viscosity",
        notes=notes,
    )
    if not converged:
        raise NonConvergence(
            f"policy iteration did not reach tol={tol:g} within {max_iter} iterations",
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
    if grid.dim == 1:
        return [node - 1, node + 1]
    nx = grid.shape[0]
    return [
        node - nx - 1, node - nx, node - nx + 1,
        node - 1, node + 1,
        node + nx - 1, node + nx, node + nx + 1,
    ]


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

    if grid.dim == 1:
        h = grid.spacing[0]
        slopes = [
            (u[x0 + 1] - u0) / h,
            (u0 - u[x0 - 1]) / h,
            (u[x0 + 1] - u[x0 - 1]) / (2 * h),
        ]
        cands = [np.array([s]) for s in slopes]
    else:
        nx = grid.shape[0]
        hx, hy = grid.spacing
        dxs = [
            (u[x0 + 1] - u0) / hx,
            (u0 - u[x0 - 1]) / hx,
            (u[x0 + 1] - u[x0 - 1]) / (2 * hx),
        ]
        dys = [
            (u[x0 + nx] - u0) / hy,
            (u0 - u[x0 - nx]) / hy,
            (u[x0 + nx] - u[x0 - nx]) / (2 * hy),
        ]
        cands = [np.array([dx, dy]) for dx in dxs for dy in dys]

    # top-up perturbations stay on the scale of the local difference
    # quotients, so a flat node still yields no admissible slope
    base_count = len(cands)
    slope_scale = float(np.max(np.abs(np.array(cands))))
    if slope_scale > 1e-13 * scale:
        while len(cands) < count + 8:
            cands.append(cands[len(cands) % base_count]
                         + rng.normal(scale=0.3 * slope_scale, size=grid.dim))

    diff_all = coords - p0
    d2 = np.sum(diff_all * diff_all, axis=1)
    d2[x0] = np.inf  # exclude the touch node itself

    out = []
    for b in cands:
        if len(out) >= count:
            break
        if np.linalg.norm(b) <= 1e-13 * (1.0 + slope_scale):
            continue
        gap = u0 - u + diff_all @ b + margin
        curvature = max(float(np.max(2.0 * gap / d2)), margin)
        out.append(TouchingQuadratic(p0, u0, b, curvature))
    if not out:
        raise NoTouchFound(f"no nonzero touching slope at node {x0}")
    return out


def touch_test(field, params, count, epsilon=0.0, seed=0, per_node=5):
    """Pointwise supersolution check on touching quadratics.

    For each quadratic the reported value is the max of -div A(x, Dphi)
    over the touch node's grid neighbors (the punctured-neighborhood
    limsup surrogate); pass means value >= epsilon - C_tol * h with
    C_tol = 10 (1 + max|u|).
    """
    grid = field.grid
    rng = np.random.default_rng(seed)
    h = float(np.max(grid.spacing))
    c_tol = 10.0 * (1.0 + float(np.max(np.abs(field.values))))
    tolerance = c_tol * h
    nodes = grid.interior_idx.copy()
    rng.shuffle(nodes)
    reports = []
    for node in nodes:
        if len(reports) >= count:
            break
        take = min(per_node, count - len(reports))
        try:
            quads = generate_touching_quadratics(field, node, take, rng=rng)
        except NoTouchFound:
            continue
        neighbors = _neighbor_indices(grid, node)
        for phi in quads:
            values = []
            for nb in neighbors:
                y = grid.coords[nb]
                try:
                    values.append(nondiv_eval(params, phi.jet(y)))
                except DegenerateGradient:
                    continue
            if not values:
                continue
            value = float(np.max(values))
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


def doubling_penalty(u, v, j, s, sigma=0.5, params=None):
    """Exact maximization of the doubled-variables penalty function.

    A maximizer has (j/s)|x - y|^s <= max u - min v - max(u - v), so only
    row offsets dj within that radius (widened against rounding) are
    searched; per dj the penalty is built once over the x pairs and
    maximized over its rows in one broadcast. Ties break to the
    lexicographically smallest (x index, y index). Requires
    s > max{2, p/(p-1), q/(q-1)} (the last two only when params are given).
    """
    if not (sigma > 0.0 and j > 0.0):
        raise ValueError("sigma and j must be positive")
    lower = 2.0
    if params is not None:
        lower = max(lower, params.p / (params.p - 1.0), params.q / (params.q - 1.0))
    if not s > lower:
        raise InvalidExponent(f"s = {s:g} must exceed {lower:g}")
    if not u.grid.compatible_with(v.grid):
        raise GridMismatch("penalty requires both fields on one grid")
    coords = u.grid.coords
    nx = u.grid.shape[0]
    ny = u.grid.n_nodes // nx
    uv, vv = u.values.reshape(ny, nx), v.values.reshape(ny, nx)
    xs, ys = coords[:nx, 0], coords[::nx, -1]
    dx2 = (xs[:, None] - xs) ** 2
    diag, top = float(np.max(u.values - v.values)), float(np.max(u.values) - np.min(v.values))
    ulps = 4.0 * np.finfo(float).eps  # slack for rounding of values and coordinates
    radius = (s * (top - diag + ulps * (abs(top) + abs(diag))) / j) ** (1.0 / s) * (1.0 + 1e-9)
    rows = int(min(ny - 1, (radius + ulps * float(np.max(np.abs(coords)))) // u.grid.spacing[-1]))
    best, best_ix, best_iy = -np.inf, 0, 0
    for dj in range(-rows, rows + 1):
        iy = np.arange(max(0, -dj), ny - max(0, dj))
        dys = ys[iy] - ys[iy + dj]
        for dy in np.unique(dys):  # rounding of the coordinates may split the rows
            sel = iy[dys == dy]
            block = uv[sel, :, None] - vv[sel + dj, None, :]
            block -= (j / s) * np.sqrt(dx2 + dy * dy) ** s
            r, ix, kx = np.unravel_index(np.argmax(block), block.shape)
            cand = (int(sel[r] * nx + ix), int((sel[r] + dj) * nx + kx))
            if block[r, ix, kx] > best or (block[r, ix, kx] == best and cand < (best_ix, best_iy)):
                best, (best_ix, best_iy) = float(block[r, ix, kx]), cand
    d = float(np.linalg.norm(coords[best_ix] - coords[best_iy]))
    return DoublingResult(
        x_index=best_ix, y_index=best_iy,
        x=coords[best_ix].copy(), y=coords[best_iy].copy(),
        psi_max=best, separation=d,
        decay_bound=j * d ** (s - 1.0),
        vanish_term=j * d ** (s - 1.0 + sigma),
        j=float(j), s=float(s), sigma=float(sigma),
    )
