"""Energy-minimization side: damped Newton with delta-continuation.

The discrete problem minimizes

    sum_e |e| [ (1/p) m(Du)^p + (a_e/q) m(Du)^q - eps * mean_e(u) ]

over P1 fields with Dirichlet data, where m(Du) = sqrt(|Du|^2 + delta^2)
smooths the degenerate/singular modulus inside Newton only; reported
energies use delta = 0. The obstacle variant runs a primal active set
around the same Newton loop and exposes the complementarity structure.
"""

from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InfeasibleObstacle, NonConvergence, ValidationError
from .grids import InteriorPattern, NodalField, interpolate
from .operators import flux_coefficients, validate_exponents

__all__ = [
    "DELTA_SCHEDULE",
    "ProblemSpec",
    "SolveReport",
    "energy",
    "residual",
    "solve_dirichlet",
    "solve_obstacle",
    "approximation_sequence",
    "complementarity_summary",
    "contact_tolerance",
]

DELTA_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8)
NEWTON_TOL = 1e-12
STAGE_CAP = 200
ACCEPT_TOL = 1e-9  # contract bound: a stalled stage may stop here
OUTER_CAP = 50
RELEASE_TOL = 1e-10
CONTRACT_TOL = 1e-8


@dataclass(frozen=True)
class ProblemSpec:
    """Everything a solve needs: grid, constitutive params, data."""

    grid: object
    params: object
    boundary: object = None
    epsilon: float = 0.0
    obstacle: object = None
    strict_validation: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError("epsilon must be finite and >= 0")
        if self.obstacle is not None:
            if not self.obstacle.grid.compatible_with(self.grid):
                raise GridMismatch("obstacle lives on a different grid")
            if self.boundary is not None:
                g = self.boundary.values_on(self.grid)
                psi_b = self.obstacle.values[self.grid.boundary_idx]
                if np.any(psi_b > g + 1e-12):
                    raise InfeasibleObstacle(
                        "obstacle exceeds the boundary data on the boundary"
                    )

    def dirichlet_values(self):
        """Boundary node values: explicit data, else the obstacle trace."""
        if self.boundary is not None:
            return self.boundary.values_on(self.grid)
        if self.obstacle is not None:
            return self.obstacle.values[self.grid.boundary_idx]
        raise ValidationError("spec carries neither boundary data nor an obstacle")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_norm: float
    energy: float
    delta_schedule: tuple
    residual_history: tuple = ()
    energy_history: tuple = ()  # per accepted Newton step, grouped by stage
    active_set_size: int = 0
    method: str = "variational"
    notes: str = ""


class _Assembler:
    """Precomputed element data for one spec; all hot loops live here."""

    def __init__(self, spec):
        grid = spec.grid
        self.grid = grid
        self.p, self.q = spec.params.p, spec.params.q
        self.epsilon = spec.epsilon
        self.conn = grid.elements
        self.gcoef = grid.grad_coeffs
        self.weights = grid.element_measures
        self.a_e = spec.params.coeff.value(grid.element_centroids)
        k = self.conn.shape[1]
        load = np.zeros(grid.n_nodes)
        np.add.at(load, self.conn, np.repeat(self.weights[:, None] / k, k, axis=1))
        self.load = load

    @cached_property
    def pattern(self):
        """The P1 graph: node pair (conn[e, k], conn[e, l]) of every element,
        in the order of the (e, k, l) element matrices; the Newton matrix
        is SPD for delta > 0, so its lower triangle is stored."""
        k = self.conn.shape[1]
        return InteriorPattern(
            self.grid, np.repeat(self.conn, k, axis=1), np.tile(self.conn, (1, k)), symmetric=True
        )

    @cached_property
    def gram(self):
        return np.einsum("eki,eli->ekl", self.gcoef, self.gcoef)

    def gradients(self, values):
        return np.einsum("eki,ek->ei", self.gcoef, values[self.conn])

    def energy(self, values, delta):
        p, q = self.p, self.q
        G = self.gradients(values)
        m = np.sqrt(np.sum(G * G, axis=1) + delta * delta)
        dens = m ** p / p + self.a_e * m ** q / q
        e = float(np.sum(self.weights * dens))
        if self.epsilon != 0.0:
            e -= self.epsilon * float(np.dot(self.load, values))
        return e

    def residual_full(self, values, delta):
        G = self.gradients(values)
        m = np.sqrt(np.sum(G * G, axis=1) + delta * delta)
        factor = np.zeros_like(m)
        pos = m > 0.0
        factor[pos] = flux_coefficients(self.p, self.q, self.a_e[pos], m[pos])[0]
        flux = factor[:, None] * G
        contrib = np.einsum("eki,ei->ek", self.gcoef, flux) * self.weights[:, None]
        r = np.zeros(self.grid.n_nodes)
        np.add.at(r, self.conn, contrib)
        return r - self.epsilon * self.load

    def jacobian(self, values, delta, active=None):
        """Newton matrix over the interior nodes, in the band storage of
        :attr:`pattern`. Interior nodes in the nodal mask ``active`` become
        identity rows and columns, decoupled from the free block, so the
        band and the SPD property survive and a zero right-hand side there
        gives a zero step."""
        G = self.gradients(values)
        m2 = np.sum(G * G, axis=1) + delta * delta
        s1, gam = flux_coefficients(self.p, self.q, self.a_e, np.sqrt(m2))
        s2 = gam / m2
        d = np.einsum("eki,ei->ek", self.gcoef, G)
        B = self.weights[:, None, None] * (
            s1[:, None, None] * self.gram
            + s2[:, None, None] * d[:, :, None] * d[:, None, :]
        )
        if active is None:
            return self.pattern.fill(B)
        free = ~active[self.conn]
        B *= free[:, :, None] & free[:, None, :]
        band = self.pattern.fill(B)
        self.pattern.diagonal(band)[active[self.grid.interior_idx]] = 1.0
        return band


def energy(field, spec, delta=0.0):
    """Discrete double-phase energy of a field under the given spec."""
    _check_field(field, spec)
    return _Assembler(spec).energy(field.values, delta)


def residual(field, spec, delta=0.0):
    """First variation of the energy against interior hat functions.

    Entry i is sum_e |e| <A(x_e, Du_e), D phi_i_e> - eps * int(phi_i),
    ordered like ``spec.grid.interior_idx``.
    """
    _check_field(field, spec)
    asm = _Assembler(spec)
    return asm.residual_full(field.values, delta)[spec.grid.interior_idx]


def _check_field(field, spec):
    if not field.grid.compatible_with(spec.grid):
        raise GridMismatch("field and spec live on different grids")


def _strict_gate(spec):
    if spec.strict_validation:
        check = validate_exponents(spec.params, spec.grid.dim, "standard")
        if not check:
            raise ValidationError(f"strict exponent validation failed: {check.message}")


def _initial_values(asm, g_values):
    """Warm start: the minimizer of the Dirichlet energy with the same load,
    -Lap u = eps in P1 form, reached by one Newton step from the boundary
    data with this assembler at p = q = 2, a = 0. At delta = 1 every
    modulus is >= 1, so the flux factor is exactly 1 and the Newton matrix
    is the P1 stiffness matrix."""
    grid = asm.grid
    u = np.zeros(grid.n_nodes)
    u[grid.boundary_idx] = g_values
    lin = copy(asm)  # p = q = 2, a = 0, on the solve's own pattern
    lin.p = lin.q = 2.0
    lin.a_e = np.zeros_like(asm.a_e)
    lin.pattern, lin.gram = asm.pattern, asm.gram
    rhs = -lin.residual_full(u, 1.0)[grid.interior_idx]
    u[grid.interior_idx] += asm.pattern.solve(lin.jacobian(u, 1.0), rhs, u)
    return u


def _newton_stages(asm, u, deltas, tol, history, psi=None, active=None, energies=None):
    """Damped Newton over the free interior nodes, one pass per delta stage.

    With an obstacle, any trial value dropping below psi is pinned to it
    and the node joins the active set. Returns (u, iterations, pinned_any).
    ``energies`` collects per-stage lists of accepted-step energies (the
    Armijo contract makes each stage's list nonincreasing).
    """
    grid = asm.grid
    interior = grid.interior_idx
    pinned_any = False
    total_iters = 0
    for delta in deltas:
        stage_energies = [] if energies is not None else None
        for _ in range(STAGE_CAP):
            keep = slice(None) if active is None else np.flatnonzero(~active[interior])
            free = interior[keep]
            if len(free) == 0:
                break
            r_full = asm.residual_full(u, delta)
            rn = float(np.max(np.abs(r_full[free])))
            history.append(rn)
            if rn <= tol:
                break
            rhs = np.zeros(len(interior))
            rhs[keep] = -r_full[free]  # zero on the active nodes
            d = asm.pattern.solve(asm.jacobian(u, delta, active), rhs, u)[keep]
            slope = float(np.dot(r_full[free], d))
            e0 = asm.energy(u, delta)
            # Armijo backtracking; skip the test where rounding noise wins
            tau = 1.0
            e1 = None  # energy of the accepted step, once the Armijo test ran
            if abs(slope) > 1e-13 * (1.0 + abs(e0)):
                accepted = False
                for _bt in range(60):
                    trial = u.copy()
                    trial[free] += tau * d
                    e1 = asm.energy(trial, delta)
                    if e1 <= e0 + 1e-4 * tau * slope:
                        accepted = True
                        break
                    tau *= 0.5
                if not accepted:
                    # stalled line search: residual already small means done
                    if rn <= ACCEPT_TOL:
                        break
                    raise NonConvergence(
                        f"line search stalled at residual {rn:.3e} (delta={delta:g})",
                        field=NodalField(grid, u.copy()),
                    )
            u[free] += tau * d
            total_iters += 1
            if stage_energies is not None:
                stage_energies.append(asm.energy(u, delta) if e1 is None else e1)
            if psi is not None:
                viol = free[u[free] < psi[free]]
                if len(viol):
                    u[viol] = psi[viol]
                    active[viol] = True
                    pinned_any = True
        else:
            rn_last = history[-1] if history else np.inf
            if rn_last > ACCEPT_TOL:
                raise NonConvergence(
                    f"Newton cap reached at residual {rn_last:.3e} (delta={delta:g})",
                    field=NodalField(grid, u.copy()),
                )
        if energies is not None:
            energies.append(tuple(stage_energies))
    return u, total_iters, pinned_any


def solve_dirichlet(spec, newton_tol=NEWTON_TOL, deltas=DELTA_SCHEDULE):
    """Solve the unconstrained Dirichlet problem; returns (field, report)."""
    if spec.obstacle is not None:
        raise ValidationError("solve_dirichlet expects a spec without an obstacle")
    if spec.boundary is None:
        raise ValidationError("solve_dirichlet needs boundary data")
    _strict_gate(spec)
    asm = _Assembler(spec)
    grid = spec.grid
    g_values = spec.boundary.values_on(grid)
    u = _initial_values(asm, g_values)
    history = []
    energies = []
    u, iters, _ = _newton_stages(asm, u, deltas, newton_tol, history, energies=energies)
    rn = float(np.max(np.abs(asm.residual_full(u, deltas[-1])[grid.interior_idx])))
    field = NodalField(grid, u)
    report = SolveReport(
        converged=rn <= max(newton_tol, ACCEPT_TOL),
        iterations=iters,
        residual_norm=rn,
        energy=asm.energy(u, 0.0),
        delta_schedule=tuple(deltas),
        residual_history=tuple(history),
        energy_history=tuple(energies),
    )
    return field, report


def contact_tolerance(psi_values):
    """Scale-aware threshold separating contact from non-contact nodes."""
    return 1e-7 * (1.0 + float(np.max(np.abs(psi_values))))


def solve_obstacle(spec, newton_tol=NEWTON_TOL, deltas=DELTA_SCHEDULE):
    """Obstacle-constrained solve by a primal active set; (field, report).

    Dirichlet data come from ``spec.boundary`` when present, else from
    the obstacle trace. The solution satisfies u >= psi everywhere,
    solves the equation where u > psi, and is a discrete supersolution
    on the contact set.
    """
    if spec.obstacle is None:
        raise ValidationError("solve_obstacle needs an obstacle")
    _strict_gate(spec)
    asm = _Assembler(spec)
    grid = spec.grid
    psi = spec.obstacle.values
    g_values = spec.dirichlet_values()
    if np.any(psi[grid.boundary_idx] > g_values + 1e-12):
        raise InfeasibleObstacle("obstacle exceeds the boundary data on the boundary")

    u = _initial_values(asm, g_values)
    active = np.zeros(grid.n_nodes, dtype=bool)
    low = u < psi
    low[grid.boundary_idx] = False
    u[low] = psi[low]
    active[low] = True

    history = []
    total_iters = 0
    converged = False
    for cycle in range(OUTER_CAP):
        # continuation only on the first pass: re-running coarse delta
        # stages re-pins free-boundary nodes the fine-delta solution keeps
        stage_deltas = deltas if cycle == 0 else deltas[-1:]
        u, iters, pinned = _newton_stages(
            asm, u, stage_deltas, newton_tol, history, psi=psi, active=active
        )
        total_iters += iters
        r_full = asm.residual_full(u, deltas[-1])
        release = active & (r_full < -RELEASE_TOL)
        release[grid.boundary_idx] = False
        if not pinned and not np.any(release):
            converged = True
            break
        active[release] = False
    if not converged or (
        np.any(active) and float(np.min(r_full[active])) < -CONTRACT_TOL
    ):
        raise NonConvergence(
            "active set did not settle to a complementarity-clean state",
            field=NodalField(grid, u.copy()),
        )

    free = grid.interior_idx[~active[grid.interior_idx]]
    rn = float(np.max(np.abs(r_full[free]))) if len(free) else 0.0
    field = NodalField(grid, u)
    report = SolveReport(
        converged=converged and rn <= max(newton_tol, ACCEPT_TOL),
        iterations=total_iters,
        residual_norm=rn,
        energy=asm.energy(u, 0.0),
        delta_schedule=tuple(deltas),
        residual_history=tuple(history),
        active_set_size=int(np.sum(active)),
    )
    return field, report


def complementarity_summary(field, spec, delta=DELTA_SCHEDULE[-1]):
    """Residual split over contact/non-contact nodes.

    Returns (max |r| over nodes with u > psi + tol_c, min r over the
    rest); the first should be ~0, the second >= ~0 for a valid solve.
    """
    if spec.obstacle is None:
        raise ValidationError("complementarity_summary needs an obstacle spec")
    asm = _Assembler(spec)
    grid = spec.grid
    r = asm.residual_full(field.values, delta)
    tol_c = contact_tolerance(spec.obstacle.values)
    interior = grid.interior_idx
    off = interior[field.values[interior] > spec.obstacle.values[interior] + tol_c]
    on = interior[field.values[interior] <= spec.obstacle.values[interior] + tol_c]
    max_off = float(np.max(np.abs(r[off]))) if len(off) else 0.0
    min_on = float(np.min(r[on])) if len(on) else 0.0
    return max_off, min_on


def approximation_sequence(spec, lsc_target, levels):
    """Increasing smooth obstacles below a target, each solved.

    Obstacles are quadratic inf-convolution envelopes of the target at
    geometrically shrinking radii, so psi_1 <= ... <= psi_k <= target,
    each computed exactly one grid axis at a time; returns a list of
    (psi_field, solution_field) pairs.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    grid = spec.grid
    if isinstance(lsc_target, NodalField):
        if not lsc_target.grid.compatible_with(grid):
            raise GridMismatch("target lives on a different grid")
        target = lsc_target.values.copy()
    else:
        target = interpolate(grid, lsc_target).values

    diam = grid.diameter
    osc = float(np.max(target) - np.min(target))
    h = float(np.min(grid.spacing))
    scale = max(osc, 1e-8)
    r_start = diam * diam / (2.0 * scale)
    r_end = (2.0 * h) ** 2 / (2.0 * scale)
    radii = [r_end] if levels == 1 else list(np.geomspace(r_start, r_end, levels))

    out = []
    for radius in radii:
        psi_vals = _quadratic_lower_envelope(grid, target, radius)
        psi = NodalField(grid, psi_vals)
        sub = replace(spec, boundary=None, obstacle=psi)
        u_j, _ = solve_obstacle(sub)
        out.append((psi, u_j))
    return out


def _quadratic_lower_envelope(grid, target, radius):
    """min_m [ target_m + |x - x_m|^2 / (2 radius) ] at every node, taken
    along x in each row and then along y (the squared distance splits
    over the axes); the self term adds exactly 0, so it stays <= target."""
    vals = target.reshape(grid.shape[::-1])
    stride = 1
    for d, n in enumerate(grid.shape):
        pts = grid.coords[: stride * n : stride, d]
        vals = np.min(vals[..., None, :] + (pts[:, None] - pts) ** 2 / (2.0 * radius), axis=-1).T
        stride *= n
    return vals.reshape(-1)
