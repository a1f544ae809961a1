"""Energy-minimization side: damped Newton at one regularisation level.

The discrete problem minimizes

    sum_e |e| [ (1/p) m(Du)^p + (a_e/q) m(Du)^q - eps * mean_e(u) ]

over P1 fields with Dirichlet data, where m(Du) = sqrt(|Du|^2 + delta^2)
smooths the degenerate/singular modulus inside Newton only; reported
energies use delta = 0. Both problems run one projected Newton loop
over u >= psi, and the Dirichlet problem is the obstacle problem with
psi = -inf. Newton runs at delta = 1e-8; only a loop that fails there
restarts and walks delta = 1e-2, 1e-4, 1e-6 down to it. The obstacle
solve exposes the complementarity structure.

The law is evaluated once per field and delta (``_State``): the P1
gradients G, m^2 = |G|^2 + delta^2 and the phases m^(p-2) and
a_e m^(q-2) of :func:`operators.flux_phases`. The energy, the residual
and the Newton matrix all read that one evaluation, so a Newton step
evaluates the law once per line-search trial, and the accepted trial's
evaluation gives the next residual and Newton matrix, the contact set,
the Newton step and each projected trial. The public :func:`energy`,
:func:`residual` and :func:`complementarity_summary` go through the same
evaluation.

Where the Newton matrix has a wide band (half-bandwidth >= ``WIDE_BAND``,
2D grids from 65 nodes across), one banded Cholesky factorization costs
several Newton steps' worth of other work. There the loop keeps its
factor for chord steps while they contract fast, and the solve starts
from the cubic interpolant of a coarse problem's solution (nested
iteration): the quarter-resolution problem where the grid coarsens twice,
the half-resolution one otherwise. An obstacle solve nests on every wide
band, a Dirichlet solve only where its half-resolution grid is wide too
(from 129 nodes across). Narrower bands run the plain loop, and every
other solve starts from the Poisson warm start. So an obstacle that
never touches gives the Dirichlet solve's steps bit for bit only where
neither solve nests (below 65 nodes across).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InfeasibleObstacle, LinearSolveFailure, NonConvergence, ValidationError
from .grids import BoundaryData, InteriorPattern, NodalField, interpolate, poisson_start
from .operators import flux_phases, phase_coefficients, validate_exponents

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

DELTA_SCHEDULE = (1e-8,)  # the regularisation delta every solve ends at
# the levels a solve walks down to DELTA_SCHEDULE, from the warm start,
# after the loop at DELTA_SCHEDULE fails: damped Newton at 1e-8 can crawl
# to its cap where the gradient vanishes inside the domain and p < 2
RESTART_DELTAS = (1e-2, 1e-4, 1e-6)
NEWTON_TOL = 1e-12
NEWTON_CAP = 200
ACCEPT_TOL = 1e-9  # contract bound: a stalled loop may stop here
CONTRACT_TOL = 1e-8
# the Newton matrix's half-bandwidth from which a factorization costs more
# than the chord steps that reuse it (2D grids from 65 nodes across; at
# 33 across, reuse measured even)
WIDE_BAND = 64
# a full step that cuts the max free residual at least this much keeps its
# factor for the next step, on a wide band
REUSE_CONTRACTION = 0.1


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
    """What a solve achieved. ``energy`` is the variational route's
    discrete energy at delta = 0; viscosity reports carry NaN there.
    ``iterations`` and ``residual_history`` describe the requested grid
    only: a solve that started from a coarser solve names that solve in
    ``notes`` (``warm start: 33x33 solve``)."""

    converged: bool
    iterations: int
    residual_norm: float
    energy: float
    delta_schedule: tuple
    residual_history: tuple = ()
    energy_history: tuple = ()  # variational: per kept Newton step at the final delta
    active_set_size: int = 0  # obstacle: interior nodes with u <= psi at the end
    method: str = "variational"
    notes: str = ""


class _Assembler:
    """Per-spec data of the discrete energy, which :class:`_State` reads,
    and the obstacle values ``psi`` (-inf for the Dirichlet problem).

    The nodal values are read as an array over the grid, (ny, nx) in 2D,
    and each element type through the grid's slices (``grid.element_cuts``
    and ``grid.element_diffs``), over all cells at once; per-element arrays
    are (types, cells). Every element has the measure
    ``grid.element_measure``, and the elements of one type share their
    constant P1 gradients: along axis i, the difference of two vertices
    over h_i.
    """

    def __init__(self, spec):
        grid = spec.grid
        self.grid = grid
        self.p, self.q = spec.params.p, spec.params.q
        self.epsilon = spec.epsilon
        self.shape = grid.shape[::-1]
        self.inv_h = (1.0 / grid.spacing).reshape((-1,) + (1,) * (grid.dim + 1))
        self.measure = grid.element_measure
        self.a_e = spec.params.coeff.value(grid.element_centroids).reshape((-1,) + grid.cells)
        load = np.zeros(self.shape)
        for cuts in grid.element_cuts:
            for cut in cuts:
                load[cut] += self.measure / len(cuts)
        self.load = load.reshape(-1)
        self.psi = np.full(grid.n_nodes, -np.inf) if spec.obstacle is None else spec.obstacle.values

    @cached_property
    def couplings(self):
        """How the element matrices fill the band of the P1 graph's lower
        triangle (offsets C, W in 1D; C, W, S, SW in 2D). Entry (k, l) of an
        element matrix is |e| grad phi_k . T grad phi_l, linear in the
        components T_ij of the element's tensor. Returns the offsets, the
        matrices (types, pairs, dim^2) taking those components to the
        entries of each type's vertex pairs, and per type each pair's row
        vertex (the later node) and the index of its offset."""
        strides = self.grid.strides.tolist()
        inv_h = 1.0 / self.grid.spacing
        offsets, weights, targets = [], [], []
        for verts, edges in self.grid.element_types:
            grad = np.zeros((len(verts), self.grid.dim))
            for i, (tail, head) in enumerate(edges):
                grad[head, i] += inv_h[i]
                grad[tail, i] -= inv_h[i]
            pairs = [(k, l) for k in range(len(verts)) for l in range(k, len(verts))]
            first, second = zip(*pairs)
            entry = grad[list(first)][:, :, None] * grad[list(second)][:, None, :]
            weights.append(self.measure * entry.reshape(len(pairs), -1))
            steps = [sum(o * s for o, s in zip(v, strides)) for v in verts]  # flat node offsets
            targets.append([])
            for k, l in pairs:
                row, other = (l, k) if steps[l] > steps[k] else (k, l)
                offset = tuple(a - b for a, b in zip(verts[other], verts[row]))
                if offset not in offsets:
                    offsets.append(offset)
                targets[-1].append((row, offsets.index(offset)))
        return offsets, np.array(weights), targets

    @cached_property
    def pattern(self):
        """The P1 graph in band storage; the Newton matrix is SPD for
        delta > 0, so its lower triangle is stored."""
        return InteriorPattern(self.grid, self.couplings[0], symmetric=True)


class _State:
    """The law at one field, evaluated once: the P1 gradients G (dim,
    types, cells), m^2 = |G|^2 + delta^2 (types, cells) and the phases
    fp = m^(p-2) and fq = a_e m^(q-2) of :func:`operators.flux_phases`, set
    to 0 where m = 0 (there G = 0, so the flux and the energy density
    vanish, whatever the phases). The energy, the residual and the Newton
    matrix at the field all read these arrays, and so do the Newton loop's
    views of the iterate (:attr:`free`, :meth:`step`, :meth:`moved`);
    ``values`` must not change while the state is in use.
    """

    def __init__(self, asm, values, delta):
        self.asm, self.values = asm, values
        self.G = asm.grid.gradients(values)
        self.m2 = (self.G * self.G).sum(axis=0) + delta * delta
        m = np.sqrt(self.m2)
        pos = m > 0.0
        if np.all(pos):
            self.fp, self.fq = flux_phases(asm.p, asm.q, asm.a_e, m)
        else:
            self.fp, self.fq = np.zeros_like(m), np.zeros_like(m)
            self.fp[pos], self.fq[pos] = flux_phases(asm.p, asm.q, asm.a_e[pos], m[pos])

    @cached_property
    def energy(self):
        """sum_e |e| m^2 (fp/p + fq/q) - eps * load . u."""
        asm = self.asm
        e = asm.measure * float(np.sum(self.m2 * (self.fp / asm.p + self.fq / asm.q)))
        if asm.epsilon != 0.0:
            e -= asm.epsilon * float(np.dot(asm.load, self.values))
        return e

    @cached_property
    def residual(self):
        """The residual at every node (boundary entries included)."""
        asm = self.asm
        # |e| A(Du) . grad phi: +-A_i / h_i at the head and tail of axis i
        flux = (asm.measure * (self.fp + self.fq)) * self.G * asm.inv_h
        r = np.zeros(asm.shape)
        for i, t, head, tail in asm.grid.element_diffs:
            r[head] += flux[i, t]
            r[tail] -= flux[i, t]
        return r.reshape(-1) - asm.epsilon * asm.load

    def jacobian(self, active):
        """Newton matrix over the interior nodes, in the band storage of
        :attr:`_Assembler.pattern`: each element's tensor T = |e| (S I +
        Gamma/m^2 G G^T) goes straight into one coupling array per band
        offset. Interior nodes in the nodal mask ``active`` become identity
        rows and columns, decoupled from the free block, so the band and the
        SPD property survive and a zero right-hand side there gives a zero
        step."""
        asm, G = self.asm, self.G
        offsets, weights, targets = asm.couplings
        s1, gam = phase_coefficients(asm.p, asm.q, self.fp, self.fq)
        # T / |e| = S I + Gamma/m^2 G G^T, then (types, dim^2, cells)
        T = ((gam / self.m2) * G)[:, None] * G[None, :]
        for i in range(len(G)):
            T[i, i] += s1
        T = T.reshape(weights.shape[2], len(s1), -1).swapaxes(0, 1)
        A = np.zeros((len(offsets),) + asm.shape)
        for entries, cuts, pairs in zip(weights @ T, asm.grid.element_cuts, targets):
            for (row, off), entry in zip(pairs, entries):
                A[off][cuts[row]] += entry.reshape(s1.shape[1:])
        inner = (slice(None),) + (slice(1, -1),) * asm.grid.dim
        return asm.pattern.fill(A[inner].reshape(len(offsets), -1), active[asm.grid.interior_idx])

    @cached_property
    def free(self):
        """(active, keep, rn): the contact set, interior nodes with u <= psi
        and r > 0, as a nodal mask; the free nodes' positions in
        ``interior_idx``; and max free |r|, the Newton loop's stop measure."""
        r, interior = self.residual, self.asm.grid.interior_idx
        active = (self.values <= self.asm.psi) & (r > 0.0)
        keep = np.flatnonzero(~active[interior])
        return active, keep, float(np.max(np.abs(r[interior[keep]]), initial=0.0))

    def step(self, lu):
        """The Newton step on the free interior nodes with the factored
        Newton matrix ``lu``."""
        interior, keep = self.asm.grid.interior_idx, self.free[1]
        rhs = np.zeros(len(interior))
        rhs[keep] = -self.residual[interior[keep]]  # zero on the active nodes
        return self.asm.pattern.solve(lu, rhs, self.values)[keep]

    def moved(self, d, delta):
        """The state at regularisation ``delta`` of the field moved by ``d``
        on the free nodes and projected onto u >= psi there."""
        free = self.asm.grid.interior_idx[self.free[1]]
        values = self.values.copy()
        values[free] = np.maximum(self.values[free] + d, self.asm.psi[free])
        return _State(self.asm, values, delta)


def energy(field, spec, delta=0.0):
    """Discrete double-phase energy of a field under the given spec."""
    _check_field(field, spec)
    return _State(_Assembler(spec), field.values, delta).energy


def residual(field, spec, delta=0.0):
    """First variation of the energy against interior hat functions.

    Entry i is sum_e |e| <A(x_e, Du_e), D phi_i_e> - eps * int(phi_i),
    ordered like ``spec.grid.interior_idx``.
    """
    _check_field(field, spec)
    return _State(_Assembler(spec), field.values, delta).residual[spec.grid.interior_idx]


def _check_field(field, spec):
    if not field.grid.compatible_with(spec.grid):
        raise GridMismatch("field and spec live on different grids")


def _gate(spec, name, tol):
    """The checks every solver makes before it starts: its tolerance
    keyword ``name`` is finite and > 0, and a strict spec passes the
    exponent validation."""
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {tol!r}")
    if spec.strict_validation:
        check = validate_exponents(spec.params, spec.grid.dim, "standard")
        if not check:
            raise ValidationError(f"strict exponent validation failed: {check.message}")


def _newton(asm, u, delta, tol, history, energies):
    """Projected damped Newton on the energy at regularisation ``delta``.

    Each step holds the contact set fixed as identity rows and projects
    every Armijo trial onto u >= psi, so nodes join and leave the contact
    set at every step (psi = -inf: plain damped Newton). It stops at a max
    free residual <= ``tol`` (<= ``ACCEPT_TOL`` if the line search stalls
    or ``NEWTON_CAP`` steps are taken). If it took a step, a closing chord
    step with the loop's last factor follows, kept only if it lowers that
    residual: the last Armijo step often stops one quadratic step short of
    rounding level, and this close to the solution the matrix of an earlier
    iterate and contact set serves as well as a new one. Appends the
    residual of every kept iterate to ``history`` and the energy after
    every kept step to ``energies``; returns (state, steps, failure):
    ``state`` the :class:`_State` of the last kept iterate, ``failure`` None
    or why the loop stopped short.

    The law is evaluated once per field (:class:`_State`): the start, each
    Armijo trial and each closing trial. The accepted trial's state gives
    the next residual and, if the next step factors, the Newton matrix.

    On a wide band (half-bandwidth >= ``WIDE_BAND``) the loop reuses its
    factor, as in the simplified Newton method: a full step (tau = 1) that
    cut the max free residual at least ``1 / REUSE_CONTRACTION``-fold is
    followed by a chord step with the same factor, if the contact set is
    the one that factor was built with; any other step factors anew. There
    the closing chord steps go on while each at least halves the residual,
    within ``NEWTON_CAP`` steps. Every decision reads residuals only.
    """
    interior = asm.grid.interior_idx
    wide = asm.pattern.bw >= WIDE_BAND
    state = _State(asm, u, delta)
    active, keep, rn = state.free
    history.append(rn)
    steps, failure = 0, None
    chord, factored = False, None  # factored: the contact set of the factor
    while rn > tol:
        if steps == NEWTON_CAP:
            failure = f"Newton cap reached at residual {rn:.3e}"
            break
        if not (chord and np.array_equal(active, factored)):
            lu = None  # drop the last factor first: one band is alive at a time
            lu, factored = asm.pattern.factor(state.jacobian(active), state.values), active
        d = state.step(lu)
        slope = float(np.dot(state.residual[interior[keep]], d))
        # Armijo backtracking along the projected path; skip the test
        # where rounding noise wins
        tau, trial = 1.0, state.moved(d, delta)
        e0 = state.energy
        if abs(slope) > 1e-13 * (1.0 + abs(e0)):
            for _bt in range(60):
                if trial.energy <= e0 + 1e-4 * tau * slope:
                    break
                tau *= 0.5
                trial = None  # one trial state is alive at a time
                trial = state.moved(tau * d, delta)
            else:
                failure = f"line search stalled at residual {rn:.3e}"
                break
        state, steps = trial, steps + 1
        energies.append(state.energy)
        rn_last = rn
        active, keep, rn = state.free
        history.append(rn)
        chord = wide and tau == 1.0 and rn <= REUSE_CONTRACTION * rn_last
    if failure is not None and rn > ACCEPT_TOL:
        return state, steps, f"{failure} (delta={delta:g})"
    closing = steps > 0
    while closing and rn > 0.0:
        trial = None
        trial = state.moved(state.step(lu), delta)
        rn_trial = trial.free[2]
        halved = rn_trial <= 0.5 * rn
        if rn_trial < rn:
            state, rn, steps = trial, rn_trial, steps + 1
            history.append(rn)
            energies.append(state.energy)
        closing = wide and halved and steps < NEWTON_CAP
    return state, steps, None


def _solve(spec, newton_tol):
    """Minimize the energy over u >= psi (the Dirichlet problem is
    psi = -inf) by projected Newton at the delta of ``DELTA_SCHEDULE``,
    from the nested start of :func:`solve_dirichlet` and
    :func:`solve_obstacle` or else :func:`grids.poisson_start`, lifted
    onto psi. If that loop fails, restart from the same start and walk
    ``RESTART_DELTAS`` down to it, as the viscosity route walks its
    gradient floors. Returns (field, report), the report's
    ``residual_norm`` the loop's own last measure; raises
    :class:`NonConvergence` with the field and a failed report when a
    restarted level fails or the contact set is not complementarity-clean.
    The nested start recurses here, not through the public name, so that a
    request is one call of it.
    """
    grid = spec.grid
    interior = grid.interior_idx
    asm = _Assembler(spec)  # checks the coefficient before the boundary data are read
    g_values = spec.dirichlet_values()
    # the spec checked this at construction, but its obstacle and boundary
    # values are arrays that the caller can still change in place
    if np.any(asm.psi[grid.boundary_idx] > g_values + 1e-12):
        raise InfeasibleObstacle("obstacle exceeds the boundary data on the boundary")
    start, notes = None, ""
    # coarsening halves a 2D band (nx - 1), and a 1D band (1) is never wide;
    # the half-resolution solve is skipped where its grid coarsens, as the
    # fine loop takes no more factorizations from a quarter-resolution
    # start. An obstacle solve nests from a wide band, where its contact set
    # shrinks a ring of nodes per factored step from the Poisson start; a
    # Dirichlet solve factors a few times there and nests from twice that band
    levels, wide = [grid], asm.pattern.bw >= (WIDE_BAND if spec.obstacle is not None else 2 * WIDE_BAND)
    while wide and len(levels) < 3 and all(n % 2 and n >= 5 for n in levels[-1].shape):
        levels.append(levels[-1].coarsen())
    if len(levels) > 1:
        coarse = levels[-1]
        nodal = np.zeros(grid.n_nodes)
        nodal[grid.boundary_idx] = g_values
        stride = (slice(None, None, 2 ** (len(levels) - 1)),) * grid.dim
        inject = lambda values: values.reshape(grid.shape[::-1])[stride].reshape(-1)
        psi = None if spec.obstacle is None else NodalField(coarse, inject(asm.psi))
        coarse_spec = replace(spec, grid=coarse, obstacle=psi,
                              boundary=BoundaryData.from_values(inject(nodal)[coarse.boundary_idx]))
        try:
            start = _solve(coarse_spec, newton_tol)[0].values
        except (NonConvergence, LinearSolveFailure):
            pass
        else:
            for level in levels[-2::-1]:
                start = _prolong(level, start)
            start[grid.boundary_idx] = g_values
            notes = f"warm start: {'x'.join(map(str, coarse.shape))} solve"
    if start is None:
        start = poisson_start(grid, g_values, spec.epsilon)
    start[interior] = np.maximum(start[interior], asm.psi[interior])
    history, energies, deltas = [], [], list(DELTA_SCHEDULE)
    state, steps, failure = _newton(asm, start, deltas[-1], newton_tol, history, energies)
    if failure is not None:
        u = start
        for delta in RESTART_DELTAS + DELTA_SCHEDULE:
            deltas.append(delta)
            energies.clear()  # the energies of the last level only
            state, more, failure = _newton(asm, u, delta, newton_tol, history, energies)
            u = state.values
            steps += more
            if failure is not None:
                break
    u = state.values
    r = state.residual[interior]
    contact = u[interior] <= asm.psi[interior]
    if failure is None and np.any(contact) and float(np.min(r[contact])) < -CONTRACT_TOL:
        failure = "active set did not settle to a complementarity-clean state"
    rn = history[-1]  # max |r| off {u <= psi, r > 0} at u, the loop's stop measure
    field = NodalField(grid, u)
    report = SolveReport(
        converged=failure is None and rn <= max(newton_tol, ACCEPT_TOL),
        iterations=steps,
        residual_norm=rn,
        energy=_State(asm, u, 0.0).energy,
        delta_schedule=tuple(deltas),
        residual_history=tuple(history),
        energy_history=tuple(energies),
        active_set_size=int(np.sum(contact)),
        notes=notes,
    )
    if failure is not None:
        raise NonConvergence(failure, field=field, report=report)
    return field, report


def solve_dirichlet(spec, newton_tol=NEWTON_TOL):
    """Solve the unconstrained Dirichlet problem; returns (field, report).

    The solve is the obstacle solve's projected Newton loop with
    psi = -inf. When every axis has an odd node count of at least 5 and
    the half-resolution grid still has a wide band (2D grids from 129 nodes
    across), the loop starts from a coarse problem's solution (nested
    iteration): on the quarter-resolution grid where the half-resolution
    grid coarsens too (129^2 from 33^2), else on the half-resolution grid
    (129 x 7 from 65 x 4). The coarse problem takes the boundary data at
    its nodes, is solved by these same rules, and its cubic interpolant
    (:func:`_prolong`), taken once per level, with the boundary data
    restored, is the start. Elsewhere, or if the coarse solve fails, the
    loop starts from :func:`grids.poisson_start`. The report's ``iterations`` and
    ``residual_history`` describe the requested grid only, and its
    ``notes`` name the coarse solve.
    """
    if spec.obstacle is not None:
        raise ValidationError("solve_dirichlet expects a spec without an obstacle")
    if spec.boundary is None:
        raise ValidationError("solve_dirichlet needs boundary data")
    _gate(spec, "newton_tol", newton_tol)
    return _solve(spec, newton_tol)


def _prolong(grid, coarse_values):
    """Nodal values on ``grid`` interpolated from nodal values on
    ``grid.coarsen()`` by cubics, along one axis after the other: a coarse
    node keeps its value, an interior edge midpoint takes (-1, 9, 9, -1)/16
    of the four coarse nodes around it, and the first and last midpoint
    the one-sided (5, 15, -5, 1)/16; an axis with 3 coarse nodes takes the
    mean of the edge's two ends. The start's interpolation must be of
    higher order than the P1 scheme (Trottenberg, Oosterlee & Schueller,
    *Multigrid*, 2001, sec. 2.6): the kinks of a multilinear start at
    every coarse cell dominate its residual. On the four ``fine-var``
    problems at 129^2 the cubic start's residual is 4-22 times lower, and
    the four loops factor 7 times instead of 9."""
    u = coarse_values.reshape(tuple((n + 1) // 2 for n in grid.shape[::-1]))
    for axis in range(grid.dim):
        u = np.moveaxis(u, axis, 0)
        fine = np.empty((2 * len(u) - 1,) + u.shape[1:])
        fine[::2] = u
        fine[1::2] = 0.5 * (u[:-1] + u[1:])
        if len(u) >= 4:
            fine[3:-3:2] = (9.0 * (u[1:-2] + u[2:-1]) - u[:-3] - u[3:]) / 16.0
            fine[1] = (5.0 * u[0] + 15.0 * u[1] - 5.0 * u[2] + u[3]) / 16.0
            fine[-2] = (u[-4] - 5.0 * u[-3] + 15.0 * u[-2] + 5.0 * u[-1]) / 16.0
        u = np.moveaxis(fine, 0, axis)
    return u.reshape(-1)


def contact_tolerance(psi_values):
    """Scale-aware threshold separating contact from non-contact nodes."""
    return 1e-7 * (1.0 + float(np.max(np.abs(psi_values))))


def solve_obstacle(spec, newton_tol=NEWTON_TOL):
    """Obstacle-constrained solve by projected Newton; (field, report).

    Dirichlet data come from ``spec.boundary`` when present, else from
    the obstacle trace. The solution satisfies u >= psi everywhere,
    solves the equation where u > psi, and is a discrete supersolution
    on the contact set. On a wide band (2D grids from 65 nodes across),
    where from the Poisson start the contact set shrinks by about a ring
    of nodes per factored step, the loop starts as :func:`solve_dirichlet`
    does from 129 across, here from the obstacle problem with psi too at
    the coarse nodes (65^2 from 17^2, 65 x 5 from 33 x 3).
    """
    if spec.obstacle is None:
        raise ValidationError("solve_obstacle needs an obstacle")
    _gate(spec, "newton_tol", newton_tol)
    return _solve(spec, newton_tol)


def complementarity_summary(field, spec):
    """Residual split over contact/non-contact nodes, at the last
    regularization of ``DELTA_SCHEDULE``.

    Returns (max |r| over nodes with u > psi + tol_c, min r over the
    rest); the first should be ~0, the second >= ~0 for a valid solve.
    """
    if spec.obstacle is None:
        raise ValidationError("complementarity_summary needs an obstacle spec")
    r = _State(_Assembler(spec), field.values, DELTA_SCHEDULE[-1]).residual
    interior = spec.grid.interior_idx
    psi = spec.obstacle.values
    on = field.values[interior] <= psi[interior] + contact_tolerance(psi)
    max_off = float(np.max(np.abs(r[interior[~on]]), initial=0.0))
    min_on = float(np.min(r[interior[on]])) if np.any(on) else 0.0
    return max_off, min_on


def approximation_sequence(spec, lsc_target, levels):
    """Increasing smooth obstacles below a target, each solved.

    Obstacles are quadratic inf-convolution envelopes of the target at
    geometrically shrinking radii, so psi_1 <= ... <= psi_k <= target,
    each computed exactly one grid axis at a time; returns a list of
    (psi_field, solution_field) pairs. A level whose psi equals the
    previous level's bit for bit gets a copy of that level's solution.
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
        psi = NodalField(grid, _quadratic_lower_envelope(grid, target, radius))
        if out and np.array_equal(psi.values, out[-1][0].values):
            # the same obstacle has the same solution: one solve per distinct psi
            u_j = out[-1][1].copy()
        else:
            u_j, _ = solve_obstacle(replace(spec, boundary=None, obstacle=psi))
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
