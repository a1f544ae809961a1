"""Theorem-shaped studies orchestrating both solvers.

Each study returns a :class:`StudyTable` whose verdict is a pure
function of its rows, so a written CSV can be re-verified without
re-solving. Randomness is always drawn from a seeded generator that is
recorded in the table metadata.
"""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .grids import BoundaryData, NodalField, element_gradients, element_means, interpolate
from .operators import growth, validate_exponents
from .orlicz import gradient_modular
from .variational import (
    ProblemSpec,
    approximation_sequence,
    solve_dirichlet,
)
from .viscosity import solve_viscosity

__all__ = [
    "StudyTable",
    "trig_series",
    "random_cutoff",
    "equivalence_study",
    "comparison_study",
    "caccioppoli_study",
    "regularization_study",
    "obstacle_approximation_study",
    "equivalence_verdict",
    "comparison_verdict",
    "caccioppoli_verdict",
    "regularization_verdict",
    "obstacle_verdict",
]

ORDER_TOL = 1e-9
INTERIOR_DEPTH = 2


@dataclass
class StudyTable:
    """Name, column labels, numeric rows, verdict, and reproducibility
    metadata (parameters and seed)."""

    name: str
    columns: tuple
    rows: list
    verdict: bool
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path, comment=None):
        with open(path, "w", newline="", encoding="ascii") as f:
            if comment:
                f.write(f"# {comment}\n")
            meta = " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            f.write(f"# study={self.name} verdict={'pass' if self.verdict else 'fail'} {meta}\n")
            writer = csv.writer(f)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])

    @classmethod
    def rows_from_csv(cls, path):
        """Columns and float rows of a written table (comments skipped)."""
        with open(path, "r", encoding="ascii") as f:
            lines = [ln for ln in f if not ln.startswith("#")]
        reader = csv.reader(lines)
        columns = tuple(next(reader))
        rows = [tuple(float(v) for v in row) for row in reader if row]
        return columns, rows


def trig_series(seed, dim, degree=4, scale=1.0):
    """Smooth seeded boundary closure: truncated trigonometric series in
    coordinates normalized to [0, 1], coefficients decaying like 1/k^2."""
    rng = np.random.default_rng(seed)
    c0 = float(rng.uniform(-0.5, 0.5))
    coeffs = []
    for axis in range(dim):
        for k in range(1, degree + 1):
            coeffs.append((axis, k, rng.uniform(-1, 1) / k**2, rng.uniform(-1, 1) / k**2))

    def closure(pts):
        t = np.asarray(pts, dtype=float)
        out = np.full(t.shape[0], c0)
        for axis, k, ak, bk in coeffs:
            arg = k * np.pi * t[:, axis]
            out += ak * np.sin(arg) + bk * np.cos(arg)
        return scale * out

    return closure


def _normalized_closure(closure, grid):
    lower = grid.lower
    extent = grid.extent

    def wrapped(pts):
        return closure((pts - lower) / extent)

    return wrapped


def random_cutoff(seed, lower, extent):
    """Random polynomial bump cutoff in [0, 1] vanishing near the
    boundary, with an analytic gradient. Returns (zeta, grad_zeta)."""
    rng = np.random.default_rng(seed)
    lower = np.asarray(lower, dtype=float)
    extent = np.asarray(extent, dtype=float)
    dim = len(lower)
    a = lower + extent * rng.uniform(0.08, 0.25, size=dim)
    b = lower + extent * (1.0 - rng.uniform(0.08, 0.25, size=dim))
    k = int(rng.integers(2, 4))

    def _axis_bump(t, lo, hi):
        s = (t - lo) / (hi - lo)
        inside = (s > 0.0) & (s < 1.0)
        base = np.where(inside, 4.0 * s * (1.0 - s), 0.0)
        val = base**k
        dbase = np.where(inside, 4.0 * (1.0 - 2.0 * s) / (hi - lo), 0.0)
        dval = np.where(inside, k * base ** (k - 1) * dbase, 0.0)
        return val, dval

    def zeta(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.ones(pts.shape[0])
        for d in range(dim):
            v, _ = _axis_bump(pts[:, d], a[d], b[d])
            out *= v
        return out

    def grad_zeta(pts):
        pts = np.asarray(pts, dtype=float)
        vals = []
        ders = []
        for d in range(dim):
            v, dv = _axis_bump(pts[:, d], a[d], b[d])
            vals.append(v)
            ders.append(dv)
        out = np.empty((pts.shape[0], dim))
        for d in range(dim):
            g = ders[d].copy()
            for other in range(dim):
                if other != d:
                    g *= vals[other]
            out[:, d] = g
        return out

    return zeta, grad_zeta


def _refined_spec(spec, times=1):
    grid = spec.grid
    for _ in range(times):
        grid = grid.refine()
    if spec.boundary is None or not spec.boundary.is_callable:
        raise ValidationError("refinement studies need callable boundary data")
    return replace(spec, grid=grid)


# ---------------------------------------------------------------------------
# verdicts: pure functions of the rows


def equivalence_verdict(rows):
    d = [row[2] for row in rows]
    decreasing = all(d[i + 1] < d[i] for i in range(len(d) - 1))
    return decreasing and d[-1] <= d[0] / 2.0


def comparison_verdict(rows):
    for row in rows:
        for v in row[2:]:
            if np.isfinite(v) and v > ORDER_TOL:
                return False
    return True


def caccioppoli_verdict(rows):
    ratios = {}
    for level, _idx, _lhs, _rhs, ratio in rows:
        if not np.isfinite(ratio):
            return False
        ratios.setdefault(int(level), []).append(ratio)
    if set(ratios) != {0, 1}:
        return False
    m0 = max(ratios[0])
    m1 = max(ratios[1])
    return m1 <= 2.0 * m0 and m0 <= 2.0 * m1


def regularization_verdict(rows):
    eps_rows = [row for row in rows if row[0] > 0.0]
    sup = [row[1] for row in eps_rows]
    decreasing = all(sup[i + 1] < sup[i] for i in range(len(sup) - 1))
    monotone = all(row[3] <= ORDER_TOL for row in rows)
    return decreasing and monotone


def obstacle_verdict(rows):
    mono = all(row[1] <= ORDER_TOL for row in rows)
    below = all(row[2] <= ORDER_TOL for row in rows)
    gms = [row[3] for row in rows]
    bound = max(gms) <= 10.0 * float(np.median(gms)) + 1e-300
    dists = [row[4] for row in rows]
    slack = 1e-12 * (1.0 + abs(dists[0]))
    nonincreasing = all(dists[i + 1] <= dists[i] + slack for i in range(len(dists) - 1))
    return mono and below and bound and nonincreasing


# ---------------------------------------------------------------------------
# studies


def equivalence_study(spec, refinements, seed=0):
    """max |u_var - u_visc| under refinement; both routes share the spec.

    Pass verdict: strictly decreasing distance, finest at most half the
    coarsest.
    """
    if not spec.params.coeff.is_constant:
        raise ValidationError(
            "the equivalence study requires a constant coefficient a(x) "
            "(the viscosity route is only well-posed there)"
        )
    rows = []
    current = spec
    for level in range(refinements):
        if level > 0:
            current = _refined_spec(current)
        u_var, rep_var = solve_dirichlet(current)
        u_visc, rep_visc = solve_viscosity(current)
        d = float(np.max(np.abs(u_var.values - u_visc.values)))
        rows.append(
            (float(np.max(current.grid.spacing)), current.grid.n_nodes, d,
             rep_var.iterations, rep_visc.iterations)
        )
    return StudyTable(
        name="equivalence",
        columns=("h", "nodes", "max_diff", "var_iterations", "visc_iterations"),
        rows=rows,
        verdict=equivalence_verdict(rows),
        metadata=_meta(spec, seed=seed, refinements=refinements),
    )


def comparison_study(spec, trials, seed=0):
    """Ordered boundary pairs force ordered solutions.

    Pairs are a seeded trig series and the same series shifted up by a
    positive constant; violations are max(u_low - u_high) per solver.
    """
    rng = np.random.default_rng(seed)
    rows = []
    constant_a = spec.params.coeff.is_constant
    for trial in range(trials):
        g1 = _normalized_closure(trig_series(seed * 100003 + trial, spec.grid.dim), spec.grid)
        shift = float(rng.uniform(0.25, 1.0))
        g2 = lambda pts, g1=g1, shift=shift: g1(pts) + shift
        s1 = replace(spec, boundary=BoundaryData.from_callable(g1))
        s2 = replace(spec, boundary=BoundaryData.from_callable(g2))
        u1, _ = solve_dirichlet(s1)
        u2, _ = solve_dirichlet(s2)
        viol_var = float(np.max(u1.values - u2.values))
        if constant_a:
            v1, _ = solve_viscosity(s1)
            v2, _ = solve_viscosity(s2)
            viol_visc = float(np.max(v1.values - v2.values))
        else:
            viol_visc = float("nan")
        rows.append((trial, shift, viol_var, viol_visc))
    return StudyTable(
        name="comparison",
        columns=("trial", "shift", "violation_var", "violation_visc"),
        rows=rows,
        verdict=comparison_verdict(rows),
        metadata=_meta(spec, seed=seed, trials=trials),
    )


def caccioppoli_study(spec, cutoffs, seed=0):
    """Interior-energy over cutoff-energy ratios for a solved field.

    Evaluates both sides of the cutoff inequality for seeded bump
    cutoffs on the base grid and once refined; the empirical constant
    must be finite and stable within a factor of two.
    """
    rows = []
    base = replace(spec, epsilon=0.0)
    for level, inst in enumerate([base, _refined_spec(base)]):
        u, _ = solve_dirichlet(inst)
        grid = inst.grid
        params = inst.params
        grads = element_gradients(u)
        means = element_means(u)
        cents = grid.element_centroids
        weights = grid.element_measures
        a_e = params.coeff.value(cents)
        h_du = growth(params.p, params.q, a_e, np.linalg.norm(grads, axis=1))
        for idx in range(cutoffs):
            zeta, grad_zeta = random_cutoff(seed * 7919 + idx, grid.lower, grid.extent)
            z = zeta(cents)
            gz = np.linalg.norm(grad_zeta(cents), axis=1)
            lhs = float(np.sum(weights * z**params.q * h_du))
            cmag = np.abs(means) * gz
            rhs = float(np.sum(weights * growth(params.p, params.q, a_e, cmag)))
            if rhs > 0.0:
                ratio = lhs / rhs
            else:
                ratio = 0.0 if lhs == 0.0 else float("inf")
            rows.append((level, idx, lhs, rhs, ratio))
    return StudyTable(
        name="caccioppoli",
        columns=("level", "cutoff", "lhs", "rhs", "ratio"),
        rows=rows,
        verdict=caccioppoli_verdict(rows),
        metadata=_meta(spec, seed=seed, cutoffs=cutoffs),
    )


def regularization_study(spec, epsilons, seed=0):
    """Solutions of -div A = eps against the eps = 0 limit.

    Requires the stronger exponent bound q/p <= min{p, 1 + alpha/n}.
    Asserts nodal monotonicity in eps and strictly decreasing interior
    sup-distance; the gradient modular of the difference is reported.
    """
    check = validate_exponents(spec.params, spec.grid.dim, "regularized_limit")
    if not check:
        raise ValidationError(f"regularization study precondition failed: {check.message}")
    eps_list = [float(e) for e in epsilons]
    if any(e <= 0.0 for e in eps_list) or any(
        eps_list[i + 1] >= eps_list[i] for i in range(len(eps_list) - 1)
    ):
        raise ValidationError("epsilons must be positive and strictly decreasing")
    grid = spec.grid
    interior = grid.interior_depth_mask(INTERIOR_DEPTH)
    u0, _ = solve_dirichlet(replace(spec, epsilon=0.0))
    rows = []
    prev = None
    for eps in eps_list:
        ue, _ = solve_dirichlet(replace(spec, epsilon=eps))
        sup = float(np.max(np.abs(ue.values[interior] - u0.values[interior])))
        gm = gradient_modular(u0 - ue, spec.params)
        viol = 0.0 if prev is None else float(np.max(ue.values - prev.values))
        rows.append((eps, sup, gm, viol))
        prev = ue
    rows.append((0.0, 0.0, 0.0, float(np.max(u0.values - prev.values))))
    return StudyTable(
        name="regularization",
        columns=("epsilon", "sup_dist_interior", "grad_modular_diff", "monotonicity_violation"),
        rows=rows,
        verdict=regularization_verdict(rows),
        metadata=_meta(spec, seed=seed, epsilons=tuple(eps_list)),
    )


def obstacle_approximation_study(spec, target, levels, seed=0):
    """Monotone smooth-obstacle approximations against a target field.

    Asserts the solutions increase with the level, stay below the
    target, keep uniformly bounded gradient modulars, and close the
    interior modular distance monotonically.
    """
    grid = spec.grid
    pairs = approximation_sequence(spec, target, levels)
    if isinstance(target, NodalField):
        t_field = target
    else:
        t_field = interpolate(grid, target)
    inner = grid.interior_element_mask(INTERIOR_DEPTH)
    rows = []
    prev = None
    for level, (_psi, u_j) in enumerate(pairs):
        mono = 0.0 if prev is None else float(np.max(prev.values - u_j.values))
        exceed = float(np.max(u_j.values - t_field.values))
        gm = gradient_modular(u_j, spec.params)
        dist = gradient_modular(t_field - u_j, spec.params, element_mask=inner)
        rows.append((level, mono, exceed, gm, dist))
        prev = u_j
    return StudyTable(
        name="obstacle_approximation",
        columns=("level", "monotonicity_violation", "target_excess",
                 "grad_modular", "interior_modular_distance"),
        rows=rows,
        verdict=obstacle_verdict(rows),
        metadata=_meta(spec, seed=seed, levels=levels),
    )


def _meta(spec, **extra):
    md = {
        "p": spec.params.p,
        "q": spec.params.q,
        "alpha": spec.params.alpha,
        "epsilon": spec.epsilon,
        "dim": spec.grid.dim,
        "shape": "x".join(str(s) for s in spec.grid.shape),
    }
    md.update(extra)
    return md
