"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each builder turns a seed into a fixed list of :class:`Op`. ``Op.run`` is the timed call into the public API; ``Op.check``
runs afterwards, off the clock, and writes what it finds into a
:class:`Findings`. Solves that happen inside an operation are captured by
the runner and checked here too (:func:`check_solves`).

Seeds pick work-preserving images of fixed base problems: one of the four
symmetries of the unit square that map the triangulation onto itself
(identity, the swap x <-> y, the half turn, and their product) and a
constant shift of the data. The equation sees only Du, and both
discretisations respect these maps, so every seed gives different numbers
with the same amount of work; the spread of a timing across seeds then
measures the program, not the draw. The ordered pairs of ``routes`` are
the exception: they take fully random ``trig_series`` boundaries, a dozen
per pass, so their cost varies and averages out.
"""

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from doublephase import cli, expressions, grids, studies, variational, viscosity
from doublephase.operators import CoefficientField, DoublePhaseParams

# Output gates, set with a margin above what the package (version 0.1.0)
# achieves on these workloads. A looser stopping rule shows up here as
# failures.
VAR_GATE = 1e-10    # max |variational residual|; 0.1.0 reaches ~1e-12 at worst
VISC_GATE = 1e-5    # max |F_i - eps| of the scheme; 0.1.0 reaches ~3e-6 at 65^2
TOUCH_GATE = 0.95   # share of touching quadratics passing (acceptance criterion 11)

REGIMES = ((2.5, 3.0, 1.0), (1.5, 1.8, 0.7), (1.6, 2.2, 0.8))
PI = "3.141592653589793"
# the acceptance gate's smooth boundary datum, and the two data of criterion 12
SMOOTH_BD = "0.5*{X} + 0.3*{Y} + 0.2*sin(PI*{X})*cos(PI*{Y})"
TILTED_BD = "0.6*{X} - 0.2*{Y} + 0.3*sin(PI*{X})"
WAVE_BD = "0.15*cos(PI*{Y}) + 0.1*{X}"
COEFF_EXPR = "0.6 + 0.4*{X} + 0.2*sin(PI*{Y})^2"
IMAGES = (("x", "y"), ("y", "x"), ("(1 - x)", "(1 - y)"), ("(1 - y)", "(1 - x)"))

# fine-var configs: an orthogonal array over coefficient kind, epsilon and
# p >= 2 / p < 2, so each pair of factors appears in every combination
FINE_SLOTS = (
    (2.5, 3.0, "1.0", 0.0, SMOOTH_BD),
    (2.0, 2.8, COEFF_EXPR, 1.0, TILTED_BD),
    (1.6, 2.2, COEFF_EXPR, 0.0, TILTED_BD),
    (1.5, 1.8, "0.7", 1.0, SMOOTH_BD),
)


@dataclass
class Op:
    """One operation: a timed call and its untimed output check."""

    name: str
    run: object
    check: object = None


@dataclass
class Solve:
    """A solve captured while an operation ran."""

    kind: str
    spec: object
    field: object
    report: object


@dataclass
class Findings:
    """What the checks of one operation found.

    ``reported`` holds failures the program signalled itself (an error, a
    failed study verdict, a non-zero exit code); ``wrong`` holds outputs
    the program presented as good that an independent check rejects.
    """

    reported: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    var_resid: list = field(default_factory=list)
    visc_resid: list = field(default_factory=list)
    route_gap: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.reported or self.wrong)


class Draw:
    """Seeded images and shifts of the base problems."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def image(self):
        return IMAGES[int(self.rng.integers(len(IMAGES)))]

    def shift(self):
        return round(float(self.rng.uniform(-0.5, 0.5)), 6)


def expression(template, image, shift=0.0):
    """Config-grammar text of a base template under an image and shift."""
    text = template.replace("PI", PI).replace("{X}", image[0]).replace("{Y}", image[1])
    if shift:
        text += f" {'+' if shift > 0 else '-'} {abs(shift):.6f}"
    return text


def boundary(template, image, shift=0.0):
    return grids.BoundaryData.from_callable(
        expressions.compile_expression(expression(template, image, shift))
    )


def constant_params(p, q, a0):
    return DoublePhaseParams(p, q, coeff=CoefficientField.constant(a0))


# ---------------------------------------------------------------------------
# residuals and checks shared by the workloads


def var_residual(field_, spec):
    """Worst true residual of the variational equations.

    Unconstrained: the residual at the last continuation delta. Obstacle:
    the part off the contact set, from ``complementarity_summary``.
    """
    if spec.obstacle is not None:
        return variational.complementarity_summary(field_, spec)[0]
    r = variational.residual(field_, spec, delta=variational.DELTA_SCHEDULE[-1])
    return float(np.max(np.abs(r)))


def visc_residual(field_, spec):
    """max_i |F_i - eps| from the scalar ``local_equation`` oracle."""
    return max(
        abs(float(viscosity.local_equation(field_, spec.params, int(i), epsilon=spec.epsilon)[0]))
        for i in spec.grid.interior_idx
    )


def check_solves(solves, found):
    """Residual gates and obstacle feasibility for every captured solve."""
    for s in solves:
        if s.kind == "viscosity":
            r = visc_residual(s.field, s.spec)
            found.visc_resid.append(r)
            gate = VISC_GATE
        else:
            r = var_residual(s.field, s.spec)
            found.var_resid.append(r)
            gate = VAR_GATE
        n = s.spec.grid.shape[0]
        if not s.report.converged:
            found.reported.append(f"{s.kind} solve at {n}^2 reports converged=False")
        if r > gate:
            found.wrong.append(f"{s.kind} solve at {n}^2: residual {r:.3e} above gate {gate:g}")
        if s.kind == "obstacle":
            gap = float(np.min(s.field.values - s.spec.obstacle.values))
            if gap < 0.0:
                found.wrong.append(f"obstacle solve at {n}^2: u below psi by {-gap:.3e}")


def _study_check(verdict_fn):
    def check(table, solves, found):
        verdict = verdict_fn(table.rows)
        if verdict != table.verdict:
            found.wrong.append(f"{table.name}: verdict {table.verdict} disagrees with its rows")
        if not verdict:
            rows = "; ".join(" ".join(f"{v:.3g}" for v in row) for row in table.rows)
            found.reported.append(f"{table.name}: study verdict fails, rows {table.columns}: {rows}")

    return check


def _ladder_check(table, solves, found):
    _study_check(studies.equivalence_verdict)(table, solves, found)
    finest = [s for s in solves if s.spec.grid.shape == solves[-1].spec.grid.shape]
    u_var = next(s.field for s in finest if s.kind == "dirichlet")
    u_visc = next(s.field for s in finest if s.kind == "viscosity")
    found.route_gap.append(float(np.max(np.abs(u_var.values - u_visc.values))))


# ---------------------------------------------------------------------------
# workloads


def routes(seed, tiny, workdir):
    """Ordered pairs at 17^2 with both routes, and one 17->33->65 ladder per
    exponent regime, all with a constant coefficient."""
    draw = Draw(seed)
    n = 9 if tiny else 17
    pairs = 3 if tiny else 12
    refinements = 2 if tiny else 3
    regimes = REGIMES[:1] if tiny else REGIMES
    grid = grids.Grid((n, n))
    ops = []
    specs = []
    for p, q, a0 in REGIMES:
        bd = boundary(SMOOTH_BD, draw.image(), draw.shift())
        specs.append(variational.ProblemSpec(grid=grid, params=constant_params(p, q, a0), boundary=bd))
    for i in range(pairs):
        spec = specs[i % len(specs)]
        k = seed * pairs + i
        ops.append(Op(f"pair-{i}", lambda spec=spec, k=k: studies.comparison_study(spec, 1, seed=k),
                      _study_check(studies.comparison_verdict)))
    for spec, (p, q, _a0) in zip(specs, regimes):
        ops.append(Op(f"ladder-p{p}-q{q}",
                      lambda spec=spec: studies.equivalence_study(spec, refinements, seed=seed),
                      _ladder_check))
    return ops


def fine_var(seed, tiny, workdir):
    """``doublephase solve-var`` through ``cli.main`` at 129^2, reading each
    solution back from its field file."""
    draw = Draw(seed)
    n = 17 if tiny else 129
    slots = FINE_SLOTS[1:3] if tiny else FINE_SLOTS
    ops = []
    for k, (p, q, coeff, eps, bd) in enumerate(slots):
        image = draw.image()
        text = "\n".join([
            "[problem]",
            "dimension = 2",
            f"nodes = {n} {n}",
            f"p = {p}",
            f"q = {q}",
            f"coefficient = {expression(coeff, image)}",
            f"epsilon = {eps}",
            f"boundary = {expression(bd, image, draw.shift())}",
            "[output]",
            f"prefix = slot{k}",
            "",
        ])
        path = os.path.join(workdir, f"slot{k}.ini")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        argv = ["solve-var", "--config", path, "--out", workdir, "--seed", str(seed)]
        base = os.path.join(workdir, f"slot{k}")
        ops.append(Op(f"solve-var-{k}", lambda argv=argv, base=base: _cli_solve(argv, base),
                      _cli_check(text, base)))
    return ops


def _cli_solve(argv, base):
    code = cli.main(argv)
    field_ = grids.read_field(base + "_solution.field") if code == 0 else None
    return code, field_


def _cli_check(text, base):
    def check(result, solves, found):
        code, field_ = result
        if code != 0:
            found.reported.append(f"solve-var exited with code {code}")
            return
        with open(base + "_report.csv", encoding="ascii", newline="") as f:
            rows = list(csv.reader(line for line in f if not line.startswith("#")))
        report = dict(zip(rows[0], rows[1]))
        if report.get("converged") != "1":
            found.reported.append("solve-var report says converged=0")
        spec = cli.parse_config(text, command="solve-var").spec
        r = var_residual(field_, spec)
        found.var_resid.append(r)
        if r > VAR_GATE:
            found.wrong.append(f"solve-var field: residual {r:.3e} above gate {VAR_GATE:g}")

    return check


def diagnostics(seed, tiny, workdir):
    """Obstacle ladders, one bump-obstacle solve, the doubling penalty and
    touch tests on fields solved here, in set-up, at 65^2."""
    draw = Draw(seed)
    n = 17 if tiny else 65
    params = constant_params(2.5, 3.0, 1.0)
    grid = grids.Grid((n, n))
    image = draw.image()
    spec = variational.ProblemSpec(grid=grid, params=params,
                                   boundary=boundary(SMOOTH_BD, image, draw.shift()))
    u, _ = variational.solve_dirichlet(spec)
    v, _ = variational.solve_dirichlet(replace(spec, boundary=boundary(WAVE_BD, image, draw.shift())))
    tx = expressions.compile_expression(image[0])(grid.coords)
    ty = expressions.compile_expression(image[1])(grid.coords)
    bump = 0.15 * np.exp(-30.0 * ((tx - 0.4) ** 2 + (ty - 0.55) ** 2))
    bump_spec = replace(spec, obstacle=grids.NodalField(grid, u.values - 0.05 + bump))
    s = max(2.0, params.p / (params.p - 1.0), params.q / (params.q - 1.0)) + 0.5

    ops = [
        # levels=4 is the CLI default; it fails at 65^2 (known defect KD-1)
        Op("obstacle-ladder-4", lambda: studies.obstacle_approximation_study(spec, u, 4, seed=seed),
           _study_check(studies.obstacle_verdict)),
        Op("obstacle-ladder-5", lambda: studies.obstacle_approximation_study(spec, u, 5, seed=seed),
           _study_check(studies.obstacle_verdict)),
        Op("bump-obstacle", lambda: variational.solve_obstacle(bump_spec)),
    ]
    for j in (1.0, 1e2, 1e4):
        ops.append(Op(f"doubling-j{j:g}",
                      lambda j=j: viscosity.doubling_penalty(u, v, j, s, params=params),
                      _doubling_check(u, v)))
    ops.append(Op("touch-100", lambda: viscosity.touch_test(u, params, 100, seed=seed), _touch_check))
    return ops


def _doubling_check(u, v):
    def check(res, solves, found):
        coords = u.grid.coords
        d = float(np.linalg.norm(coords[res.x_index] - coords[res.y_index]))
        psi = u.values[res.x_index] - v.values[res.y_index] - (res.j / res.s) * d ** res.s
        if abs(psi - res.psi_max) > 1e-12 * (1.0 + abs(psi)):
            found.wrong.append(f"doubling j={res.j:g}: Psi at the maximiser is {psi!r}, "
                               f"reported {res.psi_max!r}")
        if res.psi_max < float(np.max(u.values - v.values)):
            found.wrong.append(f"doubling j={res.j:g}: psi_max below max(u - v)")

    return check


def _touch_check(reports, solves, found):
    rate = float(np.mean([r.passed for r in reports])) if reports else 0.0
    if len(reports) != 100 or rate < TOUCH_GATE:
        found.wrong.append(f"touch test: {len(reports)} quadratics, pass rate {rate:.2f}")


WORKLOADS = {"routes": routes, "fine-var": fine_var, "diagnostics": diagnostics}
