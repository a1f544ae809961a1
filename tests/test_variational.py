from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    ElementAssembly,
    dense_from_band,
    flux_inversion_solution,
    lowered_parabola_obstacle_solution,
    quadratic_lower_envelope,
    quadratic_obstacle_solution,
)

from doublephase import variational
from doublephase.errors import GridMismatch, InfeasibleObstacle, NonConvergence, ValidationError
from doublephase.grids import BoundaryData, Grid, InteriorPattern, NodalField, interpolate
from doublephase.operators import CoefficientField, DoublePhaseParams
from doublephase.orlicz import gradient_modular
from doublephase.studies import trig_series
from doublephase.variational import (
    DELTA_SCHEDULE,
    ProblemSpec,
    _Assembler,
    _quadratic_lower_envelope,
    _State,
    approximation_sequence,
    complementarity_summary,
    energy,
    residual,
    solve_dirichlet,
    solve_obstacle,
)

# frozen flux-inversion oracle values, p=2.5 q=3 a0=1 eps=0.3 u(0)=0 u(1)=1
FLUX_ORACLE_QUARTERS = {
    0.25: 0.257992083444753,
    0.50: 0.510715475200744,
    0.75: 0.758082335312527,
}


def const_params(p, q, a0=1.0):
    return DoublePhaseParams(p, q, coeff=CoefficientField.constant(a0))


def smooth_bd():
    # the acceptance gate's smooth boundary datum
    return BoundaryData.from_callable(
        lambda pts: 0.5 * pts[:, 0] + 0.3 * pts[:, 1]
        + 0.2 * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    )


def linear_bd():
    return BoundaryData.from_callable(lambda pts: pts[:, 0])


PROLONG_SHAPES = [(9,), (5, 9), (9, 5), (17, 17), (17, 9)]


def prolong_grid(shape):
    return Grid(shape, lower=(0.5, -1.0)[:len(shape)], extent=(1.0, 0.75)[:len(shape)])


def prolong_chains(grid):
    """The grids a nested start prolongs through, finest first: one level
    down, and two where the coarse grid coarsens again (as ``_solve``)."""
    chains = [[grid, grid.coarsen()]]
    if all(n % 2 and n >= 5 for n in chains[0][-1].shape):
        chains.append(chains[0] + [chains[0][-1].coarsen()])
    return chains


def prolong_through(chain, values):
    for level in chain[-2::-1]:
        values = variational._prolong(level, values)
    return values


def assert_keeps_coarse_values(chain, values):
    """Every node of the coarsest grid in ``chain`` keeps its value bit for bit."""
    fine = prolong_through(chain, values).reshape(chain[0].shape[::-1])
    stride = (slice(None, None, 2 ** (len(chain) - 1)),) * chain[0].dim
    np.testing.assert_array_equal(fine[stride].reshape(-1), values)


def exact_degrees(chain):
    """Per axis, the polynomial degree that prolongation through ``chain``
    reproduces: cubic where every coarse level has at least 4 nodes on the
    axis, linear where one has 3."""
    return [3 if min(level.shape[i] for level in chain[1:]) >= 4 else 1 for i in range(chain[0].dim)]


def multilinear_prolong(grid, coarse_values):
    """Linear interpolation along one axis after the other: the nested
    start's interpolation before it was cubic, kept as a reference."""
    u = coarse_values.reshape(tuple((n + 1) // 2 for n in grid.shape[::-1]))
    for axis in range(grid.dim):
        u = np.moveaxis(u, axis, 0)
        fine = np.empty((2 * len(u) - 1,) + u.shape[1:])
        fine[::2] = u
        fine[1::2] = 0.5 * (u[:-1] + u[1:])
        u = np.moveaxis(fine, 0, axis)
    return u.reshape(-1)


# the fine-var benchmark's coefficient 0.6 + 0.4 x + 0.2 sin(pi y)^2 and
# its tilted boundary datum
FINE_VAR_COEFF = CoefficientField.analytic(
    lambda pts: 0.6 + 0.4 * pts[..., 0] + 0.2 * np.sin(np.pi * pts[..., 1]) ** 2
)
TILTED_BD = BoundaryData.from_callable(
    lambda pts: 0.6 * pts[:, 0] - 0.2 * pts[:, 1] + 0.3 * np.sin(np.pi * pts[:, 0])
)
# the four fine-var problems (p, q, a, eps, boundary datum), unmapped and unshifted
FINE_VAR_SLOTS = (
    (2.5, 3.0, CoefficientField.constant(1.0), 0.0, smooth_bd()),
    (2.0, 2.8, FINE_VAR_COEFF, 1.0, TILTED_BD),
    (1.6, 2.2, FINE_VAR_COEFF, 0.0, TILTED_BD),
    (1.5, 1.8, CoefficientField.constant(0.7), 1.0, smooth_bd()),
)


class TestEnergy:
    def test_zero_field(self):
        g = Grid((17,))
        spec = ProblemSpec(grid=g, params=const_params(2, 4), boundary=BoundaryData.constant(0.0))
        assert energy(NodalField(g, np.zeros(17)), spec) == 0.0

    def test_unit_slope_closed_form(self):
        g = Grid((33,))
        spec = ProblemSpec(grid=g, params=const_params(2, 4), boundary=linear_bd())
        f = interpolate(g, lambda pts: pts[:, 0])
        assert energy(f, spec) == pytest.approx(0.75, rel=1e-13)

    def test_source_term_vanishes_on_zero_field(self):
        g = Grid((17,))
        spec = ProblemSpec(
            grid=g, params=const_params(2, 4), boundary=BoundaryData.constant(0.0), epsilon=0.1
        )
        assert energy(NodalField(g, np.zeros(17)), spec) == 0.0


class TestResidual:
    def test_linear_field_zero_residual(self):
        g = Grid((33,))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0), boundary=linear_bd())
        f = interpolate(g, lambda pts: pts[:, 0])
        assert np.max(np.abs(residual(f, spec))) <= 1e-12

    def test_zero_field_with_source_gives_lumped_mass(self):
        g = Grid((17,))
        h = g.spacing[0]
        spec = ProblemSpec(
            grid=g, params=const_params(2, 3), boundary=BoundaryData.constant(0.0), epsilon=0.4
        )
        r = residual(NodalField(g, np.zeros(g.n_nodes)), spec)
        np.testing.assert_allclose(r, -0.4 * h, rtol=1e-13)

    def test_linear_case_matches_stiffness_action(self):
        g = Grid((9, 9))
        rng = np.random.default_rng(4)
        spec = ProblemSpec(
            grid=g,
            params=DoublePhaseParams(2.0, 2.0, coeff=CoefficientField.constant(0.0)),
            boundary=BoundaryData.constant(0.0),
        )
        f = NodalField(g, rng.normal(size=g.n_nodes))
        r = residual(f, spec)
        # 5-point stencil action on this mesh
        nx, ny = g.shape
        U = f.values.reshape(ny, nx)
        lap = (
            4.0 * U[1:-1, 1:-1]
            - U[1:-1, 2:] - U[1:-1, :-2] - U[2:, 1:-1] - U[:-2, 1:-1]
        )
        np.testing.assert_allclose(r, lap.reshape(-1), atol=1e-12)

    @pytest.mark.parametrize("p,q,delta", [(2.5, 3.0, 1e-3), (1.5, 1.8, 1e-2), (1.5, 3.0, 1e-3)])
    def test_residual_is_energy_gradient(self, p, q, delta):
        g = Grid((9, 9))
        rng = np.random.default_rng(7)
        spec = ProblemSpec(
            grid=g, params=const_params(p, q, a0=0.6), boundary=BoundaryData.constant(0.0),
            epsilon=0.2,
        )
        f = NodalField(g, rng.normal(size=g.n_nodes) * 0.5)
        r = residual(f, spec, delta=delta)
        h_fd = 1e-4
        for probe, k in [(5, 0), (20, 1), (33, 2)]:
            node = g.interior_idx[probe]
            up = f.copy(); up.values[node] += h_fd
            dn = f.copy(); dn.values[node] -= h_fd
            fd = (energy(up, spec, delta=delta) - energy(dn, spec, delta=delta)) / (2 * h_fd)
            assert fd == pytest.approx(r[probe], rel=1e-6, abs=1e-10)


class TestFlatElementsAtZeroDelta:
    # at delta = 0 a flat element has m = 0, where the phases m^(p-2) and
    # a m^(q-2) are infinite for exponents below 2; its energy density and
    # flux are still 0, with no NaN and no floating-point warning
    @pytest.mark.parametrize("p,q", [(1.5, 1.8), (2.5, 3.0)])
    @pytest.mark.parametrize("flat", ["everywhere", "left half"])
    def test_energy_and_residual_match_the_gather_oracle(self, p, q, flat):
        g = Grid((9, 9))
        x, y = g.coords.T
        values = np.full(g.n_nodes, 0.3)
        if flat == "left half":
            values += np.maximum(x - 0.5, 0.0) * (1.0 + y)
        spec = ProblemSpec(grid=g, params=const_params(p, q, a0=0.7), boundary=BoundaryData.constant(0.3),
                           epsilon=0.5)
        field = NodalField(g, values)
        ref = ElementAssembly(g, p, q, lambda pts: np.full(len(pts), 0.7), 0.5)
        e, scale = ref.energy(values, 0.0)
        assert np.isfinite(energy(field, spec)) and abs(energy(field, spec) - e) <= 1e-13 * scale
        r, scale = ref.residual_full(values, 0.0)
        got = residual(field, spec)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - r[g.interior_idx])) <= 1e-13 * scale

    def test_constant_data_solve_reports_zero_energy(self):
        spec = ProblemSpec(grid=Grid((9, 9)), params=const_params(1.5, 1.8, a0=0.7),
                           boundary=BoundaryData.constant(0.25))
        u, rep = solve_dirichlet(spec)
        # the Poisson start is constant up to rounding, which a step removes
        assert rep.converged and rep.residual_norm == 0.0
        np.testing.assert_array_equal(u.values, 0.25)
        assert rep.energy == 0.0


@st.composite
def newton_cases(draw):
    """A random field on a small 1D or 2D grid, (p, q, a, delta) with
    p <= q in [1.5, 3], and a random, possibly empty, active subset of the
    interior (a mask over ``grid.interior_idx``)."""
    dim = draw(st.sampled_from([1, 2]))
    grid = Grid(tuple(draw(st.integers(3, 8)) for _ in range(dim)))
    values = draw(hnp.arrays(float, grid.n_nodes, elements=st.floats(-1.0, 1.0)))
    p, q = sorted(draw(st.lists(st.floats(1.5, 3.0), min_size=2, max_size=2)))
    a0 = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        coeff = CoefficientField.constant(a0)
    else:
        coeff = CoefficientField.analytic(
            lambda pts: a0 + 0.25 * pts[:, 0],
            lambda pts: np.column_stack([np.full(len(pts), 0.25)] + [np.zeros(len(pts))] * (dim - 1)),
        )
    delta = draw(st.sampled_from([1e-2, 1e-4]))
    active = draw(hnp.arrays(bool, len(grid.interior_idx)))
    return grid, values, DoublePhaseParams(p, q, coeff=coeff), delta, active


class TestNewtonMatrix:
    @settings(max_examples=100)
    @given(newton_cases())
    def test_free_block_matches_finite_differences(self, case):
        grid, values, params, delta, active = case
        spec = ProblemSpec(grid=grid, params=params, boundary=BoundaryData.constant(0.0),
                           epsilon=0.3)
        asm = _Assembler(spec)
        keep = np.flatnonzero(~active)
        free = grid.interior_idx[keep]
        nodal = np.zeros(grid.n_nodes, dtype=bool)
        nodal[grid.interior_idx[active]] = True
        full = dense_from_band(_State(asm, values, delta).jacobian(nodal), symmetric=True)
        assert full.shape == (len(grid.interior_idx),) * 2
        # active rows and columns are identity rows decoupled from the rest
        unit = np.eye(len(grid.interior_idx))
        np.testing.assert_array_equal(full[active], unit[active])
        np.testing.assert_array_equal(full[:, active], unit[:, active])
        K = full[np.ix_(keep, keep)]
        # Every element modulus is >= delta and a nodal step moves an element
        # gradient by at most step / h, so step = 1e-3 delta h keeps the
        # central-difference truncation near 1e-6 of the entries, while the
        # rounding error (eps |r| / step) stays below that. The worst seen in
        # 600 random cases was 6e-7 of max |K|; a wrong entry is O(max |K|).
        step = 1e-3 * delta * float(np.min(grid.spacing))
        fd = np.empty_like(K)
        for c, node in enumerate(free):
            up, dn = values.copy(), values.copy()
            up[node] += step
            dn[node] -= step
            fd[:, c] = (_State(asm, up, delta).residual - _State(asm, dn, delta).residual)[free] / (2.0 * step)
        scale = float(np.max(np.abs(K), initial=0.0))
        assert np.all(np.abs(fd - K) <= 1e-5 * scale)


@st.composite
def assembly_cases(draw):
    """A random field on a 1D, square or non-square 2D grid with extents
    0.25-4 per axis and a shifted lower corner, p <= q in [1.5, 3], a
    constant or analytic coefficient, delta in {1e-2, 1e-4}, eps in [0, 1]
    and a random nodal active mask."""
    nx = draw(st.integers(3, 9))
    shape = draw(st.sampled_from([(nx,), (nx, nx), (nx, draw(st.integers(3, 9)))]))
    dim = len(shape)
    grid = Grid(shape, lower=[draw(st.floats(-2.0, 2.0)) for _ in shape],
                extent=[draw(st.floats(0.25, 4.0)) for _ in shape])
    values = draw(hnp.arrays(float, grid.n_nodes, elements=st.floats(-1.0, 1.0)))
    p, q = sorted(draw(st.lists(st.floats(1.5, 3.0), min_size=2, max_size=2)))
    a0 = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        coeff = CoefficientField.constant(a0)
    else:
        coeff = CoefficientField.analytic(
            lambda pts: a0 + 0.25 * np.sin(pts[:, 0]) ** 2,
            lambda pts: np.column_stack([0.25 * np.sin(2.0 * pts[:, 0])] + [np.zeros(len(pts))] * (dim - 1)),
        )
    delta = draw(st.sampled_from([1e-2, 1e-4]))
    eps = draw(st.floats(0.0, 1.0))
    active = draw(hnp.arrays(bool, grid.n_nodes))
    return grid, values, DoublePhaseParams(p, q, coeff=coeff), delta, eps, active


class TestSlicedAssembly:
    @settings(max_examples=150)
    @given(assembly_cases())
    def test_matches_element_gather_oracle(self, case):
        grid, values, params, delta, eps, active = case
        spec = ProblemSpec(grid=grid, params=params, boundary=BoundaryData.constant(0.0),
                           epsilon=eps)
        asm = _Assembler(spec)
        ref = ElementAssembly(grid, params.p, params.q, params.coeff.value, eps)
        # below the underflow threshold rounding is absolute, so the
        # relative bound gets a floor of a few subnormal units
        tiny = 64 * np.finfo(float).smallest_subnormal
        state = _State(asm, values, delta)
        e, scale = ref.energy(values, delta)
        assert abs(state.energy - e) <= max(1e-13 * scale, tiny)
        r, scale = ref.residual_full(values, delta)
        assert np.max(np.abs(state.residual - r)) <= max(1e-13 * scale, tiny)
        # the free matrix is the one under an all-false mask
        for mask, nodal in ((None, np.zeros(grid.n_nodes, dtype=bool)), (active, active)):
            K = ref.jacobian(values, delta, mask)
            band = dense_from_band(state.jacobian(nodal), symmetric=True)
            assert np.max(np.abs(band - K)) <= 1e-13 * np.max(np.abs(K))


@st.composite
def dirichlet_cases(draw):
    """(p, q, a) with p in [1.4, 3] (so p < 2 occurs), q in [p, p + 1.5]
    and a in [0, 1]; eps in [0, 1]; a seeded trig-series boundary datum of
    the comparison study on a 1D grid of 33 nodes, a 9^2 grid or a thin
    grid with a wide band: an odd 65-129 nodes along x and 3-9 along y, so
    the loop reuses its factor, and from 129 across with at least 5 rows
    starts nested."""
    across = st.sampled_from([65, 129]) | st.integers(33, 63).map(lambda k: 2 * k + 1)
    thin = st.tuples(across, st.sampled_from([3, 5, 7, 9]))
    grid = Grid(draw(st.one_of(st.just((33,)), st.just((9, 9)), thin)))
    p = draw(st.floats(1.4, 3.0))
    q = draw(st.floats(p, p + 1.5))
    return ProblemSpec(
        grid=grid, params=const_params(p, q, a0=draw(st.floats(0.0, 1.0))),
        epsilon=draw(st.floats(0.0, 1.0)),
        boundary=BoundaryData.from_callable(trig_series(draw(st.integers(0, 2 ** 32 - 1)), grid.dim)),
    )


class TestNewtonLoop:
    @settings(max_examples=60)
    @given(dirichlet_cases())
    def test_one_loop_invariants(self, spec):
        u, rep = solve_dirichlet(spec)
        assert rep.converged
        energies = rep.energy_history
        for e1, e2 in zip(energies, energies[1:]):
            assert e2 <= e1 + 1e-10 * (1.0 + abs(e1))
        assert rep.residual_history[-1] == rep.residual_norm
        # the step after the stop is kept only if it lowers the residual
        assert rep.residual_norm <= min(rep.residual_history[-2:])
        # a true residual of the discrete equation at the solve's delta
        assert rep.residual_norm == np.max(np.abs(residual(u, spec, delta=DELTA_SCHEDULE[-1])))


@st.composite
def far_obstacle_cases(draw):
    """A 1D or 2D grid of 5-17 nodes per axis, an acceptance regime,
    eps in {0, 1/2} and a seeded trig-series boundary datum."""
    dim = draw(st.sampled_from([1, 2]))
    grid = Grid(tuple(draw(st.integers(5, 17)) for _ in range(dim)))
    p, q, a0 = draw(st.sampled_from([(2.5, 3.0, 1.0), (1.5, 1.8, 0.7), (1.6, 2.2, 0.8)]))
    return ProblemSpec(
        grid=grid, params=const_params(p, q, a0=a0), epsilon=draw(st.sampled_from([0.0, 0.5])),
        boundary=BoundaryData.from_callable(trig_series(draw(st.integers(0, 2 ** 32 - 1)), dim)),
    )


class TestOneSolvePath:
    @settings(max_examples=50)
    @given(far_obstacle_cases())
    def test_far_obstacle_solve_is_the_dirichlet_solve(self, spec):
        # the Dirichlet problem is the obstacle problem with psi = -inf; an
        # obstacle far below the data never touches, so both solves take
        # the same steps bit for bit (on these grids, below 65 across,
        # neither solve starts nested)
        u, rep = solve_dirichlet(spec)
        low = float(np.min(spec.boundary.values_on(spec.grid))) - 1e3
        v, rep_obstacle = solve_obstacle(
            replace(spec, obstacle=NodalField(spec.grid, np.full(spec.grid.n_nodes, low)))
        )
        np.testing.assert_array_equal(v.values, u.values)
        assert rep_obstacle.iterations == rep.iterations
        assert rep_obstacle.residual_history == rep.residual_history
        assert rep_obstacle.energy_history == rep.energy_history
        assert rep_obstacle.active_set_size == 0

    @pytest.mark.parametrize("p,q,a0,eps", [(2.5, 3.0, 1.0, 0.0), (1.5, 1.8, 0.7, 0.5)])
    def test_far_obstacle_solve_nests_to_the_dirichlet_solution(self, p, q, a0, eps):
        # at 65^2 the obstacle solve starts from the 17^2 obstacle solve and
        # the Dirichlet solve from the Poisson start: different steps, the
        # same solution
        g = Grid((65, 65))
        spec = ProblemSpec(grid=g, params=const_params(p, q, a0=a0), boundary=smooth_bd(), epsilon=eps)
        u, rep = solve_dirichlet(spec)
        v, rep_obstacle = solve_obstacle(replace(spec, obstacle=NodalField(g, np.full(g.n_nodes, -1e3))))
        assert rep.converged and rep.notes == ""
        assert rep_obstacle.converged and rep_obstacle.notes == "warm start: 17x17 solve"
        assert rep_obstacle.active_set_size == 0
        assert np.max(np.abs(v.values - u.values)) <= 1e-12


@st.composite
def nested_cases(draw):
    """A 129 x {5, 7, 9} grid, an acceptance regime, eps in {0, 1/2} and a
    seeded trig-series boundary datum, with the grid whose solve starts
    the loop: 9 rows coarsen twice (33 x 3), 7 and 5 rows once."""
    rows = draw(st.sampled_from([5, 7, 9]))
    grid = Grid((129, rows))
    p, q, a0 = draw(st.sampled_from([(2.5, 3.0, 1.0), (1.5, 1.8, 0.7), (1.6, 2.2, 0.8)]))
    spec = ProblemSpec(
        grid=grid, params=const_params(p, q, a0=a0), epsilon=draw(st.sampled_from([0.0, 0.5])),
        boundary=BoundaryData.from_callable(trig_series(draw(st.integers(0, 2 ** 32 - 1)), 2)),
    )
    return spec, {5: "65x3", 7: "65x4", 9: "33x3"}[rows]


def wide_band_obstacle_spec():
    """A bump obstacle on 65 x 5, a grid with a wide band, under the smooth
    datum and 0.01 below it on the boundary."""
    g = Grid((65, 5))
    x = g.coords
    psi = 0.8 - ((x[:, 0] - 0.5) ** 2 + 0.2 * (x[:, 1] - 0.5) ** 2) / 0.18
    psi[g.boundary_idx] = np.minimum(psi[g.boundary_idx], smooth_bd().values_on(g) - 0.01)
    return ProblemSpec(grid=g, params=const_params(2.5, 3.0), boundary=smooth_bd(), obstacle=NodalField(g, psi))


@st.composite
def nested_obstacle_cases(draw):
    """A 65 x {5, 7, 9} grid, an acceptance regime, eps in {0, 1/2} and an
    obstacle built on a seeded trig series: a random bump under the series
    as boundary data, or the series' quadratic envelope at a random radius,
    whose trace is the boundary data; with the grid whose obstacle solve
    starts the loop: 9 rows coarsen twice (17 x 3), 7 and 5 rows once."""
    rows = draw(st.sampled_from([5, 7, 9]))
    grid = Grid((65, rows))
    x, bnd = grid.coords, grid.boundary_idx
    p, q, a0 = draw(st.sampled_from([(2.5, 3.0, 1.0), (1.5, 1.8, 0.7), (1.6, 2.2, 0.8)]))
    data = trig_series(draw(st.integers(0, 2 ** 32 - 1)), 2)(x)
    if draw(st.booleans()):
        top, cx, width = draw(st.floats(0.0, 0.5)), draw(st.floats(0.2, 0.8)), draw(st.floats(0.05, 0.3))
        psi = np.max(data) + top - ((x[:, 0] - cx) ** 2 + 0.2 * (x[:, 1] - 0.5) ** 2) / width
        psi[bnd] = np.minimum(psi[bnd], data[bnd] - 0.01)
        boundary = BoundaryData.from_values(data[bnd])
    else:  # the radii of approximation_sequence span diam^2 / 2 to (2h)^2 / 2 over the oscillation
        radius = draw(st.floats(0.5 * (2.0 / 64) ** 2, 0.5 * grid.diameter ** 2)) / np.ptp(data)
        psi, boundary = _quadratic_lower_envelope(grid, data, radius), None
    spec = ProblemSpec(grid=grid, params=const_params(p, q, a0=a0), epsilon=draw(st.sampled_from([0.0, 0.5])),
                       boundary=boundary, obstacle=NodalField(grid, psi))
    return spec, {5: "33x3", 7: "33x4", 9: "17x3"}[rows]


class TestSolveDirichlet:
    def test_1d_linear_exact(self):
        g = Grid((129,))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0), boundary=linear_bd())
        u, rep = solve_dirichlet(spec)
        assert rep.converged
        assert np.max(np.abs(u.values - g.coords[:, 0])) <= 1e-10

    @pytest.mark.parametrize("shape", [(33,), (17, 17), (33, 17)])
    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_dirichlet_energy_needs_no_newton_step(self, shape, eps):
        # at p = q = 2, a = 0 the warm start is the exact P1 solve
        g = Grid(shape)
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.0, a0=0.0), epsilon=eps,
            boundary=BoundaryData.from_callable(lambda pts: np.sin(3.0 * pts[:, 0]) + pts[:, -1]),
        )
        _, rep = solve_dirichlet(spec)
        assert rep.iterations == 0
        assert rep.residual_norm <= 1e-12

    def test_boundary_values_imposed(self):
        g = Grid((17, 17))
        gfun = lambda pts: np.cos(pts[:, 0]) + pts[:, 1]
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.5, a0=0.5),
            boundary=BoundaryData.from_callable(gfun),
        )
        u, _ = solve_dirichlet(spec)
        np.testing.assert_allclose(
            u.values[g.boundary_idx], gfun(g.coords[g.boundary_idx]), atol=1e-14
        )

    def test_energy_not_above_competitors(self):
        g = Grid((17, 17))
        spec = ProblemSpec(
            grid=g, params=const_params(1.8, 2.6, a0=0.7),
            boundary=BoundaryData.from_callable(lambda pts: pts[:, 0] * pts[:, 1]),
        )
        u, rep = solve_dirichlet(spec)
        e_star = energy(u, spec)
        rng = np.random.default_rng(3)
        for _ in range(5):
            trial = u.copy()
            trial.values[g.interior_idx] += 0.05 * rng.normal(size=len(g.interior_idx))
            assert energy(trial, spec) >= e_star - 1e-12

    def test_flux_inversion_oracle_frozen_values(self):
        g = Grid((129,))
        spec = ProblemSpec(
            grid=g, params=const_params(2.5, 3.0, a0=1.0), boundary=linear_bd(), epsilon=0.3
        )
        u, _ = solve_dirichlet(spec)
        xs = g.coords[:, 0]
        for x_probe, expected in FLUX_ORACLE_QUARTERS.items():
            node = int(np.argmin(np.abs(xs - x_probe)))
            assert u.values[node] == pytest.approx(expected, abs=5e-6)

    def test_flux_inversion_oracle_convergence_order(self):
        errs = []
        for n in (33, 65, 129):
            g = Grid((n,))
            spec = ProblemSpec(
                grid=g, params=const_params(1.6, 2.2, a0=0.8), boundary=linear_bd(), epsilon=0.4
            )
            u, _ = solve_dirichlet(spec)
            exact = flux_inversion_solution(1.6, 2.2, 0.8, 0.4, 0.0, 1.0, g.coords[:, 0])
            errs.append(np.max(np.abs(u.values - exact)))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.8

    def test_energy_decreases_across_accepted_newton_steps(self):
        # Armijo contract, checked over the one Newton loop, without and
        # with an obstacle that is active at the end
        g = Grid((17, 17))
        spec = ProblemSpec(
            grid=g, params=const_params(1.5, 2.6, a0=0.9),
            boundary=BoundaryData.from_callable(
                lambda pts: 0.4 * np.sin(2 * np.pi * pts[:, 0]) + 0.3 * pts[:, 1] ** 2
            ),
        )
        x, y = g.coords.T
        bump = NodalField(g, 0.3 - 3.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
        _u, rep = solve_dirichlet(spec)
        _u, rep_obstacle = solve_obstacle(replace(spec, obstacle=bump))
        assert rep_obstacle.active_set_size > 0
        for report in (rep, rep_obstacle):
            assert len(report.energy_history) > 1
            for e1, e2 in zip(report.energy_history, report.energy_history[1:]):
                assert e2 <= e1 + 1e-10 * (1.0 + abs(e1))

    def test_crawling_loop_restarts_down_the_delta_levels(self):
        # a source with equal end values at p < 2: the gradient vanishes at
        # the middle node, and damped Newton at delta = 1e-8 from the warm
        # start crawls to its cap; the restart from delta = 1e-2 converges
        g = Grid((129,))
        spec = ProblemSpec(grid=g, params=const_params(1.5, 3.0, a0=0.5), epsilon=0.5,
                           boundary=BoundaryData.constant(0.5))
        u, rep = solve_dirichlet(spec)
        assert rep.converged
        assert rep.delta_schedule == DELTA_SCHEDULE + (1e-2, 1e-4, 1e-6) + DELTA_SCHEDULE
        assert rep.residual_norm == np.max(np.abs(residual(u, spec, delta=DELTA_SCHEDULE[-1])))
        # the energies of the last level only, so they still decrease
        energies = rep.energy_history
        assert 0 < len(energies) < rep.iterations
        for e1, e2 in zip(energies, energies[1:]):
            assert e2 <= e1 + 1e-10 * (1.0 + abs(e1))
        exact = flux_inversion_solution(1.5, 3.0, 0.5, 0.5, 0.5, 0.5, g.coords[:, 0])
        assert np.max(np.abs(u.values - exact)) <= 1e-5

    @pytest.mark.parametrize("obstacle", [False, True])
    def test_failed_restart_carries_its_report(self, monkeypatch, obstacle):
        # with a cap of one step, the loop at delta = 1e-8 fails and so does
        # the restart at its first level; the error carries what was done
        monkeypatch.setattr(variational, "NEWTON_CAP", 1)
        spec = ProblemSpec(grid=Grid((17, 17)), params=const_params(1.5, 2.6, a0=0.9),
                           boundary=smooth_bd())
        if obstacle:
            spec = replace(spec, obstacle=NodalField(spec.grid, np.full(spec.grid.n_nodes, -0.2)))
        with pytest.raises(NonConvergence, match="Newton cap reached") as info:
            (solve_obstacle if obstacle else solve_dirichlet)(spec)
        rep = info.value.report
        assert info.value.field is not None
        assert rep is not None and not rep.converged
        assert rep.delta_schedule == DELTA_SCHEDULE + (1e-2,)
        assert rep.iterations == 2
        # the start and the one step of each level
        assert len(rep.residual_history) == 4
        assert len(rep.energy_history) == 1
        assert rep.residual_norm == rep.residual_history[-1] > variational.ACCEPT_TOL

    def test_stalled_line_search_carries_its_report(self, monkeypatch):
        # every moved state reports a NaN energy, so no Armijo test passes
        # in 60 halvings: the loop at delta = 1e-8 stalls, and so does the
        # restart at its first level; the error carries what was done
        class NaNTrials(_State):
            def moved(self, d, delta):
                trial = super().moved(d, delta)
                trial.energy = float("nan")
                return trial

        monkeypatch.setattr(variational, "_State", NaNTrials)
        spec = ProblemSpec(grid=Grid((9, 9)), params=const_params(2.5, 3.0),
                           boundary=smooth_bd(), epsilon=1.0)
        with pytest.raises(NonConvergence, match="line search stalled") as info:
            solve_dirichlet(spec)
        rep = info.value.report
        assert info.value.field is not None
        assert rep is not None and not rep.converged
        assert rep.delta_schedule == (1e-8, 1e-2)
        assert rep.iterations == 0 and np.isfinite(rep.energy)

    def test_unsettled_contact_set_carries_its_report(self, monkeypatch):
        # a negative bound fails the complementarity check on any contact
        monkeypatch.setattr(variational, "CONTRACT_TOL", -1.0)
        g = Grid((17, 17))
        x, y = g.coords.T
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0), boundary=BoundaryData.constant(0.0),
                           obstacle=NodalField(g, 0.2 - (x - 0.5) ** 2 - (y - 0.5) ** 2))
        with pytest.raises(NonConvergence, match="complementarity") as info:
            solve_obstacle(spec)
        rep = info.value.report
        assert rep is not None and not rep.converged
        assert rep.active_set_size > 0 and rep.iterations > 0
        assert len(rep.residual_history) == rep.iterations + 1

    @pytest.mark.parametrize("p,q,a0", [(2.5, 3.0, 1.0), (1.5, 1.8, 0.7), (1.6, 2.2, 0.8)])
    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_stops_at_rounding_level(self, p, q, a0, eps):
        # the loop stops once the residual is <= 1e-12; one more full
        # Newton step takes it to rounding level
        spec = ProblemSpec(grid=Grid((17, 17)), params=const_params(p, q, a0=a0),
                           boundary=smooth_bd(), epsilon=eps)
        _u, rep = solve_dirichlet(spec)
        assert rep.residual_norm <= 1e-14

    def test_energy_at_the_iterate_is_not_recomputed(self, monkeypatch):
        # the Armijo test of one step already has the law (and the energy)
        # at the next iterate; the next step must reuse it, not evaluate it
        # again
        calls = []

        class Recording(_State):
            def __init__(self, asm, values, delta):
                calls.append((values.copy(), delta))
                super().__init__(asm, values, delta)

        monkeypatch.setattr(variational, "_State", Recording)
        spec = ProblemSpec(grid=Grid((33, 33)), params=const_params(2.5, 3.0, a0=1.0),
                           boundary=smooth_bd(), epsilon=1.0)
        _u, rep = solve_dirichlet(spec)
        assert rep.converged and rep.iterations > 1 and len(calls) > rep.iterations
        repeats = [
            k for k in range(1, len(calls))
            if calls[k][1] == calls[k - 1][1] and np.array_equal(calls[k][0], calls[k - 1][0])
        ]
        assert repeats == []

    @pytest.mark.parametrize("case", ["wide-band dirichlet", "bump obstacle"])
    def test_one_law_evaluation_per_iterate(self, monkeypatch, case):
        # the energy, the residual and the Newton matrix at a field read one
        # evaluation of the law, so the P1 gradients are taken once for the
        # start, once per Armijo trial and closing trial (each a trial of the
        # band solve before it), and once for the report's energy at delta = 0
        events = []
        gradients, factor, solve = Grid.gradients, InteriorPattern.factor, InteriorPattern.solve

        def recording_gradients(self, values):
            events.append(("law", values.copy()))
            return gradients(self, values)

        def recording_factor(self, band, state):
            events.append(("factor", state.copy()))
            return factor(self, band, state)

        def recording_solve(self, lu, rhs, state):
            x = solve(self, lu, rhs, state)
            events.append(("solve", state.copy(), x.copy()))
            return x

        g = Grid((65, 5)) if case == "wide-band dirichlet" else Grid((17, 17))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0), boundary=smooth_bd())
        psi = np.full(g.n_nodes, -np.inf)
        if case == "bump obstacle":
            cx, cy = g.coords.T
            bump = 0.15 * np.exp(-30.0 * ((cx - 0.4) ** 2 + (cy - 0.55) ** 2))
            psi = solve_dirichlet(spec)[0].values - 0.05 + bump
            spec = replace(spec, obstacle=NodalField(g, psi))
        monkeypatch.setattr(Grid, "gradients", recording_gradients)
        monkeypatch.setattr(InteriorPattern, "factor", recording_factor)
        monkeypatch.setattr(InteriorPattern, "solve", recording_solve)
        u, rep = (solve_dirichlet if spec.obstacle is None else solve_obstacle)(spec)
        assert rep.converged and rep.iterations > 1
        if case == "bump obstacle":
            assert rep.active_set_size > 0
        laws = [e[1] for e in events if e[0] == "law"]
        solves = [e for e in events if e[0] == "solve"]
        assert [e[0] for e in events[:3]] == ["law", "factor", "solve"]  # the start, then its step
        np.testing.assert_array_equal(events[-1][1], u.values)  # the report's energy
        interior, trials = g.interior_idx, 0
        for event in events[1:-1]:
            if event[0] == "solve":
                _, state, x = event
                tau = 1.0
            elif event[0] == "law":
                trial = state.copy()
                trial[interior] = np.maximum(state[interior] + tau * x, psi[interior])
                np.testing.assert_array_equal(event[1], trial)
                trials, tau = trials + 1, 0.5 * tau
        assert trials >= len(solves)
        assert len(laws) == 1 + trials + 1
        if case == "wide-band dirichlet":  # most band solves reuse a factor
            assert 3 * sum(e[0] == "factor" for e in events) < len(solves)

    def test_one_factorization_per_loop_step(self, monkeypatch):
        # the warm start factors nothing, and the closing step solves with
        # the last factor of the loop: one more solve than factorizations
        factors, solves = [], []
        factor, solve = InteriorPattern.factor, InteriorPattern.solve

        def recording_factor(self, band, state):
            factors.append(state.copy())
            return factor(self, band, state)

        def recording_solve(self, lu, rhs, state):
            solves.append(state.copy())
            return solve(self, lu, rhs, state)

        monkeypatch.setattr(InteriorPattern, "factor", recording_factor)
        monkeypatch.setattr(InteriorPattern, "solve", recording_solve)
        spec = ProblemSpec(grid=Grid((33, 33)), params=const_params(2.5, 3.0, a0=1.0),
                           boundary=smooth_bd(), epsilon=1.0)
        _u, rep = solve_dirichlet(spec)
        assert rep.converged and rep.delta_schedule == DELTA_SCHEDULE
        loop_steps = len(solves) - 1
        assert len(factors) == loop_steps > 1
        # every loop step is kept; the closing step only if it helped
        assert rep.iterations in (loop_steps, loop_steps + 1)
        for state, other in zip(factors, solves):
            np.testing.assert_array_equal(state, other)
        assert not np.array_equal(factors[-1], solves[-1])  # a chord step

    @pytest.mark.parametrize("p,q,a0,eps", [(1.5, 1.8, 0.7, 1.0), (2.5, 3.0, 1.0, 0.0)])
    def test_wide_band_reuse_and_nested_start(self, monkeypatch, p, q, a0, eps):
        # at 129^2 the loop starts from the 33^2 solve, interpolated twice,
        # and reuses factors; the 65^2 grid between is never solved. With
        # WIDE_BAND above every band it runs the plain loop instead
        spec = ProblemSpec(grid=Grid((129, 129)), params=const_params(p, q, a0=a0),
                           boundary=smooth_bd(), epsilon=eps)
        factors = []
        factor = InteriorPattern.factor

        def recording_factor(self, band, state):
            factors.append(self.grid.shape)
            return factor(self, band, state)

        monkeypatch.setattr(InteriorPattern, "factor", recording_factor)
        u, rep = solve_dirichlet(spec)
        nested = factors.count((129, 129))
        assert (33, 33) in factors and not any(shape[0] == 65 for shape in factors)
        assert rep.converged and rep.notes == "warm start: 33x33 solve"
        assert rep.residual_norm == np.max(np.abs(residual(u, spec, delta=DELTA_SCHEDULE[-1])))
        assert rep.residual_norm <= variational.NEWTON_TOL
        assert len(rep.residual_history) == rep.iterations + 1
        factors.clear()
        monkeypatch.setattr(variational, "WIDE_BAND", 10 ** 9)
        v, plain = solve_dirichlet(spec)
        assert set(factors) == {(129, 129)} and plain.notes == ""
        assert np.max(np.abs(u.values - v.values)) <= 1e-10
        assert 2 * nested <= len(factors)  # 2 of 8 and 2 of 4 here

    def test_nested_start_takes_explicit_boundary_values(self):
        g = Grid((129, 9))
        spec = ProblemSpec(grid=g, params=const_params(1.6, 2.2, a0=0.8), boundary=smooth_bd(), epsilon=0.5)
        u, rep = solve_dirichlet(spec)
        assert rep.notes == "warm start: 33x3 solve"
        explicit = replace(spec, boundary=BoundaryData.from_values(spec.boundary.values_on(g)))
        v, rep_explicit = solve_dirichlet(explicit)
        np.testing.assert_array_equal(v.values, u.values)
        assert rep_explicit == rep

    def test_failed_coarse_solve_falls_back_to_the_poisson_start(self, monkeypatch):
        g = Grid((129, 9))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0, a0=1.0), boundary=smooth_bd())
        inner = variational._solve
        coarse = []

        def failing(sub, newton_tol):
            if sub.grid.shape != g.shape:
                coarse.append(sub.grid.shape)
                raise NonConvergence("coarse solve failed", field=None, report=None)
            return inner(sub, newton_tol)

        monkeypatch.setattr(variational, "_solve", failing)
        u, rep = solve_dirichlet(spec)
        assert coarse == [(33, 3)]
        assert rep.converged and rep.notes == ""
        assert rep.residual_norm == np.max(np.abs(residual(u, spec, delta=DELTA_SCHEDULE[-1])))
        monkeypatch.setattr(variational, "_solve", inner)
        v, _ = solve_dirichlet(spec)
        assert np.max(np.abs(u.values - v.values)) <= 1e-10

    @pytest.mark.parametrize("shape", PROLONG_SHAPES)
    def test_prolongation_is_cubic(self, shape):
        # coarse nodes keep their values bit for bit, and x^i y^j is
        # reproduced for i, j <= 3 along axes with at least 4 coarse nodes
        # (i, j <= 1 on 3-node axes); where the grid coarsens twice, so are
        # quarter-grid values prolonged twice
        g = prolong_grid(shape)
        chains = prolong_chains(g)
        assert len(chains) == (1 if shape in [(5, 9), (9, 5)] else 2)  # the two-level case runs
        for chain in chains:
            assert_keeps_coarse_values(chain, np.random.default_rng(7).uniform(-1.0, 1.0, chain[-1].n_nodes))
            for powers in np.ndindex(*(d + 1 for d in exact_degrees(chain))):
                f = lambda pts: np.prod(pts ** np.array(powers), axis=1)
                np.testing.assert_allclose(prolong_through(chain, f(chain[-1].coords)), f(g.coords),
                                           rtol=0.0, atol=1e-14)

    @settings(max_examples=40)
    @given(st.sampled_from(PROLONG_SHAPES), st.integers(1, 2), st.data())
    def test_prolongation_reproduces_random_polynomials(self, shape, depth, data):
        # a random combination of the reproduced monomials, and random
        # coarse values that every fine node on the coarse lattice keeps
        g = prolong_grid(shape)
        chains = prolong_chains(g)
        chain = chains[min(depth, len(chains)) - 1]
        powers = list(np.ndindex(*(d + 1 for d in exact_degrees(chain))))
        coeffs = data.draw(hnp.arrays(np.float64, len(powers), elements=st.floats(-1.0, 1.0)))
        f = lambda pts: sum(c * np.prod(pts ** np.array(k), axis=1) for c, k in zip(coeffs, powers))
        np.testing.assert_allclose(prolong_through(chain, f(chain[-1].coords)), f(g.coords),
                                   rtol=0.0, atol=1e-14)
        assert_keeps_coarse_values(chain, data.draw(hnp.arrays(np.float64, chain[-1].n_nodes,
                                                               elements=st.floats(-1e3, 1e3))))

    @pytest.mark.parametrize("slot", range(len(FINE_VAR_SLOTS)))
    def test_cubic_start_beats_the_multilinear_start(self, monkeypatch, slot):
        # on the fine-var problems at 129^2 the loop's start, the 33^2
        # solve prolonged twice, has a max interior residual at least 3
        # times below that of the same solve interpolated multilinearly
        p, q, coeff, eps, bd = FINE_VAR_SLOTS[slot]
        grid = Grid((129, 129))
        spec = ProblemSpec(grid=grid, params=DoublePhaseParams(p, q, coeff=coeff), epsilon=eps, boundary=bd)
        coarse, starts = [], []
        prolong, newton = variational._prolong, variational._newton

        class Started(Exception):
            pass

        def recording_prolong(level, values):
            coarse.append(values.copy())
            return prolong(level, values)

        def stopping_newton(asm, u, *args):
            if asm.grid.shape == grid.shape:
                starts.append(u.copy())
                raise Started
            return newton(asm, u, *args)

        monkeypatch.setattr(variational, "_prolong", recording_prolong)
        monkeypatch.setattr(variational, "_newton", stopping_newton)
        with pytest.raises(Started):
            solve_dirichlet(spec)
        assert len(coarse) == 2 and len(starts) == 1
        chain = prolong_chains(grid)[1]
        linear = multilinear_prolong(chain[0], multilinear_prolong(chain[1], coarse[0]))
        linear[grid.boundary_idx] = spec.boundary.values_on(grid)
        start_r, linear_r = (
            np.max(np.abs(residual(NodalField(grid, u), spec, delta=DELTA_SCHEDULE[-1])))
            for u in (starts[0], linear)
        )
        assert 3.0 * start_r <= linear_r

    @pytest.mark.parametrize("rows,coarse", [(7, "65x4"), (5, "65x3")])
    def test_half_resolution_start_where_rows_coarsen_once(self, rows, coarse):
        # 65 x 4 and 65 x 3 do not coarsen, so the 129-wide grid starts from
        # the half-resolution solve
        spec = ProblemSpec(grid=Grid((129, rows)), params=const_params(1.6, 2.2, a0=0.8),
                           boundary=smooth_bd(), epsilon=0.5)
        u, rep = solve_dirichlet(spec)
        assert rep.converged and rep.notes == f"warm start: {coarse} solve"
        assert rep.residual_norm == np.max(np.abs(residual(u, spec, delta=DELTA_SCHEDULE[-1])))

    @settings(max_examples=30)
    @given(nested_cases())
    def test_nested_start_matches_the_plain_loop(self, case):
        spec, coarse = case
        u, rep = solve_dirichlet(spec)
        assert rep.converged and rep.notes == f"warm start: {coarse} solve"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(variational, "WIDE_BAND", 10 ** 9)
            v, plain = solve_dirichlet(spec)
        assert plain.converged and plain.notes == ""
        assert np.max(np.abs(u.values - v.values)) <= 1e-10

    def test_three_rows_do_not_nest(self):
        # 129 nodes across has a wide band, but 3 rows do not coarsen
        spec = ProblemSpec(grid=Grid((129, 3)), params=const_params(1.6, 2.2, a0=0.8),
                           boundary=smooth_bd(), epsilon=0.5)
        u, rep = solve_dirichlet(spec)
        assert rep.converged and rep.notes == ""
        assert rep.residual_norm == np.max(np.abs(residual(u, spec, delta=DELTA_SCHEDULE[-1])))

    def test_grid_mismatch_detected(self):
        g = Grid((9, 9))
        other = Grid((11, 11))
        spec = ProblemSpec(grid=g, params=const_params(2.0, 2.0), boundary=linear_bd())
        from doublephase.errors import GridMismatch

        with pytest.raises(GridMismatch):
            energy(NodalField(other, np.zeros(other.n_nodes)), spec)
        with pytest.raises(GridMismatch):
            residual(NodalField(other, np.zeros(other.n_nodes)), spec)

    def test_strict_validation_gate(self):
        g = Grid((9, 9))
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 4.0), boundary=linear_bd(), strict_validation=True
        )
        with pytest.raises(ValidationError):
            solve_dirichlet(spec)

    def test_discrete_comparison_constant_shift(self):
        g = Grid((17, 17))
        base = lambda pts: 0.3 * np.sin(2 * np.pi * pts[:, 0]) + 0.2 * pts[:, 1]
        spec1 = ProblemSpec(
            grid=g, params=const_params(1.5, 3.0, a0=0.5),
            boundary=BoundaryData.from_callable(base),
        )
        spec2 = ProblemSpec(
            grid=g, params=const_params(1.5, 3.0, a0=0.5),
            boundary=BoundaryData.from_callable(lambda pts: base(pts) + 0.7),
        )
        u1, _ = solve_dirichlet(spec1)
        u2, _ = solve_dirichlet(spec2)
        assert np.max(u1.values - u2.values) <= 1e-9

    def test_caccioppoli_ratio_bounded(self):
        from doublephase.studies import caccioppoli_study

        g = Grid((17, 17))
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 3.0, a0=1.0),
            boundary=BoundaryData.from_callable(lambda pts: pts[:, 0] + 0.3 * np.cos(np.pi * pts[:, 1])),
        )
        table = caccioppoli_study(spec, 10, seed=2)
        assert table.verdict


class TestSolveObstacle:
    def test_inactive_obstacle_matches_unconstrained(self):
        g = Grid((33, 33))
        bd = BoundaryData.from_callable(lambda pts: 0.5 + 0.2 * np.sin(np.pi * pts[:, 0]) * pts[:, 1])
        params = const_params(2.0, 2.8, a0=0.5)
        free_spec = ProblemSpec(grid=g, params=params, boundary=bd)
        u_free, _ = solve_dirichlet(free_spec)
        psi = NodalField(g, u_free.values - 0.4)
        spec = ProblemSpec(grid=g, params=params, boundary=bd, obstacle=psi)
        u_obs, rep = solve_obstacle(spec)
        assert rep.converged
        assert rep.active_set_size == 0
        assert np.max(np.abs(u_obs.values - u_free.values)) <= 1e-9

    def test_tent_obstacle_full_contact(self):
        g = Grid((65,))
        xs = g.coords[:, 0]
        tent = NodalField(g, 1.0 - 2.0 * np.abs(xs - 0.5))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0, a0=0.8), obstacle=tent)
        u, rep = solve_obstacle(spec)
        assert rep.converged
        assert np.max(np.abs(u.values - tent.values)) <= 1e-9
        assert rep.active_set_size == len(g.interior_idx)

    def test_lowered_parabola_matches_tangency_oracle(self):
        g = Grid((129,))
        xs = g.coords[:, 0]
        psi = NodalField(g, 0.3 - 2.0 * (xs - 0.5) ** 2)
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.0, a0=0.0),
            boundary=BoundaryData.constant(0.0), obstacle=psi,
        )
        u, rep = solve_obstacle(spec)
        assert rep.converged
        exact, t, slope = lowered_parabola_obstacle_solution(0.3, 2.0, xs)
        assert t == pytest.approx(0.31622776601683794, abs=1e-15)
        assert slope == pytest.approx(0.7350889359326482, abs=1e-15)
        assert np.max(np.abs(u.values - exact)) <= 5e-4

    def test_spec_parabola_full_contact(self):
        # obstacle touches the boundary data at the ends: contact fills up
        g = Grid((129,))
        xs = g.coords[:, 0]
        psi = NodalField(g, 0.5 - 2.0 * (xs - 0.5) ** 2)
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.0, a0=0.0),
            boundary=BoundaryData.constant(0.0), obstacle=psi,
        )
        u, rep = solve_obstacle(spec)
        assert rep.converged
        assert np.max(np.abs(u.values - psi.values)) <= 1e-12
        assert rep.active_set_size == len(g.interior_idx)

    def test_complementarity_structure(self):
        g = Grid((129,))
        xs = g.coords[:, 0]
        psi = NodalField(g, 0.3 - 2.0 * (xs - 0.5) ** 2)
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.0, a0=0.0),
            boundary=BoundaryData.constant(0.0), obstacle=psi,
        )
        u, rep = solve_obstacle(spec)
        assert rep.converged
        max_off_contact, min_on_contact = complementarity_summary(u, spec)
        assert max_off_contact <= 1e-8
        assert min_on_contact >= -1e-8

    def test_obstacle_with_source(self):
        g = Grid((65,))
        xs = g.coords[:, 0]
        psi = NodalField(g, 0.2 - 2.0 * (xs - 0.5) ** 2)
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.0, a0=0.0), epsilon=0.5,
            boundary=BoundaryData.constant(0.0), obstacle=psi,
        )
        u, rep = solve_obstacle(spec)
        assert rep.converged
        assert np.min(u.values - psi.values) >= 0.0
        assert 0 < rep.active_set_size < len(g.interior_idx)

    def test_wide_band_obstacle_reuses_factors(self, monkeypatch):
        # 65 x 5 has a wide band: the loop starts from the 33 x 3 obstacle
        # solve, takes chord steps, refactors where the contact set moved
        # since the factor, and closes with a chain of chord steps; with
        # WIDE_BAND above every band it runs the plain loop to the same
        # field, with at least twice the 65 x 5 factorizations
        spec = wide_band_obstacle_spec()
        g, psi = spec.grid, spec.obstacle.values
        factors = []
        factor = InteriorPattern.factor

        def counting_factor(self, band, state):
            factors.append(self.grid.shape)
            return factor(self, band, state)

        monkeypatch.setattr(InteriorPattern, "factor", counting_factor)
        u, rep = solve_obstacle(spec)
        reused = factors.count(g.shape)
        assert rep.converged and 0 < rep.active_set_size < len(g.interior_idx)
        assert rep.notes == "warm start: 33x3 solve"
        assert np.min(u.values - psi) >= 0.0
        max_off_contact, min_on_contact = complementarity_summary(u, spec)
        assert max_off_contact <= 1e-12 and min_on_contact >= 0.0
        assert rep.residual_norm == rep.residual_history[-1] <= variational.NEWTON_TOL
        factors.clear()
        monkeypatch.setattr(variational, "WIDE_BAND", 10 ** 9)
        v, plain = solve_obstacle(spec)
        assert plain.converged and plain.notes == "" and set(factors) == {g.shape}
        assert 2 * reused <= len(factors)  # 7 of 14 here
        assert np.max(np.abs(u.values - v.values)) <= 1e-10

    @settings(max_examples=40)
    @given(nested_obstacle_cases())
    def test_nested_obstacle_start_matches_the_plain_loop(self, case):
        spec, coarse = case
        u, rep = solve_obstacle(spec)
        assert rep.converged and rep.notes == f"warm start: {coarse} solve"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(variational, "WIDE_BAND", 10 ** 9)
            v, plain = solve_obstacle(spec)
        assert plain.converged and plain.notes == ""
        assert np.max(np.abs(u.values - v.values)) <= 1e-10

    def test_failed_coarse_obstacle_solve_falls_back_to_the_poisson_start(self, monkeypatch):
        spec = wide_band_obstacle_spec()
        g = spec.grid
        inner = variational._solve
        coarse = []

        def failing(sub, newton_tol):
            if sub.grid.shape != g.shape:
                coarse.append(sub.grid.shape)
                raise NonConvergence("coarse solve failed", field=None, report=None)
            return inner(sub, newton_tol)

        monkeypatch.setattr(variational, "_solve", failing)
        u, rep = solve_obstacle(spec)
        assert coarse == [(33, 3)]
        assert rep.converged and rep.notes == "" and rep.active_set_size > 0
        monkeypatch.setattr(variational, "_solve", inner)
        v, nested = solve_obstacle(spec)
        assert nested.notes == "warm start: 33x3 solve"
        assert np.max(np.abs(u.values - v.values)) <= 1e-10

    def test_infeasible_obstacle(self):
        g = Grid((17,))
        psi = NodalField(g, np.ones(g.n_nodes))
        with pytest.raises(InfeasibleObstacle):
            ProblemSpec(
                grid=g, params=const_params(2.0, 2.0),
                boundary=BoundaryData.constant(0.0), obstacle=psi,
            )

    @pytest.mark.parametrize("changed", ["obstacle", "boundary"])
    def test_infeasible_obstacle_after_construction(self, changed):
        # the spec holds the caller's arrays, which can change after the
        # spec's own check; the solve must not return u < psi on the boundary
        g = Grid((17,))
        psi = NodalField(g, np.full(g.n_nodes, -1.0))
        gb = np.zeros(len(g.boundary_idx))
        spec = ProblemSpec(grid=g, params=const_params(2.0, 2.5, a0=1.0),
                           boundary=BoundaryData.from_values(gb), obstacle=psi)
        if changed == "obstacle":
            psi.values[:] = 0.5
        else:
            gb[:] = -2.0
        with pytest.raises(InfeasibleObstacle):
            solve_obstacle(spec)

    def test_obstacle_monotonicity_1d(self):
        # enlarging the obstacle never decreases the solution
        g = Grid((65,))
        xs = g.coords[:, 0]
        params = const_params(1.7, 2.4, a0=0.9)
        base = 0.4 * np.sin(np.pi * xs) - 0.1
        sols = []
        for bump in (0.0, 0.1, 0.2):
            psi = NodalField(g, base + bump * np.sin(np.pi * xs) ** 2)
            spec = ProblemSpec(grid=g, params=params, obstacle=psi)
            u, rep = solve_obstacle(spec)
            assert rep.converged
            sols.append(u.values)
        assert np.max(sols[0] - sols[1]) <= 1e-9
        assert np.max(sols[1] - sols[2]) <= 1e-9

    def test_ladder_level_that_peeled_to_the_cycle_cap_converges(self):
        # the third obstacle of a levels=4 ladder at 65^2, (p, q, a) =
        # (2.5, 3, 1): an active set that pinned every node below psi and
        # then released about 50 per outer cycle hit its cycle cap here
        g = Grid((65, 65))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0), boundary=smooth_bd())
        target, _ = solve_dirichlet(spec)
        scale = float(np.ptp(target.values))
        h = float(np.min(g.spacing))
        radii = np.geomspace(g.diameter ** 2 / (2.0 * scale), (2.0 * h) ** 2 / (2.0 * scale), 4)
        psi = NodalField(g, _quadratic_lower_envelope(g, target.values, radii[2]))
        obstacle_spec = ProblemSpec(grid=g, params=spec.params, obstacle=psi)
        u, rep = solve_obstacle(obstacle_spec)
        assert rep.converged
        assert np.min(u.values - psi.values) >= 0.0
        assert complementarity_summary(u, obstacle_spec)[0] <= 1e-10

    @settings(max_examples=100)
    @given(st.data())
    def test_quadratic_case_matches_active_set_oracle(self, data):
        # at p = q = 2 and constant a the discrete obstacle problem is a
        # quadratic program with an M-matrix, solved exactly by the oracle
        nx = data.draw(st.integers(3, 9))
        shape = data.draw(st.sampled_from([(nx,), (nx, nx), (nx, data.draw(st.integers(3, 9)))]))
        extent = [data.draw(st.floats(0.5, 2.0)) for _ in shape]
        g = Grid(shape, extent=extent)
        a0 = data.draw(st.floats(0.0, 1.0))
        eps = data.draw(st.sampled_from([0.0, 0.5]))
        nodal = hnp.arrays(float, g.n_nodes, elements=st.floats(-1.0, 1.0))
        bd, psi = data.draw(nodal), data.draw(nodal)
        b = g.boundary_idx
        psi[b] = bd[b] - data.draw(hnp.arrays(float, len(b), elements=st.floats(0.0, 1.0)))
        spec = ProblemSpec(
            grid=g, params=const_params(2.0, 2.0, a0=a0), epsilon=eps,
            boundary=BoundaryData.from_values(bd[b]), obstacle=NodalField(g, psi),
        )
        u, rep = solve_obstacle(spec)
        spacing = [e / (n - 1) for e, n in zip(extent, shape)]
        exact = quadratic_obstacle_solution(shape, spacing, a0, eps, bd, psi)
        assert rep.converged
        assert np.min(u.values - psi) >= 0.0
        assert np.max(np.abs(u.values - exact)) <= 1e-10


@st.composite
def envelope_cases(draw):
    """A random or constant target on a random 1D, square, non-square or
    shifted grid, and a radius in [1e-4, 10]."""
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(3, 40 if dim == 1 else 12)) for _ in range(dim))
    lower = extent = None
    if draw(st.booleans()):
        lower = [draw(st.floats(-50.0, 50.0)) for _ in range(dim)]
        extent = [draw(st.floats(0.1, 10.0)) for _ in range(dim)]
    grid = Grid(shape, lower=lower, extent=extent)
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    target = draw(hnp.arrays(float, grid.n_nodes, elements=st.floats(-scale, scale)))
    if draw(st.booleans()):
        target = np.full(grid.n_nodes, target[0])
    return grid, target, 10.0 ** draw(st.floats(-4.0, 1.0))


class TestEntryChecks:
    @pytest.mark.parametrize("case", [
        "dirichlet-with-obstacle", "dirichlet-without-boundary", "obstacle-without-obstacle",
        "complementarity-without-obstacle", "dirichlet-values-without-data",
        "no-levels", "target-on-another-grid",
    ])
    def test_refused_before_any_solve(self, case):
        g = Grid((9,))
        bare = ProblemSpec(grid=g, params=const_params(2.0, 2.5))
        plain = replace(bare, boundary=linear_bd())
        constrained = replace(plain, obstacle=NodalField(g, np.full(g.n_nodes, -1.0)))
        zero = NodalField(g, np.zeros(g.n_nodes))
        other = NodalField(Grid((11,)), np.zeros(11))
        call, error, reason = {
            "dirichlet-with-obstacle": (lambda: solve_dirichlet(constrained), ValidationError,
                                        "solve_dirichlet expects a spec without an obstacle"),
            "dirichlet-without-boundary": (lambda: solve_dirichlet(bare), ValidationError,
                                           "solve_dirichlet needs boundary data"),
            "obstacle-without-obstacle": (lambda: solve_obstacle(plain), ValidationError,
                                          "solve_obstacle needs an obstacle"),
            "complementarity-without-obstacle": (lambda: complementarity_summary(zero, plain), ValidationError,
                                                 "complementarity_summary needs an obstacle spec"),
            "dirichlet-values-without-data": (bare.dirichlet_values, ValidationError,
                                              "spec carries neither boundary data nor an obstacle"),
            "no-levels": (lambda: approximation_sequence(plain, zero, 0), ValueError, "levels must be >= 1"),
            "target-on-another-grid": (lambda: approximation_sequence(plain, other, 2), GridMismatch,
                                       "target lives on a different grid"),
        }[case]
        with pytest.raises(error, match=reason):
            call()


    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("solver", ["dirichlet", "obstacle"])
    def test_tolerance_must_be_finite_and_positive(self, solver, tol):
        # nan made a failed solve look converged, inf returned the start,
        # and 0 or -1 ran the loop to its step cap
        g = Grid((9,))
        spec = ProblemSpec(grid=g, params=const_params(2.0, 2.5), boundary=linear_bd())
        solve = solve_dirichlet
        if solver == "obstacle":
            spec, solve = replace(spec, obstacle=NodalField(g, np.full(g.n_nodes, -1.0))), solve_obstacle
        with pytest.raises(ValidationError, match=r"^newton_tol must be finite and > 0, got "):
            solve(spec, newton_tol=tol)


class TestApproximationSequence:
    def test_single_level_reduces_to_obstacle_solve(self):
        g = Grid((33,))
        params = const_params(2.2, 2.9, a0=0.5)
        bd = BoundaryData.from_callable(lambda pts: 0.2 + 0.5 * pts[:, 0])
        spec = ProblemSpec(grid=g, params=params, boundary=bd)
        target, _ = solve_dirichlet(spec)
        pairs = approximation_sequence(spec, target, 1)
        assert len(pairs) == 1
        psi, u1 = pairs[0]
        direct, _ = solve_obstacle(
            ProblemSpec(grid=g, params=params, obstacle=psi)
        )
        np.testing.assert_array_equal(u1.values, direct.values)

    def test_constant_target_collapses(self):
        g = Grid((17, 17))
        params = const_params(2.0, 2.0, a0=0.3)
        spec = ProblemSpec(grid=g, params=params, boundary=BoundaryData.constant(1.5))
        pairs = approximation_sequence(spec, lambda pts: np.full(pts.shape[0], 1.5), 3)
        for psi, u_j in pairs:
            np.testing.assert_allclose(psi.values, 1.5, atol=1e-12)
            np.testing.assert_allclose(u_j.values, 1.5, atol=1e-10)

    def test_monotone_below_solved_target_1d(self):
        g = Grid((65,))
        params = const_params(2.5, 3.0, a0=1.0)
        bd = BoundaryData.from_callable(lambda pts: 0.3 + 0.5 * np.sin(1.5 * np.pi * pts[:, 0]))
        spec = ProblemSpec(grid=g, params=params, boundary=bd)
        target, _ = solve_dirichlet(spec)
        pairs = approximation_sequence(spec, target, 4)
        prev = None
        dists = []
        for psi, u_j in pairs:
            assert np.max(psi.values - target.values) <= 1e-12
            assert np.max(u_j.values - target.values) <= 1e-9
            if prev is not None:
                assert np.max(prev.values - u_j.values) <= 1e-9
            prev = u_j
            dists.append(gradient_modular(target - u_j, params))
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))

    def test_one_solve_per_distinct_obstacle(self, monkeypatch):
        g = Grid((65,))
        params = const_params(2.5, 3.0, a0=1.0)
        bd = BoundaryData.from_callable(lambda pts: 0.3 + 0.5 * np.sin(1.5 * np.pi * pts[:, 0]))
        spec = ProblemSpec(grid=g, params=params, boundary=bd)
        target, _ = solve_dirichlet(spec)
        calls = []

        def counted(sub):
            calls.append(sub.obstacle.values)
            return solve_obstacle(sub)

        monkeypatch.setattr(variational, "solve_obstacle", counted)
        pairs = approximation_sequence(spec, target, 5)
        distinct = 1 + sum(not np.array_equal(a.values, b.values)
                           for (a, _), (b, _) in zip(pairs, pairs[1:]))
        assert distinct < len(pairs)  # the last two levels share psi here
        assert len(calls) == distinct
        for psi, u_j in pairs:
            direct, _ = solve_obstacle(replace(spec, boundary=None, obstacle=psi))
            np.testing.assert_array_equal(u_j.values, direct.values)
        for (_, a), (_, b) in zip(pairs, pairs[1:]):
            assert not np.shares_memory(a.values, b.values)

    @pytest.mark.parametrize("p,q,a0", [(2.0, 2.0, 1.0), (2.2, 2.2, 0.0)])
    def test_residual_norm_is_the_loop_measure(self, monkeypatch, p, q, a0):
        # the report's residual_norm is the loop's stop measure, max |r| off
        # {u <= psi, r > 0}: the last entry of its residual history
        spec = ProblemSpec(grid=Grid((33, 33)), params=const_params(p, q, a0=a0), boundary=smooth_bd())
        target, _ = solve_dirichlet(spec)
        reports = []

        def recording(sub):
            u, rep = solve_obstacle(sub)
            reports.append(rep)
            return u, rep

        monkeypatch.setattr(variational, "solve_obstacle", recording)
        approximation_sequence(spec, target, 5)
        assert len(reports) >= 4
        for rep in reports:
            assert rep.converged
            assert rep.residual_norm == rep.residual_history[-1]

    @settings(max_examples=200)
    @given(envelope_cases())
    def test_matches_pairwise_minimum(self, case):
        grid, target, radius = case
        env = _quadratic_lower_envelope(grid, target, radius)
        assert np.all(env <= target)
        expected = quadratic_lower_envelope(grid.coords, target, radius)
        # every partial sum at a minimizer lies in [min t, max t], so both
        # summation orders round within a few ulps of the largest |t|
        ulps = 4.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(target))))
        np.testing.assert_allclose(env, expected, rtol=0.0, atol=ulps)
