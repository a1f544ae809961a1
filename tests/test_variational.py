import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    dense_from_band,
    flux_inversion_solution,
    lowered_parabola_obstacle_solution,
    quadratic_lower_envelope,
)

from doublephase.errors import InfeasibleObstacle, ValidationError
from doublephase.grids import BoundaryData, Grid, NodalField, interpolate
from doublephase.operators import CoefficientField, DoublePhaseParams
from doublephase.orlicz import gradient_modular
from doublephase.variational import (
    ProblemSpec,
    _Assembler,
    _quadratic_lower_envelope,
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


def const_params(p, q, a0=1.0, delta=0.0):
    return DoublePhaseParams(p, q, coeff=CoefficientField.constant(a0), delta=delta)


def linear_bd():
    return BoundaryData.from_callable(lambda pts: pts[:, 0])


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
    @settings(max_examples=100, deadline=None)
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
        full = dense_from_band(asm.jacobian(values, delta, nodal), symmetric=True)
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
            fd[:, c] = (asm.residual_full(up, delta) - asm.residual_full(dn, delta))[free] / (2.0 * step)
        scale = float(np.max(np.abs(K), initial=0.0))
        assert np.all(np.abs(fd - K) <= 1e-5 * scale)


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
        # Armijo contract, checked within each continuation stage
        g = Grid((17, 17))
        spec = ProblemSpec(
            grid=g, params=const_params(1.5, 2.6, a0=0.9),
            boundary=BoundaryData.from_callable(
                lambda pts: 0.4 * np.sin(2 * np.pi * pts[:, 0]) + 0.3 * pts[:, 1] ** 2
            ),
        )
        _u, rep = solve_dirichlet(spec)
        assert any(len(stage) > 1 for stage in rep.energy_history)
        for stage in rep.energy_history:
            for e1, e2 in zip(stage, stage[1:]):
                assert e2 <= e1 + 1e-10 * (1.0 + abs(e1))

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
        assert rep.active_set_size == 0
        assert np.max(np.abs(u_obs.values - u_free.values)) <= 1e-9

    def test_tent_obstacle_full_contact(self):
        g = Grid((65,))
        xs = g.coords[:, 0]
        tent = NodalField(g, 1.0 - 2.0 * np.abs(xs - 0.5))
        spec = ProblemSpec(grid=g, params=const_params(2.5, 3.0, a0=0.8), obstacle=tent)
        u, rep = solve_obstacle(spec)
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
        u, _ = solve_obstacle(spec)
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
        u, _ = solve_obstacle(spec)
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

    def test_infeasible_obstacle(self):
        g = Grid((17,))
        psi = NodalField(g, np.ones(g.n_nodes))
        with pytest.raises(InfeasibleObstacle):
            ProblemSpec(
                grid=g, params=const_params(2.0, 2.0),
                boundary=BoundaryData.constant(0.0), obstacle=psi,
            )

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
            u, _ = solve_obstacle(spec)
            sols.append(u.values)
        assert np.max(sols[0] - sols[1]) <= 1e-9
        assert np.max(sols[1] - sols[2]) <= 1e-9


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

    @settings(max_examples=200, deadline=None)
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
