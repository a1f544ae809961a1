import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import dense_from_band, doubling_maximizer, radial_p_harmonic_jet

from doublephase.errors import (
    DegenerateGradient,
    GridMismatch,
    InvalidExponent,
    NonConvergence,
    ValidationError,
)
from doublephase.grids import BoundaryData, Grid, NodalField, interpolate
from doublephase.operators import CoefficientField, DoublePhaseParams, a_flux_jacobian
from doublephase.studies import _normalized_closure, trig_series
from doublephase.variational import ProblemSpec, solve_dirichlet
from doublephase.viscosity import (
    Quadratic,
    SecondOrderJet,
    _Stencil,
    consistency_check,
    doubling_penalty,
    generate_touching_quadratics,
    local_equation,
    nondiv_eval,
    solve_viscosity,
    touch_test,
    touching_quadratic,
)


def const_params(p, q, a0=0.0):
    return DoublePhaseParams(p, q, coeff=CoefficientField.constant(a0))


def lin_coeff():
    return CoefficientField.analytic(
        lambda pts: 0.5 + 0.25 * pts[:, 0] + 0.1 * pts[:, 1],
        lambda pts: np.tile([0.25, 0.1], (pts.shape[0], 1)),
    )


@st.composite
def jet_cases(draw):
    """A jet (x, eta, X) in 1D or 2D with p <= q in [1.5, 3] and a constant
    or linear a >= 0 on the unit cube; eta = 0 comes with p >= 2, where F
    has a limit."""
    dim = draw(st.sampled_from([1, 2]))
    zero = draw(st.booleans())
    p, q = sorted(draw(st.lists(st.floats(2.0 if zero else 1.5, 3.0), min_size=2, max_size=2)))
    a0 = draw(st.floats(0.0, 1.0))
    slope = draw(hnp.arrays(float, dim, elements=st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        coeff = CoefficientField.constant(a0)
    else:
        coeff = CoefficientField.analytic(
            lambda pts: a0 + pts @ slope, lambda pts: np.tile(slope, (len(pts), 1))
        )
    x = draw(hnp.arrays(float, dim, elements=st.floats(0.0, 1.0)))
    if zero:
        eta = np.zeros(dim)
    else:
        # |eta| >= 1e-3 keeps |eta|^2 a normal float in the Jacobian
        eta = draw(hnp.arrays(float, dim, elements=st.floats(-3.0, 3.0))
                   .filter(lambda v: np.linalg.norm(v) >= 1e-3))
    B = draw(hnp.arrays(float, (dim, dim), elements=st.floats(-3.0, 3.0)))
    return DoublePhaseParams(p, q, coeff=coeff), SecondOrderJet(x, eta, 0.5 * (B + B.T))


class TestNondivEval:
    def test_laplacian_case(self):
        jet = SecondOrderJet(np.zeros(2), np.array([0.3, -0.4]), np.diag([2.0, 5.0]))
        assert nondiv_eval(const_params(2, 2), jet) == pytest.approx(-7.0)

    def test_hand_value_p3(self):
        jet = SecondOrderJet(np.zeros(2), np.array([1.0, 0.0]), np.eye(2))
        assert nondiv_eval(const_params(3, 3), jet) == pytest.approx(-3.0)

    def test_radial_p_harmonic_jets(self):
        pr = const_params(3, 3)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            pt = rng.uniform(1.0, 2.0, size=2)
            grad, hess = radial_p_harmonic_jet(pt, 3.0)
            jet = SecondOrderJet(pt, grad, hess)
            worst = max(worst, abs(nondiv_eval(pr, jet)))
        assert worst <= 1e-8

    def test_degenerate_gradient_raises_below_two(self):
        jet = SecondOrderJet(np.zeros(2), np.zeros(2), np.eye(2))
        with pytest.raises(DegenerateGradient):
            nondiv_eval(const_params(1.5, 3.0), jet)

    def test_degenerate_limit_at_two(self):
        jet = SecondOrderJet(np.zeros(2), np.zeros(2), np.diag([1.0, 2.0]))
        assert nondiv_eval(const_params(2.0, 3.0, a0=1.0), jet) == pytest.approx(-3.0)

    def test_affine_jets_vanish_for_constant_coefficient(self):
        jet = SecondOrderJet(np.array([0.2, 0.7]), np.array([0.5, -1.0]), np.zeros((2, 2)))
        assert nondiv_eval(const_params(2.5, 3.5, a0=2.0), jet) == 0.0

    def test_degenerate_ellipticity(self):
        # X <= Y (matrix order) implies F(x, eta, X) >= F(x, eta, Y)
        rng = np.random.default_rng(5)
        pr = DoublePhaseParams(2.5, 3.5, coeff=lin_coeff())
        x = np.array([0.4, 0.6])
        for _ in range(200):
            eta = rng.normal(size=2)
            if np.linalg.norm(eta) < 1e-3:
                continue
            X = rng.normal(size=(2, 2))
            X = 0.5 * (X + X.T)
            B = rng.normal(size=(2, 2))
            Y = X + B.T @ B
            fx = nondiv_eval(pr, SecondOrderJet(x, eta, X))
            fy = nondiv_eval(pr, SecondOrderJet(x, eta, Y))
            assert fx >= fy - 1e-12 * max(1.0, abs(fx), abs(fy))

    @settings(max_examples=200, deadline=None)
    @given(jet_cases())
    def test_expanded_operator_is_trace_of_flux_jacobian(self, case):
        # F(x, eta, X) = -tr(D_xi A(x, eta) X) - |eta|^(q-2) eta . grad a(x).
        # Both sides add the same terms in a different order, and |eta|
        # comes from two different routines, so they agree to a few ulps of
        # the largest term, not of the possibly cancelling value: the bound
        # is 1e-14 (about 45 ulps) of sum|D_xi A| max|X| + |first-order term|;
        # the worst seen in 20000 random jets was 2.4 ulps.
        pr, jet = case
        J = a_flux_jacobian(pr, jet.x, jet.eta, delta=0.0)
        first = np.linalg.norm(jet.eta) ** (pr.q - 2.0) * (jet.eta @ pr.coeff.grad_value(jet.x))
        expected = -np.trace(J @ jet.hess) - first
        scale = np.sum(np.abs(J)) * np.max(np.abs(jet.hess)) + abs(first)
        assert abs(nondiv_eval(pr, jet) - expected) <= 1e-14 * (1.0 + scale)


@st.composite
def frozen_cases(draw):
    """A random field on a small 1D or 2D grid with square cells, and
    (p, q, a, eps) from the monotone regimes p, q in [1.5, 3]."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3, 12 if dim == 1 else 8))
    grid = Grid((n,) * dim)
    values = draw(hnp.arrays(float, grid.n_nodes, elements=st.floats(-2.0, 2.0)))
    p, q = sorted(draw(st.lists(st.floats(1.5, 3.0), min_size=2, max_size=2)))
    a0 = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        coeff = CoefficientField.constant(a0)
    else:
        coeff = CoefficientField.analytic(
            lambda pts: a0 + 0.25 * pts[:, 0],
            lambda pts: np.column_stack([np.full(len(pts), 0.25)] + [np.zeros(len(pts))] * (dim - 1)),
        )
    eps = draw(st.floats(-1.0, 1.0))
    return NodalField(grid, values), DoublePhaseParams(p, q, coeff=coeff), eps


class TestFrozenSystem:
    @settings(max_examples=80, deadline=None)
    @given(frozen_cases())
    def test_m_matrix_agreeing_with_local_equation(self, case):
        field, pr, eps = case
        grid = field.grid
        interior = grid.interior_idx
        pts = grid.coords[interior]
        frozen = _Stencil(grid).freeze(
            field.values, pr.p, pr.q, pr.coeff.value(pts), pr.coeff.grad_value(pts),
            float(np.max(grid.spacing)), eps,
        )
        K = dense_from_band(frozen.band, symmetric=False)
        diag = np.diag(K)
        assert np.all(diag > 0.0)
        assert np.all(K - np.diag(diag) <= 0.0)
        assert np.all(K.sum(axis=1) >= -1e-12 * diag)
        scheme = K @ field.values[interior] - frozen.rhs
        np.testing.assert_allclose(frozen.residual, scheme, rtol=0.0,
                                   atol=1e-12 * (1.0 + float(np.max(diag)) * 2.0))
        for k, node in enumerate(interior):
            res, dF, _tgt = local_equation(field, pr, node, epsilon=eps)
            assert abs(scheme[k] - res) <= 1e-12 * (1.0 + dF * float(np.max(np.abs(field.values))))
            assert diag[k] == pytest.approx(dF, rel=1e-12)


class TestConsistency:
    def test_affine_reduces_to_first_order_term(self):
        pr = DoublePhaseParams(2.5, 3.0, coeff=lin_coeff())
        phi = Quadratic(0.3, np.array([0.7, -0.4]), np.zeros((2, 2)))
        x = np.array([0.3, 0.8])
        d, nd, gap = consistency_check(pr, phi, x)
        eta = phi.gradient(x)
        expected = -np.linalg.norm(eta) ** (pr.q - 2.0) * float(
            eta @ pr.coeff.grad_value(x)
        )
        assert nd == pytest.approx(expected, rel=1e-12)
        assert gap <= 1e-6

    @pytest.mark.parametrize("coeff", ["constant", "linear"])
    def test_random_quadratics(self, coeff):
        rng = np.random.default_rng(11)
        cf = CoefficientField.constant(0.8) if coeff == "constant" else lin_coeff()
        pr = DoublePhaseParams(2.5, 3.0, coeff=cf)
        worst = 0.0
        for _ in range(100):
            M = rng.normal(size=(2, 2))
            phi = Quadratic(rng.normal(), rng.normal(size=2), M + M.T)
            x = rng.uniform(0.2, 0.8, size=2)
            if np.linalg.norm(phi.gradient(x)) < 0.1:
                continue
            _d, _nd, gap = consistency_check(pr, phi, x)
            worst = max(worst, gap)
        assert worst <= 1e-6


class TestSolver:
    def test_1d_linear(self):
        g = Grid((129,))
        spec = ProblemSpec(
            grid=g, params=const_params(2.5, 3.0, a0=1.0),
            boundary=BoundaryData.from_callable(lambda pts: pts[:, 0]),
        )
        u, rep = solve_viscosity(spec)
        assert rep.converged
        assert np.max(np.abs(u.values - g.coords[:, 0])) <= 1e-6

    def test_2d_harmonic_quadratic_exact_stencil(self):
        g = Grid((33, 33))
        harm = lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2
        spec = ProblemSpec(
            grid=g, params=const_params(2, 2), boundary=BoundaryData.from_callable(harm)
        )
        u, _ = solve_viscosity(spec)
        assert np.max(np.abs(u.values - harm(g.coords))) <= 1e-10

    def test_fixed_point_satisfies_local_equation(self):
        g = Grid((17, 17))
        pr = const_params(2.5, 3.0, a0=1.0)
        spec = ProblemSpec(
            grid=g, params=pr, epsilon=0.2,
            boundary=BoundaryData.from_callable(lambda pts: 0.4 * pts[:, 0] + 0.1 * np.sin(np.pi * pts[:, 1])),
        )
        u, _ = solve_viscosity(spec)
        h2 = float(np.max(g.spacing)) ** 2
        for node in g.interior_idx[:: max(1, len(g.interior_idx) // 20)]:
            res, dF, _tgt = local_equation(u, pr, node, epsilon=0.2)
            assert abs(res / dF) <= 1e-9  # update-sized residual at the fixed point
            assert dF * h2 > 0.0

    def test_scheme_monotonicity_in_neighbors(self):
        # raising any neighbor value never lowers the local update target
        for p, q, a0 in [(2.0, 2.0, 0.0), (2.5, 3.0, 1.0), (1.5, 1.8, 0.6)]:
            g = Grid((17, 17))
            pr = const_params(p, q, a0)
            spec = ProblemSpec(
                grid=g, params=pr,
                boundary=BoundaryData.from_callable(
                    lambda pts: 0.6 * pts[:, 0] - 0.3 * pts[:, 1] + 0.2 * np.sin(np.pi * pts[:, 0])
                ),
            )
            u, _ = solve_viscosity(spec)
            rng = np.random.default_rng(31)
            nx = g.shape[0]
            offsets = [-nx - 1, -nx, -nx + 1, -1, 1, nx - 1, nx, nx + 1]
            probes = rng.choice(g.interior_depth_mask(2).nonzero()[0], size=12, replace=False)
            for node in probes:
                _res, _dF, base_target = local_equation(u, pr, node)
                for off in offsets:
                    bumped = u.copy()
                    bumped.values[node + off] += 1e-3
                    _r, _d, target = local_equation(bumped, pr, node)
                    assert target >= base_target - 1e-12

    def test_discrete_comparison_for_scheme(self):
        g = Grid((17, 17))
        base = lambda pts: 0.3 * np.cos(np.pi * pts[:, 0]) + 0.4 * pts[:, 1]
        pr = const_params(1.5, 3.0, a0=0.5)
        u1, _ = solve_viscosity(
            ProblemSpec(grid=g, params=pr, boundary=BoundaryData.from_callable(base))
        )
        u2, _ = solve_viscosity(
            ProblemSpec(
                grid=g, params=pr,
                boundary=BoundaryData.from_callable(lambda pts: base(pts) + 0.6),
            )
        )
        assert np.max(u1.values - u2.values) <= 1e-8

    def test_requires_constant_coefficient(self):
        g = Grid((17, 17))
        spec = ProblemSpec(
            grid=g,
            params=DoublePhaseParams(2.0, 2.5, coeff=lin_coeff()),
            boundary=BoundaryData.constant(0.0),
        )
        with pytest.raises(ValidationError, match="constant coefficient"):
            solve_viscosity(spec)

    def test_nonconstant_override_marks_experimental(self):
        g = Grid((13, 13))
        spec = ProblemSpec(
            grid=g,
            params=DoublePhaseParams(2.0, 2.5, coeff=lin_coeff()),
            boundary=BoundaryData.from_callable(lambda pts: pts[:, 0]),
        )
        _u, rep = solve_viscosity(spec, allow_nonconstant=True)
        assert "experimental" in rep.notes

    def test_1d_source_matches_flux_inversion_oracle(self):
        from oracles import flux_inversion_solution

        g = Grid((129,))
        spec = ProblemSpec(
            grid=g, params=const_params(2.5, 3.0, a0=1.0), epsilon=0.3,
            boundary=BoundaryData.from_callable(lambda pts: pts[:, 0]),
        )
        u, _ = solve_viscosity(spec)
        exact = flux_inversion_solution(2.5, 3.0, 1.0, 0.3, 0.0, 1.0, g.coords[:, 0])
        assert np.max(np.abs(u.values - exact)) <= 1e-5

    def test_deterministic_fixed_point(self):
        g = Grid((13, 13))
        spec = ProblemSpec(
            grid=g, params=const_params(2.5, 3.0, a0=1.0),
            boundary=BoundaryData.from_callable(lambda pts: 0.4 * pts[:, 0] + 0.2 * np.sin(np.pi * pts[:, 1])),
        )
        u1, _ = solve_viscosity(spec)
        u2, _ = solve_viscosity(spec)
        np.testing.assert_array_equal(u1.values, u2.values)

    @pytest.mark.parametrize("p,q,a0", [(2.5, 3.0, 1.0), (1.5, 1.8, 0.7), (1.6, 2.2, 0.8)])
    def test_stopping_contract(self, p, q, a0):
        # the acceptance regimes: iteration count flat in the mesh, and the
        # reported residual is the scheme residual of the returned field
        pr = const_params(p, q, a0)
        bd = BoundaryData.from_callable(
            lambda pts: 0.5 * pts[:, 0] + 0.3 * pts[:, 1]
            + 0.2 * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
        )
        for n in (17, 33, 65):
            g = Grid((n, n))
            u, rep = solve_viscosity(ProblemSpec(grid=g, params=pr, boundary=bd))
            assert rep.converged
            assert rep.iterations <= 25
            assert len(rep.residual_history) == rep.iterations
            assert rep.residual_history[-1] == rep.residual_norm
            local = np.array([local_equation(u, pr, node)[:2] for node in g.interior_idx])
            recomputed = float(np.max(np.abs(local[:, 0])))
            # a few ulps of the largest row: the two evaluations differ by rounding only
            rounding = 4.0 * np.finfo(float).eps * float(np.max(local[:, 1])) * (
                1.0 + float(np.max(np.abs(u.values)))
            )
            assert abs(rep.residual_norm - recomputed) <= rounding
            assert recomputed <= 1e-9

    def test_symmetric_data_stops_on_residual(self):
        # on the symmetry line y = 1/2 the centered y-difference is +-rounding,
        # so the mixed-stencil choice there flips between iterations; the
        # stop rests on the scheme residual alone
        g = Grid((33, 33))
        pr = const_params(2.5, 3.0, a0=1.0)
        spec = ProblemSpec(
            grid=g, params=pr,
            boundary=BoundaryData.from_callable(lambda pts: np.sin(2 * np.pi * pts[:, 0])),
        )
        u, rep = solve_viscosity(spec)
        assert rep.iterations <= 25
        assert max(abs(local_equation(u, pr, node)[0]) for node in g.interior_idx) <= 1e-9

    @pytest.mark.xfail(strict=True, raises=NonConvergence,
                       reason="undamped policy iteration cycles at a degenerate critical point")
    def test_degenerate_source_problem_converges(self):
        # p > 2 with a source: at an interior critical point the gradient
        # floor makes the frozen coefficient ~h^(p-2) and the next solve
        # overshoots; the residual jumps between 0.3 and 76 for every iteration
        spec = ProblemSpec(
            grid=Grid((129,)), params=const_params(3.0, 4.0, a0=1.0), epsilon=0.3,
            boundary=BoundaryData.from_callable(lambda pts: np.sin(3.0 * pts[:, 0])),
        )
        _u, rep = solve_viscosity(spec)
        assert rep.converged

    @pytest.mark.xfail(strict=True, raises=NonConvergence,
                       reason="undamped policy iteration cycles without a source too")
    def test_comparison_pair_converges(self):
        # the same cycle with eps = 0: pair 3 of the routes benchmark at seed 7,
        # 17^2, (p, q, a) = (2.5, 3, 1); the residual alternates 0.991 <-> 1.15
        g = Grid((17, 17))
        spec = ProblemSpec(
            grid=g, params=const_params(2.5, 3.0, a0=1.0),
            boundary=BoundaryData.from_callable(_normalized_closure(trig_series(8700261, 2), g)),
        )
        _u, rep = solve_viscosity(spec)
        assert rep.converged

    def test_nonconvergence_carries_partial_state(self):
        g = Grid((33, 33))
        spec = ProblemSpec(
            grid=g, params=const_params(2.5, 3.0, a0=1.0),
            boundary=BoundaryData.from_callable(lambda pts: np.sin(2 * np.pi * pts[:, 0])),
        )
        with pytest.raises(NonConvergence) as info:
            solve_viscosity(spec, max_iter=2)
        assert info.value.field is not None
        assert info.value.report.iterations == 2


class TestTouching:
    def _solved_field(self, n=17, p=2.5, q=3.0, eps=0.0):
        g = Grid((n, n))
        spec = ProblemSpec(
            grid=g, params=const_params(p, q, a0=1.0), epsilon=eps,
            boundary=BoundaryData.from_callable(
                lambda pts: 0.5 * pts[:, 0] + 0.3 * pts[:, 1] + 0.2 * np.sin(np.pi * pts[:, 0])
            ),
        )
        u, _ = solve_dirichlet(spec)
        return u, spec

    def test_strict_touch_from_below(self):
        u, _spec = self._solved_field()
        g = u.grid
        node = g.interior_idx[40]
        quads = generate_touching_quadratics(u, node, 5, rng=np.random.default_rng(3))
        assert len(quads) >= 1
        for phi in quads:
            assert np.linalg.norm(phi.slope) > 0.0
            vals = np.array([phi.value(x) for x in g.coords])
            gap = u.values - vals
            gap[node] = np.inf
            assert np.min(gap) > 0.0  # strictly below everywhere else
            assert abs(phi.value(g.coords[node]) - u.values[node]) <= 1e-12

    def test_convex_quadratic_field_touchable(self):
        g = Grid((17, 17))
        f = interpolate(g, lambda pts: (pts[:, 0] - 0.4) ** 2 + (pts[:, 1] - 0.6) ** 2)
        quads = generate_touching_quadratics(f, g.interior_idx[60], 3)
        assert len(quads) >= 1

    def test_flat_field_has_no_touch(self):
        from doublephase.errors import NoTouchFound

        g = Grid((9, 9))
        f = NodalField(g, np.full(g.n_nodes, 2.0))
        with pytest.raises(NoTouchFound):
            generate_touching_quadratics(f, g.interior_idx[0], 1)

    def test_linear_field_touched_with_exact_slope(self):
        g = Grid((9, 9))
        f = interpolate(g, lambda pts: 0.7 * pts[:, 0] - 0.2 * pts[:, 1])
        node = g.interior_idx[20]
        quads = generate_touching_quadratics(f, node, 1)
        phi = quads[0]
        np.testing.assert_allclose(phi.slope, [0.7, -0.2], atol=1e-12)
        assert phi.curvature > 0.0
        vals = np.array([phi.value(x) for x in g.coords])
        gap = f.values - vals
        gap[node] = np.inf
        assert np.min(gap) > 0.0

    def test_linear_field_affine_operator_value(self):
        # F vanishes on affine jets when the coefficient is constant
        pr = const_params(2.5, 3.0, a0=1.0)
        jet = SecondOrderJet(np.array([0.5, 0.5]), np.array([0.4, 0.0]), np.zeros((2, 2)))
        assert nondiv_eval(pr, jet) == 0.0

    def test_supersolution_rates(self):
        u, spec = self._solved_field(eps=0.0)
        reports = touch_test(u, spec.params, 60, epsilon=0.0, seed=4)
        assert len(reports) == 60
        assert np.mean([r.passed for r in reports]) >= 0.95

    def test_source_rates(self):
        u, spec = self._solved_field(eps=0.1)
        reports = touch_test(u, spec.params, 60, epsilon=0.1, seed=5)
        assert np.mean([r.passed for r in reports]) >= 0.95


@st.composite
def doubling_cases(draw):
    """Two fields on a random 1D, square, non-square or shifted grid with
    (j, s); two thirds of the draws are constant or identical fields (ties)."""
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(3, 30 if dim == 1 else 9)) for _ in range(dim))
    lower = extent = None
    if draw(st.booleans()):
        lower = [draw(st.floats(-50.0, 50.0)) for _ in range(dim)]
        extent = [draw(st.floats(0.1, 10.0)) for _ in range(dim)]
    grid = Grid(shape, lower=lower, extent=extent)
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    fields = hnp.arrays(float, grid.n_nodes, elements=st.floats(-scale, scale))
    u = draw(fields)
    kind = draw(st.sampled_from(["random", "constant", "identical"]))
    if kind == "constant":
        u = np.full(grid.n_nodes, u[0])
    v = u.copy() if kind != "random" else draw(fields)
    j = 10.0 ** draw(st.floats(-1.0, 6.0))
    s = draw(st.floats(2.01, 5.0))
    return NodalField(grid, u), NodalField(grid, v), j, s


class TestDoubling:
    def _pair(self, n=17):
        g = Grid((n, n))
        pr = const_params(2.5, 3.0, a0=1.0)
        u, _ = solve_dirichlet(
            ProblemSpec(grid=g, params=pr,
                        boundary=BoundaryData.from_callable(lambda pts: 0.6 * pts[:, 0] + 0.3 * np.sin(np.pi * pts[:, 0])))
        )
        v, _ = solve_dirichlet(
            ProblemSpec(grid=g, params=pr,
                        boundary=BoundaryData.from_callable(lambda pts: 0.15 * np.cos(np.pi * pts[:, 1])))
        )
        return u, v, pr

    def test_identical_fields_large_penalty(self):
        u, _v, pr = self._pair()
        r = doubling_penalty(u, u, 1e7, 2.5, params=pr)
        assert r.x_index == r.y_index
        assert r.psi_max == 0.0
        assert r.separation == 0.0

    def test_shifted_field_diagonal(self):
        u, _v, _pr = self._pair()
        shifted = NodalField(u.grid, u.values + 0.9)
        r = doubling_penalty(shifted, u, 1e7, 2.5)
        assert r.x_index == r.y_index
        assert r.psi_max == pytest.approx(0.9, abs=1e-12)

    def test_exponent_validation(self):
        u, v, pr = self._pair()
        with pytest.raises(InvalidExponent):
            doubling_penalty(u, v, 10.0, 2.0)
        with pytest.raises(InvalidExponent):
            # p/(p-1) = 3 for p = 1.5 exceeds s = 2.5
            doubling_penalty(u, v, 10.0, 2.5, params=const_params(1.5, 3.0))
        with pytest.raises(ValueError):
            doubling_penalty(u, v, 10.0, 2.5, sigma=0.0)
        with pytest.raises(ValueError):
            doubling_penalty(u, v, 0.0, 2.5)

    def test_grid_mismatch(self):
        u, _v, _pr = self._pair()
        other = Grid((9, 9))
        w = NodalField(other, np.zeros(other.n_nodes))
        with pytest.raises(GridMismatch):
            doubling_penalty(u, w, 10.0, 2.5)

    def test_sweep_bound_and_decay(self):
        u, v, pr = self._pair(33)
        s = max(2.0, pr.p / (pr.p - 1.0), pr.q / (pr.q - 1.0)) + 0.5
        bounds, vanish = [], []
        for k in range(6):
            r = doubling_penalty(u, v, 10.0**k, s, sigma=0.5, params=pr)
            bounds.append(r.decay_bound)
            vanish.append(r.vanish_term)
        assert max(bounds) <= 10.0 * max(bounds[:1] + [1.0])  # stays of bounded size
        assert all(b <= a + 1e-12 for a, b in zip(vanish, vanish[1:]))

    def test_tie_break_lexicographic(self):
        g = Grid((5, 5))
        u = NodalField(g, np.zeros(g.n_nodes))
        r = doubling_penalty(u, u, 1.0, 2.5)
        assert (r.x_index, r.y_index) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(doubling_cases())
    def test_matches_exhaustive_search(self, case):
        u, v, j, s = case
        ix, iy, psi = doubling_maximizer(u.grid.coords, u.values, v.values, j, s)
        r = doubling_penalty(u, v, j, s)
        assert (r.x_index, r.y_index) == (ix, iy)
        assert abs(r.psi_max - psi) <= 1e-12 * (1.0 + abs(psi))

    def test_tie_across_row_offsets(self):
        # equal maxima at (A1, B1), one row offset up, and (A2, B2), one row
        # offset down, with A1 < A2: the later-searched offset must win the tie
        g = Grid((9, 9))
        u, v = np.zeros(g.n_nodes), np.zeros(g.n_nodes)
        u[[21, 57]] = 1.0
        v[[30, 48]] = -1.0
        r = doubling_penalty(NodalField(g, u), NodalField(g, v), 1.0, 2.5)
        assert (r.x_index, r.y_index) == (21, 30)
        assert (r.x_index, r.y_index) == doubling_maximizer(g.coords, u, v, 1.0, 2.5)[:2]
