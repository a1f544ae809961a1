import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from doublephase.errors import SingularJacobian, ValidationError
from doublephase.operators import (
    CoefficientField,
    DoublePhaseParams,
    a_flux,
    a_flux_jacobian,
    flux_coefficient_derivatives,
    flux_coefficients,
    h_eval,
    monotonicity_gap,
    validate_exponents,
    vector_inequality_check,
)

X = np.array([0.3, 0.4])

REGIMES = [(1.5, 1.8), (2.0, 3.0), (1.5, 3.0)]


def params(p, q, a0=1.0, alpha=1.0):
    return DoublePhaseParams(p, q, alpha=alpha, coeff=CoefficientField.constant(a0))


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DoublePhaseParams(1.0, 2.0)
        with pytest.raises(ValueError):
            DoublePhaseParams(3.0, 2.0)
        with pytest.raises(ValueError):
            DoublePhaseParams(2.0, 3.0, alpha=0.0)
        with pytest.raises(ValueError):
            CoefficientField.constant(-0.1)

    def test_analytic_coefficient_rejects_negative_values(self):
        coeff = CoefficientField.analytic(lambda pts: pts[:, 0] - 10.0)
        with pytest.raises(ValidationError, match="nonnegative"):
            coeff.value(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_analytic_coefficient_rejects_non_finite_values(self, bad):
        coeff = CoefficientField.analytic(
            lambda pts: np.full(len(pts), bad), lambda pts: np.full(pts.shape, bad)
        )
        with pytest.raises(ValidationError, match="coefficient evaluated"):
            coeff.value(np.array([[0.0, 0.0]]))
        with pytest.raises(ValidationError, match="coefficient gradient evaluated"):
            coeff.grad_value(np.array([[0.0, 0.0]]))

    def test_constant_exactly_without_closure(self):
        assert CoefficientField.constant(0.0).is_constant
        assert not CoefficientField.analytic(lambda pts: np.ones(len(pts))).is_constant


class TestValidateExponents:
    def test_standard_pass(self):
        assert validate_exponents(params(2.0, 2.5), 2, "standard").ok  # 1.25 <= 1.5

    def test_equal_exponents_pass_both_modes(self):
        pr = params(3.0, 3.0, alpha=0.3)
        assert validate_exponents(pr, 2, "standard").ok
        assert validate_exponents(pr, 2, "regularized_limit").ok

    def test_standard_fail_names_bound(self):
        check = validate_exponents(params(2.0, 4.0), 3, "standard")
        assert not check.ok
        assert "1 + alpha/n" in check.message

    def test_regularized_limit_extra_bound(self):
        # q/p = 1.4 <= 1.5 = 1 + alpha/n but 1.4 > p = 1.25
        pr = params(1.25, 1.75)
        assert validate_exponents(pr, 2, "standard").ok
        check = validate_exponents(pr, 2, "regularized_limit")
        assert not check.ok and "exceeds p" in check.message


class TestDensityAndFlux:
    def test_h_zero_gradient(self):
        assert h_eval(params(2.0, 4.0), X, np.zeros(2)) == 0.0

    def test_h_hand_values(self):
        assert h_eval(params(2.0, 4.0), X, np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert h_eval(params(3.0, 3.0, a0=0.5), X, np.array([2.0, 0.0])) == pytest.approx(12.0)

    def test_flux_zero_at_origin(self):
        assert np.all(a_flux(params(1.5, 3.0), X, np.zeros(2)) == 0.0)

    def test_flux_identity_for_laplacian(self):
        xi = np.array([0.7, -0.2])
        np.testing.assert_allclose(a_flux(params(2.0, 2.0, a0=0.0), X, xi), xi)

    def test_flux_hand_value(self):
        np.testing.assert_allclose(
            a_flux(params(2.0, 4.0), X, np.array([1.0, 0.0])), [2.0, 0.0]
        )

    def test_flux_odd(self):
        rng = np.random.default_rng(5)
        pr = params(1.7, 2.6, a0=0.8)
        xi = rng.normal(size=(200, 2))
        np.testing.assert_allclose(
            a_flux(pr, np.tile(X, (200, 1)), -xi),
            -a_flux(pr, np.tile(X, (200, 1)), xi),
            atol=1e-14,
        )

    def test_flux_pairing_equals_density(self):
        # <A(x, xi), xi> = H(x, xi) exactly at delta = 0
        rng = np.random.default_rng(6)
        pr = params(1.6, 2.9, a0=0.4)
        xi = rng.normal(size=(500, 2))
        pts = np.tile(X, (500, 1))
        pairing = np.sum(a_flux(pr, pts, xi) * xi, axis=1)
        np.testing.assert_allclose(pairing, h_eval(pr, pts, xi), rtol=1e-13)


class TestFluxJacobian:
    def test_identity_for_laplacian(self):
        J = a_flux_jacobian(params(2.0, 2.0, a0=0.0), X, np.array([0.4, 0.1]))
        np.testing.assert_allclose(J, np.eye(2), atol=1e-15)

    def test_hand_value_p4(self):
        J = a_flux_jacobian(params(4.0, 4.0, a0=0.0), X, np.array([1.0, 0.0]))
        np.testing.assert_allclose(J, np.diag([3.0, 1.0]), atol=1e-14)

    def test_singular_raised(self):
        with pytest.raises(SingularJacobian):
            a_flux_jacobian(params(1.5, 3.0), X, np.zeros(2))

    def test_degenerate_limit_p_above_two(self):
        J = a_flux_jacobian(params(3.0, 4.0), X, np.zeros(2))
        np.testing.assert_allclose(J, np.zeros((2, 2)))

    def test_degenerate_limit_keeps_coefficient_per_point(self):
        # at exponent 2 each zero-gradient row carries its own (1 + a(x)) I
        coeff = CoefficientField.analytic(
            lambda pts: 1.0 + pts[:, 0], lambda pts: np.tile([1.0, 0.0], (pts.shape[0], 1))
        )
        pr = DoublePhaseParams(2.0, 2.0, coeff=coeff)
        J = a_flux_jacobian(pr, np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)))
        np.testing.assert_allclose(J, [2.0 * np.eye(2), 3.0 * np.eye(2)])

    def test_points_are_one_or_one_per_row(self):
        coeff = CoefficientField.analytic(lambda pts: 1.0 + pts[:, 0])
        pr = DoublePhaseParams(2.0, 2.0, coeff=coeff)
        xi = np.ones((5, 2))
        np.testing.assert_allclose(a_flux(pr, np.zeros(2), xi), 2.0 * xi)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        for fn in (a_flux, a_flux_jacobian):
            with pytest.raises(ValueError):
                fn(pr, pts, xi)

    @pytest.mark.parametrize("p,q", REGIMES)
    def test_matches_finite_differences(self, p, q):
        # central differences of the flux, 1000 samples to relative 1e-6
        rng = np.random.default_rng(17)
        pr = params(p, q, a0=0.7)
        worst = 0.0
        for _ in range(1000 // len(REGIMES) + 1):
            xi = rng.uniform(-2.0, 2.0, size=2)
            if np.linalg.norm(xi) < 0.05:
                continue
            J = a_flux_jacobian(pr, X, xi, delta=1e-3)
            h = 1e-6 * (1.0 + np.linalg.norm(xi))
            J_fd = np.empty((2, 2))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                J_fd[:, k] = (a_flux(pr, X, xi + e, delta=1e-3) - a_flux(pr, X, xi - e, delta=1e-3)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(J))))
            worst = max(worst, float(np.max(np.abs(J - J_fd))) / scale)
        assert worst < 1e-6

    def test_spd_for_positive_delta(self):
        rng = np.random.default_rng(11)
        for p, q in REGIMES:
            pr = params(p, q, a0=0.5)
            for _ in range(50):
                xi = rng.normal(size=2)
                eigs = np.linalg.eigvalsh(a_flux_jacobian(pr, X, xi, delta=1e-2))
                assert np.all(eigs > 0.0)


class TestFluxCoefficients:
    @given(
        st.floats(1.1, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(1e-2, 1e2)
    )
    def test_derivatives_match_finite_differences(self, p, dq, a, m):
        # central differences with step 1e-5 m: the truncation error is
        # about 1e-10 of the scale and rounding about 1e-11
        q = p + dq
        step = 1e-5 * m
        hi, lo = flux_coefficients(p, q, a, m + step), flux_coefficients(p, q, a, m - step)
        S, gam = flux_coefficients(p, q, a, m)
        for got, up, down, value in zip(flux_coefficient_derivatives(p, q, a, m), hi, lo, (S, gam)):
            scale = (abs(value) + abs(up) + abs(down) + S) / m
            assert abs(got - (up - down) / (2.0 * step)) <= 1e-8 * scale


class TestMonotonicityGap:
    def test_zero_iff_equal(self):
        pr = params(2.0, 3.0)
        xi = np.array([0.3, -1.2])
        assert monotonicity_gap(pr, X, xi, xi) == 0.0

    def test_linear_case_exact(self):
        pr = params(2.0, 2.0, a0=0.0)
        xi1 = np.array([1.0, 2.0])
        xi2 = np.array([-0.5, 0.25])
        assert monotonicity_gap(pr, X, xi1, xi2) == pytest.approx(
            float(np.sum((xi1 - xi2) ** 2))
        )

    @pytest.mark.parametrize("p,q", REGIMES)
    def test_randomized_positivity(self, p, q):
        rng = np.random.default_rng(23)
        coeff = CoefficientField.analytic(lambda pts: 0.2 + pts[:, 0] ** 2)
        pr = DoublePhaseParams(p, q, coeff=coeff)
        n = 100_000
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        xi1 = rng.normal(size=(n, 2))
        xi2 = rng.normal(size=(n, 2))
        gaps = monotonicity_gap(pr, pts, xi1, xi2)
        assert np.all(gaps >= 0.0)
        distinct = np.linalg.norm(xi1 - xi2, axis=1) > 1e-12
        assert np.all(gaps[distinct] > 0.0)


class TestVectorInequality:
    def test_equal_arguments(self):
        lhs, _rhs, holds = vector_inequality_check(2.7, np.ones(2), np.ones(2))
        assert lhs == 0.0 and holds

    def test_hand_value_t3(self):
        lhs, rhs, holds = vector_inequality_check(
            3.0, np.array([1.0, 0.0]), np.array([0.0, 0.0])
        )
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0)
        assert holds

    def test_antipodal_equality_branch(self):
        # the 1 < t < 2 bound is attained on antipodal pairs
        xi = np.array([0.8, 0.0])
        lhs, rhs, holds = vector_inequality_check(1.5, xi, -xi)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert holds

    @pytest.mark.parametrize("t", [1.2, 1.5, 2.0, 3.0, 4.0])
    def test_randomized_sweep(self, t):
        rng = np.random.default_rng(int(t * 1000))
        n = 100_000
        xi1 = rng.normal(size=(n, 2)) * rng.lognormal(size=(n, 1))
        xi2 = rng.normal(size=(n, 2)) * rng.lognormal(size=(n, 1))
        _lhs, _rhs, holds = vector_inequality_check(t, xi1, xi2)
        assert np.all(holds)
