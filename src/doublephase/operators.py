"""Constitutive law of the double-phase operator.

Everything here is pointwise and pure: the growth density
``H(x, xi) = |xi|^p + a(x) |xi|^q``, the flux
``A(x, xi) = |xi|^(p-2) xi + a(x) |xi|^(q-2) xi``, its Jacobian in xi,
and the elementary vector inequalities the convergence arguments rest on.

Points are numpy arrays of shape ``(n,)`` or batches ``(m, n)`` with
``n in {1, 2}``; gradient vectors follow the same convention.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularJacobian, ValidationError

__all__ = [
    "CoefficientField",
    "DoublePhaseParams",
    "ExponentCheck",
    "validate_exponents",
    "h_eval",
    "a_flux",
    "a_flux_jacobian",
    "monotonicity_gap",
    "vector_inequality_check",
]


class CoefficientField:
    """Nonnegative modulating coefficient a(x).

    Either a constant ``a0`` or a closure for a(x) with an optional one
    for its gradient; it is constant exactly when it has no closure.
    Closures take points of shape (m, n) and return (m,) respectively
    (m, n). Only the operator tools that evaluate the first-order term of
    the expanded operator read the gradient; the CLI's expression
    coefficients have none. a(x) >= 0 is checked wherever a is
    evaluated: a negative or non-finite value raises
    :class:`ValidationError`.
    """

    def __init__(self, a0=None, func=None, grad=None):
        self.a0 = a0
        self._func = func
        self._grad = grad

    @classmethod
    def constant(cls, a0):
        a0 = float(a0)
        if not np.isfinite(a0) or a0 < 0.0:
            raise ValueError("constant coefficient must be finite and >= 0")
        return cls(a0=a0)

    @classmethod
    def analytic(cls, func, grad=None):
        return cls(func=func, grad=grad)

    @property
    def is_constant(self):
        return self._func is None

    def value(self, x):
        """a at points x, checked finite and nonnegative; shape (m,) for x (m, n)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if self.is_constant:
            out = np.full(pts.shape[0], self.a0)
        else:
            out = np.asarray(self._func(pts), dtype=float).reshape(pts.shape[0])
        if not np.all(np.isfinite(out)):
            raise ValidationError("coefficient evaluated to a non-finite value")
        if np.any(out < 0.0):
            raise ValidationError("coefficient must be nonnegative at every point")
        return out[0] if single else out

    def grad_value(self, x):
        """Gradient of a at points x; zero for constant fields."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if self.is_constant:
            out = np.zeros_like(pts)
        elif self._grad is None:
            raise ValidationError(
                "coefficient gradient unavailable; build the coefficient as "
                "CoefficientField.analytic(func, grad)"
            )
        else:
            out = np.asarray(self._grad(pts), dtype=float).reshape(pts.shape)
        if not np.all(np.isfinite(out)):
            raise ValidationError("coefficient gradient evaluated to a non-finite value")
        return out[0] if single else out


@dataclass(frozen=True)
class DoublePhaseParams:
    """Exponents p and q, Hoelder exponent alpha of the coefficient, and the
    coefficient field; invariants 1 < p <= q < inf and alpha in (0, 1]."""

    p: float
    q: float
    alpha: float = 1.0
    coeff: CoefficientField = field(default_factory=lambda: CoefficientField.constant(0.0))

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise ValueError("exponents must be finite")
        if not (1.0 < self.p <= self.q):
            raise ValueError("exponents must satisfy 1 < p <= q")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class ExponentCheck:
    """Verdict of an exponent-ratio validation, with the violated bound named."""

    ok: bool
    mode: str
    message: str

    def __bool__(self):
        return self.ok


def validate_exponents(params, n, mode="standard"):
    """Check the exponent-ratio bounds for space dimension n.

    standard          q/p <= 1 + alpha/n
    regularized_limit additionally q/p <= p

    Returns an :class:`ExponentCheck`; never raises. The check is
    advisory unless a solve runs in strict mode.
    """
    if mode not in ("standard", "regularized_limit"):
        raise ValueError("mode must be 'standard' or 'regularized_limit'")
    ratio = params.q / params.p
    bound = 1.0 + params.alpha / n
    failures = []
    if ratio > bound:
        failures.append(
            f"q/p = {ratio:.6g} exceeds 1 + alpha/n = {bound:.6g}"
        )
    if mode == "regularized_limit" and ratio > params.p:
        failures.append(f"q/p = {ratio:.6g} exceeds p = {params.p:.6g}")
    if failures:
        return ExponentCheck(False, mode, "; ".join(failures))
    return ExponentCheck(True, mode, "all exponent bounds hold")


def _as_batch(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        return xi[None, :], True
    return xi, False


def _coefficient_rows(params, x, rows):
    """a at x once per gradient row; x is one point or one point per row
    (any other count raises ValueError)."""
    return np.broadcast_to(params.coeff.value(np.atleast_2d(np.asarray(x, dtype=float))), (rows,))


def flux_phases(p, q, a, m):
    """The two phases fp = m^(p-2) and fq = a m^(q-2) of the law at moduli m.

    :func:`flux_coefficients` derives S and Gamma from them, and the
    variational energy density is m^2 (fp/p + fq/q) = m^p/p + a m^q/q.
    """
    return m ** (p - 2.0), a * m ** (q - 2.0)


def phase_coefficients(p, q, fp, fq):
    """S = fp + fq and Gamma = (p-2) fp + (q-2) fq from the phases of
    :func:`flux_phases`."""
    return fp + fq, (p - 2.0) * fp + (q - 2.0) * fq


def flux_coefficients(p, q, a, m):
    """S = m^(p-2) + a m^(q-2) and Gamma = (p-2) m^(p-2) + (q-2) a m^(q-2).

    With w = xi/m the flux is A = S xi and its Jacobian is
    D_xi A = S I + Gamma w w^T. Both solver routes and the operator
    evaluations take the law from here.
    """
    return phase_coefficients(p, q, *flux_phases(p, q, a, m))


def flux_coefficient_derivatives(p, q, a, m):
    """dS/dm = Gamma/m and dGamma/dm = (p-2)^2 m^(p-3) + (q-2)^2 a m^(q-3),
    the derivatives of :func:`flux_coefficients` in the modulus m > 0."""
    fp = m ** (p - 3.0)
    fq = a * m ** (q - 3.0)
    return (p - 2.0) * fp + (q - 2.0) * fq, (p - 2.0) ** 2 * fp + (q - 2.0) ** 2 * fq


def first_order_term(q, m, xi, grad_a):
    """T = m^(q-2) xi . grad a, the part of -div A(x, Du) that differentiates
    a: at xi = Du and m = |xi|, -div A = -tr(D_xi A D^2 u) - T. A gradient
    floor may raise m above |xi|. Vectors lie along the last axis."""
    return m ** (q - 2.0) * np.sum(xi * grad_a, axis=-1)


def growth(p, q, a, t):
    """H = t^p + a t^q at magnitudes t; the a-term is exactly 0 where a = 0."""
    return t ** p + np.where(a > 0.0, a * t ** q, 0.0)


def h_eval(params, x, xi):
    """Growth density |xi|^p + a(x) |xi|^q (no regularization).

    ``xi`` may be vectors (m, n) / (n,) or plain scalars (m,) — the
    density is applied to the magnitude either way.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    vector_like = xi.ndim == x.ndim and xi.shape == x.shape
    mag = np.linalg.norm(xi, axis=-1) if vector_like else np.abs(xi)
    return growth(params.p, params.q, params.coeff.value(x), mag)


def a_flux(params, x, xi, delta=0.0):
    """Flux A(x, xi) with optional gradient regularization.

    With m = sqrt(|xi|^2 + delta^2) the value is
    m^(p-2) xi + a(x) m^(q-2) xi; at delta = 0 this is the exact flux,
    continuous through xi = 0 for p > 1.
    """
    batch, single = _as_batch(xi)
    a = _coefficient_rows(params, x, batch.shape[0])
    m = np.sqrt(np.sum(batch * batch, axis=1) + delta * delta)
    factor = np.zeros_like(m)
    pos = m > 0.0
    factor[pos] = flux_coefficients(params.p, params.q, a[pos], m[pos])[0]
    out = factor[:, None] * batch
    return out[0] if single else out


def a_flux_jacobian(params, x, xi, delta=0.0):
    """Jacobian of the flux in xi: symmetric n-by-n per point.

    m^(p-2) (I + (p-2) xi xi^T / m^2) + a(x) m^(q-2) (I + (q-2) xi xi^T / m^2).
    Positive definite for delta > 0. Raises :class:`SingularJacobian`
    when delta = 0, p < 2 and the gradient vanishes; for p >= 2 a
    vanishing gradient leaves S I (0^0 = 1 keeps the exponent-2 phases).
    """
    batch, single = _as_batch(xi)
    m_rows, n = batch.shape
    a = _coefficient_rows(params, x, m_rows)
    m2 = np.sum(batch * batch, axis=1) + delta * delta
    m = np.sqrt(m2)
    pos = m > 0.0
    if params.p < 2.0 and not np.all(pos):
        raise SingularJacobian(
            "flux Jacobian undefined: delta = 0, p < 2 and a vanishing gradient"
        )
    S, gam = flux_coefficients(params.p, params.q, a, m)
    outer = np.zeros((m_rows, n, n))
    outer[pos] = batch[pos, :, None] * batch[pos, None, :] / m2[pos, None, None]
    out = S[:, None, None] * np.eye(n) + gam[:, None, None] * outer
    return out[0] if single else out


def monotonicity_gap(params, x, xi1, xi2):
    """<A(x, xi1) - A(x, xi2), xi1 - xi2> at delta = 0.

    Nonnegative, and zero only for equal arguments; this is the
    integrand of the comparison-principle argument.
    """
    b1, single = _as_batch(xi1)
    b2, _ = _as_batch(xi2)
    d = a_flux(params, x, b1) - a_flux(params, x, b2)
    gap = np.sum(d * (b1 - b2), axis=1)
    return gap[0] if single else gap


def vector_inequality_check(t, xi1, xi2):
    """Upper bound for | |xi1|^(t-2) xi1 - |xi2|^(t-2) xi2 |.

    rhs is (t-1)|xi1-xi2|(|xi1|^(t-2) + |xi2|^(t-2)) for t >= 2 and
    2^(2-t) |xi1-xi2|^(t-1) for 1 < t < 2. Returns (lhs, rhs, holds)
    with ``holds = lhs <= rhs * (1 + 1e-12)``; equality is attained on
    antipodal pairs in the t < 2 branch.
    """
    if not t > 1.0:
        raise ValueError("t must exceed 1")
    b1, single = _as_batch(xi1)
    b2, _ = _as_batch(xi2)
    n1 = np.linalg.norm(b1, axis=1)
    n2 = np.linalg.norm(b2, axis=1)

    def _phi(v, n):
        f = np.zeros_like(n)
        pos = n > 0.0
        f[pos] = n[pos] ** (t - 2.0)
        return f[:, None] * v

    lhs = np.linalg.norm(_phi(b1, n1) - _phi(b2, n2), axis=1)
    diff = np.linalg.norm(b1 - b2, axis=1)
    if t >= 2.0:
        rhs = (t - 1.0) * diff * (n1 ** (t - 2.0) + n2 ** (t - 2.0))
    else:
        rhs = 2.0 ** (2.0 - t) * diff ** (t - 1.0)
    holds = lhs <= rhs * (1.0 + 1e-12)
    if single:
        return float(lhs[0]), float(rhs[0]), bool(holds[0])
    return lhs, rhs, holds
