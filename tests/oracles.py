"""Independent oracles the solver tests check against.

Everything here is built from quadrature, root finding and closed
forms only; none of it shares code with the solvers under test.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq


def scalar_flux(t, p, q, a0):
    """g(t) = |t|^(p-2) t + a0 |t|^(q-2) t, strictly increasing on R."""
    return np.sign(t) * (np.abs(t) ** (p - 1.0) + a0 * np.abs(t) ** (q - 1.0))


def scalar_flux_inverse(y, p, q, a0):
    """g^{-1}(y) by bracketing + brentq."""
    if y == 0.0:
        return 0.0
    hi = 1.0
    while scalar_flux(hi, p, q, a0) < abs(y):
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("flux inverse bracket failed")
    root = brentq(lambda t: scalar_flux(t, p, q, a0) - abs(y), 0.0, hi, xtol=1e-15, rtol=1e-15)
    return root if y > 0.0 else -root


def flux_inversion_solution(p, q, a0, eps, g0, g1, xs, gauss_order=8):
    """Exact 1D solution of -(g(u'))' = eps, u(0)=g0, u(1)=g1 on [0,1].

    Integrating the equation gives g(u'(x)) = C - eps x; the constant C
    is fixed by the boundary values via a shooting integral, and u is
    recovered by per-interval Gauss quadrature of g^{-1}(C - eps t).
    """
    nodes, weights = leggauss(gauss_order)

    def du(ts, C):
        return np.array([scalar_flux_inverse(C - eps * t, p, q, a0) for t in ts])

    def integral(C, lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(weights, du(mid + half * nodes, C)))

    def shoot(C):
        return integral(C, 0.0, 1.0) - (g1 - g0)

    c_lo = c_hi = scalar_flux(g1 - g0, p, q, a0) + eps / 2.0
    step = max(1.0, abs(eps))
    while shoot(c_lo) > 0.0:
        c_lo -= step
    while shoot(c_hi) < 0.0:
        c_hi += step
    C = brentq(shoot, c_lo, c_hi, xtol=1e-14, rtol=1e-15)

    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    out[0] = g0 + (integral(C, 0.0, xs[0]) if xs[0] > 0.0 else 0.0)
    for i in range(1, len(xs)):
        out[i] = out[i - 1] + integral(C, xs[i - 1], xs[i])
    return out


def lowered_parabola_obstacle_solution(A, B, xs):
    """Exact obstacle solution for -u'' >= 0, u >= A - B(x-1/2)^2,
    u(0) = u(1) = 0 on [0,1], requiring 0 < A < B/4.

    The solution is linear and tangent to the parabola from each
    boundary point, with contact in between; the tangency point is
    t = sqrt(1/4 - A/B).
    """
    if not 0.0 < A < B / 4.0:
        raise ValueError("need 0 < A < B/4 for interior contact")
    t = np.sqrt(0.25 - A / B)
    slope = -2.0 * B * (t - 0.5)
    xs = np.asarray(xs, dtype=float)
    psi = A - B * (xs - 0.5) ** 2
    left = slope * xs
    right = slope * (1.0 - xs)
    out = np.where(xs < t, left, np.where(xs > 1.0 - t, right, psi))
    return out, t, slope


def radial_p_harmonic(pts, p, n=2):
    """u(r) = r^((p-n)/(p-1)), the radial p-harmonic profile (p != n)."""
    r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
    return r ** ((p - n) / (p - 1.0))


def radial_p_harmonic_jet(pt, p, n=2):
    """(gradient, hessian) of the radial p-harmonic profile at one point."""
    pt = np.asarray(pt, dtype=float)
    r = float(np.linalg.norm(pt))
    k = (p - n) / (p - 1.0)
    f1 = k * r ** (k - 1.0)
    f2 = k * (k - 1.0) * r ** (k - 2.0)
    rh = pt / r
    grad = f1 * rh
    hess = f2 * np.outer(rh, rh) + (f1 / r) * (np.eye(len(pt)) - np.outer(rh, rh))
    return grad, hess


def quartic_harmonic(pts):
    """x^4 - 6 x^2 y^2 + y^4: harmonic, and not annihilated by the
    five-point stencil (unlike quadratics on this mesh)."""
    x = pts[:, 0]
    y = pts[:, 1]
    return x**4 - 6.0 * x**2 * y**2 + y**4


def quadratic_lower_envelope(coords, target, radius):
    """min_m [ target_m + |x - x_m|^2 / (2 radius) ] by brute force over
    all node pairs."""
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    return np.min(target[None, :] + d2 / (2.0 * radius), axis=1)


def doubling_maximizer(coords, u, v, j, s):
    """(x_index, y_index, Psi) maximizing Psi = u(x) - v(y) - (j/s)|x - y|^s
    by exhaustive search; ties go to the lexicographically smallest pair."""
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    psi = u[:, None] - v[None, :] - (j / s) * dist ** s
    flat = int(np.argmax(psi))
    return flat // len(v), flat % len(v), float(psi.reshape(-1)[flat])


def dense_from_band(band, symmetric):
    """Dense matrix held in LAPACK band storage, read entry by entry.

    ``symmetric``: the lower triangle in the pbsv layout, A[i, j] at row
    i - j of column j (i >= j), with bw + 1 rows. Otherwise the gbsv
    layout, A[i, j] at row 2 bw + i - j of column j, with 3 bw + 1 rows
    whose top bw rows are pivot room.
    """
    lead, n = band.shape
    bw = lead - 1 if symmetric else (lead - 1) // 3
    top = 0 if symmetric else 2 * bw
    A = np.zeros((n, n))
    for j in range(n):
        for i in range(j if symmetric else max(0, j - bw), min(n, j + bw + 1)):
            A[i, j] = band[top + i - j, j]
    if symmetric:
        A += np.tril(A, -1).T
    return A
