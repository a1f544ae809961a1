"""Modular and Luxemburg-norm toolkit for the growth density H.

The modular is the one-point (centroid) quadrature of H(x, u) over the
elements; the norm is the gauge inf{lam > 0 : modular(u / lam) <= 1},
the root of a two-term power law in lam, found by Newton's method. P1
gradients are elementwise constant, so the same rule integrates the
gradient modular exactly in the gradient argument.
"""

import numpy as np

from .errors import NonConvergence
from .grids import element_gradients, element_means
from .operators import growth

__all__ = [
    "modular",
    "gradient_modular",
    "luxemburg_norm",
    "norm_modular_bounds_check",
    "poincare_ratio",
]

_NORM_TOL = 1e-10  # contract: |modular(u / lam*) - 1|
_MAX_NEWTON = 100


def _cell_data(field, params, which, element_mask=None):
    grid = field.grid
    if which == "values":
        mags = np.abs(element_means(field))
    elif which == "gradient":
        mags = np.linalg.norm(element_gradients(field), axis=1)
    else:
        raise ValueError("which must be 'values' or 'gradient'")
    a = params.coeff.value(grid.element_centroids)
    if element_mask is not None:
        mags = mags[element_mask]
        a = a[element_mask]
    return mags, grid.element_measure, a


def _modular_of(mags, weights, a, params, lam=1.0):
    scaled = mags / lam
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(weights * growth(params.p, params.q, a, scaled)))


def modular(field, params, element_mask=None):
    """Quadrature value of the integral of H(x, u) over the domain."""
    mags, weights, a = _cell_data(field, params, "values", element_mask)
    return _modular_of(mags, weights, a, params)


def gradient_modular(field, params, element_mask=None):
    """Quadrature value of the integral of H(x, Du) over the domain."""
    mags, weights, a = _cell_data(field, params, "gradient", element_mask)
    return _modular_of(mags, weights, a, params)


def luxemburg_norm(field, params, which="values"):
    """Gauge norm inf{lam > 0 : modular(u / lam) <= 1}.

    Each phase of H is homogeneous, so with M = max m the modular is
    A (M/lam)^p + B (M/lam)^q, where A = sum |e| (m/M)^p and
    B = sum |e| a (m/M)^q come from one pass over the cells. In
    s = log(lam / M) that is a convex, strictly decreasing function, and
    its root lies between log(A + B)/q and log(A + B)/p. Newton's method
    started at the smaller end climbs to the root monotonically; steps
    are clipped to the larger end against rounding. The zero field has
    norm zero; otherwise |modular(u / lam*) - 1| <= 1e-10 is checked
    with the full sum, and :class:`NonConvergence` is raised if it fails.
    """
    mags, weights, a = _cell_data(field, params, which)
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    if not np.isfinite(top):
        raise NonConvergence("cell magnitudes overflow; the Luxemburg norm is out of range")
    p, q = params.p, params.q
    t = mags / top
    A = float(np.sum(weights * t ** p))
    B = float(np.sum(weights * np.where(a > 0.0, a * t ** q, 0.0)))
    s, s_hi = sorted((np.log(A + B) / p, np.log(A + B) / q))
    for _ in range(_MAX_NEWTON):
        ep, eq = A * np.exp(-p * s), B * np.exp(-q * s)
        step = (ep + eq - 1.0) / (p * ep + q * eq)
        s = min(s + step, s_hi)
        if abs(step) <= 4.0 * np.finfo(float).eps * (1.0 + abs(s)):
            break
    lam = top * float(np.exp(s))
    if not abs(_modular_of(mags, weights, a, params, lam) - 1.0) <= _NORM_TOL:
        raise NonConvergence(f"Luxemburg norm missed its contract at lam = {lam:.17g}")
    return lam


def norm_modular_bounds_check(field, params):
    """Check min{lam^p, lam^q} <= modular(u) <= max{lam^p, lam^q}.

    Returns (lower_ok, upper_ok), each with a relative slack of 1e-9.
    """
    rho = modular(field, params)
    lam = luxemburg_norm(field, params, which="values")
    low = min(lam ** params.p, lam ** params.q)
    high = max(lam ** params.p, lam ** params.q)
    lower_ok = low <= rho * (1.0 + 1e-9) + 1e-300
    upper_ok = rho <= high * (1.0 + 1e-9) + 1e-300
    return bool(lower_ok), bool(upper_ok)


def poincare_ratio(field, params):
    """Luxemburg norm of the values over the Luxemburg norm of the gradient.

    Requires the field to vanish at every boundary node. Returns 0 for
    the zero field instead of dividing by a zero gradient norm.
    """
    if np.any(field.values[field.grid.boundary_idx] != 0.0):
        raise ValueError("poincare_ratio needs a field vanishing on the boundary")
    denom = luxemburg_norm(field, params, which="gradient")
    if denom == 0.0:
        return 0.0
    return luxemburg_norm(field, params, which="values") / denom
