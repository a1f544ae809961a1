"""Modular and Luxemburg-norm toolkit for the growth density H.

The modular is the one-point (centroid) quadrature of H(x, u) over the
elements; the norm is the gauge inf{lam > 0 : modular(u / lam) <= 1},
computed by bracketing and bisection. P1 gradients are elementwise
constant, so the same rule integrates the gradient modular exactly in
the gradient argument.
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

_BISECT_TOL = 1e-12
_MAX_BRACKET = 200
_MAX_BISECT = 200


def _cell_data(field, params, which, element_mask=None):
    grid = field.grid
    if which == "values":
        mags = np.abs(element_means(field))
    elif which == "gradient":
        mags = np.linalg.norm(element_gradients(field), axis=1)
    else:
        raise ValueError("which must be 'values' or 'gradient'")
    weights = grid.element_measures
    a = params.coeff.value(grid.element_centroids)
    if element_mask is not None:
        mags = mags[element_mask]
        weights = weights[element_mask]
        a = a[element_mask]
    return mags, weights, a


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

    Zero modular gives zero norm; otherwise the returned lam* satisfies
    |modular(u / lam*) - 1| <= 1e-10. The map lam -> modular(u / lam)
    is continuous and strictly decreasing where positive, so plain
    bisection cannot stall.
    """
    mags, weights, a = _cell_data(field, params, which)
    if _modular_of(mags, weights, a, params) == 0.0:
        return 0.0

    def phi(lam):
        return _modular_of(mags, weights, a, params, lam)

    # bracket so that phi(lo) >= 1 >= phi(hi); phi is strictly decreasing
    lo = hi = 1.0
    start = phi(1.0)
    if start > 1.0:
        for _ in range(_MAX_BRACKET):
            hi *= 2.0
            if phi(hi) <= 1.0:
                break
            lo = hi
        else:
            raise NonConvergence("could not bracket the Luxemburg norm from above")
    elif start < 1.0:
        for _ in range(_MAX_BRACKET):
            lo /= 2.0
            if phi(lo) >= 1.0:
                break
            hi = lo
        else:
            raise NonConvergence("could not bracket the Luxemburg norm from below")
    else:
        return 1.0

    mid = 0.5 * (lo + hi)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        val = phi(mid)
        if abs(val - 1.0) <= _BISECT_TOL:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    return mid


def norm_modular_bounds_check(field, params, rel_slack=1e-9):
    """Check min{lam^p, lam^q} <= modular(u) <= max{lam^p, lam^q}.

    Returns (lower_ok, upper_ok) with the stated relative slack.
    """
    rho = modular(field, params)
    lam = luxemburg_norm(field, params, which="values")
    low = min(lam ** params.p, lam ** params.q)
    high = max(lam ** params.p, lam ** params.q)
    lower_ok = low <= rho * (1.0 + rel_slack) + 1e-300
    upper_ok = rho <= high * (1.0 + rel_slack) + 1e-300
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
