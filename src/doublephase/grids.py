"""Structured 1D/2D grids, piecewise-linear nodal fields, and field files.

Nodes are ordered row-major with x fastest: node (ix, iy) has flat index
``iy * nx + ix``. Every 2D cell is split into two triangles along the
lower-left to upper-right diagonal, so assembly is deterministic and
orientation-consistent. Elements carry precomputed measures, centroids
and P1 gradient coefficients; :data:`ELEMENT_TYPES` describes the one
segment (1D) or the two triangles (2D) of a cell once, with constant P1
gradients, so that assembly can run on slices of the nodal values.
:class:`InteriorPattern` holds LAPACK band storage over the interior
nodes, which is banded in this order, with one band row per node offset
of a stencil: both solvers assemble into it and solve through it.
:func:`poisson_start` is the warm start of both: at p = q = 2 both reduce
to the discrete Poisson problem.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import CountMismatch, GridMismatch, InvalidField, LinearSolveFailure, MalformedHeader

__all__ = [
    "Grid",
    "NodalField",
    "BoundaryData",
    "p1_gradient",
    "element_gradients",
    "element_means",
    "interpolate",
    "write_field",
    "read_field",
]

_MAGIC = "DPFIELD v1"

# The element types of a cell, per dimension. Each is the vertex offsets
# (dx[, dy]) from the cell's first node, and per axis the (tail, head)
# vertices whose difference over that axis' spacing is that component of
# the P1 gradient. A 2D cell holds the lower (00, 10, 11) and the upper
# (00, 11, 01) triangle; ``Grid.elements`` lists the elements type by type,
# cells in node order within a type.
ELEMENT_TYPES = {
    1: ((((0,), (1,)), ((0, 1),)),),
    2: (
        (((0, 0), (1, 0), (1, 1)), ((0, 1), (1, 2))),
        (((0, 0), (1, 1), (0, 1)), ((2, 1), (0, 2))),
    ),
}


class Grid:
    """Uniform axis-aligned grid on an interval or rectangle."""

    def __init__(self, shape, lower=None, extent=None):
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        if len(shape) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if any(s < 3 for s in shape):
            raise ValueError("need at least 3 nodes per axis")
        dim = len(shape)
        lower = np.zeros(dim) if lower is None else np.asarray(lower, dtype=float)
        extent = np.ones(dim) if extent is None else np.asarray(extent, dtype=float)
        if lower.shape != (dim,) or extent.shape != (dim,):
            raise ValueError("lower/extent must have one entry per axis")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(extent)):
            raise ValueError("lower/extent must be finite")
        if np.any(extent <= 0.0):
            raise ValueError("extents must be strictly positive")

        self.dim = dim
        self.shape = shape
        self.lower = lower
        self.extent = extent
        self.upper = lower + extent
        self.spacing = extent / (np.array(shape, dtype=float) - 1.0)
        self.n_nodes = int(np.prod(shape))
        self._build_nodes()
        self._build_elements()

    def _build_nodes(self):
        axes = [
            np.linspace(self.lower[d], self.upper[d], self.shape[d])
            for d in range(self.dim)
        ]
        if self.dim == 1:
            self.coords = axes[0][:, None]
            boundary = np.zeros(self.n_nodes, dtype=bool)
            boundary[0] = boundary[-1] = True
        else:
            nx, ny = self.shape
            X, Y = np.meshgrid(axes[0], axes[1], indexing="xy")
            self.coords = np.column_stack([X.ravel(), Y.ravel()])
            ix = np.arange(self.n_nodes) % nx
            iy = np.arange(self.n_nodes) // nx
            boundary = (ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1)
        self.boundary_mask = boundary
        self.boundary_idx = np.flatnonzero(boundary)
        self.interior_idx = np.flatnonzero(~boundary)

    def _build_elements(self):
        self.element_types = ELEMENT_TYPES[self.dim]
        strides = np.cumprod((1,) + self.shape[:-1])
        # first node of every cell (all but the last node along each axis)
        first = np.arange(self.n_nodes).reshape(self.shape[::-1])[(slice(0, -1),) * self.dim].ravel()
        self.elements = np.vstack([
            np.column_stack([first + np.dot(offset, strides) for offset in verts])
            for verts, _edges in self.element_types
        ])
        verts = self.coords[self.elements]  # (m, dim+1, dim)
        self.element_centroids = verts.mean(axis=1)
        if self.dim == 1:
            length = verts[:, 1, 0] - verts[:, 0, 0]
            self.element_measures = length
            g = np.empty((len(length), 2, 1))
            g[:, 0, 0] = -1.0 / length
            g[:, 1, 0] = 1.0 / length
            self.grad_coeffs = g
        else:
            e1 = verts[:, 1, :] - verts[:, 0, :]
            e2 = verts[:, 2, :] - verts[:, 0, :]
            twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            self.element_measures = 0.5 * np.abs(twice_area)
            # grad phi_i = perp(opposite edge) / (2 * signed area)
            g = np.empty((verts.shape[0], 3, 2))
            for i in range(3):
                a = verts[:, (i + 1) % 3, :]
                b = verts[:, (i + 2) % 3, :]
                edge = b - a
                g[:, i, 0] = -edge[:, 1]
                g[:, i, 1] = edge[:, 0]
            g /= twice_area[:, None, None]
            self.grad_coeffs = g
        if np.any(self.element_measures <= 0.0):
            raise ValueError("degenerate element")

    def interior_depth_mask(self, depth):
        """Nodes at least ``depth`` layers away from the boundary."""
        idx = np.arange(self.n_nodes)
        if self.dim == 1:
            n = self.shape[0]
            return (idx >= depth) & (idx <= n - 1 - depth)
        nx, ny = self.shape
        ix = idx % nx
        iy = idx // nx
        return (
            (ix >= depth) & (ix <= nx - 1 - depth)
            & (iy >= depth) & (iy <= ny - 1 - depth)
        )

    def interior_element_mask(self, depth):
        """Elements whose vertices all satisfy :meth:`interior_depth_mask`."""
        node_mask = self.interior_depth_mask(depth)
        return node_mask[self.elements].all(axis=1)

    def refine(self):
        """Same domain with twice the resolution (2n - 1 nodes per axis)."""
        return Grid(
            tuple(2 * s - 1 for s in self.shape),
            lower=self.lower.copy(),
            extent=self.extent.copy(),
        )

    def compatible_with(self, other):
        return (
            isinstance(other, Grid)
            and self.shape == other.shape
            and np.allclose(self.lower, other.lower)
            and np.allclose(self.extent, other.extent)
        )

    @property
    def diameter(self):
        return float(np.linalg.norm(self.extent))

    def __repr__(self):
        return f"Grid(shape={self.shape}, lower={tuple(self.lower)}, extent={tuple(self.extent)})"


class InteriorPattern:
    """LAPACK band storage over the interior nodes of ``grid``, in
    ``grid.interior_idx`` order, of a stencil given by its node offsets.

    ``offsets`` holds one (dx,) or (dx, dy) node offset per band row of
    :meth:`fill`; ``steps`` are the same offsets in flat node indices. In
    this natural order the coupling at node offset (dx, dy) lies dx + dy
    (nx - 2) interior positions from the diagonal, so a 3-/9-point stencil
    or the P1 graph gives half-bandwidth ``bw`` = nx - 1 (1 in 1D). A
    ``symmetric`` pattern takes offsets of the lower triangle (such as C,
    W, S, SW) and keeps the (bw + 1)-row layout of pbsv (Cholesky; at 129² the
    lower form factors about 1.5 times as fast as the upper one); a general
    one uses the (3 bw + 1)-row layout of gbsv (LU with partial pivoting),
    whose top bw rows are pivot room. Each offset owns one band row, so
    :meth:`fill` is one strided copy per offset, and LAPACK factors the
    band in place without a copy.
    """

    def __init__(self, grid, offsets, symmetric):
        offsets = np.asarray(offsets, dtype=int).reshape(-1, grid.dim)
        inner = np.array(grid.shape) - 2  # interior nodes per axis
        self.steps = offsets @ np.cumprod((1,) + grid.shape[:-1])
        shift = offsets @ np.cumprod((1,) + tuple(inner[:-1]))
        if symmetric and np.any(shift > 0):
            raise ValueError("a symmetric pattern takes the offsets of the lower triangle")
        n = len(grid.interior_idx)
        self.grid = grid
        self.bw = bw = int(np.max(np.abs(shift), initial=0))
        self.symmetric = symmetric
        self.diag_row = 0 if symmetric else 2 * bw
        self.lead = bw + 1 if symmetric else 3 * bw + 1
        self.n = n
        # interior node i couples to i + s, stored in column i + s; i runs
        # over [lo, hi), and ``inside`` drops the couplings whose other node
        # is a boundary node (off the interior block along some axis)
        at = np.array(np.unravel_index(np.arange(n), tuple(inner[::-1]))[::-1])[:, None, :] + offsets.T[:, :, None]
        inside = np.all((at >= 0) & (at < inner[:, None, None]), axis=0)
        self._rows = []
        for s, keep in zip(shift.tolist(), inside):
            lo = min(n, max(0, -s))
            hi = max(lo, n - max(0, s))
            self._rows.append((self.diag_row - s, s, lo, hi, keep[lo:hi]))

    def fill(self, values, active=None):
        """Band (lead, n) in Fortran order; ``values[k][i]`` couples interior
        node i to its neighbour at ``offsets[k]`` (``values[k]`` may be one
        scalar for every node). Interior nodes in the mask
        ``active`` become identity rows and columns: every coupling that
        touches one is dropped and its diagonal is 1."""
        band = np.zeros((self.n, self.lead)).T
        for (row, s, lo, hi, inside), v in zip(self._rows, values):
            keep = inside if active is None else inside & ~active[lo:hi] & ~active[lo + s:hi + s]
            np.copyto(band[row, lo + s:hi + s], v[lo:hi] if np.ndim(v) else v, where=keep)
        if active is not None:
            band[self.diag_row, active] = 1.0
        return band

    def diagonal(self, band):
        return band[self.diag_row]

    def solve(self, band, rhs, state):
        """Solution of band x = rhs; overwrites ``band`` with its factor.

        Raises :class:`LinearSolveFailure` carrying ``state`` (the nodal
        values of the caller's current iterate) when the matrix is not
        positive definite (symmetric), has a singular U (general), or the
        solution is not finite.
        """
        if self.symmetric:
            _c, x, info = lapack.dpbsv(band, rhs, lower=1, overwrite_ab=1)
        else:
            _lu, _piv, x, info = lapack.dgbsv(self.bw, self.bw, band, rhs, overwrite_ab=1)
        if info != 0 or not np.all(np.isfinite(x)):
            kind = "not positive definite" if self.symmetric else "singular"
            reason = f"matrix {kind} (info={info})" if info != 0 else "non-finite solution"
            raise LinearSolveFailure(
                f"banded solve failed: {reason}", field=NodalField(self.grid, state.copy())
            )
        return x


def poisson_start(grid, g_values, f):
    """Warm start of both solvers: nodal values equal to ``g_values`` (at
    ``grid.boundary_idx``) that solve -Lap_h u = f (a scalar or one value per
    interior node) with the 3-/5-point Laplacian, by banded Cholesky. The P1
    stiffness matrix on these right triangles is prod(h) times Lap_h and the
    lumped load of eps is prod(h) eps, so f = eps gives the P1 minimizer of
    the Dirichlet energy; the scheme at p = q = 2 is -(1 + a) Lap_h u = eps."""
    interior = grid.interior_idx
    u = np.zeros(grid.n_nodes)
    u[grid.boundary_idx] = g_values
    strides = np.cumprod((1,) + grid.shape[:-1])
    inv_h2 = grid.spacing ** -2.0
    # u is 0 at the interior nodes, so the neighbor sums are the boundary terms
    rhs = f + sum(w * (u[interior - s] + u[interior + s]) for s, w in zip(strides, inv_h2))
    # the centre, then the backward neighbour along each axis: C, W[, S]
    pattern = InteriorPattern(grid, np.vstack([np.zeros(grid.dim), -np.eye(grid.dim)]), symmetric=True)
    band = pattern.fill(np.r_[2.0 * inv_h2.sum(), -inv_h2])
    u[interior] = pattern.solve(band, rhs, u)
    return u


class NodalField:
    """One finite real value per grid node."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.shape[0] != grid.n_nodes:
            raise InvalidField(
                f"expected {grid.n_nodes} nodal values, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidField("nodal values must be finite")
        self.grid = grid
        self.values = values

    def copy(self):
        return NodalField(self.grid, self.values.copy())

    def __add__(self, other):
        return NodalField(self.grid, self.values + _aligned_values(self, other))

    def __sub__(self, other):
        return NodalField(self.grid, self.values - _aligned_values(self, other))


def _aligned_values(field, other):
    if isinstance(other, NodalField):
        if not field.grid.compatible_with(other.grid):
            raise GridMismatch("fields live on different grids")
        return other.values
    return np.asarray(other, dtype=float)


class BoundaryData:
    """Dirichlet datum: a closure g(points) or explicit boundary-node values."""

    def __init__(self, func=None, values=None):
        if (func is None) == (values is None):
            raise ValueError("give exactly one of func or values")
        self._func = func
        self._values = None if values is None else np.asarray(values, dtype=float)

    @classmethod
    def from_callable(cls, func):
        return cls(func=func)

    @classmethod
    def from_values(cls, values):
        return cls(values=values)

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(func=lambda pts: np.full(pts.shape[0], c))

    @property
    def is_callable(self):
        return self._func is not None

    def values_on(self, grid):
        """Values at grid.boundary_idx, in that order."""
        if self._func is not None:
            out = np.asarray(self._func(grid.coords[grid.boundary_idx]), dtype=float)
            out = out.reshape(len(grid.boundary_idx))
        else:
            out = self._values
            if out.shape[0] != len(grid.boundary_idx):
                raise InvalidField(
                    "explicit boundary values do not match the boundary node count"
                )
        if not np.all(np.isfinite(out)):
            raise InvalidField("boundary data must be finite at every boundary node")
        return out


def p1_gradient(field, element):
    """Exact gradient of the linear interpolant on one element; shape (dim,)."""
    grid = field.grid
    conn = grid.elements[element]
    return grid.grad_coeffs[element].T @ field.values[conn]


def element_gradients(field):
    """Per-element P1 gradients, shape (n_elements, dim)."""
    grid = field.grid
    vals = field.values[grid.elements]
    return np.einsum("eki,ek->ei", grid.grad_coeffs, vals)


def element_means(field):
    """Value of the P1 interpolant at element centroids."""
    return field.values[field.grid.elements].mean(axis=1)


def interpolate(grid, g):
    """Nodal sampling of the closure g(points)."""
    vals = np.asarray(g(grid.coords), dtype=float).reshape(grid.n_nodes)
    if not np.all(np.isfinite(vals)):
        raise InvalidField("closure produced non-finite nodal values")
    return NodalField(grid, vals)


def write_field(field, destination):
    """Plain-text field file; round-trips losslessly.

    Line 1: magic, line 2: ``dim nx [ny]``, line 3: per-axis intervals
    ``x0 x1 [y0 y1]``, then one value per line in row-major node order.
    """
    grid = field.grid
    lines = [_MAGIC]
    lines.append(" ".join([str(grid.dim)] + [str(s) for s in grid.shape]))
    pieces = []
    for d in range(grid.dim):
        pieces.append(format(grid.lower[d], ".17g"))
        pieces.append(format(grid.upper[d], ".17g"))
    lines.append(" ".join(pieces))
    lines.extend(format(v, ".16e") for v in field.values)  # 17 significant digits
    text = "\n".join(lines) + "\n"
    with open(destination, "w", encoding="ascii") as f:
        f.write(text)


def read_field(source):
    """Parse a field file written by :func:`write_field`."""
    with open(source, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != _MAGIC:
        raise MalformedHeader(f"missing '{_MAGIC}' magic line")
    if len(lines) < 3:
        raise MalformedHeader("truncated header")
    head = lines[1].split()
    try:
        dim = int(head[0])
        shape = tuple(int(t) for t in head[1:])
    except ValueError as exc:
        raise MalformedHeader(f"bad dimension line: {lines[1]!r}") from exc
    if dim not in (1, 2) or len(shape) != dim:
        raise MalformedHeader(f"bad dimension line: {lines[1]!r}")
    try:
        nums = [float(t) for t in lines[2].split()]
    except ValueError as exc:
        raise MalformedHeader(f"bad extent line: {lines[2]!r}") from exc
    if len(nums) != 2 * dim:
        raise MalformedHeader(f"bad extent line: {lines[2]!r}")
    lower = np.array(nums[0::2])
    upper = np.array(nums[1::2])
    grid = Grid(shape, lower=lower, extent=upper - lower)
    body = lines[3:]
    if len(body) != grid.n_nodes:
        raise CountMismatch(
            f"expected {grid.n_nodes} values, file holds {len(body)}"
        )
    try:
        values = np.array([float(t) for t in body])
    except ValueError as exc:
        raise InvalidField("non-numeric nodal value") from exc
    if not np.all(np.isfinite(values)):
        raise InvalidField("non-finite nodal value")
    return NodalField(grid, values)
