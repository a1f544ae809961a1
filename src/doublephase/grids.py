"""Structured 1D/2D grids, piecewise-linear nodal fields, and field files.

Nodes are ordered row-major with x fastest: node (ix, iy) has flat index
``iy * nx + ix``. :class:`Grid` derives the node layout from its shape
alone, with no branch on the dimension: the coordinates, the boundary
and interior-depth masks (one slice per axis of the (ny, nx) node
array) and ``strides``, the flat index step per axis through which every
stencil offset is taken. Every 2D cell is split into two triangles along
the lower-left to upper-right diagonal, so assembly is deterministic and
orientation-consistent. :data:`ELEMENT_TYPES` describes the one segment
(1D) or the two triangles (2D) of a cell once, with constant P1
gradients; :class:`Grid` turns it into one slice of the nodal values per
vertex, so that every per-element quantity (vertex values, gradients,
means, centroids) and the assembly run on slices over all cells at once.
Every element has the measure prod(h) / dim!.
:class:`InteriorPattern` holds LAPACK band storage over the interior
nodes, which is banded in this order, with one band row per node offset
of a stencil: both solvers assemble their Newton matrices into it, factor
them in place and solve with the factor. :func:`poisson_start` is the warm
start of both: at p = q = 2 both reduce to the discrete Poisson problem,
which it solves by sine transforms, with no band.
"""

import io
import math
from functools import cached_property

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

# field file magic lines: v2 (binary payload) is written, v1 (text) still read
_MAGIC_V2 = "DPFIELD v2"
_MAGIC_V1 = "DPFIELD v1"

# The element types of a cell, per dimension. Each is the vertex offsets
# (dx[, dy]) from the cell's first node, and per axis the (tail, head)
# vertices whose difference over that axis' spacing is that component of
# the P1 gradient. A 2D cell holds the lower (00, 10, 11) and the upper
# (00, 11, 01) triangle. Per-element arrays list the elements type by type,
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
        # flat index step per axis: node (ix, iy) is ix + iy nx
        self.strides = np.cumprod((1,) + shape[:-1])
        self.element_types = ELEMENT_TYPES[dim]
        # cells per axis of the nodal array, (ny - 1, nx - 1) in 2D
        self.cells = tuple(s - 1 for s in shape[::-1])
        self.n_cells = int(np.prod(self.cells))
        self.n_elements = len(self.element_types) * self.n_cells
        self.element_measure = float(np.prod(self.spacing)) / math.factorial(dim)
        self._build_nodes()

    def _build_nodes(self):
        axes = [
            np.linspace(self.lower[d], self.upper[d], self.shape[d])
            for d in range(self.dim)
        ]
        # every element's measure is a product of one node step per axis
        if not np.prod([np.min(np.diff(a)) for a in axes]) > 0.0:
            raise ValueError("degenerate element")
        self.coords = np.stack(np.meshgrid(*axes), -1).reshape(-1, self.dim)
        self.boundary_mask = ~self.interior_depth_mask(1)
        self.boundary_idx = np.flatnonzero(self.boundary_mask)
        self.interior_idx = np.flatnonzero(~self.boundary_mask)

    @cached_property
    def element_cuts(self):
        """Per element type, one slice per vertex of the nodal values read
        as an array over the grid ((ny, nx) in 2D): element ``c`` of the
        type has that vertex at entry ``c`` of the slice."""
        return [
            [tuple(slice(o, o + c) for o, c in zip(v[::-1], self.cells)) for v in verts]
            for verts, _edges in self.element_types
        ]

    @cached_property
    def element_diffs(self):
        """Per type and axis i: (i, type, head slice, tail slice), whose
        difference over h_i is that component of the P1 gradient."""
        return [
            (i, t, cuts[head], cuts[tail])
            for t, (cuts, (_verts, edges)) in enumerate(zip(self.element_cuts, self.element_types))
            for i, (tail, head) in enumerate(edges)
        ]

    def element_vertices(self, values):
        """Nodal ``values`` (n_nodes, ...) at the vertices of every element,
        (types, dim + 1, *cells, ...)."""
        v = values.reshape(self.shape[::-1] + values.shape[1:])
        return np.array([[v[cut] for cut in cuts] for cuts in self.element_cuts])

    def gradients(self, values):
        """P1 gradients of nodal ``values``, (dim, types, *cells)."""
        v = values.reshape(self.shape[::-1])
        G = np.empty((self.dim, len(self.element_types)) + self.cells)
        for i, t, head, tail in self.element_diffs:
            np.subtract(v[head], v[tail], out=G[i, t])
        G *= (1.0 / self.spacing).reshape((-1,) + (1,) * (self.dim + 1))
        return G

    @cached_property
    def element_centroids(self):
        return self.element_vertices(self.coords).mean(axis=1).reshape(-1, self.dim)

    @cached_property
    def element_measures(self):
        return np.full(self.n_elements, self.element_measure)

    def interior_depth_mask(self, depth):
        """Nodes at least ``depth`` layers away from the boundary (every
        node for a negative ``depth``)."""
        mask = np.zeros(self.shape[::-1], dtype=bool)
        mask[tuple(slice(max(depth, 0), n - depth) for n in self.shape[::-1])] = True
        return mask.reshape(-1)

    def interior_element_mask(self, depth):
        """Elements whose vertices all satisfy :meth:`interior_depth_mask`."""
        node_mask = self.interior_depth_mask(depth)
        return self.element_vertices(node_mask).all(axis=1).reshape(-1)

    def refine(self):
        """Same domain with twice the resolution (2n - 1 nodes per axis)."""
        return Grid(
            tuple(2 * s - 1 for s in self.shape),
            lower=self.lower.copy(),
            extent=self.extent.copy(),
        )

    def coarsen(self):
        """Same domain with half the resolution ((n + 1) / 2 nodes per
        axis), the inverse of :meth:`refine`: its node (i, j) is node
        (2 i, 2 j) here. Raises ValueError unless every axis has an odd
        node count of at least 5."""
        if any(s % 2 == 0 or s < 5 for s in self.shape):
            raise ValueError("only a grid with an odd node count of at least 5 on every axis coarsens")
        return Grid(
            tuple((s + 1) // 2 for s in self.shape),
            lower=self.lower.copy(),
            extent=self.extent.copy(),
        )

    def compatible_with(self, other):
        return (
            isinstance(other, Grid)
            and self.shape == other.shape
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
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
    W, S, SW) and keeps the (bw + 1)-row layout of pbtrf (Cholesky; at 129²
    the lower form factors about 1.5 times as fast as the upper one); a
    general one uses the (3 bw + 1)-row layout of gbtrf (LU with partial
    pivoting), whose top bw rows are pivot room. Each offset owns one band
    row, so :meth:`fill` is one strided copy per offset; :meth:`factor`
    factors the band in place without a copy, and :meth:`solve` solves with
    that factor, as often as there are right-hand sides.
    """

    def __init__(self, grid, offsets, symmetric):
        offsets = np.asarray(offsets, dtype=int).reshape(-1, grid.dim)
        inner = np.array(grid.shape) - 2  # interior nodes per axis
        self.steps = offsets @ grid.strides
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
        node i to its neighbour at ``offsets[k]``. Interior nodes in the mask
        ``active`` become identity rows and columns: every coupling that
        touches one is dropped and its diagonal is 1."""
        band = np.zeros((self.n, self.lead)).T
        for (row, s, lo, hi, inside), v in zip(self._rows, values):
            keep = inside if active is None else inside & ~active[lo:hi] & ~active[lo + s:hi + s]
            np.copyto(band[row, lo + s:hi + s], v[lo:hi], where=keep)
        if active is not None:
            band[self.diag_row, active] = 1.0
        return band

    def factor(self, band, state):
        """Factor of the matrix in ``band``, computed in place: banded
        Cholesky (symmetric) or banded LU with partial pivoting (general),
        for :meth:`solve`.

        Raises :class:`LinearSolveFailure` carrying ``state`` (the nodal
        values of the caller's current iterate) when the matrix is not
        positive definite (symmetric) or has a singular U (general).
        """
        if self.symmetric:
            band, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
            pivots = None
        else:
            band, pivots, info = lapack.dgbtrf(band, self.bw, self.bw, overwrite_ab=1)
        if info != 0:
            kind = "not positive definite" if self.symmetric else "singular"
            raise self._failure(f"matrix {kind} (info={info})", state)
        return band, pivots

    def solve(self, factor, rhs, state):
        """Solution of A x = rhs, for the ``factor`` of A from :meth:`factor`.

        Raises :class:`LinearSolveFailure` carrying ``state`` when the
        solution is not finite.
        """
        band, pivots = factor
        if self.symmetric:
            x, _info = lapack.dpbtrs(band, rhs, lower=1)
        else:
            x, _info = lapack.dgbtrs(band, self.bw, self.bw, rhs, pivots)
        if not np.all(np.isfinite(x)):
            raise self._failure("non-finite solution", state)
        return x

    def _failure(self, reason, state):
        return LinearSolveFailure(f"banded solve failed: {reason}", field=NodalField(self.grid, state.copy()))


def _dst(x, axis):
    """DST-I along ``axis``: X_k = sum_j x_j sin(pi j k / (m + 1)) for
    j, k = 1..m, read off the real FFT of the odd extension (0, x, 0, -x
    reversed); applied twice it is (m + 1) / 2 times the identity."""
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    odd = np.zeros(x.shape[:-1] + (2 * m + 2,))
    odd[..., 1:m + 1] = x
    odd[..., m + 2:] = -x[..., ::-1]
    return np.moveaxis(np.fft.rfft(odd).imag[..., 1:m + 1], -1, axis) * -0.5


def poisson_start(grid, g_values, f):
    """Warm start of both solvers: nodal values equal to ``g_values`` (at
    ``grid.boundary_idx``) that solve -Lap_h u = f (a scalar or one value per
    interior node) with the 3-/5-point Laplacian. The P1 stiffness matrix on
    these right triangles is prod(h) times Lap_h and the lumped load of eps
    is prod(h) eps, so f = eps gives the P1 minimizer of the Dirichlet
    energy; the scheme at p = q = 2 is -(1 + a) Lap_h u = eps.

    -Lap_h with Dirichlet data is diagonal in the sine basis: the interior
    values are a DST-I along each axis, a division by the eigenvalues
    sum_i 4 h_i^-2 sin^2(pi k_i / (2 (m_i + 1))), and the DST-I back.
    Raises :class:`LinearSolveFailure`, carrying the boundary data with
    zero interior values, when the solution is not finite."""
    interior = grid.interior_idx
    u = np.zeros(grid.n_nodes)
    u[grid.boundary_idx] = g_values
    inv_h2 = grid.spacing ** -2.0
    # u is 0 at the interior nodes, so the neighbor sums are the boundary terms
    rhs = f + sum(w * (u[interior - s] + u[interior + s]) for s, w in zip(grid.strides, inv_h2))
    inner = tuple(s - 2 for s in grid.shape[::-1])  # interior array, (my, mx) in 2D
    x = rhs.reshape(inner)
    eig = 0.0
    for axis, (m, w) in enumerate(zip(inner, inv_h2[::-1])):
        x = _dst(x, axis)
        lam = 4.0 * w * np.sin(np.pi * np.arange(1, m + 1) / (2.0 * (m + 1))) ** 2
        eig = eig + lam.reshape((-1,) + (1,) * (len(inner) - 1 - axis))
    x = x / eig
    for axis, m in enumerate(inner):
        x = _dst(x, axis) * (2.0 / (m + 1))
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("Poisson warm start failed: non-finite solution", field=NodalField(grid, u))
    u[interior] = x.reshape(-1)
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
    """Exact gradient of the linear interpolant on one element; shape (dim,).

    Elements are numbered type by type, cells in node order within a type,
    so only element ``element``'s own vertices are read."""
    grid = field.grid
    t, cell = divmod(range(grid.n_elements)[element], grid.n_cells)
    at = np.unravel_index(cell, grid.cells)
    v = field.values.reshape(grid.shape[::-1])
    diffs = [v[head][at] - v[tail][at] for _i, tt, head, tail in grid.element_diffs if tt == t]
    return np.array(diffs) * (1.0 / grid.spacing)


def element_gradients(field):
    """Per-element P1 gradients, shape (n_elements, dim)."""
    return field.grid.gradients(field.values).reshape(field.grid.dim, -1).T


def element_means(field):
    """Value of the P1 interpolant at element centroids."""
    return field.grid.element_vertices(field.values).mean(axis=1).reshape(-1)


def interpolate(grid, g):
    """Nodal sampling of the closure g(points)."""
    vals = np.asarray(g(grid.coords), dtype=float).reshape(grid.n_nodes)
    if not np.all(np.isfinite(vals)):
        raise InvalidField("closure produced non-finite nodal values")
    return NodalField(grid, vals)


def write_field(field, destination):
    """Binary field file (``DPFIELD v2``); round-trips bit for bit.

    Three ASCII lines: the magic, ``dim nx [ny]``, and per axis ``lower
    extent`` written with :meth:`float.hex`, so that the grid comes back
    exactly. Then the values as little-endian ``<f8`` bytes in row-major
    node order, the idea of numpy's ``.npy`` format.
    """
    grid = field.grid
    bounds = " ".join(float(x).hex() for pair in zip(grid.lower, grid.extent) for x in pair)
    head = f"{_MAGIC_V2}\n{grid.dim} {' '.join(map(str, grid.shape))}\n{bounds}\n"
    with open(destination, "wb") as f:
        f.write(head.encode("ascii"))
        f.write(field.values.astype("<f8", copy=False).tobytes())


def read_field(source):
    """Read a field file written by :func:`write_field`, or a plain-text
    ``DPFIELD v1`` file (header lines as in v2, but per axis ``lower upper``
    in decimal, then one decimal value per line).

    Raises :class:`MalformedHeader` for a header that does not parse or
    that no :class:`Grid` matches, :class:`CountMismatch` for a value count
    (v2: a payload length) other than the header's node count, and
    :class:`InvalidField` for a non-numeric or non-finite value.
    """
    with open(source, "rb") as f:
        data = f.read()
    if data.startswith(_MAGIC_V2.encode("ascii") + b"\n"):
        return _read_v2(data)
    return _read_v1(data.decode("ascii", "replace"))


def _read_v2(data):
    # the payload may hold 0x0a bytes: split off the three header lines only
    lines = data.split(b"\n", 3)
    if len(lines) < 4:
        raise MalformedHeader("truncated header")
    dim_line, bounds_line = (ln.decode("ascii", "replace") for ln in lines[1:3])
    shape = _shape(dim_line)
    tokens = bounds_line.split()
    try:
        nums = [float.fromhex(t) for t in tokens]
    except ValueError as exc:
        raise MalformedHeader(f"bad extent line: {bounds_line!r}") from exc
    # only float.hex's own form: fromhex would read a decimal "0.5" as 0x0.5
    if len(nums) != 2 * len(shape) or any(x.hex() != t for x, t in zip(nums, tokens)):
        raise MalformedHeader(f"bad extent line: {bounds_line!r}")
    grid = _header_grid(shape, nums[0::2], nums[1::2])
    payload = lines[3]
    if len(payload) != 8 * grid.n_nodes:
        raise CountMismatch(
            f"expected {grid.n_nodes} values ({8 * grid.n_nodes} bytes), file holds {len(payload)} bytes"
        )
    return NodalField(grid, np.frombuffer(payload, dtype="<f8").astype(float))


def _shape(line):
    """The grid shape on a ``dim nx [ny]`` header line."""
    head = line.split()
    try:
        dim = int(head[0])
        shape = tuple(int(t) for t in head[1:])
    except (IndexError, ValueError) as exc:
        raise MalformedHeader(f"bad dimension line: {line!r}") from exc
    if dim not in (1, 2) or len(shape) != dim:
        raise MalformedHeader(f"bad dimension line: {line!r}")
    return shape


def _header_grid(shape, lower, extent):
    try:
        return Grid(shape, lower=lower, extent=extent)
    except ValueError as exc:
        raise MalformedHeader(f"header names no valid grid: {exc}") from exc


def _read_v1(text):
    lines = [ln.strip() for ln in io.StringIO(text, newline=None)]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != _MAGIC_V1:
        raise MalformedHeader(f"missing '{_MAGIC_V2}' or '{_MAGIC_V1}' magic line")
    if len(lines) < 3:
        raise MalformedHeader("truncated header")
    shape = _shape(lines[1])
    dim = len(shape)
    try:
        nums = [float(t) for t in lines[2].split()]
    except ValueError as exc:
        raise MalformedHeader(f"bad extent line: {lines[2]!r}") from exc
    if len(nums) != 2 * dim:
        raise MalformedHeader(f"bad extent line: {lines[2]!r}")
    lower = np.array(nums[0::2])
    upper = np.array(nums[1::2])
    grid = _header_grid(shape, lower, upper - lower)
    body = lines[3:]
    if len(body) != grid.n_nodes:
        raise CountMismatch(
            f"expected {grid.n_nodes} values, file holds {len(body)}"
        )
    try:
        values = np.fromiter(map(float, body), dtype=float, count=len(body))
    except ValueError as exc:
        raise InvalidField("non-numeric nodal value") from exc
    if not np.all(np.isfinite(values)):
        raise InvalidField("non-finite nodal value")
    return NodalField(grid, values)
