import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import dense_from_band, element_tables, quadratic_obstacle_solution

from doublephase.errors import CountMismatch, GridMismatch, InvalidField, LinearSolveFailure, MalformedHeader
from doublephase.grids import (
    BoundaryData,
    Grid,
    InteriorPattern,
    NodalField,
    element_gradients,
    element_means,
    interpolate,
    p1_gradient,
    poisson_start,
    read_field,
    write_field,
)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((2,))
        with pytest.raises(ValueError):
            Grid((5, 5), extent=(0.0, 1.0))
        with pytest.raises(ValueError):
            Grid((5, 5, 5))

    @pytest.mark.parametrize("shape, lower, extent", [
        ((3,), (1e20,), (1.0,)),                 # nodes collapse onto one float
        ((3, 3), (0.0, 1e20), (1.0, 1.0)),
        ((3, 3), (0.0, 0.0), (1e-200, 1e-200)),  # cell area underflows
    ])
    def test_degenerate_element_raises_at_construction(self, shape, lower, extent):
        with pytest.raises(ValueError, match="degenerate element"):
            Grid(shape, lower=lower, extent=extent)

    def test_measures_sum_to_domain(self):
        g = Grid((9, 13), lower=(1.0, -2.0), extent=(2.0, 3.0))
        assert g.element_measures.sum() == pytest.approx(6.0, rel=1e-12)
        g1 = Grid((17,), extent=(2.5,))
        assert g1.element_measures.sum() == pytest.approx(2.5, rel=1e-14)

    def test_boundary_sets(self):
        g = Grid((5, 4))
        assert len(g.boundary_idx) == 2 * 5 + 2 * 4 - 4
        assert len(g.interior_idx) == (5 - 2) * (4 - 2)
        assert not np.any(g.boundary_mask[g.interior_idx])

    def test_interior_depth(self):
        g = Grid((7, 7))
        assert g.interior_depth_mask(2).sum() == 9
        assert g.interior_depth_mask(0).sum() == 49

    def test_refine_keeps_domain(self):
        g = Grid((5, 9), lower=(1.0, 2.0), extent=(1.5, 0.5))
        r = g.refine()
        assert r.shape == (9, 17)
        np.testing.assert_allclose(r.lower, g.lower)
        np.testing.assert_allclose(r.extent, g.extent)

    @pytest.mark.parametrize("shape", [(5,), (129,), (5, 9), (129, 5), (3, 7)])
    def test_coarsen_inverts_refine(self, shape):
        g = Grid(shape, lower=(0.25, -1.0)[:len(shape)], extent=(1.5, 0.3)[:len(shape)])
        assert g.refine().coarsen().compatible_with(g)
        if min(shape) > 3:
            assert g.coarsen().refine().compatible_with(g)
            # coarse node (i, j) is fine node (2 i, 2 j)
            fine = g.coords.reshape(g.shape[::-1] + (g.dim,))[(slice(None, None, 2),) * g.dim]
            np.testing.assert_allclose(g.coarsen().coords, fine.reshape(-1, g.dim), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(4,), (8, 9), (9, 8), (3, 5)])
    def test_coarsen_needs_odd_counts_of_at_least_5(self, shape):
        with pytest.raises(ValueError):
            Grid(shape).coarsen()

    @pytest.mark.parametrize("a, b", [
        (Grid((5,), extent=(1e-9,)), Grid((5,), extent=(5e-9,))),
        # disjoint domains, each of extent 1e-6
        (Grid((5, 5), lower=(1e6, 0.0), extent=(1e-6, 1e-6)),
         Grid((5, 5), lower=(1e6 + 5.0, 0.0), extent=(1e-6, 1e-6))),
    ])
    def test_tiny_or_distant_grids_are_not_compatible(self, a, b):
        assert not a.compatible_with(b)
        with pytest.raises(GridMismatch):
            NodalField(a, np.zeros(a.n_nodes)) - NodalField(b, np.zeros(b.n_nodes))


@st.composite
def element_cases(draw):
    """A random field on a 1D, square or non-square 2D grid with extents
    0.25-4 per axis and a shifted lower corner, and an interior depth."""
    nx = draw(st.integers(3, 9))
    shape = draw(st.sampled_from([(nx,), (nx, nx), (nx, draw(st.integers(3, 9)))]))
    grid = Grid(shape, lower=[draw(st.floats(-2.0, 2.0)) for _ in shape],
                extent=[draw(st.floats(0.25, 4.0)) for _ in shape])
    values = draw(hnp.arrays(float, grid.n_nodes, elements=st.floats(-1.0, 1.0)))
    return NodalField(grid, values), draw(st.integers(0, 3))


class TestFieldsAndGradients:
    @settings(max_examples=100)
    @given(element_cases())
    def test_sliced_helpers_match_gather_tables(self, case):
        field, depth = case
        grid, values = field.grid, field.values
        conn, gcoef, measures, centroids = element_tables(grid)
        grads = element_gradients(field)
        ref = np.einsum("eki,ek->ei", gcoef, values[conn])
        # below the underflow threshold rounding is absolute
        scale = np.einsum("eki,ek->ei", np.abs(gcoef), np.abs(values[conn]))
        assert np.all(np.abs(grads - ref) <= np.maximum(1e-13 * scale, 64 * np.finfo(float).smallest_subnormal))
        np.testing.assert_allclose(grid.element_measures, measures, rtol=1e-13)
        # row for row, which pins the element order
        np.testing.assert_array_equal(element_means(field), values[conn].mean(axis=1))
        np.testing.assert_array_equal(grid.element_centroids, centroids)
        np.testing.assert_array_equal(grid.interior_element_mask(depth),
                                      grid.interior_depth_mask(depth)[conn].all(axis=1))
        for e in range(len(conn)):
            np.testing.assert_array_equal(p1_gradient(field, e), grads[e])
        for e in (len(conn), -len(conn) - 1):
            with pytest.raises(IndexError):
                p1_gradient(field, e)

    def test_affine_exactness_2d(self):
        g = Grid((9, 9), lower=(0.5, -0.5), extent=(2.0, 1.0))
        f = interpolate(g, lambda pts: 2.0 * pts[:, 0] - pts[:, 1] + 0.25)
        grads = element_gradients(f)
        np.testing.assert_allclose(grads[:, 0], 2.0, atol=1e-13)
        np.testing.assert_allclose(grads[:, 1], -1.0, atol=1e-13)

    def test_affine_exactness_1d(self):
        g = Grid((11,), extent=(2.0,))
        f = interpolate(g, lambda pts: pts[:, 0])
        np.testing.assert_allclose(element_gradients(f)[:, 0], 1.0, atol=1e-14)

    def test_constant_field_zero_gradient(self):
        g = Grid((6, 6))
        f = NodalField(g, np.full(g.n_nodes, 3.7))
        assert np.max(np.abs(element_gradients(f))) == 0.0

    def test_single_element_gradient(self):
        g = Grid((4, 4))
        f = interpolate(g, lambda pts: pts[:, 0] + 3.0 * pts[:, 1])
        np.testing.assert_allclose(p1_gradient(f, 5), [1.0, 3.0], atol=1e-13)

    def test_invalid_field(self):
        g = Grid((4, 4))
        with pytest.raises(InvalidField):
            NodalField(g, np.zeros(5))
        bad = np.zeros(g.n_nodes)
        bad[3] = np.nan
        with pytest.raises(InvalidField):
            NodalField(g, bad)

    def test_interpolate_constant(self):
        g = Grid((5, 5))
        f = interpolate(g, lambda pts: np.full(pts.shape[0], 2.5))
        np.testing.assert_array_equal(f.values, 2.5)

    def test_interpolate_radial_off_origin(self):
        g = Grid((9, 9), lower=(1.0, 1.0), extent=(1.0, 1.0))
        f = interpolate(g, lambda pts: np.linalg.norm(pts, axis=1) ** 0.5)
        assert np.all(f.values > 0.0)

    def test_boundary_data(self):
        g = Grid((5, 5))
        bd = BoundaryData.constant(2.0)
        np.testing.assert_allclose(bd.values_on(g), 2.0)
        vals = BoundaryData.from_values(np.arange(len(g.boundary_idx), dtype=float))
        assert vals.values_on(g)[3] == 3.0
        with pytest.raises(InvalidField):
            BoundaryData.from_values(np.zeros(3)).values_on(g)


# signed zeros, subnormals, the smallest normal, and values near overflow
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                  1e300, -1e300, 1.7976931348623157e308]


@st.composite
def field_files(draw):
    """A field on a 1D or 2D grid with a drawn lower corner and extent, its
    values drawn from all finite doubles and SPECIAL_VALUES, with the
    special values always present (written from a drawn position on)."""
    shape = draw(st.sampled_from([(draw(st.integers(3, 12)),),
                                  (draw(st.integers(3, 6)), draw(st.integers(3, 6)))]))
    grid = Grid(shape, lower=[draw(st.floats(-1e6, 1e6)) for _ in shape],
                extent=[draw(st.floats(1e-6, 1e6)) for _ in shape])
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(hnp.arrays(float, grid.n_nodes, elements=st.one_of(st.sampled_from(SPECIAL_VALUES), finite)))
    start = draw(st.integers(0, grid.n_nodes - 1))
    k = min(len(SPECIAL_VALUES), grid.n_nodes - start)
    values[start:start + k] = SPECIAL_VALUES[:k]
    return NodalField(grid, values)


def write_v1(field, path):
    """A ``DPFIELD v1`` text file, as the v1 writer wrote it: per axis the
    lower and upper end to 17 significant digits, then one ``%.16e`` value
    per line."""
    grid = field.grid
    bounds = " ".join(format(x, ".17g") for pair in zip(grid.lower, grid.upper) for x in pair)
    lines = ["DPFIELD v1", " ".join(map(str, (grid.dim,) + grid.shape)), bounds]
    path.write_text("\n".join(lines + [format(v, ".16e") for v in field.values]) + "\n")


def write_v2(path, dims, bounds, payload):
    """A ``DPFIELD v2`` file from its raw header lines and payload bytes."""
    path.write_bytes(f"DPFIELD v2\n{dims}\n{bounds}\n".encode("ascii") + payload)


# headers that parse but that Grid rejects: (dimension line, v1 interval
# line, v2 lower/extent line, Grid's complaint)
GRID_REJECTS = [
    ("1 2", "0 1", f"{0.0.hex()} {1.0.hex()}", "at least 3 nodes"),
    ("1 3", "1 0", f"{1.0.hex()} {0.0.hex()}", "strictly positive"),
    ("1 3", "0 inf", f"{0.0.hex()} inf", "must be finite"),
]


@pytest.fixture(scope="class")
def field_dir(tmp_path_factory):
    """One directory for all examples of a property test."""
    return tmp_path_factory.mktemp("fields")


class TestSerialization:
    @settings(max_examples=200)
    @given(field_files())
    def test_round_trip_is_bit_identical(self, field_dir, field):
        path = field_dir / "field"
        grid = field.grid
        for writer in (write_field, write_v1):
            writer(field, path)
            back = read_field(path)
            assert back.grid.shape == grid.shape
            # bit patterns, so that -0.0 and 0.0 differ
            np.testing.assert_array_equal(back.values.view(np.uint64), field.values.view(np.uint64))
            np.testing.assert_array_equal(back.grid.lower.view(np.uint64), grid.lower.view(np.uint64))
            np.testing.assert_array_equal(back.grid.upper.view(np.uint64), grid.upper.view(np.uint64))
            np.testing.assert_array_equal(back.grid.coords, grid.coords)
            assert back.grid.compatible_with(grid)
            if writer is write_field:
                # only v2 stores the extent; v1 gives back upper - lower
                np.testing.assert_array_equal(back.grid.extent.view(np.uint64), grid.extent.view(np.uint64))

    def test_extent_round_trips_bitwise(self, tmp_path):
        grid = Grid((3,), lower=(0.1,), extent=(0.2,))
        write_field(NodalField(grid, np.zeros(3)), tmp_path / "field.txt")
        assert read_field(tmp_path / "field.txt").grid.extent[0] == grid.extent[0]

    def test_round_trip_bitwise(self, tmp_path):
        g = Grid((7, 5), lower=(-1.0, 2.0), extent=(3.0, 0.7))
        rng = np.random.default_rng(2)
        f = NodalField(g, rng.normal(size=g.n_nodes) * 1e3)
        path = tmp_path / "field.txt"
        write_field(f, path)
        back = read_field(path)
        assert back.grid.shape == g.shape
        np.testing.assert_allclose(back.grid.lower, g.lower, atol=1e-16)
        np.testing.assert_array_equal(back.values, f.values)

    def test_round_trip_1d(self, tmp_path):
        g = Grid((9,), lower=(0.25,), extent=(2.0,))
        f = NodalField(g, np.linspace(-1, 1, 9))
        path = tmp_path / "field.txt"
        write_field(f, path)
        np.testing.assert_array_equal(read_field(path).values, f.values)

    def test_v2_layout(self, tmp_path):
        g = Grid((3, 4), lower=(0.1, -2.0), extent=(0.2, 3.0))
        f = NodalField(g, np.arange(12.0) - 5.5)
        write_field(f, tmp_path / "f")
        head = b"DPFIELD v2\n2 3 4\n0x1.999999999999ap-4 0x1.999999999999ap-3 -0x1.0000000000000p+1 0x1.8000000000000p+1\n"
        assert (tmp_path / "f").read_bytes() == head + f.values.astype("<f8").tobytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(MalformedHeader):
            read_field(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOTAFIELD\n1 5\n0 1\n0\n0\n0\n0\n0\n")
        with pytest.raises(MalformedHeader):
            read_field(path)

    @pytest.mark.parametrize("dims, v1_bounds, v2_bounds, complaint", GRID_REJECTS)
    def test_header_grid_rejects_are_malformed_headers(self, tmp_path, dims, v1_bounds, v2_bounds, complaint):
        n = int(dims.split()[1])
        (tmp_path / "v1").write_text(f"DPFIELD v1\n{dims}\n{v1_bounds}\n" + "0\n" * n)
        write_v2(tmp_path / "v2", dims, v2_bounds, np.zeros(n).tobytes())
        for version in ("v1", "v2"):
            with pytest.raises(MalformedHeader, match=complaint) as info:
                read_field(tmp_path / version)
            assert isinstance(info.value.__cause__, ValueError)

    def test_truncated_values(self, tmp_path):
        g = Grid((5,))
        f = NodalField(g, np.ones(5))
        path = tmp_path / "f.txt"
        write_v1(f, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CountMismatch):
            read_field(path)

    def test_body_matches_per_value_format(self, tmp_path):
        # the v1 body is one %.16e value per line, which reads back bit for bit
        g = Grid((len(SPECIAL_VALUES),))
        write_v1(NodalField(g, SPECIAL_VALUES), tmp_path / "f.txt")
        body = (tmp_path / "f.txt").read_text().split("\n")[3:]
        assert body == [format(v, ".16e") for v in SPECIAL_VALUES] + [""]
        back = read_field(tmp_path / "f.txt").values
        np.testing.assert_array_equal(back.view(np.uint64), np.array(SPECIAL_VALUES).view(np.uint64))

    def test_two_numbers_on_a_line(self, tmp_path):
        path = tmp_path / "f.txt"
        write_v1(NodalField(Grid((5,)), np.ones(5)), path)
        lines = path.read_text().splitlines()
        lines[4] = "1.0 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidField):
            read_field(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "f.txt"
        f = NodalField(Grid((5,)), np.arange(5.0) - 2.0)
        write_v1(f, path)
        path.write_text("\n\n".join(path.read_text().splitlines()) + "\n\n  \n")
        np.testing.assert_array_equal(read_field(path).values, f.values)

    def test_non_finite_value(self, tmp_path):
        g = Grid((5,))
        f = NodalField(g, np.ones(5))
        path = tmp_path / "f.txt"
        write_v1(f, path)
        lines = path.read_text().splitlines()
        lines[4] = "nan"  # second value line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidField):
            read_field(path)

    @pytest.mark.parametrize("cut", [-8, -1, 1, 8])
    def test_v2_payload_length_mismatch(self, tmp_path, cut):
        path = tmp_path / "f"
        write_field(NodalField(Grid((5,)), np.ones(5)), path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
        with pytest.raises(CountMismatch):
            read_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_v2_non_finite_value(self, tmp_path, bad):
        values = np.ones(5)
        values[2] = bad
        write_v2(tmp_path / "f", "1 5", f"{0.0.hex()} {1.0.hex()}", values.astype("<f8").tobytes())
        with pytest.raises(InvalidField):
            read_field(tmp_path / "f")

    @pytest.mark.parametrize("bounds", [
        f"{0.0.hex()} one",             # not hexadecimal
        f"{0.0.hex()} 0.5",             # decimal, which fromhex would read as 0x0.5
        f"{0.0.hex()}",                 # one number short
        "",                             # no numbers at all
    ])
    def test_v2_bad_extent_line(self, tmp_path, bounds):
        write_v2(tmp_path / "f", "1 3", bounds, np.zeros(3).tobytes())
        with pytest.raises(MalformedHeader):
            read_field(tmp_path / "f")

    @pytest.mark.parametrize("data", [b"DPFIELD v2\n", b"DPFIELD v2\n1 3\n", b"DPFIELD v2\n\n\n"])
    def test_v2_truncated_header(self, tmp_path, data):
        (tmp_path / "f").write_bytes(data)
        with pytest.raises(MalformedHeader):
            read_field(tmp_path / "f")

    def test_v2_payload_with_newline_bytes_round_trips(self, tmp_path):
        # every payload byte is 0x0a but the sign byte of one value, so a
        # reader that splits the payload on lines fails
        values = np.frombuffer(b"\n" * 8 * 9, dtype="<f8").astype(float)
        values[4] = -values[4]
        f = NodalField(Grid((3, 3)), values)
        write_field(f, tmp_path / "f")
        assert (tmp_path / "f").read_bytes().count(b"\n") == 3 + 8 * 9 - 1
        back = read_field(tmp_path / "f")
        np.testing.assert_array_equal(back.values.view(np.uint64), values.view(np.uint64))


@st.composite
def band_cases(draw):
    """Couplings at a random set of offsets of the 3-point (1D) or 9-point
    (2D) stencil, one value per interior node and offset, on a 1D, square,
    9x4 or 4x9 grid (3 nodes per side included), so couplings to boundary
    nodes occur; symmetric storage (offsets of the lower triangle) or
    general storage, and a random active subset of the interior."""
    grid = Grid(draw(st.sampled_from([(3,), (8,), (3, 3), (6, 6), (9, 4), (4, 9)])))
    symmetric = draw(st.booleans())
    if grid.dim == 1:
        stencil = [(-1,), (1,)]
    else:
        stencil = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]
    if symmetric:
        strides = np.cumprod((1,) + grid.shape[:-1])
        stencil = [o for o in stencil if np.dot(o, strides) < 0]
    offsets = draw(st.lists(st.sampled_from(stencil), unique=True))
    n = len(grid.interior_idx)
    values = draw(hnp.arrays(float, (len(offsets), n), elements=st.floats(-1.0, 1.0)))
    active = draw(hnp.arrays(bool, n))
    return grid, offsets, values, symmetric, active


def dense_couplings(grid, offsets, values):
    """Dense interior matrix with entry [i, j] = values[k][i] where interior
    node j sits at offsets[k] from interior node i, read node by node."""
    interior = grid.interior_idx
    pos = {int(node): i for i, node in enumerate(interior)}
    shape = grid.shape + (1,) * (2 - grid.dim)
    A = np.zeros((len(interior),) * 2)
    for offset, row in zip(offsets, values):
        dx, dy = tuple(offset) + (0,) * (2 - grid.dim)
        for i, node in enumerate(interior):
            x, y = node % shape[0] + dx, node // shape[0] + dy
            if 0 <= x < shape[0] and 0 <= y < shape[1] and y * shape[0] + x in pos:
                A[i, pos[y * shape[0] + x]] += row[i]
    return A


class TestInteriorPattern:
    @settings(max_examples=150)
    @given(band_cases())
    def test_band_fill_and_solve_match_dense_oracle(self, case):
        grid, offsets, values, symmetric, active = case
        n = len(grid.interior_idx)
        off = dense_couplings(grid, offsets, values)
        if symmetric:
            off += off.T
        # a strictly diagonally dominant centre (SPD when symmetric)
        centre = 1.0 + 2.0 * np.sum(np.abs(off), axis=1)
        dense = off + np.diag(centre)
        pattern = InteriorPattern(grid, [(0,) * grid.dim] + offsets, symmetric)
        band = pattern.fill(np.vstack([centre, values]))
        assert band.shape == ((1 if symmetric else 3) * pattern.bw + 1, n)
        assert pattern.bw <= (grid.shape[0] - 1 if grid.dim == 2 else 1)
        np.testing.assert_array_equal(dense_from_band(band, symmetric), dense)
        np.testing.assert_array_equal(band[pattern.diag_row], centre)

        # the active nodes are decoupled the way an obstacle solve needs: no
        # coupling to or from them, and a unit diagonal
        band = pattern.fill(np.vstack([centre, values]), active)
        dense[active] = dense[:, active] = 0.0
        dense[active, active] = 1.0
        np.testing.assert_array_equal(dense_from_band(band, symmetric), dense)

        # one factor serves several right-hand sides
        lu = pattern.factor(band, np.zeros(grid.n_nodes))
        free = ~active
        for rhs in (np.linspace(-1.0, 2.0, n), np.cos(np.arange(n))):
            rhs = np.where(active, 0.0, rhs)
            x = pattern.solve(lu, rhs, np.zeros(grid.n_nodes))
            expected = np.linalg.solve(dense[np.ix_(free, free)], rhs[free])
            np.testing.assert_allclose(x[free], expected, rtol=1e-12, atol=1e-12)
            assert np.all(x[active] == 0.0)

    def test_symmetric_pattern_takes_lower_offsets_only(self):
        with pytest.raises(ValueError, match="lower triangle"):
            InteriorPattern(Grid((5, 5)), [(0, 0), (1, 0)], symmetric=True)

    @pytest.mark.parametrize("symmetric, diagonal, reason", [
        (True, -1.0, "not positive definite"),
        (False, 0.0, "singular"),
        (False, 1e-310, "non-finite"),
    ])
    def test_failed_solve_carries_the_iterate(self, symmetric, diagonal, reason):
        # the factor rejects an indefinite or singular matrix; the solve
        # rejects a solution that overflows
        grid = Grid((6, 5))
        pattern = InteriorPattern(grid, [(0, 0)], symmetric)
        band = pattern.fill([np.full(len(grid.interior_idx), diagonal)])
        state = np.linspace(0.0, 1.0, grid.n_nodes)
        with pytest.raises(LinearSolveFailure, match=reason) as info:
            if reason == "non-finite":
                pattern.solve(pattern.factor(band, state), np.full(len(grid.interior_idx), 1e10), state)
            else:
                pattern.factor(band, state)
        np.testing.assert_array_equal(info.value.field.values, state)


@st.composite
def poisson_cases(draw):
    """Nodal data on a 1D, square or non-square grid whose extents differ
    per axis (so hx != hy), with a in [0, 2] and eps in [0, 2]."""
    nx = draw(st.integers(3, 9))
    shape = draw(st.sampled_from([(nx,), (nx, nx), (nx, draw(st.integers(3, 9)))]))
    grid = Grid(shape, extent=[draw(st.floats(0.25, 4.0)) for _ in shape])
    g = draw(hnp.arrays(float, grid.n_nodes, elements=st.floats(-2.0, 2.0)))
    return grid, g, draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))


class TestPoissonStart:
    @settings(max_examples=100)
    @given(poisson_cases())
    def test_matches_dense_p1_solve(self, case):
        # with no obstacle the oracle is the dense solve of the p = q = 2 P1
        # system: (1 + a) times the Laplacian scaled by prod(h), load eps prod(h)
        grid, g, a, eps = case
        b = grid.boundary_idx
        no_obstacle = np.full(grid.n_nodes, -np.inf)
        for a_, f in ((a, eps / (1.0 + a)), (0.0, eps)):
            exact = quadratic_obstacle_solution(grid.shape, grid.spacing, a_, eps, g, no_obstacle)
            u = poisson_start(grid, g[b], f)
            np.testing.assert_array_equal(u[b], g[b])
            assert np.max(np.abs(u - exact)) <= 1e-12 * (1.0 + np.max(np.abs(exact)))

    @pytest.mark.parametrize("shape, extent", [((257,), (1.0,)), ((129, 129), (1.0, 1.0)), ((17, 65), (0.25, 4.0))])
    def test_true_residual_at_scale(self, shape, extent):
        # the dense oracle above reaches 9 nodes per axis: here the 3-/5-point
        # Laplacian of the start is recomputed on large and stretched grids
        grid = Grid(shape, extent=extent)
        rng = np.random.default_rng(7)
        f = rng.uniform(-2.0, 2.0, len(grid.interior_idx))
        u = poisson_start(grid, rng.uniform(-2.0, 2.0, len(grid.boundary_idx)), f)
        U = u.reshape(grid.shape[::-1])
        inner = (slice(1, -1),) * grid.dim
        lap = np.zeros(U[inner].shape)
        for axis, h in enumerate(grid.spacing[::-1]):
            ahead, behind = list(inner), list(inner)
            ahead[axis], behind[axis] = slice(2, None), slice(None, -2)
            lap += (U[tuple(ahead)] - 2.0 * U[inner] + U[tuple(behind)]) / h ** 2
        scale = np.max(np.abs(f)) + 4.0 * np.sum(grid.spacing ** -2.0) * np.max(np.abs(u))
        assert np.max(np.abs(-lap.reshape(-1) - f)) <= 8.0 * np.finfo(float).eps * scale

    def test_overflow_raises_with_the_boundary_data(self):
        grid = Grid((9, 9))
        g = np.full(len(grid.boundary_idx), 1e306)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LinearSolveFailure, match="non-finite") as info:
            poisson_start(grid, g, 0.0)
        np.testing.assert_array_equal(info.value.field.values[grid.boundary_idx], g)
        assert np.all(info.value.field.values[grid.interior_idx] == 0.0)

    def test_makes_no_factorization(self, monkeypatch):
        def refuse(self, band, state):
            raise AssertionError("poisson_start factored a band")

        monkeypatch.setattr(InteriorPattern, "factor", refuse)
        for grid in (Grid((33,)), Grid((17, 33))):
            poisson_start(grid, np.ones(len(grid.boundary_idx)), 1.0)
