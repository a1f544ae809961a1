import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import dense_from_band

from doublephase.errors import CountMismatch, InvalidField, LinearSolveFailure, MalformedHeader
from doublephase.grids import (
    BoundaryData,
    Grid,
    InteriorPattern,
    NodalField,
    element_gradients,
    interpolate,
    p1_gradient,
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


class TestFieldsAndGradients:
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


class TestSerialization:
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

    def test_truncated_values(self, tmp_path):
        g = Grid((5,))
        f = NodalField(g, np.ones(5))
        path = tmp_path / "f.txt"
        write_field(f, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CountMismatch):
            read_field(path)

    def test_non_finite_value(self, tmp_path):
        g = Grid((5,))
        f = NodalField(g, np.ones(5))
        path = tmp_path / "f.txt"
        write_field(f, path)
        lines = path.read_text().splitlines()
        lines[4] = "nan"  # second value line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidField):
            read_field(path)


@st.composite
def band_cases(draw):
    """(row, col, value) triples between stencil neighbours on a 1D, square,
    9x4 or 4x9 grid (3 nodes per side included), boundary pairs among
    them, with symmetric or general storage and a random active subset of
    the interior."""
    grid = Grid(draw(st.sampled_from([(3,), (8,), (3, 3), (6, 6), (9, 4), (4, 9)])))
    nx = grid.shape[0]
    if grid.dim == 1:
        offsets = [-1, 0, 1]
    else:
        offsets = [dy * nx + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    count = draw(st.integers(0, 60))
    rows = draw(hnp.arrays(int, count, elements=st.integers(0, grid.n_nodes - 1)))
    cols = rows + draw(hnp.arrays(int, count, elements=st.sampled_from(offsets)))
    inside = (cols >= 0) & (cols < grid.n_nodes)
    values = draw(hnp.arrays(float, count, elements=st.floats(-1.0, 1.0)))
    symmetric = draw(st.booleans())
    active = draw(hnp.arrays(bool, len(grid.interior_idx)))
    return grid, rows[inside], cols[inside], values[inside], symmetric, active


class TestInteriorPattern:
    @settings(max_examples=150, deadline=None)
    @given(band_cases())
    def test_band_fill_and_solve_match_dense_oracle(self, case):
        grid, rows, cols, values, symmetric, active = case
        interior = grid.interior_idx
        n = len(interior)
        pos = np.full(grid.n_nodes, -1)
        pos[interior] = np.arange(n)
        if symmetric:
            rows, cols, values = np.r_[rows, cols], np.r_[cols, rows], np.r_[values, values]
        # decouple the active nodes the way an obstacle solve does: no
        # coupling to or from them, and a unit diagonal
        on = np.zeros(grid.n_nodes, dtype=bool)
        on[interior[active]] = True
        values = np.where(on[rows] | on[cols], 0.0, values)
        # then make the matrix strictly diagonally dominant (SPD when symmetric)
        off = np.zeros((n, n))
        both = (pos[rows] >= 0) & (pos[cols] >= 0)
        np.add.at(off, (pos[rows][both], pos[cols][both]), values[both])
        diag = np.where(active, 1.0, 1.0 + 2.0 * np.sum(np.abs(off), axis=1))
        rows, cols, values = np.r_[rows, interior], np.r_[cols, interior], np.r_[values, diag]

        dense = off + np.diag(diag)
        pattern = InteriorPattern(grid, rows, cols, symmetric)
        band = pattern.fill(values)
        assert band.shape == ((1 if symmetric else 3) * pattern.bw + 1, n)
        assert pattern.bw <= (grid.shape[0] - 1 if grid.dim == 2 else 1)
        np.testing.assert_allclose(dense_from_band(band, symmetric), dense, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(pattern.diagonal(band), np.diag(dense), rtol=0.0, atol=1e-14)

        rhs = np.where(active, 0.0, np.linspace(-1.0, 2.0, n))
        x = pattern.solve(band, rhs, np.zeros(grid.n_nodes))
        free = ~active
        expected = np.linalg.solve(dense[np.ix_(free, free)], rhs[free])
        np.testing.assert_allclose(x[free], expected, rtol=1e-12, atol=1e-12)
        assert np.all(x[active] == 0.0)

    @pytest.mark.parametrize("symmetric, diagonal, reason", [
        (True, -1.0, "not positive definite"),
        (False, 0.0, "singular"),
        (False, 1e-310, "non-finite"),
    ])
    def test_failed_solve_carries_the_iterate(self, symmetric, diagonal, reason):
        grid = Grid((6, 5))
        interior = grid.interior_idx
        pattern = InteriorPattern(grid, interior, interior, symmetric)
        band = pattern.fill(np.full(len(interior), diagonal))
        state = np.linspace(0.0, 1.0, grid.n_nodes)
        with pytest.raises(LinearSolveFailure, match=reason) as info:
            pattern.solve(band, np.full(len(interior), 1e10), state)
        np.testing.assert_array_equal(info.value.field.values, state)
