import math
import pickle
import warnings

import numpy as np
import pytest

from memwave import (
    CouplingMatrix,
    Grid2D,
    InitialField2D,
    MemoryOrder,
    assemble_2d,
    build_basis,
    coupling_matrix,
    residual_orthogonality,
    solve_2d,
    source_weights,
    sparsity_bound,
    sup_error,
    verify_sparsity,
)
from memwave.analytic_reference import heat_solution
from memwave.solver_1d import boundary_magnitude
from memwave.sparse_linalg import laplacian


def five_point_dense(m, h, a):
    """Hand expansion of delta I + a * (5-point stencil) on an m x m grid."""
    size = m * m
    out = np.zeros((size, size))
    for ix in range(m):
        for iy in range(m):
            row = ix * m + iy
            out[row, row] = 4.0 * a / h**2
            for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
                if 0 <= jx < m and 0 <= jy < m:
                    out[row, jx * m + jy] = -a / h**2
    return out


class TestGrid2D:
    def test_spacing_and_mesh(self):
        grid = Grid2D(-15.0, 15.0, 101)
        assert grid.h == pytest.approx(0.3)
        X, Y = grid.mesh()
        assert X.shape == (101, 101)
        assert X[3, 0] == grid.points[3] and Y[0, 3] == grid.points[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(0.0, 0.0, 11)
        with pytest.raises(ValueError):
            Grid2D(-1.0, 1.0, 2)

    @pytest.mark.parametrize("x_min, x_max", [(-np.inf, np.inf), (-1e308, 1e308)])
    def test_rejects_infinite_span(self, x_min, x_max):
        with pytest.raises(ValueError, match="finite span"):
            Grid2D(x_min, x_max, 11)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_nearest_index_refuses_a_non_finite_y(self, y):
        # nan and +inf once both picked row 0, the x_min row
        grid = Grid2D(-6.0, 6.0, 9)
        with pytest.raises(ValueError, match="y must be finite"):
            grid.nearest_index(y)
        field = solve_2d(MemoryOrder(1.0), 1.0, 4, grid, InitialField2D.radial_gaussian(1.0))
        with pytest.raises(ValueError, match="y must be finite"):
            field.section(1.0, y)


class TestInitialField2D:
    def test_radial(self):
        g = InitialField2D.radial_gaussian(2.0)
        assert g.evaluate(0.0, 0.0) == 1.0
        assert g.evaluate(2.0, 0.0) == pytest.approx(np.exp(-1.0))

    def test_inherited_gaussian_is_radial(self):
        # InitialField2D subclasses InitialField1D, so its gaussian constructor must work in 2D
        X, Y = Grid2D(-6.0, 6.0, 13).mesh()
        assert np.allclose(InitialField2D.gaussian(2.0).evaluate(X, Y),
                           np.exp(-(X**2 + Y**2) / 4.0), rtol=1e-15, atol=0)

    def test_anisotropic_symmetry_axis(self):
        g = InitialField2D.anisotropic_gaussian(4.0, 2.0)
        pts = np.linspace(-3, 3, 7)
        for x in pts:
            for y in pts:
                assert g.evaluate(x, y) == pytest.approx(g.evaluate(y, x))

    def test_boundary_decay(self):
        g = InitialField2D.radial_gaussian(2.0)
        assert boundary_magnitude(g.evaluate(*Grid2D(-15.0, 15.0, 31).mesh())) < 1e-12
        assert boundary_magnitude(g.evaluate(*Grid2D(-3.0, 3.0, 11).mesh())) > 1e-12

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            InitialField2D.radial_gaussian(0.0)
        with pytest.raises(ValueError):
            InitialField2D.anisotropic_gaussian(1.0, -2.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 1e160, 1e300, 1e-160, 1e-300])
    def test_rejects_widths_without_a_finite_normal_square(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            InitialField2D.radial_gaussian(sigma)
        with pytest.raises(ValueError, match="sigma1 must be positive"):
            InitialField2D.anisotropic_gaussian(sigma, 1.0)
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            InitialField2D.anisotropic_gaussian(1.0, sigma)

    @pytest.mark.parametrize("sigma", [1.5e-154, 1e-8, 2.0, 1e154])
    def test_extreme_accepted_widths_stay_finite_and_exact(self, sigma):
        X, Y = Grid2D(-15.0, 15.0, 31).mesh()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            radial = InitialField2D.radial_gaussian(sigma).evaluate(X, Y)
            rotated = InitialField2D.anisotropic_gaussian(sigma, 2.0).evaluate(X, Y)
        assert np.all(np.isfinite(radial)) and np.all(np.isfinite(rotated))
        with np.errstate(over="ignore"):
            assert np.array_equal(radial, np.exp(-(X**2 + Y**2) / sigma**2))
            assert np.array_equal(rotated, np.exp(-((X + Y) ** 2) / sigma**2
                                                  - (X - Y) ** 2 / 2.0**2))

    @pytest.mark.parametrize("g", [InitialField2D.radial_gaussian(2.0),
                                   InitialField2D.anisotropic_gaussian(3.0, 1.5)])
    def test_pickle_round_trip(self, g):
        back = pickle.loads(pickle.dumps(g))
        X, Y = Grid2D(-5.0, 5.0, 9).mesh()
        assert back.label == g.label
        assert np.array_equal(back.evaluate(X, Y), g.evaluate(X, Y))


class TestAssemble2D:
    def test_zero_coupling_gives_identity(self):
        coupling = CouplingMatrix(np.zeros((1, 1)))
        weights = source_weights(build_basis(1.0, 1))
        grid = Grid2D(-6.0, 6.0, 5)
        g = InitialField2D.radial_gaussian(1.0)
        system = assemble_2d(coupling, weights, g, grid)
        assert np.allclose(system.matrix.csr.toarray(), np.eye(25))
        X, Y = grid.mesh()
        assert np.allclose(system.rhs, weights.weights[0] * g.evaluate(X, Y).ravel())

    def test_unit_coupling_five_point(self):
        coupling = CouplingMatrix(np.ones((1, 1)))
        weights = source_weights(build_basis(1.0, 1))
        grid = Grid2D(0.0, 2.0, 3)  # h = 1
        g = InitialField2D(rule=lambda x, y: 0.0 * x)
        system = assemble_2d(coupling, weights, g, grid)
        expected = np.eye(9) + five_point_dense(3, 1.0, 1.0)
        assert np.allclose(system.matrix.csr.toarray(), expected)

    def test_block_structure_audit(self):
        # every extracted outer block must equal delta_jk I + a_jk * stencil
        n, m = 4, 10
        basis = build_basis(6.0, n)
        coupling = coupling_matrix(basis, MemoryOrder(1.5))
        grid = Grid2D(-15.0, 15.0, m)
        g = InitialField2D.radial_gaussian(2.0)
        system = assemble_2d(coupling, source_weights(basis), g, grid)
        dense = system.matrix.csr.toarray()
        rng = np.random.default_rng(11)
        for j, k in rng.integers(0, n, size=(8, 2)):
            block = dense[j * m * m : (j + 1) * m * m, k * m * m : (k + 1) * m * m]
            expected = five_point_dense(m, grid.h, coupling.entries[j, k])
            if j == k:
                expected += np.eye(m * m)
            assert np.allclose(block, expected, atol=1e-13)

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr("memwave.sparse_linalg.MAX_NNZ", 1000)
        basis = build_basis(1.0, 2)
        coupling = coupling_matrix(basis, MemoryOrder(1.5))
        with pytest.raises(ValueError):
            assemble_2d(coupling, source_weights(basis),
                        InitialField2D.radial_gaussian(1.0), Grid2D(-6.0, 6.0, 50))

    def test_vector_layout_matches_mesh_ravel(self):
        # rhs ordering: basis index outermost, then x, then y
        basis = build_basis(1.0, 2)
        coupling = coupling_matrix(basis, MemoryOrder(1.5))
        weights = source_weights(basis)
        grid = Grid2D(-6.0, 6.0, 4)
        g = InitialField2D(rule=lambda x, y: x + 10.0 * y)
        system = assemble_2d(coupling, weights, g, grid)
        X, Y = grid.mesh()
        flat = g.evaluate(X, Y).ravel()
        assert np.allclose(system.rhs[: 16], weights.weights[0] * flat)
        assert np.allclose(system.rhs[16:], weights.weights[1] * flat)


class TestSparsity:
    def test_minimal_grid_bound(self):
        assert sparsity_bound(1, 3) == 33
        coupling = CouplingMatrix(np.ones((1, 1)))
        weights = source_weights(build_basis(1.0, 1))
        system = assemble_2d(coupling, weights, InitialField2D(rule=lambda x, y: 0.0 * x),
                             Grid2D(0.0, 2.0, 3))
        assert system.matrix.nnz == 33
        assert verify_sparsity(system, 1, 3)

    def test_largest_bound_value(self):
        assert sparsity_bound(16, 200) == 16 * 16 * 200 * (5 * 200 - 4) == 50_995_200

    def test_equality_defect_counts_zero_blocks(self):
        # one zero off-diagonal entry removes its whole block pattern; a zero
        # diagonal entry leaves only the identity diagonal
        m = 6
        entries = np.array([[0.3, 0.0], [0.2, 0.0]])
        coupling = CouplingMatrix(entries)
        weights = source_weights(build_basis(1.0, 2))
        system = assemble_2d(coupling, weights, InitialField2D(rule=lambda x, y: 0.0 * x),
                             Grid2D(0.0, 5.0, m))
        per_block = m * (5 * m - 4)
        expected = per_block + per_block + 0 + m * m
        assert system.matrix.nnz == expected
        assert verify_sparsity(system, 2, m)


class TestSolve2D:
    def test_heat_limit_section_matches_closed_form(self):
        # radial Gaussian under the constant kernel: section error below 5e-3
        sigma, T = 2.0, 6.0
        grid = Grid2D(-15.0, 15.0, 101)
        g = InitialField2D.radial_gaussian(sigma)
        field = solve_2d(MemoryOrder(1.0), T, 8, grid, g)
        x = grid.points
        spread = sigma**2 + 4.0 * T
        ref = sigma**2 / spread * np.exp(-(x**2) / spread)
        assert np.max(np.abs(field.section(T, 0.0) - ref)) <= 5e-3
        assert field.report.method == "bicg+precond"

    def test_wave_limit_xy_swap_symmetry(self):
        grid = Grid2D(-15.0, 15.0, 41)
        field = solve_2d(MemoryOrder(2.0), 6.0, 6, grid, InitialField2D.radial_gaussian(2.0))
        vals = field.reconstruct(6.0)
        assert np.max(np.abs(vals - vals.T)) < 1e-9

    def test_anisotropic_reflection_symmetry(self):
        grid = Grid2D(-15.0, 15.0, 41)
        g = InitialField2D.anisotropic_gaussian(4.0, 2.0)
        field = solve_2d(MemoryOrder(1.75), 6.0, 6, grid, g)
        vals = field.reconstruct(6.0)
        assert np.max(np.abs(vals - vals.T)) < 1e-9

    def test_zero_coupling_returns_projected_initial_data(self):
        # with n=1 and vanishing coupling both solvers reduce to the identity
        from memwave import Grid1D, InitialField1D, assemble_1d, lu_solve

        coupling = CouplingMatrix(np.zeros((1, 1)))
        weights = source_weights(build_basis(1.0, 1))
        g2 = InitialField2D.radial_gaussian(1.0)
        grid2 = Grid2D(-8.0, 8.0, 9)
        sys2 = assemble_2d(coupling, weights, g2, grid2)
        x2 = lu_solve(sys2.matrix, sys2.rhs)
        assert np.allclose(x2, sys2.rhs)
        g1 = InitialField1D.gaussian(1.0)
        grid1 = Grid1D(-8.0, 8.0, 9)
        sys1 = assemble_1d(coupling, weights, g1, grid1)
        assert np.allclose(lu_solve(sys1.matrix, sys1.rhs), sys1.rhs)

    def test_boundary_warning(self):
        # one warning, attributed to the caller of solve_2d
        g = InitialField2D.radial_gaussian(2.0)
        with pytest.warns(UserWarning, match="grid boundary") as record:
            solve_2d(MemoryOrder(1.0), 1.0, 2, Grid2D(-3.0, 3.0, 11), g)
        edge = [w for w in record if "grid boundary" in str(w.message)]
        assert len(edge) == 1
        assert edge[0].filename == __file__

    def test_direct_and_iterative_agree(self):
        grid = Grid2D(-15.0, 15.0, 20)
        g = InitialField2D.radial_gaussian(2.0)
        kw = dict(order=MemoryOrder(1.5), T=6.0, n=4, grid=grid, g=g)
        f_direct = solve_2d(method="direct", **kw)
        f_iter = solve_2d(method="bicg", tol=1e-12, **kw)
        assert np.max(np.abs(f_direct.coefficients - f_iter.coefficients)) < 1e-8

    def test_mass_conservation(self):
        grid = Grid2D(-15.0, 15.0, 41)
        g = InitialField2D.radial_gaussian(2.0)
        field = solve_2d(MemoryOrder(1.5), 6.0, 8, grid, g)
        X, Y = grid.mesh()
        h2 = grid.h**2
        mass_T = h2 * field.reconstruct(6.0).sum()
        mass_0 = h2 * g.evaluate(X, Y).sum()
        assert abs(mass_T - mass_0) <= 5e-3 * abs(mass_0)

    def test_nnz_cap_checked_before_any_work(self, monkeypatch):
        # the cap guards memory, so it must refuse before the mesh, the Laplacian and
        # the slab choice
        def no_slabs(*args, **kwargs):
            raise AssertionError("choose_slabs ran before the nnz cap check")

        def no_laplacian(*args, **kwargs):
            raise AssertionError("the Laplacian was built before the nnz cap check")

        monkeypatch.setattr("memwave.solver_1d.choose_slabs", no_slabs)
        monkeypatch.setattr("memwave.solver_1d.laplacian", no_laplacian)
        monkeypatch.setattr("memwave.sparse_linalg.MAX_NNZ", 1000)
        with pytest.raises(ValueError, match="exceeds the cap 1000"):
            solve_2d(MemoryOrder(1.5), 6.0, 8, Grid2D(-15.0, 15.0, 50),
                     InitialField2D.radial_gaussian(2.0))

    @pytest.mark.parametrize("n, m", [(4, 21), (8, 25)])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_residual_orthogonality(self, alpha, n, m):
        field = solve_2d(MemoryOrder(alpha), 1.0, n, Grid2D(-15.0, 15.0, m),
                         InitialField2D.radial_gaussian(2.0))
        assert residual_orthogonality(field) <= 1e-12

    def test_sup_error_calls_the_reference_on_the_mesh(self):
        # the 2D heat flow of a radial Gaussian is the product of two 1D flows
        grid = Grid2D(-15.0, 15.0, 41)
        field = solve_2d(MemoryOrder(1.0), 6.0, 8, grid, InitialField2D.radial_gaussian(2.0))
        X, Y = grid.mesh()
        oracle = heat_solution(X, 6.0, 2.0) * heat_solution(Y, 6.0, 2.0)
        err = sup_error(field, 6.0,
                        lambda x, y: heat_solution(x, 6.0, 2.0) * heat_solution(y, 6.0, 2.0))
        assert err == sup_error(field, 6.0, oracle)
        assert err < 1e-2 * np.max(oracle)  # the spatial error of h = 0.75

    def test_section_picks_nearest_row(self):
        grid = Grid2D(-6.0, 6.0, 13)
        g = InitialField2D.radial_gaussian(1.0)
        field = solve_2d(MemoryOrder(1.0), 1.0, 2, grid, g)
        vals = field.reconstruct(1.0)
        assert np.array_equal(field.section(1.0, 0.0), vals[:, 6])


def test_laplacian_2d_row_sums():
    # interior rows sum to zero; boundary rows leak through the ghost closure
    L = laplacian((5, 5), 0.5).toarray()
    sums = L.sum(axis=1).reshape(5, 5)
    assert np.allclose(sums[1:-1, 1:-1], 0.0)
    assert sums[0, 0] > 0
