import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from memwave import (
    CouplingMatrix,
    Grid1D,
    Grid2D,
    InitialField1D,
    MemoryOrder,
    assemble_1d,
    build_basis,
    choose_slabs,
    coupling_matrix,
    lu_solve,
    residual_orthogonality,
    solve_1d,
    solve_2d,
    source_weights,
    sup_error,
)
from memwave.solver_1d import MAX_SLABS, boundary_magnitude
from memwave.sparse_linalg import laplacian, sine_eigenvalues

BENCH = dict(T=6.0, grid=Grid1D(-15.0, 15.0, 151))


class TestGrid1D:
    def test_spacing_and_points(self):
        grid = Grid1D(-15.0, 15.0, 151)
        assert grid.h == pytest.approx(0.2)
        pts = grid.points
        assert pts[0] == -15.0 and pts[-1] == 15.0
        assert np.allclose(np.diff(pts), grid.h)

    def test_symmetric_about_zero(self):
        pts = Grid1D(-10.0, 10.0, 41).points
        assert np.allclose(pts + pts[::-1], 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 11)
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 2)

    @pytest.mark.parametrize("x_min, x_max", [(-np.inf, np.inf), (-1.0, np.inf),
                                              (-np.inf, 1.0), (-1e308, 1e308)])
    def test_rejects_infinite_span(self, x_min, x_max):
        with pytest.raises(ValueError, match="finite span"):
            Grid1D(x_min, x_max, 11)


class TestInitialField1D:
    def test_gaussian(self):
        g = InitialField1D.gaussian(2.0)
        assert g.evaluate(0.0) == 1.0
        assert g.evaluate(2.0) == pytest.approx(np.exp(-1.0))

    def test_boundary_decay(self):
        g = InitialField1D.gaussian(1.0)
        assert boundary_magnitude(g.evaluate(Grid1D(-15.0, 15.0, 151).points)) < 1e-12
        assert boundary_magnitude(g.evaluate(Grid1D(-3.0, 3.0, 31).points)) > 1e-12

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            InitialField1D.gaussian(0.0)

    def test_pickle_round_trip(self):
        g = InitialField1D.gaussian(1.5)
        back = pickle.loads(pickle.dumps(g))
        x = np.linspace(-4.0, 4.0, 17)
        assert back.label == g.label
        assert np.array_equal(back.evaluate(x), g.evaluate(x))


class TestAssemble1D:
    def test_zero_coupling_gives_identity(self):
        coupling = CouplingMatrix(np.zeros((1, 1)))
        basis = build_basis(1.0, 1)
        weights = source_weights(basis)
        grid = Grid1D(-6.0, 6.0, 3)
        g = InitialField1D.gaussian(1.0)
        system = assemble_1d(coupling, weights, g, grid)
        assert np.allclose(system.matrix.csr.toarray(), np.eye(3))
        assert np.allclose(system.rhs, weights.weights[0] * g.evaluate(grid.points))

    def test_unit_coupling_block(self):
        coupling = CouplingMatrix(np.ones((1, 1)))
        weights = source_weights(build_basis(1.0, 1))
        grid = Grid1D(0.0, 2.0, 3)  # h = 1
        system = assemble_1d(coupling, weights, InitialField1D(rule=lambda x: 0.0 * x), grid)
        expected = np.array([[3.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 3.0]])
        assert np.allclose(system.matrix.csr.toarray(), expected)

    def test_nonzero_count(self):
        basis = build_basis(1.0, 2)
        coupling = coupling_matrix(basis, MemoryOrder(1.5))
        system = assemble_1d(
            coupling, source_weights(basis), InitialField1D.gaussian(1.0), Grid1D(-6.0, 6.0, 3)
        )
        n, m = 2, 3
        assert system.matrix.nnz == n * n * (3 * m - 2)

    def test_size_mismatch(self):
        coupling = CouplingMatrix(np.zeros((2, 2)))
        weights = source_weights(build_basis(1.0, 3))
        with pytest.raises(ValueError):
            assemble_1d(coupling, weights, InitialField1D.gaussian(1.0), Grid1D(-6.0, 6.0, 5))

    def test_rejects_g_not_shaped_like_the_grid(self):
        # a 2D rule that ignores y must not pass for a consistent 1D system
        basis = build_basis(1.0, 2)
        args = (coupling_matrix(basis, MemoryOrder(1.5)), source_weights(basis))
        g = InitialField1D(rule=lambda x, y: np.zeros(len(x)))
        with pytest.raises(ValueError, match=r"g gave shape \(5,\) on a grid of shape \(5, 5\)"):
            assemble_1d(*args, g, Grid2D(-6.0, 6.0, 5))
        with pytest.raises(ValueError, match="grid of shape"):
            solve_2d(MemoryOrder(1.5), 1.0, 2, Grid2D(-6.0, 6.0, 5), g)

    def test_nnz_cap(self, monkeypatch):
        # the assembly's one cap holds in 1D too: n = 2, m = 5 predicts 4 (3m - 2) = 52
        basis = build_basis(1.0, 2)
        args = (coupling_matrix(basis, MemoryOrder(1.5)), source_weights(basis),
                InitialField1D.gaussian(1.0), Grid1D(-6.0, 6.0, 5))
        monkeypatch.setattr("memwave.sparse_linalg.MAX_NNZ", 51)
        with pytest.raises(ValueError, match="predicted nnz 52 exceeds the cap 51"):
            assemble_1d(*args)
        monkeypatch.setattr("memwave.sparse_linalg.MAX_NNZ", 52)
        assert assemble_1d(*args).matrix.nnz == 52

    def test_nnz_cap_checked_before_the_slab_choice(self, monkeypatch):
        # a grid too large to assemble is refused as soon as its Laplacian is built
        def no_slabs(*args, **kwargs):
            raise AssertionError("choose_slabs ran before the nnz cap check")

        monkeypatch.setattr("memwave.solver_1d.choose_slabs", no_slabs)
        monkeypatch.setattr("memwave.sparse_linalg.MAX_NNZ", 51)
        with pytest.raises(ValueError, match="predicted nnz 52 exceeds the cap 51"):
            solve_1d(MemoryOrder(1.5), 1.0, 2, Grid1D(-6.0, 6.0, 5), InitialField1D.gaussian(1.0))


class TestSolve1D:
    def test_boundary_warning(self):
        g = InitialField1D.gaussian(1.0)
        with pytest.warns(UserWarning):
            solve_1d(MemoryOrder(1.0), 1.0, 2, Grid1D(-3.0, 3.0, 31), g)

    def test_reconstruct_shape_and_report(self):
        field = solve_1d(MemoryOrder(1.5), **BENCH, n=4, g=InitialField1D.gaussian(1.0))
        out = field.reconstruct(3.0)
        assert out.shape == (151,)
        assert field.report.converged
        assert field.report.method == "direct"

    def test_iterative_matches_direct(self):
        g = InitialField1D.gaussian(1.0)
        kw = dict(order=MemoryOrder(1.5), T=6.0, n=4, grid=Grid1D(-15.0, 15.0, 61), g=g)
        f_direct = solve_1d(method="direct", **kw)
        f_iter = solve_1d(method="bicg", tol=1e-12, **kw)
        assert f_iter.report.method == "bicg+precond"
        assert np.max(np.abs(f_direct.coefficients - f_iter.coefficients)) < 1e-8

    def test_grid_dimension_is_checked(self):
        # solve_1d on a Grid2D would skip solve_2d's nnz pre-check; solve_2d on a
        # Grid1D would return a 2D field holding a 1D solution
        order, g = MemoryOrder(1.5), InitialField1D.gaussian(1.0)
        with pytest.raises(ValueError, match="solve_1d needs a 1D grid, got Grid2D"):
            solve_1d(order, 1.0, 2, Grid2D(-6.0, 6.0, 5), g)
        with pytest.raises(ValueError, match="solve_2d needs a Grid2D, got Grid1D"):
            solve_2d(order, 1.0, 2, Grid1D(-6.0, 6.0, 5), g)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_1d(MemoryOrder(1.0), 1.0, 2, Grid1D(-15.0, 15.0, 31), InitialField1D.gaussian(1.0),
                     method="cg")

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_residual_orthogonality(self, alpha):
        field = solve_1d(MemoryOrder(alpha), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert residual_orthogonality(field) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_mass_conservation(self, alpha):
        g = InitialField1D.gaussian(1.0)
        field = solve_1d(MemoryOrder(alpha), **BENCH, n=8, g=g)
        h = field.grid.h
        mass_T = h * field.reconstruct(6.0).sum()
        mass_0 = h * g.evaluate(field.grid.points).sum()
        assert abs(mass_T - mass_0) <= 1e-3

    def test_reflection_symmetry(self):
        field = solve_1d(MemoryOrder(1.5), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        c = field.coefficients
        assert np.max(np.abs(c - c[:, ::-1])) < 1e-9

    def test_linearity_in_initial_data(self):
        g1 = InitialField1D.gaussian(1.0)
        g3 = InitialField1D(rule=lambda x: 3.0 * np.exp(-x**2), label="3g")
        f1 = solve_1d(MemoryOrder(1.5), **BENCH, n=6, g=g1)
        f3 = solve_1d(MemoryOrder(1.5), **BENCH, n=6, g=g3)
        rel = np.max(np.abs(f3.coefficients - 3.0 * f1.coefficients)) / np.max(
            np.abs(3.0 * f1.coefficients)
        )
        assert rel <= 1e-12

    def test_refinement_toward_self_reference(self):
        # errors against the n=32 solution decrease monotonically as n doubles
        g = InitialField1D.gaussian(1.0)
        ref = solve_1d(MemoryOrder(1.5), **BENCH, n=32, g=g).reconstruct(6.0)
        errs = []
        for n in (4, 8, 16):
            field = solve_1d(MemoryOrder(1.5), **BENCH, n=n, g=g)
            errs.append(sup_error(field, 6.0, ref))
        assert errs[1] <= 1.1 * errs[0]
        assert errs[2] <= 1.1 * errs[1]


class TestSlabs:
    def test_sine_transform_diagonalizes_the_stencils(self):
        from scipy.fft import dstn

        def sine_transform(x):
            return dstn(x, type=1, norm="ortho")

        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(7)
        lam1 = sine_eigenvalues((7,), 0.5)
        assert np.allclose(sine_transform(laplacian((7,), 0.5) @ x1), lam1 * sine_transform(x1))
        assert np.allclose(sine_transform(sine_transform(x1)), x1)
        x2 = rng.standard_normal((5, 6))
        lam2 = sine_eigenvalues((5, 6), 0.5)
        L2 = sp.kron(laplacian((5,), 0.5), sp.identity(6)) + sp.kron(sp.identity(5),
                                                                     laplacian((6,), 0.5))
        assert np.allclose(sine_transform((L2 @ x2.ravel()).reshape(5, 6)),
                           lam2 * sine_transform(x2))
        assert np.allclose(np.sort(sine_eigenvalues((5, 5), 0.5).ravel()),
                           np.linalg.eigvalsh(laplacian((5, 5), 0.5).toarray()))

    def test_slab_count_ignores_the_scale_of_g(self):
        grid = BENCH["grid"]
        g = InitialField1D.gaussian(1.0).evaluate(grid.points)
        K1, drift1, _ = choose_slabs(MemoryOrder(1.0), 6.0, 8, g, grid.h)
        K3, drift3, _ = choose_slabs(MemoryOrder(1.0), 6.0, 8, 3.0 * g, grid.h)
        assert K1 == K3 == 4
        assert drift3 == pytest.approx(3.0 * drift1, rel=1e-6)

    def test_report_records_slabs(self):
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert field.report.slabs == 4 and not field.report.slabs_capped
        assert 0.0 < field.report.time_drift <= 1e-6
        assert field.coefficients.shape == (4 * 8, 151)
        assert field.basis == build_basis(6.0, 8, slabs=4)

    def test_marching_solves_the_whole_slab_system(self):
        g = InitialField1D.gaussian(1.0)
        field = solve_1d(MemoryOrder(1.5), **BENCH, n=8, g=g)
        basis = field.basis
        assert basis.slabs > 1
        system = assemble_1d(coupling_matrix(basis, MemoryOrder(1.5)), source_weights(basis),
                             g, BENCH["grid"])
        x = lu_solve(system.matrix, system.rhs)
        assert np.max(np.abs(field.coefficients.ravel() - x)) < 1e-12
        r = system.matrix.matvec(field.coefficients.ravel()) - system.rhs
        assert np.linalg.norm(r) / np.linalg.norm(system.rhs) < 1e-13
        assert field.report.residual < 1e-13

    def test_lu_and_bicg_agree_on_four_slabs(self):
        g = InitialField1D.gaussian(1.0)
        kw = dict(order=MemoryOrder(1.0), **BENCH, n=8, g=g)
        f_direct = solve_1d(method="direct", **kw)
        f_iter = solve_1d(method="bicg", **kw)
        assert f_direct.report.slabs == f_iter.report.slabs == 4
        assert f_iter.report.method == "bicg+precond" and f_iter.report.residual <= 1e-10
        assert np.max(np.abs(f_direct.coefficients - f_iter.coefficients)) < 1e-8

    def test_one_slab_on_a_long_horizon(self):
        # n = 64 settles T = 12 on one slab; its coupling entries reach 12^2 times
        # the unit block's, and the solve must not fail the quadrature check
        from scipy.fft import dst

        from memwave import endpoint_transfer

        order, T, n, grid = MemoryOrder(2.0), 12.0, 64, Grid1D(-15.0, 15.0, 61)
        field = solve_1d(order, T, n, grid, InitialField1D.gaussian(1.0))
        assert field.report.slabs == 1 and field.report.residual <= 1e-10
        g = InitialField1D.gaussian(1.0).evaluate(grid.points)
        lam = sine_eigenvalues(g.shape, grid.h)
        g_hat = dst(g, type=1, norm="ortho")
        expected = dst(endpoint_transfer(build_basis(T, n), order, lam) * g_hat,
                       type=1, norm="ortho")
        assert np.max(np.abs(field.reconstruct(T) - expected)) <= 1e-10 * np.max(np.abs(g))

    def test_capped_slab_count_warns_once(self):
        # two functions per slab cannot settle the solution at T to 1e-6
        with pytest.warns(UserWarning, match="capped") as caught:
            field = solve_1d(MemoryOrder(1.0), 1.0, 2, Grid1D(-15.0, 15.0, 31),
                             InitialField1D.gaussian(1.0))
        assert sum("capped" in str(w.message) for w in caught) == 1
        assert field.report.slabs == MAX_SLABS and field.report.slabs_capped
        assert field.report.time_drift > 1e-6


class TestSupError:
    def test_field_against_itself(self):
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=4, g=InitialField1D.gaussian(1.0))
        assert sup_error(field, 6.0, field.reconstruct(6.0)) == 0.0

    def test_constant_offset(self):
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=4, g=InitialField1D.gaussian(1.0))
        vals = field.reconstruct(6.0)
        assert sup_error(field, 6.0, vals + 0.001) == pytest.approx(0.001)

    def test_grid_mismatch(self):
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=4, g=InitialField1D.gaussian(1.0))
        with pytest.raises(ValueError):
            sup_error(field, 6.0, np.zeros(77))

    def test_callable_reference(self):
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=4, g=InitialField1D.gaussian(1.0))
        peak = np.max(np.abs(field.reconstruct(0.0)))
        assert sup_error(field, 0.0, lambda x: np.zeros_like(x)) == pytest.approx(peak)
