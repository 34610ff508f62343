import math
import pickle
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from memwave import (
    CouplingMatrix,
    EdgeWarning,
    Grid1D,
    Grid2D,
    InitialField1D,
    InitialField2D,
    MemoryOrder,
    SingularMatrixError,
    SolverConvergenceError,
    assemble_1d,
    assemble_2d,
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
from memwave import sample, solver_1d, sparse_linalg
from memwave.solver_1d import MAX_SLABS, boundary_magnitude
from memwave.time_basis import TIME_TOL, mode_march
from memwave.sparse_linalg import laplacian, sine_eigenvalues

BENCH = dict(T=6.0, grid=Grid1D(-15.0, 15.0, 151))


class SlabChoiceReached(Exception):
    """Raised by a stand-in for choose_slabs, to stop a solve where its slab choice would start."""


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

    @pytest.mark.parametrize("x_min, x_max, m", [(-1e160, 1e160, 21), (-1e300, 10.0, 21),
                                                 (0.0, 1e-160, 3), (0.0, 1e-300, 11)])
    def test_rejects_spacing_without_finite_square_and_reciprocal(self, x_min, x_max, m):
        # the sine eigenvalues need h^2 and the stencil 1/h^2 as finite floats
        with pytest.raises(ValueError, match="no finite h\\^2 and 1/h\\^2"):
            Grid1D(x_min, x_max, m)


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
        # past about 1e154 sigma^2 overflows; below about 1e-154 it is subnormal
        for sigma in (-1.0, math.nan, math.inf, 1e160, 1e300, 1e-160, 1e-300):
            with pytest.raises(ValueError, match="sigma must be positive"):
                InitialField1D.gaussian(sigma)

    @pytest.mark.parametrize("sigma", [1.5e-154, 1e-8, 1.0, 2.5, 1e154])
    def test_extreme_accepted_widths_stay_finite_and_exact(self, sigma):
        x = Grid1D(-15.0, 15.0, 151).points
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = InitialField1D.gaussian(sigma).evaluate(x)
        assert np.all(np.isfinite(values))
        with np.errstate(over="ignore"):
            assert np.array_equal(values, np.exp(-(x**2) / sigma**2))

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
        # a grid too large to assemble is refused from its shape alone, before g is
        # sampled, the Laplacian is built or the slab choice runs
        def fails(what):
            def refuse(*args, **kwargs):
                raise AssertionError(f"{what} ran before the nnz cap check")
            return refuse

        monkeypatch.setattr("memwave.solver_1d.choose_slabs", fails("choose_slabs"))
        monkeypatch.setattr("memwave.solver_1d.laplacian", fails("laplacian"))
        monkeypatch.setattr(InitialField1D, "evaluate", fails("g.evaluate"))
        monkeypatch.setattr("memwave.sparse_linalg.MAX_NNZ", 51)
        with pytest.raises(ValueError, match="predicted nnz 52 exceeds the cap 51"):
            solve_1d(MemoryOrder(1.5), 1.0, 2, Grid1D(-6.0, 6.0, 5), InitialField1D.gaussian(1.0))

    def test_forced_direct_above_the_limit_checked_before_the_slab_choice(self, monkeypatch):
        # n M = 2 * 10_001 unknowns per slab: LU would refuse them after the slab choice
        def no_slabs(*args, **kwargs):
            raise AssertionError("choose_slabs ran before the direct-solve limit check")

        monkeypatch.setattr("memwave.solver_1d.choose_slabs", no_slabs)
        with pytest.raises(ValueError, match="N=20002 exceeds the direct-solver threshold"):
            solve_1d(MemoryOrder(1.5), 1.0, 2, Grid1D(-6.0, 6.0, 10_001),
                     InitialField1D.gaussian(1.0), method="direct")


class TestSampleGate:
    nan_at_origin = InitialField1D(lambda *c: np.where(c[0] == 0.0, np.nan, 0.0), "nan at 0")

    def test_non_finite_sample_is_refused(self):
        with pytest.raises(ValueError, match="not finite on the grid"):
            sample(self.nan_at_origin, Grid1D(-10.0, 10.0, 21))

    def test_solve_1d_refuses_before_the_solve(self):
        with pytest.raises(ValueError, match="not finite on the grid"):
            solve_1d(MemoryOrder(1.5), 1.0, 3, Grid1D(-10.0, 10.0, 21), self.nan_at_origin)

    def test_solve_2d_refuses_before_the_slab_choice(self, monkeypatch):
        # refused before the slab choice, which a NaN would drive to its cap
        def no_slabs(*args):
            raise AssertionError("chose slabs for a non-finite g")

        monkeypatch.setattr(solver_1d, "choose_slabs", no_slabs)
        g = InitialField2D(self.nan_at_origin.rule, "nan at 0")
        with pytest.raises(ValueError, match="not finite on the grid"):
            solve_2d(MemoryOrder(1.5), 1.0, 4, Grid2D(-10.0, 10.0, 21), g)


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
        # auto, whichever slab solver it picks, on perfbench's sweep1d cases and grids
        routes = set()
        for T in (3.0, 6.0, 12.0):
            grid = Grid1D(-15.0, 15.0, 151) if T <= 6 else Grid1D(-20.0, 20.0, 201)
            for n in (8, 18, 32):
                for alpha in (1.0, 1.25, 1.5, 1.75, 2.0):
                    kw = dict(order=MemoryOrder(alpha), T=T, n=n, grid=grid, g=g)
                    f_direct, f_auto = solve_1d(method="direct", **kw), solve_1d(**kw)
                    routes.add(f_auto.report.method)
                    assert f_auto.report.slabs == f_direct.report.slabs, (alpha, T, n)
                    gap = np.max(np.abs(f_auto.coefficients - f_direct.coefficients))
                    assert gap <= 1e-12 * np.max(np.abs(f_direct.coefficients)), (alpha, T, n)
        assert routes == {"direct", "sine"}

    @pytest.mark.parametrize("solve, alpha, T, n, grid, g, slabs, method", [
        # one slab cannot repay an LU factorization; the slab choice's march solves it
        (solve_1d, 1.0, 3.0, 32, Grid1D(-15.0, 15.0, 151), InitialField1D.gaussian(1.0),
         1, "sine"),
        (solve_1d, 2.0, 12.0, 8, Grid1D(-20.0, 20.0, 201), InitialField1D.gaussian(1.0),
         16, "direct"),
        (solve_1d, 2.0, 6.0, 8, Grid1D(-15.0, 15.0, 151), InitialField1D.gaussian(1.0),
         8, "direct"),
        # 2D takes BiCG although K >= n and N = 1,764 is within DIRECT_LIMIT
        (solve_2d, 2.0, 6.0, 4, Grid2D(-15.0, 15.0, 21), InitialField2D.radial_gaussian(2.0),
         32, "bicg+precond"),
    ])
    def test_auto_takes_lu_only_where_its_slabs_repay_the_factorization(
            self, solve, alpha, T, n, grid, g, slabs, method):
        report = solve(MemoryOrder(alpha), T, n, grid, g).report
        assert (report.slabs, report.method) == (slabs, method)

    def test_grid_dimension_is_checked(self, monkeypatch):
        # each solver returns a field of its own dimension, so it refuses the other
        # one's grid; solve_1d reads the dimension from grid.shape, without the mesh
        order, g = MemoryOrder(1.5), InitialField1D.gaussian(1.0)

        def no_mesh(self):
            raise AssertionError("solve_1d built the mesh to count the grid's axes")

        monkeypatch.setattr(Grid2D, "mesh", no_mesh)
        with pytest.raises(ValueError, match="solve_1d needs a 1D grid, got Grid2D"):
            solve_1d(order, 1.0, 2, Grid2D(-6.0, 6.0, 5), g)
        with pytest.raises(ValueError, match="solve_2d needs a Grid2D, got Grid1D"):
            solve_2d(order, 1.0, 2, Grid1D(-6.0, 6.0, 5), g)

    @pytest.mark.parametrize("solve, grid", [(solve_1d, Grid1D(-15.0, 15.0, 61)),
                                             (solve_2d, Grid2D(-15.0, 15.0, 21))])
    def test_one_laplacian_per_solve(self, monkeypatch, solve, grid):
        # the slab march applies the Laplacian that the assembly built
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return laplacian(*args, **kwargs)

        monkeypatch.setattr("memwave.solver_1d.laplacian", counted)
        solve(MemoryOrder(1.5), 6.0, 4, grid, InitialField1D.gaussian(2.0))
        assert len(calls) == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_1d(MemoryOrder(1.0), 1.0, 2, Grid1D(-15.0, 15.0, 31), InitialField1D.gaussian(1.0),
                     method="cg")

    # tier-1 turns RuntimeWarnings into errors; the refusal must not depend on that
    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("method", ["direct", "bicg"])
    def test_refuses_data_whose_norm_overflows(self, action, method):
        # finite data whose right-hand side norm overflows once reported converged=True
        # at residual nan (direct) and failed on a nan tolerance (bicg)
        g = InitialField1D(rule=lambda x: 1e200 * np.exp(-x**2))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            warnings.simplefilter("ignore", EdgeWarning)
            # refused before the slab choice, on the right-hand side at tau = T / MAX_SLABS
            with pytest.raises(ValueError, match="scale max\\|b\\| = 1.250e\\+199"):
                solve_1d(MemoryOrder(1.0), 1.0, 4, Grid1D(-8.0, 8.0, 41), g, method=method)

    @pytest.mark.parametrize("amplitude, stop", [(1e200, ValueError), (2e154, SlabChoiceReached)])
    def test_refuses_data_that_overflows_at_every_slab_count_before_the_slab_choice(
            self, monkeypatch, amplitude, stop):
        # on this grid sum (sqrt(tau) g)^2 overflows at tau = T = 1 from amplitude 7.6e153 and at
        # tau = T / MAX_SLABS from 6.1e154: only 1e200 overflows at every slab count
        calls = []

        def reached(*args):
            calls.append(args)
            raise SlabChoiceReached

        monkeypatch.setattr(solver_1d, "choose_slabs", reached)
        g = InitialField1D(rule=lambda x: amplitude * np.exp(-x**2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EdgeWarning)
            with pytest.raises(stop):
                solve_1d(MemoryOrder(1.0), 1.0, 4, Grid1D(-8.0, 8.0, 41), g)
        assert len(calls) == (stop is SlabChoiceReached)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_residual_orthogonality(self, alpha):
        field = solve_1d(MemoryOrder(alpha), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert residual_orthogonality(field) <= 1e-8

    def test_residual_orthogonality_fails_on_a_wrong_field(self):
        # criterion 8's field (K = 4: own, previous and distant slabs all act) and a 2D field
        # (K = 16) pass the 1e-8 bound; the same coefficients under another order fail it, and
        # so does criterion 8's field with one coefficient on any slab moved by 1e-6 max|c|
        fields = [solve_1d(MemoryOrder(1.5), **BENCH, n=8, g=InitialField1D.gaussian(1.0)),
                  solve_2d(MemoryOrder(1.5), 6.0, 4, Grid2D(-15.0, 15.0, 21),
                           InitialField2D.radial_gaussian(2.0))]
        assert [field.basis.slabs for field in fields] == [4, 16]
        for field in fields:
            assert residual_orthogonality(field) <= 1e-8
            assert residual_orthogonality(replace(field, order=MemoryOrder(1.25))) > 1e-8
        field = fields[0]
        n, c = field.basis.size_n, field.coefficients
        for k in range(field.basis.slabs):
            moved = c.copy()
            moved[k * n + n - 1, 75] += 1e-6 * np.max(np.abs(c))
            assert residual_orthogonality(replace(field, coefficients=moved)) > 1e-8

    def test_residual_orthogonality_forms_each_block_once_outside_the_solve(self, monkeypatch):
        # the check's memory is tau^alpha B_d for d = 0 .. K-1 at its own 4n + 16 nodes, each
        # block formed once; it never reads the solve's cached blocks or its coupling
        one_slab = solve_1d(MemoryOrder(2.0), 0.5, 8, Grid1D(-8.0, 8.0, 41),
                            InitialField1D.gaussian(1.0))
        four_slabs = solve_1d(MemoryOrder(1.5), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert [one_slab.basis.slabs, four_slabs.basis.slabs] == [1, 4]
        requested = []
        unit_block = solver_1d._unit_block

        def recording(n, order, d, num_nodes):
            requested.append((d, num_nodes))
            return unit_block(n, order, d, num_nodes)

        def fails(name):
            def stand_in(*args, **kwargs):
                raise AssertionError(f"{name} reached")
            return stand_in

        monkeypatch.setattr(solver_1d, "_unit_block", recording)
        monkeypatch.setattr("memwave.time_basis.unit_blocks", fails("unit_blocks"))
        monkeypatch.setattr(solver_1d, "slab_blocks", fails("slab_blocks"))
        monkeypatch.setattr(solver_1d, "coupling_matrix", fails("coupling_matrix"))
        residual_orthogonality(one_slab)
        assert requested == [(0, 48)]
        requested.clear()
        assert residual_orthogonality(four_slabs) <= 1e-8
        assert requested == [(0, 48), (1, 48), (2, 48), (3, 48)]

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
        K1, drift1, _, _ = choose_slabs(MemoryOrder(1.0), 6.0, 8, g, grid.h)
        K3, drift3, _, _ = choose_slabs(MemoryOrder(1.0), 6.0, 8, 3.0 * g, grid.h)
        assert K1 == K3 == 4
        assert drift3 == pytest.approx(3.0 * drift1, rel=1e-6)

    @pytest.mark.parametrize("values, h, match", [
        ([0.0, np.nan, 0.0], 0.2, "finite"),
        ([0.0, np.inf, 0.0], 0.2, "finite"),
        ([0.0, 1.0, 0.0], -0.2, "spacing must be positive"),
        ([0.0, 1.0, 0.0], 1e-200, "no finite h\\^2"),
    ], ids=["nan", "inf", "negative-h", "tiny-h"])
    def test_choose_slabs_refuses_bad_input_before_any_march(self, monkeypatch, values, h, match):
        # a NaN once marched to the cap and returned drift nan, an inf raised numpy's
        # RuntimeWarning and h = -0.2 chose K = 4
        def no_march(*args):
            raise AssertionError("marched before refusing the input")

        monkeypatch.setattr(solver_1d, "mode_march", no_march)
        with pytest.raises(ValueError, match=match):
            choose_slabs(MemoryOrder(1.5), 6.0, 8, np.array(values), h)

    def test_report_records_slabs(self):
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert field.report.slabs == 4 and not field.report.slabs_capped
        assert 0.0 < field.report.time_drift <= 1e-6
        assert field.coefficients.shape == (4 * 8, 151)
        assert field.basis == build_basis(6.0, 8, slabs=4)

    def test_solve_couples_one_slab_only(self, monkeypatch):
        # every slab shares tau^alpha B_0, so the dense K-slab coupling is never built
        seen = []

        def recording(basis, order):
            seen.append(basis.slabs)
            return coupling_matrix(basis, order)

        monkeypatch.setattr("memwave.solver_1d.coupling_matrix", recording)
        field = solve_1d(MemoryOrder(1.0), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert field.report.slabs == 4 and seen == [1]

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

    @pytest.mark.parametrize("grid, g, solve, assemble", [
        (BENCH["grid"], InitialField1D.gaussian(1.0), solve_1d, assemble_1d),
        (Grid2D(-15.0, 15.0, 31), InitialField2D.radial_gaussian(2.0), solve_2d, assemble_2d),
    ], ids=["1d", "2d"])
    def test_bicg_report_residual_is_the_whole_systems(self, grid, g, solve, assemble):
        # the BiCG route sums bicg_solve's confirmed slab residuals; the assembled
        # K-slab system gives the same relative residual to rounding
        order = MemoryOrder(2.0)
        field = solve(order, 6.0, 8, grid, g, method="bicg")
        assert field.report.method == "bicg+precond" and field.report.slabs > 1
        system = assemble(coupling_matrix(field.basis, order), source_weights(field.basis), g, grid)
        r = system.matrix.matvec(field.coefficients.ravel()) - system.rhs
        whole = np.linalg.norm(r) / np.linalg.norm(system.rhs)
        assert abs(field.report.residual - whole) <= 1e-16

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

        order, T, n, grid = MemoryOrder(2.0), 12.0, 64, Grid1D(-15.0, 15.0, 61)
        field = solve_1d(order, T, n, grid, InitialField1D.gaussian(1.0))
        assert field.report.slabs == 1 and field.report.residual <= 1e-10
        g = InitialField1D.gaussian(1.0).evaluate(grid.points)
        lam = sine_eigenvalues(g.shape, grid.h)
        g_hat = dst(g, type=1, norm="ortho")
        expected = dst(mode_march(build_basis(T, n), order, lam).end() * g_hat,
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


class TestSineRoute:
    """1D auto solves with the slab choice's sine-mode march wherever it does not take LU."""

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(1.0, 2.0), n=st.integers(2, 24),
           T=st.floats(0.0, 12.0, exclude_min=True), m=st.integers(21, 201))
    def test_every_route_gives_the_same_slabs_and_coefficients(self, alpha, n, T, m):
        kw = dict(order=MemoryOrder(alpha), T=T, n=n, grid=Grid1D(-15.0, 15.0, m),
                  g=InitialField1D.gaussian(1.0))
        outcomes = []
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "slab count capped", UserWarning)
            for method in ("auto", "direct", "bicg"):
                try:
                    outcomes.append(solve_1d(method=method, **kw))
                except ValueError as exc:
                    outcomes.append(str(exc))
        if isinstance(outcomes[0], str):
            # a horizon whose slabs are too short for a float: every route refuses it alike
            assert "too short" in outcomes[0] and outcomes.count(outcomes[0]) == 3
            return
        auto, direct, bicg = outcomes
        assert auto.report.method in ("direct", "sine")
        c = direct.coefficients
        for field in (auto, bicg):
            assert field.report.slabs == direct.report.slabs
            assert np.max(np.abs(field.coefficients - c)) <= 1e-12 * np.max(np.abs(c))

    def test_sine_coefficients_solve_the_2d_system(self):
        # the coefficient step of the 1D route, on choose_slabs' 2D march, against 2D's BiCG
        from scipy.fft import dstn

        order, T, n, grid = MemoryOrder(1.5), 6.0, 4, Grid2D(-15.0, 15.0, 21)
        g = InitialField2D.radial_gaussian(2.0)
        field = solve_2d(order, T, n, grid, g, method="bicg")
        values = sample(g, grid)
        K, _, _, modes = choose_slabs(order, T, n, values, grid.h)
        assert K == field.report.slabs > 1
        fields = modes.X[:, :, modes.index] * dstn(values, type=1, norm="ortho")
        c = dstn(fields, type=1, norm="ortho", axes=(2, 3)).reshape(field.coefficients.shape)
        assert np.max(np.abs(c - field.coefficients)) <= 1e-12 * np.max(np.abs(c))

    def test_a_solve_forms_and_dedupes_the_eigenvalues_once(self, monkeypatch):
        # the slab choice's ModeMarch carries the dedupe to the coefficient step; calls from
        # outside memwave (scipy's sparse constructors call np.unique) are not counted
        calls = []
        package = Path(solver_1d.__file__).parent

        def counted(name, function):
            def call(*args, **kwargs):
                if Path(sys._getframe(1).f_code.co_filename).parent == package:
                    calls.append(name)
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "unique", counted("np.unique", np.unique))
        for module in (solver_1d, sparse_linalg):
            monkeypatch.setattr(module, "sine_eigenvalues",
                                counted("sine_eigenvalues", module.sine_eigenvalues))
        field = solve_1d(MemoryOrder(1.5), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        assert field.report.method == "sine"
        assert sorted(calls) == ["np.unique", "sine_eigenvalues"]

    def test_a_slab_that_misses_the_residual_test_takes_bicg(self, monkeypatch):
        # a march moved by 1e-6 on slab 2 fails there; BiCG solves that slab and the report
        # names both routes, while the slabs before it keep the march's coefficients
        choose = solver_1d.choose_slabs

        def moved(*args):
            K, drift, capped, modes = choose(*args)
            X = modes.X.copy()
            X[1] *= 1.0 + 1e-6
            return K, drift, capped, replace(modes, X=X)

        kw = dict(order=MemoryOrder(1.5), **BENCH, n=8, g=InitialField1D.gaussian(1.0))
        sine = solve_1d(**kw)
        monkeypatch.setattr(solver_1d, "choose_slabs", moved)
        mixed, direct = solve_1d(**kw), solve_1d(method="direct", **kw)
        assert (sine.report.method, mixed.report.method) == ("sine", "sine+bicg")
        assert sine.report.iterations == 0 < mixed.report.iterations
        assert mixed.report.converged and mixed.report.residual <= 1e-10
        assert np.array_equal(mixed.coefficients[:8], sine.coefficients[:8])
        gap = np.max(np.abs(mixed.coefficients - direct.coefficients))
        assert gap <= 1e-12 * np.max(np.abs(direct.coefficients))

    def test_a_singular_slab_system_is_refused(self, monkeypatch):
        # I + lam a is singular at the grid's least eigenvalue; the march misses the residual
        # test on that system, and BiCG's preconditioner refuses the singular mode
        grid = Grid1D(-15.0, 15.0, 61)
        lam = sine_eigenvalues(grid.shape, grid.h)[0]
        monkeypatch.setattr(solver_1d, "coupling_matrix",
                            lambda basis, order: CouplingMatrix(-np.eye(basis.size_n) / lam))
        with pytest.raises(SingularMatrixError, match="singular"):
            solve_1d(MemoryOrder(1.5), 6.0, 8, grid, InitialField1D.gaussian(1.0))

    # a fine grid stiffens the slab system: the march's Schur solves lose digits there
    STIFF = dict(T=20.0, n=16, grid=Grid1D(-15.0, 15.0, 6001), g=InitialField1D.gaussian(1.0))

    def test_a_stiff_fine_grid_meets_the_tolerance(self):
        # every slab taken from the march unchecked leaves a residual of 6.3e-10 here, above
        # the 1e-10 that BiCG reaches
        report = solve_1d(MemoryOrder(1.75), **self.STIFF).report
        assert report.method == "sine+bicg" and report.slabs == 4
        assert report.converged and report.residual <= 1e-10

    def test_a_stiff_fine_grid_fails_as_bicg_does(self):
        # at alpha = 2, every slab taken from the march unchecked gives a residual of 2.2e25
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "slab count capped", UserWarning)
            with pytest.raises(SolverConvergenceError) as caught:
                solve_1d(MemoryOrder(2.0), **self.STIFF)
        report = caught.value.report
        assert report.method == "sine+bicg" and not report.converged
        # the slab's right-hand side grew so far past ||w g|| that no solver meets the target
        assert re.search(r"right-hand side is \d\.\d{3}e\+\d+ x \|\|w g\|\|, so its relative "
                         r"target \d\.\d{3}e-\d+ is below machine precision", str(caught.value))


def semidiscrete_at(alpha, T, values, h):
    """Exact time evolution of the grid system f = g - a * L f at T, per sine mode.

    At alpha = 1 mode lambda decays as exp(-lambda T), at alpha = 2 it
    oscillates as cos(sqrt(lambda) T); one DST maps the modes back.
    """
    from scipy.fft import dstn

    lam = sine_eigenvalues(values.shape, h)
    factor = np.exp(-lam * T) if alpha == 1 else np.cos(np.sqrt(lam) * T)
    return dstn(factor * dstn(values, type=1, norm="ortho"), type=1, norm="ortho")


class TestSemidiscreteOracle:
    # the Galerkin solution at T against the semidiscrete one, which no Schur
    # form or slab march reaches; the slab choice bounds their gap by TIME_TOL
    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("grid, g, solve, method", [
        (BENCH["grid"], InitialField1D.gaussian(1.0), solve_1d, "direct"),
        (BENCH["grid"], InitialField1D.gaussian(1.0), solve_1d, "bicg"),
        (Grid2D(-15.0, 15.0, 61), InitialField2D.radial_gaussian(2.0), solve_2d, "bicg"),
    ], ids=["1d-direct", "1d-bicg", "2d-bicg"])
    def test_galerkin_matches_semidiscrete_at_T(self, grid, g, solve, method, n, alpha):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "slab count capped", UserWarning)
            field = solve(MemoryOrder(alpha), 6.0, n, grid, g, method=method)
        values = sample(g, grid)
        gap = np.max(np.abs(field.reconstruct(6.0) - semidiscrete_at(alpha, 6.0, values, grid.h)))
        assert gap <= TIME_TOL * np.max(np.abs(values))


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
