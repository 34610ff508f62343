import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.fft import dstn
from scipy.io import mmread

from memwave import (
    DIRECT_LIMIT,
    CouplingMatrix,
    Grid1D,
    Grid2D,
    InitialField1D,
    InitialField2D,
    MemoryOrder,
    SingularMatrixError,
    SparseMatrix,
    assemble_1d,
    assemble_2d,
    bicg_solve,
    build_basis,
    build_preconditioner,
    coupling_matrix,
    lu_solve,
    source_weights,
    write_matrix_market,
)
from memwave import sparse_linalg
from memwave.sparse_linalg import laplacian, sine_eigenvalues


def small_1d_system(n=2, m=5, alpha=1.5, T=1.0):
    basis = build_basis(T, n)
    coupling = coupling_matrix(basis, MemoryOrder(alpha))
    weights = source_weights(basis)
    grid = Grid1D(-6.0, 6.0, m)
    system = assemble_1d(coupling, weights, InitialField1D.gaussian(1.0), grid)
    return system, coupling, grid


class TestSparseMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SparseMatrix(sp.csr_matrix((3, 4)))

    def test_drops_explicit_zeros(self):
        raw = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        raw.data[0] = 0.0
        A = SparseMatrix(raw)
        assert A.nnz == 1

    def test_dimension_and_nnz(self):
        A = SparseMatrix(sp.identity(7, format="csr"))
        assert A.N == 7
        assert A.nnz == 7

    def test_matvec_identity_and_zero(self):
        x = np.arange(4.0)
        eye = SparseMatrix(sp.identity(4, format="csr"))
        assert np.array_equal(eye.matvec(x), x)
        zero = SparseMatrix(sp.csr_matrix((4, 4)))
        assert np.array_equal(zero.matvec(x), np.zeros(4))

    def test_matvec_dimension_mismatch(self):
        eye = SparseMatrix(sp.identity(4, format="csr"))
        with pytest.raises(ValueError):
            eye.matvec(np.zeros(5))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
        x = rng.standard_normal(6)
        A = SparseMatrix(sp.csr_matrix(dense))
        assert np.max(np.abs(A.matvec(x) - dense @ x)) < 1e-14
        assert np.max(np.abs(A.rmatvec(x) - dense.T @ x)) < 1e-14


class TestLuSolve:
    def test_identity(self):
        A = SparseMatrix(sp.identity(3, format="csr"))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(lu_solve(A, b), b)

    def test_diagonal(self):
        A = SparseMatrix(sp.diags([np.array([2.0, 4.0])], [0], format="csr"))
        assert np.allclose(lu_solve(A, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_matches_dense_elimination(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        b = rng.standard_normal(5)
        x = lu_solve(SparseMatrix(sp.csr_matrix(dense)), b)
        assert np.max(np.abs(x - np.linalg.solve(dense, b))) < 1e-10

    def test_residual_contract(self):
        system, _, _ = small_1d_system(n=4, m=31)
        x = lu_solve(system.matrix, system.rhs)
        res = np.linalg.norm(system.matrix.matvec(x) - system.rhs) / np.linalg.norm(system.rhs)
        assert res <= 1e-10

    def test_singular_matrix(self):
        A = SparseMatrix(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.array([1.0, 2.0]))

    def test_threshold(self):
        A = SparseMatrix(sp.identity(DIRECT_LIMIT + 1, format="csr"))
        with pytest.raises(ValueError):
            lu_solve(A, np.zeros(DIRECT_LIMIT + 1))


class TestBicgSolve:
    def test_identity_single_iteration(self):
        A = SparseMatrix(sp.identity(5, format="csr"))
        b = np.arange(1.0, 6.0)
        x, report = bicg_solve(A, b)
        assert report.converged
        assert report.iterations <= 1
        assert np.allclose(x, b)

    def test_agrees_with_lu(self):
        system, _, _ = small_1d_system()
        x_lu = lu_solve(system.matrix, system.rhs)
        x_it, report = bicg_solve(system.matrix, system.rhs, tol=1e-12)
        assert report.converged
        assert np.max(np.abs(x_lu - x_it)) < 1e-8

    def test_preconditioner_same_solution_fewer_iterations(self):
        system, coupling, grid = small_1d_system()
        pc = build_preconditioner(coupling, grid.h, 1, grid.m)
        x_plain, rep_plain = bicg_solve(system.matrix, system.rhs)
        x_pc, rep_pc = bicg_solve(system.matrix, system.rhs, pc)
        assert rep_pc.converged and rep_plain.converged
        assert rep_pc.iterations <= rep_plain.iterations
        assert np.max(np.abs(x_pc - x_plain)) < 1e-8
        assert rep_pc.method == "bicg+precond"
        assert rep_plain.method == "bicg"

    def test_report_residual_is_true_residual(self):
        system, _, _ = small_1d_system(n=3, m=21)
        x, report = bicg_solve(system.matrix, system.rhs)
        recomputed = np.linalg.norm(system.rhs - system.matrix.matvec(x)) / np.linalg.norm(
            system.rhs
        )
        assert abs(report.residual - recomputed) <= 1e-13

    def test_breakdown_restart_recovers(self):
        # skew system: the first shadow choice hits a vanishing inner product,
        # the single restart with a fresh shadow then solves it
        A = SparseMatrix(sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]])))
        x, report = bicg_solve(A, np.array([1.0, 0.0]))
        assert report.converged
        assert not report.breakdown
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)

    def test_repeated_breakdown_reported_distinctly(self):
        A = SparseMatrix(sp.csr_matrix((3, 3)))
        x, report = bicg_solve(A, np.ones(3))
        assert not report.converged
        assert report.breakdown

    def test_non_convergence_reported(self):
        system, _, _ = small_1d_system(n=4, m=31)
        x, report = bicg_solve(system.matrix, system.rhs, max_iter=1)
        assert not report.converged
        assert not report.breakdown
        assert report.iterations == 1

    def test_zero_rhs(self):
        A = SparseMatrix(sp.identity(3, format="csr"))
        x, report = bicg_solve(A, np.zeros(3))
        assert report.converged
        assert np.array_equal(x, np.zeros(3))

    def test_parameter_validation(self):
        A = SparseMatrix(sp.identity(2, format="csr"))
        with pytest.raises(ValueError):
            bicg_solve(A, np.ones(2), tol=0.0)
        with pytest.raises(ValueError):
            bicg_solve(A, np.ones(2), max_iter=0)


class TestKronSystem:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        n=st.integers(1, 6),
        m=st.integers(3, 12),
        h=st.floats(0.05, 2.0),
        data=st.data(),
    )
    def test_matches_scipy_kron_bit_for_bit(self, d, n, m, h, data):
        # a dense a whose entries are often exactly 0 (either sign)
        entry = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)
        a = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
        L = laplacian((m,) * d, h)
        built = sparse_linalg.kron_system(a, L).csr
        expected = SparseMatrix(sp.identity(n * m**d) + sp.kron(sp.csr_matrix(a), L)).csr
        assert built.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(built, name), getattr(expected, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def stencil_3point(m, h):
    """The 3-point operator (1/h^2) tridiag(-1, 2, -1), written out as scipy builds it."""
    return sp.diags([np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)], [-1, 0, 1],
                    format="csr") / h**2


class TestLaplacian:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(3, 12)),
            st.integers(3, 12).map(lambda m: (m, m)),
            st.tuples(st.integers(3, 12), st.integers(3, 12)),
        ),
        h=st.floats(0.05, 2.0),
    )
    def test_stencil_and_spectrum(self, shape, h):
        L = laplacian(shape, h)
        if len(shape) == 1:
            expected = stencil_3point(shape[0], h)
        else:
            m1, m2 = shape
            expected = (sp.kron(stencil_3point(m1, h), sp.identity(m2, format="csr"))
                        + sp.kron(sp.identity(m1, format="csr"), stencil_3point(m2, h))).tocsr()
        assert L.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(L, name), getattr(expected, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # the orthonormal DST-I along every axis diagonalizes L into sine_eigenvalues
        eye = np.eye(L.shape[0]).reshape((-1,) + shape)
        S = dstn(eye, type=1, norm="ortho", axes=tuple(range(1, len(shape) + 1)))
        S = S.reshape(L.shape)
        D = S @ L.toarray() @ S
        lam = sine_eigenvalues(shape, h).ravel()
        scale = np.max(lam)
        assert np.allclose(np.diag(D), lam, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(D - np.diag(np.diag(D)))) <= 1e-12 * scale


def kron_system(d, n=3, m=6, alpha=1.5, T=2.0):
    """Coupling, spacing and assembled I + kron(a, L) on an m-point 1D or m x m 2D grid."""
    basis = build_basis(T, n)
    coupling = coupling_matrix(basis, MemoryOrder(alpha))
    weights = source_weights(basis)
    if d == 1:
        grid = Grid1D(-6.0, 6.0, m)
        system = assemble_1d(coupling, weights, InitialField1D.gaussian(1.0), grid)
    else:
        grid = Grid2D(-6.0, 6.0, m)
        system = assemble_2d(coupling, weights, InitialField2D.radial_gaussian(1.0), grid)
    return coupling, grid.h, system


class TestSinePreconditioner:
    def test_scalar_one_dimensional(self):
        coupling = CouplingMatrix(np.array([[0.5]]))
        pc = build_preconditioner(coupling, 1.0, 1, 3)
        lam = 4.0 * np.sin(np.arange(1, 4) * np.pi / 8.0) ** 2
        assert pc.shape == (3,)
        assert np.allclose(pc.blocks[:, 0, 0], 1.0 / (1.0 + 0.5 * lam), rtol=1e-14)

    def test_scalar_two_dimensional(self):
        coupling = CouplingMatrix(np.array([[0.5]]))
        pc = build_preconditioner(coupling, 1.0, 2, 9)
        lam = 4.0 * np.sin(np.arange(1, 4) * np.pi / 8.0) ** 2
        expected = 1.0 / (1.0 + 0.5 * (lam[:, None] + lam[None, :]))
        assert pc.shape == (3, 3)
        assert np.allclose(pc.blocks[:, 0, 0].reshape(3, 3), expected, rtol=1e-14)

    def test_inverse_contract(self):
        coupling, h, _ = kron_system(2, n=2, m=5, alpha=1.0)
        pc = build_preconditioner(coupling, h, 2, 25)
        lam = sine_eigenvalues((5, 5), h).ravel()
        blocks = np.eye(2) + lam[:, None, None] * coupling.entries
        assert np.max(np.abs(pc.blocks @ blocks - np.eye(2))) < 1e-12
        # modes (i, l) and (l, i) share an eigenvalue, and so their block
        grid_blocks = pc.blocks.reshape(5, 5, 2, 2)
        assert np.array_equal(grid_blocks, grid_blocks.transpose(1, 0, 2, 3))

    @pytest.mark.parametrize("d", [1, 2])
    def test_apply_is_the_exact_inverse(self, d):
        coupling, h, system = kron_system(d)
        pc = build_preconditioner(coupling, h, d, 6**d)
        inverse = np.linalg.inv(system.matrix.csr.toarray())
        v = np.random.default_rng(3).standard_normal(system.N)
        assert np.max(np.abs(pc.apply(v) - inverse @ v)) < 1e-12
        assert np.max(np.abs(pc.apply_transpose(v) - inverse.T @ v)) < 1e-12

    def test_singular_mode(self):
        # m = 3, h = 1: the middle sine mode has eigenvalue 2, and 1 + 2 * (-0.5) = 0
        coupling = CouplingMatrix(np.array([[-0.5]]))
        with pytest.raises(SingularMatrixError):
            build_preconditioner(coupling, 1.0, 1, 3)

    def test_parameter_validation(self):
        coupling = CouplingMatrix(np.array([[0.5]]))
        with pytest.raises(ValueError):
            build_preconditioner(coupling, 0.0, 1, 3)
        with pytest.raises(ValueError):
            build_preconditioner(coupling, -1.0, 1, 3)
        with pytest.raises(ValueError):
            build_preconditioner(coupling, 1.0, 3, 27)
        for d, m_block in ((2, 10), (2, 0), (1, 0), (2, -4)):
            with pytest.raises(ValueError):
                build_preconditioner(coupling, 1.0, d, m_block)

    def test_whole_multi_slab_system(self):
        # BiCG on the assembled 4-slab system once broke down after 186
        # iterations at residual 9.8e-4; the exact preconditioner solves it
        basis = build_basis(6.0, 8, slabs=4)
        coupling = coupling_matrix(basis, MemoryOrder(1.5))
        grid = Grid1D(-15.0, 15.0, 151)
        system = assemble_1d(coupling, source_weights(basis), InitialField1D.gaussian(1.0), grid)
        pc = build_preconditioner(coupling, grid.h, 1, grid.m)
        x, report = bicg_solve(system.matrix, system.rhs, pc)
        assert report.converged and not report.breakdown
        assert np.max(np.abs(x - lu_solve(system.matrix, system.rhs))) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0),
        n=st.integers(1, 12),
        T=st.floats(0.5, 12.0),
        d=st.sampled_from([1, 2]),
        m=st.integers(3, 9),
    )
    def test_bicg_converges_at_once_and_agrees_with_lu(self, alpha, n, T, d, m):
        coupling, h, system = kron_system(d, n=n, m=m, alpha=alpha, T=T)
        pc = build_preconditioner(coupling, h, d, m**d)
        x, report = bicg_solve(system.matrix, system.rhs, pc)
        x_lu = lu_solve(system.matrix, system.rhs)
        assert report.converged and report.iterations <= 2
        assert np.max(np.abs(x - x_lu)) <= 1e-10


class TestMatrixMarket:
    def test_header_and_round_trip(self, tmp_path):
        # n = 1, alpha = 1 gives a symmetric matrix: the header stays general,
        # and a path without an extension keeps its name
        for n, alpha, name in ((2, 1.5, "system.mtx"), (1, 1.0, "symmetric")):
            system, _, _ = small_1d_system(n=n, m=5, alpha=alpha)
            path = tmp_path / name
            write_matrix_market(system.matrix, path)
            assert path.exists() and not path.with_name(name + ".mtx").exists()
            first = path.read_text().splitlines()[0]
            assert first == "%%MatrixMarket matrix coordinate real general"
            back = mmread(str(path)).tocsr()
            diff = abs(back - system.matrix.csr)
            assert (diff.max() if diff.nnz else 0.0) == 0.0
