import ast
import pickle
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.fft import dstn
from scipy.io import mmread
from scipy.sparse.linalg import splu

from memwave import (
    DIRECT_LIMIT,
    CouplingMatrix,
    Grid1D,
    Grid2D,
    InitialField1D,
    InitialField2D,
    MemoryOrder,
    SingularMatrixError,
    assemble_1d,
    assemble_2d,
    bicg_solve,
    build_basis,
    build_preconditioner,
    coupling_matrix,
    lu_solve,
    solve_1d,
    solve_2d,
    source_weights,
    sparsity_bound,
    write_matrix_market,
)
from memwave import sparse_linalg
from memwave.sparse_linalg import laplacian, laplacian_nnz, sine_eigenvalues


def small_1d_system(n=2, m=5, alpha=1.5, T=1.0):
    basis = build_basis(T, n)
    coupling = coupling_matrix(basis, MemoryOrder(alpha))
    weights = source_weights(basis)
    grid = Grid1D(-6.0, 6.0, m)
    system = assemble_1d(coupling, weights, InitialField1D.gaussian(1.0), grid)
    return system, coupling, grid


def square(B):
    """The square matrix B as SparseMatrix(B - I, 1 x 1 identity): exact for small-integer B."""
    B = np.asarray(B, dtype=float)
    return sparse_linalg.SparseMatrix(B - np.eye(len(B)), sp.identity(1, format="csr"))


@pytest.fixture
def refuse_csr(monkeypatch):
    """Any read of a SparseMatrix's CSR form fails the test."""
    def refuse(A):
        raise AssertionError("the CSR form of I + kron(a, L) was built")

    monkeypatch.setattr(sparse_linalg.SparseMatrix, "csr", property(refuse))


class TestSparseMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sparse_linalg.SparseMatrix(np.zeros((3, 4)), sp.identity(1, format="csr"))

    def test_drops_explicit_zeros(self):
        # a's exact zeros, and 1 + (-1) on the diagonal, store nothing: I + a = diag(0, 2)
        A = sparse_linalg.SparseMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]),
                                      sp.identity(1, format="csr"))
        assert A.nnz == 1

    def test_dimension_and_nnz(self):
        A = square(np.eye(7))
        assert A.N == 7
        assert A.nnz == 7

    def test_matvec_identity_and_zero(self):
        x = np.arange(4.0)
        eye = square(np.eye(4))
        assert np.array_equal(eye.matvec(x), x)
        zero = square(np.zeros((4, 4)))
        assert np.array_equal(zero.matvec(x), np.zeros(4))

    def test_matvec_dimension_mismatch(self):
        eye = square(np.eye(4))
        with pytest.raises(ValueError):
            eye.matvec(np.zeros(5))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
        x = rng.standard_normal(6)
        A = square(dense)
        assert np.max(np.abs(A.matvec(x) - dense @ x)) < 1e-14
        assert np.max(np.abs(A.rmatvec(x) - dense.T @ x)) < 1e-14


class TestLuSolve:
    def test_identity(self):
        A = square(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(lu_solve(A, b), b)

    def test_diagonal(self):
        A = square(np.diag([2.0, 4.0]))
        assert np.allclose(lu_solve(A, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_matches_dense_elimination(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        b = rng.standard_normal(5)
        x = lu_solve(square(dense), b)
        assert np.max(np.abs(x - np.linalg.solve(dense, b))) < 1e-10

    def test_residual_contract(self):
        system, _, _ = small_1d_system(n=4, m=31)
        x = lu_solve(system.matrix, system.rhs)
        res = np.linalg.norm(system.matrix.matvec(x) - system.rhs) / np.linalg.norm(system.rhs)
        assert res <= 1e-10

    def test_singular_matrix(self):
        A = square([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.array([1.0, 2.0]))

    def test_threshold(self):
        # the identity through L, not a: a dense (N, N) a would take 3.2 GB
        A = sparse_linalg.SparseMatrix(np.zeros((1, 1)),
                                      sp.identity(DIRECT_LIMIT + 1, format="csr"))
        with pytest.raises(ValueError):
            lu_solve(A, np.zeros(DIRECT_LIMIT + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_rhs_before_factoring(self, bad):
        system, _, _ = small_1d_system()
        b = system.rhs.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="not finite"):
            lu_solve(system.matrix, b)
        assert "_lu" not in vars(system.matrix)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0),
        n=st.integers(1, 10),
        T=st.floats(0.5, 12.0),
        d=st.sampled_from([1, 2]),
        m=st.integers(3, 12),
    )
    def test_agrees_with_lu_of_the_basis_outer_csr(self, alpha, n, T, d, m):
        _, _, system = kron_system(d, n=n, m=m, alpha=alpha, T=T)
        x = lu_solve(system.matrix, system.rhs)
        want = splu(system.matrix.csr.tocsc()).solve(system.rhs)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_builds_the_csr_form_once_for_lu_and_export(self, monkeypatch, tmp_path):
        calls = []
        kron = sp.kron

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return kron(*args, **kwargs)

        system = kron_system(2, n=3, m=9)[2]
        monkeypatch.setattr(sp, "kron", counted)
        A = system.matrix
        x = lu_solve(A, system.rhs)
        assert calls == [(3, 3)]
        write_matrix_market(A, tmp_path / "A.mtx")
        assert np.max(np.abs(A.csr @ x - system.rhs)) <= 1e-12 * np.max(np.abs(system.rhs))
        assert calls == [(3, 3)]

    def test_singular_kron_system_raises(self):
        # I - L/2 on three points: rows 1 and 3 are both (0, 1/2, 0)
        A = sparse_linalg.SparseMatrix(np.array([[-0.5]]), laplacian((3,), 1.0))
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.ones(3))

    @pytest.mark.parametrize("grid, n, point_major_fill", [
        (Grid1D(-20.0, 20.0, 201), 32, 621_856),
        (Grid2D(-8.0, 8.0, 31), 8, 1_335_624),
    ])
    def test_fill_stays_at_the_point_major_order(self, grid, n, point_major_fill):
        # nnz(L + U) is exact and repeats from run to run: numbering each grid
        # point's n unknowns together gives point_major_fill, SuperLU's default
        # column order (COLAMD) 656,672 and 2,982,056
        a = coupling_matrix(build_basis(3.0, n), MemoryOrder(1.5)).entries
        A = sparse_linalg.SparseMatrix(a, laplacian(grid.shape, grid.h))
        lu_solve(A, np.ones(A.N))
        assert A._lu.L.nnz + A._lu.U.nnz <= point_major_fill

    def test_factors_once_and_substitutes_per_slab(self, monkeypatch):
        calls = []
        factor = sparse_linalg.splu

        def counted(A, **kwargs):
            calls.append(A.shape)
            return factor(A, **kwargs)

        monkeypatch.setattr(sparse_linalg, "splu", counted)
        field = solve_1d(MemoryOrder(1.5), 6.0, 8, Grid1D(-15.0, 15.0, 151),
                         InitialField1D.gaussian(1.0), method="direct")
        assert field.report.slabs > 1
        assert calls == [(8 * 151, 8 * 151)]

    def test_factored_matrix_pickles_and_refactors(self):
        # the SuperLU factors stay behind; the copy factors again on its first solve
        system, _, _ = small_1d_system(n=3, m=9)
        x = lu_solve(system.matrix, system.rhs)
        copy = pickle.loads(pickle.dumps(system.matrix))
        assert "_lu" not in vars(copy) and "_lu" in vars(system.matrix)
        assert np.array_equal(lu_solve(copy, system.rhs), x)

    def test_memwave_has_one_lu_route(self):
        package = Path(sparse_linalg.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call) and "splu" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None)):
                    found.append(f"{path.name}:{node.lineno}")
        assert len(found) == 1, f"splu calls in memwave: {found}"


class TestBicgSolve:
    def test_identity_single_iteration(self):
        A = square(np.eye(5))
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
        A = square([[0.0, 1.0], [-1.0, 0.0]])
        x, report = bicg_solve(A, np.array([1.0, 0.0]))
        assert report.converged
        assert not report.breakdown
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)

    def test_repeated_breakdown_reported_distinctly(self):
        A = square(np.zeros((3, 3)))
        x, report = bicg_solve(A, np.ones(3))
        assert not report.converged
        assert report.breakdown
        # the first breakdown, after iteration 1, restarts; the restart breaks down too,
        # on the sigma of its second step, which only max_iter = 3 leaves room for
        A = square([[1.0, 1.0], [2.0, 2.0]])
        for max_iter, breakdown in ((2, False), (3, True)):
            x, report = bicg_solve(A, np.ones(2), max_iter=max_iter)
            assert report.iterations == 2 and not report.converged
            assert report.breakdown is breakdown

    def test_a_breakdown_at_the_cap_forms_the_true_residual_once(self, monkeypatch):
        # the first breakdown, after iteration 1, takes the last iteration max_iter = 1
        # allows: one product for the step and one for the verdict, none for a restart
        products = []
        matvec = sparse_linalg.SparseMatrix.matvec
        monkeypatch.setattr(sparse_linalg.SparseMatrix, "matvec",
                            lambda self, v: products.append(v) or matvec(self, v))
        x, report = bicg_solve(square([[1.0, 1.0], [2.0, 2.0]]), np.ones(2), max_iter=1)
        assert len(products) == 2
        assert report.iterations == 1 and not report.converged and not report.breakdown

    def test_breakdown_at_the_cap_is_plain_non_convergence(self):
        # the first step breaks down on its rho; with max_iter = 1 no restart is left
        A = square([[-1.0, 0.0], [-1.0, 2.0]])
        x, report = bicg_solve(A, np.array([1.0, 0.0]), max_iter=1)
        assert report.iterations == 1
        assert not report.converged and not report.breakdown
        # one more iteration lets the restart, with its fresh shadow vector, converge
        x, report = bicg_solve(A, np.array([1.0, 0.0]), max_iter=2)
        assert report.iterations == 2
        assert report.converged and not report.breakdown
        assert np.allclose(x, [-1.0, -0.5], atol=1e-12)

    @pytest.mark.parametrize("case", ["identity", "precond", "skew", "zero", "cap",
                                      "twice", "zero_rhs", "overflow"])
    def test_report_fields_are_builtin_types(self, case):
        system, coupling, grid = small_1d_system()
        pc = build_preconditioner(coupling, grid.h, 1, grid.m)
        A, b, kw = {
            "identity": (square(np.eye(5)), np.arange(1.0, 6.0), {}),
            "precond": (system.matrix, system.rhs, {"precond": pc}),
            "skew": (square([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 0.0]), {}),
            "zero": (square(np.zeros((3, 3))), np.ones(3), {}),
            "cap": (system.matrix, system.rhs, {"max_iter": 1}),
            "twice": (square([[1.0, 1.0], [2.0, 2.0]]), np.ones(2), {"max_iter": 3}),
            "zero_rhs": (square(np.eye(3)), np.zeros(3), {}),
            "overflow": (sparse_linalg.SparseMatrix([[1e300]], laplacian((6,), 1.0)),
                         np.full(6, 1e-150), {}),
        }[case]
        _, report = bicg_solve(A, b, **kw)
        for name in ("converged", "breakdown", "slabs_capped"):
            assert type(getattr(report, name)) is bool
        assert type(report.iterations) is int and type(report.slabs) is int
        assert type(report.residual) is float and type(report.time_drift) is float

    def test_one_iteration_takes_two_products_and_one_of_each_application(self, monkeypatch):
        # field2d confirms every slab in one preconditioned iteration; this pins its work: the
        # first shadow is r itself, so its forward transform serves both applications
        calls = dict.fromkeys(["matvec", "rmatvec", "mode_solve", "transforms"], 0)
        for cls, name in ((sparse_linalg.SparseMatrix, "matvec"),
                          (sparse_linalg.SparseMatrix, "rmatvec")):
            def counted(self, v, name=name, f=getattr(cls, name)):
                calls[name] += 1
                return f(self, v)
            monkeypatch.setattr(cls, name, counted)

        def counted_solve(factors, rhs, f=sparse_linalg.mode_solve):
            calls["mode_solve"] += 1
            return f(factors, rhs)

        def counted_dstn(x, *args, f=sparse_linalg.dstn, **kwargs):
            calls["transforms"] += x.size // (4 * 81)  # one transform is of n = 4 fields of 9 x 9
            return f(x, *args, **kwargs)

        monkeypatch.setattr(sparse_linalg, "mode_solve", counted_solve)
        monkeypatch.setattr(sparse_linalg, "dstn", counted_dstn)
        coupling, h, system = kron_system(2, n=4, m=9, alpha=1.5, T=1.0)
        pc = build_preconditioner(coupling, h, 2, 81)
        x, report = bicg_solve(system.matrix, system.rhs, pc)
        assert report.converged and report.iterations == 1
        assert calls == {"matvec": 2, "rmatvec": 1, "mode_solve": 2, "transforms": 3}

    def test_non_convergence_reported(self):
        system, _, _ = small_1d_system(n=4, m=31)
        x, report = bicg_solve(system.matrix, system.rhs, max_iter=1)
        assert not report.converged
        assert not report.breakdown
        assert report.iterations == 1

    def test_zero_rhs(self):
        A = square(np.eye(3))
        x, report = bicg_solve(A, np.zeros(3))
        assert report.converged
        assert np.array_equal(x, np.zeros(3))

    def test_parameter_validation(self):
        A = square(np.eye(2))
        with pytest.raises(ValueError):
            bicg_solve(A, np.ones(2), tol=0.0)
        with pytest.raises(ValueError):
            bicg_solve(A, np.ones(2), max_iter=0)
        with pytest.raises(ValueError):
            bicg_solve(A, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_rhs_before_iterating(self, monkeypatch, bad):
        system, _, _ = small_1d_system()
        b = system.rhs.copy()
        b[3] = bad

        def no_product(x):
            raise AssertionError("a product was taken")

        monkeypatch.setattr(system.matrix, "matvec", no_product)
        with pytest.raises(ValueError, match="not finite"):
            bicg_solve(system.matrix, b)

    # tier-1 turns RuntimeWarnings into errors, which would hide an iteration on NaN
    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("precond", [False, True])
    def test_refuses_a_rhs_whose_norm_overflows(self, action, precond):
        # ||b|| overflows although b and its solution are finite floats
        A = sparse_linalg.SparseMatrix([[0.5]], laplacian((3,), 1.0))
        pc = build_preconditioner(CouplingMatrix(np.array([[0.5]])), 1.0, 1, 3) if precond else None
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValueError, match="1.000e\\+200"):
                bicg_solve(A, np.full(3, 1e200), pc)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_stops_at_the_first_non_finite_value(self, action):
        # 1e300 L overflows the products within a few hundred steps; the iteration
        # used to run on NaN to the 10,000-iteration cap
        A = sparse_linalg.SparseMatrix([[1e300]], laplacian((6,), 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            x, report = bicg_solve(A, np.full(6, 1e-150))
        assert not report.converged and not report.breakdown
        assert report.iterations < 1000


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
        built = sparse_linalg.SparseMatrix(a, L).csr
        expected = (sp.identity(n * m**d) + sp.kron(sp.csr_matrix(a), L)).tocsr()
        expected.sum_duplicates()
        expected.eliminate_zeros()
        assert built.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(built, name), getattr(expected, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # counted from the factors, on a fresh matrix that never built its CSR form
        assert sparse_linalg.SparseMatrix(a, L).nnz == built.nnz

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0),
        n=st.integers(1, 10),
        T=st.floats(0.5, 12.0),
        d=st.sampled_from([1, 2]),
        m=st.integers(3, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_products_match_the_csr_form(self, alpha, n, T, d, m, seed):
        _, _, system = kron_system(d, n=n, m=m, alpha=alpha, T=T)
        A = system.matrix
        x = np.random.default_rng(seed).standard_normal(A.N)
        for got, want in ((A.matvec(x), A.csr @ x), (A.rmatvec(x), A.csr.T @ x)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a, L, match", [
        (np.zeros((3, 4)), sp.identity(2, format="csr"), "a must be square"),
        (np.zeros(3), sp.identity(2, format="csr"), "a must be square"),
        (np.zeros((2, 2)), sp.csr_matrix((2, 3)), "L must be square"),
        # the middle point stores no diagonal: I + L/2 would lose its 1 there in
        # the CSR form and the LU factors, though not in the products
        ([[0.5]], sp.csr_matrix([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]),
         "every diagonal entry"),
        ([[0.5]], sp.csr_matrix((3, 3)), "every diagonal entry"),
    ], ids=["non-square-a", "one-dimensional-a", "non-square-L", "missing-middle-diagonal",
            "empty-L"])
    def test_refuses_factors_it_cannot_hold(self, a, L, match):
        with pytest.raises(ValueError, match=match):
            sparse_linalg.SparseMatrix(a, L)

    def test_keeps_a_stored_zero_on_the_diagonal(self):
        # a stored zero is stored: the identity reaches every diagonal entry on both routes
        L = sp.csr_matrix(([2.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0], [0, 1, 0, 1, 2, 1, 2],
                           [0, 2, 5, 7]), shape=(3, 3))
        A = sparse_linalg.SparseMatrix([[0.5]], L)
        b = np.array([1.0, 2.0, 3.0])
        x = lu_solve(A, b)
        assert np.max(np.abs(A.matvec(x) - b)) <= 1e-14
        assert np.max(np.abs(A.csr @ x - b)) <= 1e-14

    def test_2d_bicg_solve_never_builds_the_csr_form(self, refuse_csr):
        field = solve_2d(MemoryOrder(1.5), 1.0, 3, Grid2D(-8.0, 8.0, 15),
                         InitialField2D.radial_gaussian(1.0), method="bicg")
        assert field.report.converged and field.report.method == "bicg+precond"
        system = kron_system(2, m=15)[2]
        assert system.matrix.nnz == sparsity_bound(3, 15)

    def test_counts_criterion_4s_largest_system_in_little_memory(self):
        # the CSR form at n = 16, m = 200 would take about 600 MB
        a = coupling_matrix(build_basis(6.0, 16), MemoryOrder(1.5)).entries
        A = sparse_linalg.SparseMatrix(a, laplacian((200, 200), 0.15))
        tracemalloc.start()
        try:
            nnz = A.nnz
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nnz == sparsity_bound(16, 200) == 50_995_200
        assert peak < 100e6, f"nnz peaked at {peak / 1e6:.0f} MB"


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
            st.tuples(st.integers(3, 5), st.integers(3, 5), st.integers(3, 5)),
        ),
        h=st.floats(0.05, 2.0),
    )
    def test_stencil_and_spectrum(self, shape, h):
        L = laplacian(shape, h)
        assert laplacian_nnz(shape) == L.nnz
        if len(shape) == 1:
            expected = stencil_3point(shape[0], h)
        elif len(shape) == 2:
            m1, m2 = shape
            expected = (sp.kron(stencil_3point(m1, h), sp.identity(m2, format="csr"))
                        + sp.kron(sp.identity(m1, format="csr"), stencil_3point(m2, h))).tocsr()
        if len(shape) < 3:  # the explicit construction; 3D is checked by its count and spectrum
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
        # every sine mode is an eigenvector, scaled by 1 / (1 + 0.5 lambda)
        coupling = CouplingMatrix(np.array([[0.5]]))
        pc = build_preconditioner(coupling, 1.0, 1, 3)
        lam = 4.0 * np.sin(np.arange(1, 4) * np.pi / 8.0) ** 2
        assert pc.shape == (3,)
        modes = dstn(np.eye(3), type=1, norm="ortho", axes=0)
        out = np.column_stack([pc.apply_pair(modes[:, i], modes[:, i])[0] for i in range(3)])
        assert np.allclose(out, modes / (1.0 + 0.5 * lam), rtol=1e-14, atol=1e-15)

    def test_scalar_two_dimensional(self):
        coupling = CouplingMatrix(np.array([[0.5]]))
        pc = build_preconditioner(coupling, 1.0, 2, 9)
        lam = 4.0 * np.sin(np.arange(1, 4) * np.pi / 8.0) ** 2
        expected = 1.0 / (1.0 + 0.5 * (lam[:, None] + lam[None, :]))
        assert pc.shape == (3, 3)
        for i, l in np.ndindex(3, 3):
            mode = dstn(np.eye(9)[3 * i + l].reshape(3, 3), type=1, norm="ortho")
            out = pc.apply_pair(mode.ravel(), mode.ravel())[0].reshape(3, 3)
            assert np.allclose(out, expected[i, l] * mode, rtol=1e-14, atol=1e-15)

    def test_inverse_contract(self):
        # in sine space, M^{-1} solves I + lambda a mode by mode
        coupling, h, _ = kron_system(2, n=2, m=5, alpha=1.0)
        pc = build_preconditioner(coupling, h, 2, 25)
        lam = sine_eigenvalues((5, 5), h).ravel()
        v = np.random.default_rng(7).standard_normal((2, 5, 5))
        v_hat = dstn(v, type=1, norm="ortho", axes=(1, 2)).reshape(2, 25)
        y_hat = np.column_stack([
            np.linalg.solve(np.eye(2) + lam[p] * coupling.entries, v_hat[:, p]) for p in range(25)
        ])
        expected = dstn(y_hat.reshape(2, 5, 5), type=1, norm="ortho", axes=(1, 2))
        y = pc.apply_pair(v.ravel(), v.ravel())[0]
        assert np.max(np.abs(y - expected.ravel())) < 1e-12
        # modes (i, l) and (l, i) share an eigenvalue, so M^{-1} commutes with swapping x and y
        swapped = v.transpose(0, 2, 1).ravel()
        swapped = pc.apply_pair(swapped, swapped)[0].reshape(2, 5, 5)
        assert np.max(np.abs(swapped.transpose(0, 2, 1).ravel() - y)) < 1e-14

    @pytest.mark.parametrize("d", [1, 2])
    def test_apply_is_the_exact_inverse(self, d):
        coupling, h, system = kron_system(d)
        pc = build_preconditioner(coupling, h, d, 6**d)
        inverse = np.linalg.inv(system.matrix.csr.toarray())
        v, w = np.random.default_rng(3).standard_normal((2, system.N))
        for vs in (v, w):
            z, zs = pc.apply_pair(v, vs)
            assert np.max(np.abs(z - inverse @ v)) < 1e-12
            assert np.max(np.abs(zs - inverse.T @ vs)) < 1e-12
        # the shared forward transform of vs is v gives what two transforms give, bit for bit
        shared, apart = pc.apply_pair(v, v), pc.apply_pair(v, v.copy())
        assert all(x.tobytes() == y.tobytes() for x, y in zip(shared, apart))

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
        # Grid1D's rule: h^2 and 1/h^2 must be finite, nonzero floats
        for h in (1e-200, 1e-160, 1e200, np.inf):
            with pytest.raises(ValueError, match="no finite h\\^2 and 1/h\\^2"):
                build_preconditioner(coupling, h, 1, 3)

    def test_one_factorization_serves_both_products(self, monkeypatch):
        calls = {"schur": 0, "mode_factors": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sparse_linalg, name, counted(name, getattr(sparse_linalg, name)))
        coupling, h, system = kron_system(2)
        pc = build_preconditioner(coupling, h, 2, 36)
        v = np.random.default_rng(4).standard_normal(system.N)
        pc.apply_pair(v, v)
        pc.apply_pair(v, v.copy())
        assert calls == {"schur": 1, "mode_factors": 1}

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
