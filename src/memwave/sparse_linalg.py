"""Sparse storage, direct and iterative solvers, and the sine-mode preconditioner.

The assembled Galerkin systems I + kron(a, L) are real and non-symmetric,
with an n x n outer block structure over the coupling matrix a.  Small
systems go through a sparse LU factorization; large ones use the
bi-conjugate gradient iteration.

Its preconditioner is the exact inverse of the system.  The orthonormal
type-I sine transform along every spatial axis diagonalizes the zero-ghost
Laplacian L = laplacian(shape, h), with eigenvalues sine_eigenvalues(shape,
h) (Lynch, Rice & Thomas, Numer. Math. 6, 1964), so in sine space the
system splits into one n x n block I + lambda a per grid mode.  The
preconditioner inverts those blocks once and applies them between a
forward and a backward transform; BiCG then converges in one or two
iterations, and the iteration itself, with its true-residual check,
confirms the solution on the assembled matrix.

The iterative method is classic preconditioned BiCG (two matrix products
per step, one with A and one with its transpose).  The stabilized variant
was tried first and diverges on these systems: the coupling matrix has
eigenvalue pairs with large imaginary parts and the block spectrum
straddles the imaginary axis, which defeats the real stabilization
polynomial.  Classic BiCG converges cleanly on the same instances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.sparse.linalg import splu

from .time_basis import CouplingMatrix

__all__ = [
    "SparseMatrix",
    "SolveReport",
    "SinePreconditioner",
    "BlockSystem",
    "SingularMatrixError",
    "DIRECT_LIMIT",
    "MAX_NNZ",
    "check_nnz",
    "kron_system",
    "lu_solve",
    "bicg_solve",
    "build_preconditioner",
    "laplacian",
    "sine_eigenvalues",
    "write_matrix_market",
]

# Largest N handled by the direct LU path; beyond this the iterative
# solver is mandatory.
DIRECT_LIMIT = 20_000

# Largest nonzero count kron_system assembles; it guards desk machines' memory.
MAX_NNZ = 200_000_000

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


class SingularMatrixError(RuntimeError):
    """Raised when factorization hits a zero pivot beyond pivoting recovery."""


class SparseMatrix:
    """Square sparse matrix in compressed-row storage.

    Thin wrapper over a CSR matrix that enforces the storage contract:
    square shape, indices in range, no explicitly stored zero values.
    The matrix is not modified after construction, so lu_solve keeps the
    LU factors of its first call here and reuses them.
    """

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.check_format()
        self.csr = csr
        self._lu = None

    @property
    def N(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.N,):
            raise ValueError(f"vector length {x.shape} does not match N={self.N}")
        return self.csr @ x

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Product with the transpose, A^T x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.N,):
            raise ValueError(f"vector length {x.shape} does not match N={self.N}")
        return self.csr.T @ x


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    The solvers also record the time-slab count they chose, the last
    doubling difference of the solution at T (time_drift), and whether the
    slab count hit its cap.
    """

    iterations: int
    residual: float
    converged: bool
    method: str
    breakdown: bool = False
    slabs: int = 1
    time_drift: float = 0.0
    slabs_capped: bool = False


@dataclass
class SinePreconditioner:
    """Exact inverse of I + kron(a, L) for the zero-ghost Laplacian L on a grid.

    blocks holds the inverse of I + lambda a for every sine mode of the
    grid, in the grid's C order.  With the basis index outermost in the
    unknown vector, applying it is a sine transform of the n spatial fields,
    one n x n product per mode, and the transform back (the orthonormal
    DST-I is its own inverse).
    """

    blocks: np.ndarray = field(repr=False)
    shape: tuple

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    def _apply(self, v: np.ndarray, products: str) -> np.ndarray:
        axes = tuple(range(1, len(self.shape) + 1))
        v_hat = dstn(v.reshape((self.n,) + self.shape), type=1, norm="ortho", axes=axes)
        y_hat = np.einsum(products, self.blocks, v_hat.reshape(self.n, -1))
        return dstn(y_hat.reshape(v_hat.shape), type=1, norm="ortho", axes=axes).ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, "pij,jp->ip")

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, "pji,jp->ip")


@dataclass
class BlockSystem:
    """Assembled block system: matrix and right-hand side."""

    matrix: SparseMatrix
    rhs: np.ndarray

    @property
    def N(self) -> int:
        return self.matrix.N


def check_nnz(predicted: int) -> None:
    """Refuse an assembly predicted to hold more than MAX_NNZ nonzeros."""
    if predicted > MAX_NNZ:
        raise ValueError(f"predicted nnz {predicted} exceeds the cap {MAX_NNZ}")


def kron_system(a: np.ndarray, L: sp.csr_matrix) -> SparseMatrix:
    """I + kron(a, L) for a dense n x n a and an M x M L that stores its diagonal.

    Every block row has one pattern: spatial row r holds row r of L once
    per block column k, shifted by k M.  Block row j fills it with
    a[j, k] L.data and adds 1 where L stores its diagonal in block j.  The
    nonzero count n^2 nnz(L) goes through check_nnz first, which also keeps
    every int32 index in range.
    """
    n, M, nnz = a.shape[0], L.shape[0], L.nnz
    check_nnz(n * n * nnz)
    ptr = L.indptr.astype(np.int32)
    count = np.diff(ptr)
    row = np.repeat(np.arange(M, dtype=np.int32), count)
    k = np.arange(n, dtype=np.int32)[:, None]
    # slot[k, e]: where entry e of L sits, in block column k, within a block row
    slot = n * ptr[row] + k * count[row] + (np.arange(nnz, dtype=np.int32) - ptr[row])
    block, entry = np.empty((2, n * nnz), np.int32)
    block[slot], entry[slot] = k, np.arange(nnz)
    diagonal = L.indices == row
    data = a.take(block, axis=1)  # C order, unlike a[:, block], so ravel() below copies nothing
    data *= L.data[entry]  # in place: an out-of-place product holds a second copy of data
    data[k, slot[:, diagonal]] += 1.0
    cols = np.tile(L.indices[entry] + block * M, n)
    indptr = np.append((n * k * nnz + n * ptr[:-1]).ravel(), n * n * nnz).astype(np.int32)
    return SparseMatrix(sp.csr_matrix((data.ravel(), cols, indptr), shape=(n * M,) * 2))


def lu_solve(A: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Direct solve by sparse LU factorization, for N up to DIRECT_LIMIT.

    The factors are kept on A, so later solves with the same matrix (one
    per time slab) only substitute.
    """
    if A.N > DIRECT_LIMIT:
        raise ValueError(f"N={A.N} exceeds the direct-solver threshold {DIRECT_LIMIT}")
    b = np.asarray(b, dtype=float)
    if b.shape != (A.N,):
        raise ValueError(f"right-hand side length {b.shape} does not match N={A.N}")
    try:
        if A._lu is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error", sp.linalg.MatrixRankWarning)
                A._lu = splu(A.csr.tocsc())
        x = A._lu.solve(b)
    except (RuntimeError, sp.linalg.MatrixRankWarning) as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("LU solve produced non-finite values (singular matrix)")
    return x


def laplacian(shape: tuple, h: float) -> sp.csr_matrix:
    """Negative zero-ghost Laplacian on a grid of this shape, in the grid's C order.

    The 3-point stencil (1/h^2) tridiag(-1, 2, -1) along each axis, summed
    over the axes (5 points in 2D).  A change of stencil reaches only here,
    sine_eigenvalues (its spectrum) and solver_2d.sparsity_bound (its nnz).
    """
    L = None
    for m in shape:
        off = np.full(m - 1, -1.0)
        axis = sp.diags([off, np.full(m, 2.0), off], [-1, 0, 1], format="csr") / h**2
        L = axis if L is None else (sp.kron(L, sp.identity(m, format="csr"))
                                    + sp.kron(sp.identity(L.shape[0], format="csr"), axis)).tocsr()
    return L


def sine_eigenvalues(shape: tuple, h: float) -> np.ndarray:
    """Eigenvalues of laplacian(shape, h), one per sine mode, shaped like the grid.

    The type-I sine transform along every axis diagonalizes the operator;
    the eigenvalue of mode (i, l, ...) is the sum over axes of
    (4/h^2) sin^2(i pi / (2(m+1))).
    """
    lam = np.zeros(())
    for m in shape:
        modes = np.arange(1, m + 1)
        lam = np.add.outer(lam, (4.0 / h**2) * np.sin(modes * np.pi / (2.0 * (m + 1))) ** 2)
    return lam


def build_preconditioner(
    coupling: CouplingMatrix, h: float, d: int, m_block: int
) -> SinePreconditioner:
    """Sine-mode inverse of I + kron(a, L) on the d-dimensional grid of m_block = m**d points.

    I + lambda a is inverted once per distinct eigenvalue lambda of L, all
    in one batched inversion.  A block that is singular, or singular to
    rounding (its inverse reaches 1/(n eps) times the size of its two
    terms, so that I and lambda a cancel), raises SingularMatrixError.
    """
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h!r}")
    if d not in (1, 2):
        raise ValueError(f"spatial dimension must be 1 or 2, got {d!r}")
    m = round(max(m_block, 0) ** (1.0 / d))
    if m < 1 or m**d != m_block:
        raise ValueError(f"m_block={m_block!r} is not m**{d} for a whole number m of points")
    a = coupling.entries
    lam, mode_index = np.unique(sine_eigenvalues((m,) * d, h), return_inverse=True)
    try:
        inverses = np.linalg.inv(np.eye(coupling.n) + lam[:, None, None] * a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"preconditioner block is singular: {exc}") from exc
    size = (1.0 + lam * np.linalg.norm(a, np.inf)) * np.linalg.norm(inverses, np.inf, axis=(1, 2))
    singular = ~np.isfinite(size) | (size * coupling.n * np.finfo(float).eps >= 1.0)
    if np.any(singular):
        raise SingularMatrixError(
            f"preconditioner block I + lambda a is singular at lambda = {float(lam[singular][0])!r}"
        )
    return SinePreconditioner(inverses[mode_index.ravel()], (m,) * d)


def _fresh_shadow(N: int, attempt: int) -> np.ndarray:
    # deterministic replacement shadow vector for the restart path
    rng = np.random.default_rng(12345 + attempt)
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


def bicg_solve(
    A: SparseMatrix,
    b: np.ndarray,
    precond: SinePreconditioner | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned bi-conjugate gradient iteration.

    Left preconditioning: the iteration is driven by z = M^{-1} r and the
    shadow recurrence by the transposed applications.  Convergence is
    declared on the true relative residual ||b - Ax|| / ||b||.  A breakdown
    (vanishing inner product) triggers one restart from the current iterate
    with a fresh shadow vector; a second breakdown is reported distinctly
    from plain non-convergence via the report's breakdown flag.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    b = np.asarray(b, dtype=float)
    method = "bicg+precond" if precond is not None else "bicg"

    def m_apply(v):
        return precond.apply(v) if precond is not None else v

    def mt_apply(v):
        return precond.apply_transpose(v) if precond is not None else v

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), SolveReport(0, 0.0, True, method)

    x = np.zeros_like(b)
    r = b.copy()
    iterations = 0
    restarts = 0

    while iterations < max_iter:
        # (re)initialize the coupled recurrences
        shadow = r.copy() if restarts == 0 else _fresh_shadow(b.size, restarts)
        z = m_apply(r)
        zs = mt_apply(shadow)
        p = z.copy()
        ps = zs.copy()
        rho = float(shadow @ z)
        broke = abs(rho) <= 1e-14 * np.linalg.norm(shadow) * np.linalg.norm(z)

        while not broke and iterations < max_iter:
            q = A.matvec(p)
            qs = A.rmatvec(ps)
            sigma = float(ps @ q)
            if abs(sigma) <= 1e-14 * np.linalg.norm(ps) * np.linalg.norm(q):
                broke = True
                break
            step = rho / sigma
            x += step * p
            r -= step * q
            shadow -= step * qs
            iterations += 1
            if np.linalg.norm(r) <= tol * norm_b:
                # confirm on the true residual before declaring convergence
                true_res = float(np.linalg.norm(b - A.matvec(x)) / norm_b)
                if true_res <= tol:
                    return x, SolveReport(iterations, true_res, True, method)
            z = m_apply(r)
            zs = mt_apply(shadow)
            rho_new = float(shadow @ z)
            if abs(rho_new) <= 1e-14 * np.linalg.norm(shadow) * np.linalg.norm(z):
                broke = True
                break
            beta = rho_new / rho
            p = z + beta * p
            ps = zs + beta * ps
            rho = rho_new

        if not broke:
            break  # max_iter exhausted
        restarts += 1
        r = b - A.matvec(x)
        if np.linalg.norm(r) <= tol * norm_b:
            true_res = float(np.linalg.norm(r) / norm_b)
            return x, SolveReport(iterations, true_res, True, method)
        if restarts > 1:
            true_res = float(np.linalg.norm(r) / norm_b)
            return x, SolveReport(iterations, true_res, False, method, breakdown=True)

    true_res = float(np.linalg.norm(b - A.matvec(x)) / norm_b)
    return x, SolveReport(iterations, true_res, true_res <= tol, method)


def write_matrix_market(A: SparseMatrix, path) -> None:
    """Export in Matrix Market coordinate text format (general, 1-based).

    The open handle keeps path exactly as given (mmwrite appends .mtx to a
    bare path), and the explicit symmetry keeps the header general for a
    symmetric matrix too.
    """
    from scipy.io import mmwrite  # here, not at the top: it adds about 30 ms to `import memwave`

    with open(path, "wb") as fh:
        mmwrite(fh, A.csr, symmetry="general")
