"""The block system operator, direct and iterative solvers, and the sine-mode preconditioner.

The Galerkin systems I + kron(a, L) are real and non-symmetric, with an
n x n outer block structure over the coupling matrix a.  SparseMatrix is
such a system and nothing else: it keeps the two factors, the dense a and
the sparse Laplacian L, applies the system and counts its nonzeros through
them, and builds its compressed-row form, scipy's kron, only when read.  Small
systems go through the one sparse LU factorization, of a compressed-column
matrix built from the two factors with each grid point's n unknowns
together; large ones use the bi-conjugate gradient iteration, which needs
only the products.

Its preconditioner is the exact inverse of the system.  The orthonormal
type-I sine transform along every spatial axis diagonalizes the zero-ghost
Laplacian L = laplacian(shape, h), with eigenvalues sine_eigenvalues(shape,
h) (Lynch, Rice & Thomas, Numer. Math. 6, 1964), so in sine space the
system splits into one n x n block I + lambda a per grid mode.  In the
real Schur form a = Z T Z^T (Bartels & Stewart, Comm. ACM 15, 1972), with
T quasi-upper-triangular, every block is block upper triangular with 1 x 1
and 2 x 2 diagonal blocks.  The preconditioner inverts those diagonal
blocks once per mode when it is built (time_basis.mode_factors) and solves
all modes by time_basis.mode_solve, a real back substitution, between a
forward and a backward transform; BiCG then converges in one or two
iterations, and the iteration itself, with its true-residual check,
confirms the solution on the system's own products.

The iterative method is classic preconditioned BiCG (two matrix products
per step, one with A and one with its transpose).  The stabilized variant
was tried first and diverges on these systems: the coupling matrix has
eigenvalue pairs with large imaginary parts and the block spectrum
straddles the imaginary axis, which defeats the real stabilization
polynomial.  Classic BiCG converges cleanly on the same instances.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.linalg import schur
from scipy.sparse.linalg import splu

from .time_basis import CouplingMatrix, ModeFactors, mode_factors, mode_solve

__all__ = [
    "SparseMatrix",
    "SolveReport",
    "SinePreconditioner",
    "BlockSystem",
    "SingularMatrixError",
    "DIRECT_LIMIT",
    "MAX_NNZ",
    "check_direct",
    "check_nnz",
    "lu_solve",
    "bicg_solve",
    "build_preconditioner",
    "laplacian",
    "laplacian_nnz",
    "sine_eigenvalues",
    "write_matrix_market",
]

# Largest N handled by the direct LU path; beyond this the iterative
# solver is mandatory.
DIRECT_LIMIT = 20_000

# Largest nonzero count of a SparseMatrix, refused on construction; it guards
# desk machines' memory.
MAX_NNZ = 200_000_000

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


class SingularMatrixError(RuntimeError):
    """Raised when factorization hits a zero pivot beyond pivoting recovery."""


class SparseMatrix:
    """I + kron(a, L), applied by matvec and rmatvec through its two factors.

    a is a float copy of the dense n x n coupling matrix and L the sparse
    M x M Laplacian, which stores every diagonal entry.  Construction
    refuses a non-square factor, a largest nonzero count n^2 nnz(L) above
    MAX_NNZ (check_nnz) and an L that misses a diagonal entry.  x, reshaped
    to X of shape (n, M), maps to X + a (L X), with L acting on every row of
    X.  A product costs n nnz(L) + n^2 M multiply-adds, not the n^2 nnz(L)
    of the matrix.  nnz counts the stored entries from the factors, block
    row by block row, without building the matrix: a[j, k] L.data, plus 1
    on L's stored diagonal (_diagonal) when j == k, stores nothing where it
    is 0.

    csr, scipy's kron of the factors plus the identity with the basis index
    outermost, is built on first read and cached; write_matrix_market reads
    it.  _lu, the SuperLU factors of the point-major CSC (_point_major_lu),
    is built on lu_solve's first call and cached, so later solves with the
    same matrix (one per time slab) only substitute.  Neither factor is
    modified after construction.  A pickled copy leaves _lu behind and
    refactors on its first solve.
    """

    def __init__(self, a, L: sp.csr_matrix):
        self.a = np.array(a, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"coupling matrix a must be square, got shape {self.a.shape}")
        if L.shape[0] != L.shape[1]:
            raise ValueError(f"Laplacian L must be square, got shape {L.shape}")
        check_nnz(len(self.a) ** 2 * L.nnz)
        rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
        self._diagonal = L.indices == rows  # which of L's stored entries lie on its diagonal
        stored = np.zeros(L.shape[0], dtype=bool)
        stored[rows[self._diagonal]] = True
        if not stored.all():
            # nnz, csr and _point_major_lu add the identity only where L stores its diagonal
            raise ValueError("Laplacian L must store every diagonal entry")
        self.L = L
        self.N = self.a.shape[0] * L.shape[0]

    def __getstate__(self):
        # SuperLU factors do not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_lu"}

    @functools.cached_property
    def csr(self) -> sp.csr_matrix:
        csr = sp.kron(self.a, self.L, format="csr") + sp.identity(self.N, format="csr")
        csr.eliminate_zeros()
        return csr

    @functools.cached_property
    def _lu(self):
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error", sp.linalg.MatrixRankWarning)
            return _point_major_lu(self.a, self.L)

    @functools.cached_property
    def nnz(self) -> int:
        count = 0
        for j, row in enumerate(self.a):
            block_row = np.multiply.outer(row, self.L.data)
            block_row[j, self._diagonal] += 1.0
            count += np.count_nonzero(block_row)
        return count

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.N,):
            raise ValueError(f"vector length {x.shape} does not match N={self.N}")
        return x

    def _rhs(self, b) -> np.ndarray:
        """b as a float vector of length N, refused unless every entry is finite."""
        b = self._vector(b)
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side is not finite")
        return b

    def matvec(self, x: np.ndarray) -> np.ndarray:
        X = self._vector(x).reshape(len(self.a), -1)
        return (X + self.a @ (self.L @ X.T).T).ravel()

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Product with the transpose, A^T x."""
        X = self._vector(x).reshape(len(self.a), -1)
        return (X + self.a.T @ (self.L.T @ X.T).T).ravel()


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

    factors and factors_transpose are the mode_factors of a and a^T: their
    real Schur forms, with the diagonal blocks of I + lambda T inverted for
    L's eigenvalue lambda of every sine mode in the grid's C order.  With
    the basis index outermost in the unknown vector, applying it is a sine
    transform of the n spatial fields, mode_solve per mode, and the
    transform back (the orthonormal DST-I is its own inverse).
    """

    factors: ModeFactors = field(repr=False)
    factors_transpose: ModeFactors = field(repr=False)
    shape: tuple

    def _apply(self, v: np.ndarray, factors: ModeFactors) -> np.ndarray:
        n, axes = len(factors.T), tuple(range(1, len(self.shape) + 1))
        v_hat = dstn(v.reshape((n,) + self.shape), type=1, norm="ortho", axes=axes)
        y_hat = mode_solve(factors, v_hat.reshape(n, -1))
        return dstn(y_hat.reshape(v_hat.shape), type=1, norm="ortho", axes=axes).ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, self.factors)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, self.factors_transpose)


@dataclass
class BlockSystem:
    """Assembled block system: the matrix I + kron(a, L) and its right-hand side."""

    matrix: SparseMatrix
    rhs: np.ndarray

    @property
    def N(self) -> int:
        return self.matrix.N


def check_nnz(predicted: int) -> None:
    """Refuse an assembly predicted to hold more than MAX_NNZ nonzeros, before anything is built.

    The cap bounds the point-major matrix that lu_solve factors and the exported CSR form.
    """
    if predicted > MAX_NNZ:
        raise ValueError(f"predicted nnz {predicted} exceeds the cap {MAX_NNZ}")


def check_direct(N: int) -> None:
    """Refuse a direct solve of more than DIRECT_LIMIT unknowns."""
    if N > DIRECT_LIMIT:
        raise ValueError(f"N={N} exceeds the direct-solver threshold {DIRECT_LIMIT}")


def _point_major_lu(a: np.ndarray, L: sp.csr_matrix):
    """SuperLU factors of I + kron(a, L) with unknown (j, p) numbered p n + j: I + kron(L, a).

    Its CSC is the CSR of its transpose, I + kron(L^T, a^T): a block-sparse
    matrix whose block (p, q) is L^T[p, q] a^T, plus eye(n) where L^T stores
    its diagonal.  Every grid point's n x n coupling block is then
    contiguous, which suits SuperLU's supernodes.
    """
    n, M = a.shape[0], L.shape[0]
    LT = L.T.tocsr()
    offset = LT.indices - np.repeat(np.arange(M), np.diff(LT.indptr))
    blocks = LT.data[:, None, None] * a.T
    blocks[offset == 0] += np.eye(n)
    csr = sp.bsr_matrix((blocks, LT.indices, LT.indptr), shape=(n * M,) * 2).tocsr()
    csc = sp.csc_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
    # a tridiagonal L (one axis) makes the system block tridiagonal: no fill in natural order
    return splu(csc, permc_spec="NATURAL" if np.all(np.abs(offset) <= 1) else "MMD_AT_PLUS_A")


def lu_solve(A: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Direct solve by sparse LU factorization, for N up to DIRECT_LIMIT.

    A is factored in point-major order, from its two factors
    (_point_major_lu): b is renumbered on the way in and x on the way out,
    and its CSR form is never built.  The column order is the natural one
    when L is tridiagonal and a minimum-degree order of A^T + A otherwise.
    The factors are cached on A (A._lu), so later solves with the same
    matrix (one per time slab) only substitute.  A b that is not finite is
    refused before any work; a factorization that fails, entries that
    overflow while it is built included, raises SingularMatrixError.
    """
    check_direct(A.N)
    b = A._rhs(b)
    n = len(A.a)
    try:
        x = A._lu.solve(b.reshape(n, -1).T.ravel()).reshape(-1, n).T.ravel()
    except (RuntimeError, FloatingPointError, sp.linalg.MatrixRankWarning) as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("LU solve produced non-finite values (singular matrix)")
    return x


def laplacian(shape: tuple, h: float) -> sp.csr_matrix:
    """Negative zero-ghost Laplacian on a grid of this shape, in the grid's C order.

    The 3-point stencil (1/h^2) tridiag(-1, 2, -1) along each axis, summed
    over the axes (5 points in 2D).  A change of stencil reaches only here,
    sine_eigenvalues (its spectrum) and laplacian_nnz (its nonzero count).
    """
    L = None
    for m in shape:
        off = np.full(m - 1, -1.0)
        axis = sp.diags([off, np.full(m, 2.0), off], [-1, 0, 1], format="csr") / h**2
        L = axis if L is None else (sp.kron(L, sp.identity(m, format="csr"))
                                    + sp.kron(sp.identity(L.shape[0], format="csr"), axis)).tocsr()
    return L


def laplacian_nnz(shape: tuple) -> int:
    """laplacian(shape, h).nnz without building it: M (2d + 1) - 2 sum over axes of M / m.

    Every point stores its diagonal and two neighbors per axis, except that
    the M / m points on each of an axis's two faces lose one neighbor there.
    """
    M = math.prod(shape)
    return M * (2 * len(shape) + 1) - 2 * sum(M // m for m in shape)


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

    Takes the real Schur forms of a and a^T and inverts their 1 x 1 and
    2 x 2 diagonal blocks of I + lambda T once per sine mode (mode_factors),
    so that every apply solves I + lambda a per mode by one real back
    substitution.  A mode whose block pivot is zero to rounding, |1 + lambda
    u| <= n eps (1 + lambda |u|) for an eigenvalue u of a, is singular and
    raises SingularMatrixError; the pivot is 1 + lambda t for a 1 x 1 block
    [t], and its modulus hypot(1 + lambda t, lambda sqrt|b| sqrt|c|) for a
    2 x 2 block [[t, b], [c, t]].
    """
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h!r}")
    if d not in (1, 2):
        raise ValueError(f"spatial dimension must be 1 or 2, got {d!r}")
    m = round(max(m_block, 0) ** (1.0 / d))
    if m < 1 or m**d != m_block:
        raise ValueError(f"m_block={m_block!r} is not m**{d} for a whole number m of points")
    a = coupling.entries
    lam = sine_eigenvalues((m,) * d, h).ravel()
    factors = [mode_factors(schur(x, output="real"), lam) for x in (a, a.T)]
    singular = factors[0].singular | factors[1].singular
    if np.any(singular):
        raise SingularMatrixError(
            f"preconditioner block I + lambda a is singular at lambda = {float(lam[singular][0])!r}"
        )
    return SinePreconditioner(*factors, (m,) * d)


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
    from plain non-convergence via the report's breakdown flag.  A b that
    is not finite is refused before any work.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    b = A._rhs(b)
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
