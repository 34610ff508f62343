"""The block system operator, direct and iterative solvers, and the sine-mode preconditioner.

The Galerkin systems I + kron(a, L) are real and non-symmetric, with an
n x n outer block structure over the coupling matrix a.  SparseMatrix is
such a system and nothing else: it keeps the two factors, the dense a and
the sparse Laplacian L, applies the system and counts its nonzeros through
them, and builds its compressed-row form, scipy's kron, only when read.  The
one sparse LU factorization, of that form in a minimum-degree column order,
serves systems of at most DIRECT_LIMIT unknowns that solver_1d.solve_slabs
routes to it; every other system uses the bi-conjugate gradient
iteration, which needs only the products.

Its preconditioner is the exact inverse of the system.  The orthonormal
type-I sine transform along every spatial axis diagonalizes the zero-ghost
Laplacian L = laplacian(shape, h), with eigenvalues sine_eigenvalues(shape,
h) (Lynch, Rice & Thomas, Numer. Math. 6, 1964), so in sine space the
system splits into one n x n block I + lambda a per grid mode.  One real
Schur form of a (Bartels & Stewart, Comm. ACM 15, 1972), with its diagonal
blocks inverted per mode at build (time_basis.mode_factors), solves every
block, and read backwards its transpose.  BiCG then converges in one or two
iterations, and the iteration itself, with its true-residual check,
confirms the solution on the system's own products.  Each BiCG step asks
for both applications at once, so their transforms back run as one
stacked call, and the first step, whose shadow is the residual itself,
shares its forward transform: a one-iteration solve takes three sine
transforms.

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
    "check_spacing",
    "rhs_norm",
    "lu_solve",
    "bicg_solve",
    "build_preconditioner",
    "laplacian",
    "laplacian_nnz",
    "sine_eigenvalues",
    "write_matrix_market",
]

# Largest N that lu_solve factors; beyond it only the iterative solver runs.
# Within it, solver_1d.solve_slabs picks the route.
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
    outermost, is built on first read and cached; lu_solve and
    write_matrix_market read it.  _lu, the SuperLU factors of csr, is built
    on lu_solve's first call and cached, so later solves with the same
    matrix (one per time slab) only substitute.  Neither factor is modified
    after construction.  A pickled copy leaves _lu behind and refactors on
    its first solve.
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
            # nnz and csr add the identity only where L stores its diagonal
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
            # minimum degree on A^T + A fills as little as numbering each grid point's n
            # unknowns together; SuperLU's default, COLAMD, fills 2.2 times as much in 2D
            return splu(self.csr.tocsc(), permc_spec="MMD_AT_PLUS_A")

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
    slab count hit its cap.  The fields, in this order, are the key=value
    tokens of the CLI's "# report:" line.
    """

    method: str
    iterations: int
    residual: float
    converged: bool
    slabs: int = 1
    time_drift: float = 0.0
    slabs_capped: bool = False
    breakdown: bool = False


@dataclass
class SinePreconditioner:
    """Exact inverse M^{-1} of M = I + kron(a, L) for the zero-ghost Laplacian L on a grid.

    factors are the mode_factors of a for L's eigenvalue lambda of every
    sine mode in the grid's C order.  With the basis index outermost in the
    unknown vector, an application is a sine transform of the n spatial
    fields, mode_solve per mode on factors (factors.transpose() for M^{-T})
    and the transform back (the orthonormal DST-I is its own inverse).
    apply_pair gives M^{-1} v and M^{-T} vs, the two that a BiCG step needs:
    it transforms both back in one stacked call, and transforms forward
    once when vs is v.
    """

    factors: ModeFactors = field(repr=False)
    shape: tuple

    def _sine(self, v: np.ndarray) -> np.ndarray:
        """The sine transform of each grid field along v's last axis, whose size is the grid's."""
        fields = v.reshape(v.shape[:-1] + self.shape)
        axes = tuple(range(-len(self.shape), 0))
        return dstn(fields, type=1, norm="ortho", axes=axes).reshape(v.shape)

    def apply_pair(self, v: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """M^{-1} v and M^{-T} vs: three transforms when vs is v, four otherwise."""
        n = len(self.factors.T)
        v_hat = self._sine(v.reshape(n, -1))
        vs_hat = v_hat if vs is v else self._sine(vs.reshape(n, -1))
        y_hat = np.stack([mode_solve(self.factors, v_hat),
                          mode_solve(self.factors.transpose(), vs_hat)])
        z, zs = self._sine(y_hat).reshape(2, -1)
        return z, zs


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

    The cap bounds the CSR form, which lu_solve factors and write_matrix_market exports.
    """
    if predicted > MAX_NNZ:
        raise ValueError(f"predicted nnz {predicted} exceeds the cap {MAX_NNZ}")


def check_direct(N: int) -> None:
    """Refuse a direct solve of more than DIRECT_LIMIT unknowns."""
    if N > DIRECT_LIMIT:
        raise ValueError(f"N={N} exceeds the direct-solver threshold {DIRECT_LIMIT}")


def check_spacing(h: float) -> None:
    """Refuse a grid spacing h unless it is positive with finite, nonzero h^2 and 1/h^2.

    The stencil and its sine eigenvalues are multiples of 1/h^2, computed through h^2.
    """
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h!r}")
    h2 = float(h) * float(h)
    if not (0 < h2 < math.inf and 1 / h2 < math.inf):
        raise ValueError(f"spacing h = {h!r} has no finite h^2 and 1/h^2")


def rhs_norm(b: np.ndarray) -> float:
    """The 2-norm of a finite right-hand side b, refused where the sum of its squares overflows.

    The iterative solves measure every residual relative to it, and an
    infinite norm would declare any x converged.  Entries beyond about
    1e154 in size can overflow the sum.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(b))
    if norm == math.inf:
        raise ValueError(f"right-hand side of scale max|b| = {float(np.max(np.abs(b))):.3e} "
                         "is refused: the sum of its squares overflows a float")
    return norm


def lu_solve(A: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Direct solve by sparse LU factorization, for N up to DIRECT_LIMIT.

    A's CSR form (A.csr) is factored in a minimum-degree column order of
    A^T + A.  The factors are cached on A (A._lu), so later solves with the
    same matrix (one per time slab) only substitute.  A b that is not
    finite is refused before any work; a factorization that fails, entries
    that overflow while it is built included, raises SingularMatrixError.
    """
    check_direct(A.N)
    b = A._rhs(b)
    try:
        x = A._lu.solve(b)
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

    Takes the real Schur form of a and inverts its 1 x 1 and 2 x 2 diagonal
    blocks of I + lambda T once per sine mode (mode_factors), which serve
    the solves of I + lambda a and of I + lambda a^T alike.  A mode with a
    block pivot zero to rounding (mode_factors), for a and so for a^T, is
    singular and raises SingularMatrixError.  h is refused by check_spacing.
    """
    check_spacing(h)
    if d not in (1, 2):
        raise ValueError(f"spatial dimension must be 1 or 2, got {d!r}")
    m = round(max(m_block, 0) ** (1.0 / d))
    if m < 1 or m**d != m_block:
        raise ValueError(f"m_block={m_block!r} is not m**{d} for a whole number m of points")
    lam = sine_eigenvalues((m,) * d, h).ravel()
    factors = mode_factors(schur(coupling.entries, output="real"), lam)
    singular = factors.singular
    if np.any(singular):
        raise SingularMatrixError(
            f"preconditioner block I + lambda a is singular at lambda = {float(lam[singular][0])!r}"
        )
    return SinePreconditioner(factors, (m,) * d)


def _fresh_shadow(N: int, attempt: int) -> np.ndarray:
    # deterministic replacement shadow vector for the restart path
    rng = np.random.default_rng(12345 + attempt)
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


def _breaks_down(inner: float, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the inner product u @ v vanishes to rounding: |inner| <= 1e-14 ||u|| ||v||."""
    return bool(abs(inner) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(v))


def _unpreconditioned(v: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return v, vs


# an overflow inside the iteration ends it with a non-finite test below, not a warning
@np.errstate(over="ignore", invalid="ignore")
def bicg_solve(
    A: SparseMatrix,
    b: np.ndarray,
    precond: SinePreconditioner | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned bi-conjugate gradient iteration.

    Left preconditioning: z = M^{-1} r drives the iteration and the
    transposed applications the shadow recurrence; one apply_pair call
    gives both, and at the start, where the shadow is r itself, it
    transforms r forward once.  Every verdict is the
    true relative residual ||b - Ax|| / ||b|| <= tol.  A breakdown
    (vanishing inner product) restarts once from the current iterate with a
    fresh shadow vector, unless that iterate has converged; only a breakdown
    of the restart too sets the report's breakdown flag.  One that takes the
    last iteration max_iter allows ends the solve unrestarted, as plain
    non-convergence.  The iteration stops at the first residual norm, rho
    or sigma that is not finite.  A b that is not finite, or whose norm
    overflows (rhs_norm), is refused before any work.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    b = A._rhs(b)
    method = "bicg+precond" if precond is not None else "bicg"
    # z = M^{-1} r and zs = M^{-T} shadow come from one call
    m_pair = precond.apply_pair if precond is not None else _unpreconditioned

    norm_b = rhs_norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), SolveReport(method, 0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    iterations = 0
    for restart in range(2):
        shadow = _fresh_shadow(b.size, 1) if restart else r.copy()
        # the first shadow equals r: passed r itself, the preconditioner transforms it once
        z, zs = m_pair(r, shadow if restart else r)
        p, ps = z.copy(), zs.copy()
        rho = float(shadow @ z)
        broke = _breaks_down(rho, shadow, z)
        while not broke and iterations < max_iter:
            q, qs = A.matvec(p), A.rmatvec(ps)
            sigma = float(ps @ q)
            if not math.isfinite(sigma) or (broke := _breaks_down(sigma, ps, q)):
                break
            step = rho / sigma
            x += step * p
            r -= step * q
            shadow -= step * qs
            iterations += 1
            residual = float(np.linalg.norm(r))
            if not math.isfinite(residual):
                break
            if residual <= tol * norm_b:
                # confirm on the true residual before declaring convergence
                true_res = float(np.linalg.norm(b - A.matvec(x)) / norm_b)
                if true_res <= tol:
                    return x, SolveReport(method, iterations, true_res, True)
            z, zs = m_pair(r, shadow)
            rho_new = float(shadow @ z)
            if not math.isfinite(rho_new) or (broke := _breaks_down(rho_new, shadow, z)):
                break
            beta = rho_new / rho
            p = z + beta * p
            ps = zs + beta * ps
            rho = rho_new

        # the true residual: the restart's start, or the verdict's
        r = b - A.matvec(x)
        true_res = float(np.linalg.norm(r) / norm_b)
        if not broke or true_res <= tol or iterations == max_iter:
            break
    converged = bool(true_res <= tol)
    return x, SolveReport(method, iterations, true_res, converged,
                          breakdown=broke and bool(restart) and not converged)


def write_matrix_market(A: SparseMatrix, path) -> None:
    """Export in Matrix Market coordinate text format (general, 1-based).

    The open handle keeps path exactly as given (mmwrite appends .mtx to a
    bare path), and the explicit symmetry keeps the header general for a
    symmetric matrix too.
    """
    from scipy.io import mmwrite  # here, not at the top: it adds about 30 ms to `import memwave`

    with open(path, "wb") as fh:
        mmwrite(fh, A.csr, symmetry="general")
