"""Assembly and solution of the 1D block system, and the slab marching both dimensions share.

Discretizing the Laplacian with the 3-point stencil on a uniform grid of
m points turns the projected equations into the block system

    (I + kron(a, L)) c = kron(w, g),    L = (1/h^2) tridiag(-1, 2, -1),

with the basis index outermost in the unknown vector.  Ghost values
outside the grid are zero (free boundary on a large enough grid), guarded
by a decay check on the initial data's grid faces.

The solvers split [0, T] into K slabs (see time_basis).  The coupling
matrix is then block lower-triangular, so the system is solved slab by
slab: every slab has the same matrix I + kron(tau^alpha B_0, L), and
earlier slabs enter its right-hand side through the blocks B_{j-k}.
K is the first of 1, 2, 4, ... at which doubling it moves the solution
at T by at most TIME_TOL * max|g|.  A type-I sine transform diagonalizes
the zero-ghost stencils, so that check runs exactly, one sine mode at a
time, before any system is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.special import roots_jacobi

from .memory_kernel import MemoryOrder, gamma_fn
from .sparse_linalg import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DIRECT_LIMIT,
    BlockSystem,
    SolveReport,
    bicg_solve,
    build_preconditioner,
    kron_system,
    lu_solve,
    sine_eigenvalues,
)
from .time_basis import (
    TIME_TOL,
    CouplingMatrix,
    SourceProjection,
    TimeBasis,
    adjacent_integral,
    build_basis,
    coupling_matrix,
    endpoint_transfer,
    kernel_convolution,
    reconstruct,
    source_weights,
)

__all__ = [
    "Grid1D",
    "InitialField1D",
    "SolutionField1D",
    "SolverConvergenceError",
    "BOUNDARY_DECAY_TOL",
    "MAX_SLABS",
    "assemble_1d",
    "choose_slabs",
    "solve_1d",
    "sup_error",
    "residual_orthogonality",
]

BOUNDARY_DECAY_TOL = 1e-12

# Largest slab count choose_slabs returns; reaching it is recorded in the report.
MAX_SLABS = 64


class SolverConvergenceError(RuntimeError):
    """Iterative solve failed; carries the SolveReport."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of m points spanning [x_min, x_max] inclusive.

    The stencil's ghost neighbors sit one spacing outside the interval and
    carry zero values.
    """

    x_min: float
    x_max: float
    m: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if not np.isfinite(self.x_max - self.x_min):
            raise ValueError(f"need a finite span x_max - x_min, got [{self.x_min}, {self.x_max}]")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 3):
            raise ValueError(f"m must be an integer >= 3, got {self.m!r}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.m - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.m)


@dataclass(frozen=True)
class _Gaussian:
    """exp(-x^2 / sigma^2), a picklable rule for InitialField1D."""

    sigma: float

    def __call__(self, x):
        return np.exp(-np.asarray(x, dtype=float) ** 2 / self.sigma**2)


@dataclass(frozen=True)
class InitialField1D:
    """Initial condition g(x), assumed negligible at the grid boundary."""

    rule: object = field(repr=False)
    label: str = "custom"

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "InitialField1D":
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma!r}")
        return cls(rule=_Gaussian(sigma), label=f"gaussian(sigma={sigma})")

    def evaluate(self, x) -> np.ndarray:
        return np.asarray(self.rule(np.asarray(x, dtype=float)), dtype=float)


@dataclass
class SolutionField1D:
    """Galerkin coefficients c_k(x_i), shape (K*n, m), with everything needed to evaluate f_n."""

    coefficients: np.ndarray
    grid: Grid1D
    basis: TimeBasis
    order: MemoryOrder
    initial: InitialField1D
    report: SolveReport

    def reconstruct(self, t: float) -> np.ndarray:
        """Spatial field f_n at one time, shaped like one coefficient slice."""
        return reconstruct(self.coefficients, self.basis, t)


def boundary_magnitude(values) -> float:
    """Largest |value| on the faces of a grid array: both ends in 1D, all four edges in 2D."""
    v = np.asarray(values, dtype=float)
    # no numpy reduction: resolvent_apply runs this twice a call, on two values
    return float(max(abs(x) for axis in range(v.ndim) for x in v.take((0, -1), axis).flat))


def laplacian_1d(m: int, h: float) -> sp.csr_matrix:
    """Negative 3-point Laplacian (1/h^2) tridiag(-1, 2, -1), m x m."""
    main = np.full(m, 2.0)
    off = np.full(m - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def assemble_1d(
    coupling: CouplingMatrix,
    weights: SourceProjection,
    g: InitialField1D,
    grid: Grid1D,
) -> BlockSystem:
    """Assemble the N = n*m block system with tridiagonal blocks."""
    if weights.n != coupling.n:
        raise ValueError(f"coupling size {coupling.n} does not match weights size {weights.n}")
    A = kron_system(coupling.entries, laplacian_1d(grid.m, grid.h))
    return BlockSystem(A, np.kron(weights.weights, g.evaluate(grid.points)))


def choose_slabs(order: MemoryOrder, T: float, n: int, g_values: np.ndarray, h: float):
    """Slab count K for the grid values g_values (1D or 2D) on spacing h.

    Tries K = 1, 2, 4, ... and stops at the first K whose solution at T is
    within TIME_TOL * max|g| of the solution with 2K slabs, both evaluated
    exactly per sine mode.  The tolerance is relative, so g and 3g get the
    same K.  Returns (K, drift, capped): drift is the last doubling
    difference, and capped is True when K reached MAX_SLABS unconverged.
    """
    g_values = np.asarray(g_values, dtype=float)
    lam = sine_eigenvalues(g_values.shape, h)
    g_hat = dstn(g_values, type=1, norm="ortho")
    target = TIME_TOL * float(np.max(np.abs(g_values)))
    K = 1
    prev = endpoint_transfer(build_basis(T, n), order, lam)
    while True:
        nxt = endpoint_transfer(build_basis(T, n, 2 * K), order, lam)
        drift = float(np.max(np.abs(dstn((prev - nxt) * g_hat, type=1, norm="ortho"))))
        if drift <= target:
            return K, drift, False
        K, prev = 2 * K, nxt
        if K == MAX_SLABS:
            return K, drift, True


def solve_slabs(
    order: MemoryOrder,
    T: float,
    n: int,
    g_values: np.ndarray,
    h: float,
    laplacian: sp.csr_matrix,
    assemble,
    method: str,
    tol: float,
    max_iter: int,
):
    """Choose K, then march the K-slab system slab by slab; shared by solve_1d and solve_2d.

    Warns once when g_values exceed BOUNDARY_DECAY_TOL on the grid faces,
    where the zero-ghost closure assumes them negligible.
    assemble(coupling, weights) builds the one-slab BlockSystem.  Its matrix
    is factored once (LU) or preconditioned once (BiCG) and reused on every
    slab.  Each BiCG slab solve runs to a residual below tol * ||w g|| with
    at most max_iter iterations, so the whole system's relative residual
    stays below tol.  Returns the K-slab basis, the coefficients as a
    (K*n, number of grid points) array and the SolveReport of the whole system.
    """
    edge = boundary_magnitude(g_values)
    if edge > BOUNDARY_DECAY_TOL:
        warnings.warn(
            f"initial data is {edge:.2e} at the grid boundary; "
            "free-boundary closure assumes negligible values there",
            stacklevel=3,
        )
    if method not in ("auto", "direct", "bicg"):
        raise ValueError(f"unknown method {method!r}")
    K, drift, capped = choose_slabs(order, T, n, g_values, h)
    if capped:
        warnings.warn(
            f"slab count capped at {MAX_SLABS}: doubling still moved the solution at T "
            f"by {drift:.2e}, above {TIME_TOL:g} x max|g|",
            stacklevel=3,
        )
    basis = build_basis(T, n, K)
    a = coupling_matrix(basis, order).entries
    blocks = a[:, :n].reshape(K, n, n)  # tau^alpha B_d, d = 0 .. K-1
    slab = CouplingMatrix(blocks[0])
    system = assemble(slab, source_weights(build_basis(basis.slab_length, n)))
    b = system.rhs.reshape(n, -1)
    norm_b = float(np.linalg.norm(b))
    use_direct = method == "direct" or (method == "auto" and system.N <= DIRECT_LIMIT)
    if use_direct:
        name = "direct"
    else:
        pc = build_preconditioner(slab, h, g_values.ndim, b.shape[1])
        name = "bicg+precond"
    X = np.empty((K,) + b.shape)
    LX = np.empty_like(X)
    iterations, breakdown = 0, False
    for j in range(K):
        rhs = b - np.tensordot(blocks[j:0:-1], LX[:j], axes=([0, 2], [0, 1])) if j else b
        if use_direct:
            x = lu_solve(system.matrix, rhs.ravel())
        else:
            norm_rhs = float(np.linalg.norm(rhs))
            slab_tol = tol * norm_b / norm_rhs if norm_rhs > 0 else tol
            x, rep = bicg_solve(system.matrix, rhs.ravel(), pc, tol=slab_tol, max_iter=max_iter)
            iterations += rep.iterations
            breakdown = breakdown or rep.breakdown
            if not rep.converged:
                kind = "breakdown" if rep.breakdown else "no convergence"
                raise SolverConvergenceError(
                    f"iterative solve failed ({kind}) on slab {j + 1} of {K} after "
                    f"{iterations} iterations, residual {rep.residual:.3e}",
                    SolveReport(iterations, rep.residual, False, name, rep.breakdown,
                                slabs=K, time_drift=drift, slabs_capped=capped),
                )
        X[j] = x.reshape(b.shape)
        LX[j] = (laplacian @ X[j].T).T
    # true relative residual of the whole K-slab system: the slab matrix on
    # the diagonal blocks, the coupling matrix's lower blocks below them
    lower = a - np.kron(np.eye(K), blocks[0])
    R = np.concatenate([b - system.matrix.matvec(x.ravel()).reshape(b.shape) for x in X])
    R -= lower @ LX.reshape(K * n, -1)
    residual = float(np.linalg.norm(R) / (np.sqrt(K) * norm_b)) if norm_b > 0 else 0.0
    coeffs = X.reshape(K * n, -1)
    report = SolveReport(iterations, residual, True, name, breakdown,
                         slabs=K, time_drift=drift, slabs_capped=capped)
    return basis, coeffs, report


def solve_1d(
    order: MemoryOrder,
    T: float,
    n: int,
    grid: Grid1D,
    g: InitialField1D,
    method: str = "auto",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolutionField1D:
    """Solve on [0, T] and return the reconstructable coefficient field.

    n counts basis functions per time slab; the slab count K is chosen by
    choose_slabs.  method "auto" picks LU when the one-slab system has at
    most the direct threshold of unknowns and the preconditioned iteration
    beyond; "direct" or "bicg" force one path.
    """
    basis, coeffs, report = solve_slabs(
        order, T, n, g.evaluate(grid.points), grid.h, laplacian_1d(grid.m, grid.h),
        lambda coupling, weights: assemble_1d(coupling, weights, g, grid),
        method, tol, max_iter,
    )
    return SolutionField1D(coeffs, grid, basis, order, g, report)


def sup_error(field: SolutionField1D, t: float, reference) -> float:
    """Sup-norm distance between the reconstruction at t and a reference.

    reference is either a callable evaluated on the grid or an array of
    per-point values on the same grid.
    """
    numeric = field.reconstruct(t)
    if callable(reference):
        ref = np.asarray(reference(field.grid.points), dtype=float)
    else:
        ref = np.asarray(reference, dtype=float)
    if ref.shape != numeric.shape:
        raise ValueError(f"reference shape {ref.shape} does not match grid shape {numeric.shape}")
    return float(np.max(np.abs(numeric - ref)))


def residual_orthogonality(field: SolutionField1D) -> float:
    """Largest Galerkin residual projection over basis functions and grid points.

    Evaluates eps_n(x_i, t) = f_n - g - int_0^t a(t-s) Lap_h f_n(., s) ds
    and projects it onto each phi_j by quadrature, slab by slab, without
    reusing the assembled system.  The polynomial part goes through a
    Gauss-Legendre rule; the memory within the slab through a Gauss-Jacobi
    rule that absorbs the (t - t_k)^alpha factor; the previous slab, whose
    kernel is singular at the shared break, through the Duffy-split rule;
    and earlier slabs, seen through a smooth kernel, through tensor
    Gauss-Legendre.  Each part is integrated exactly up to rounding.
    """
    basis, order, grid = field.basis, field.order, field.grid
    n, K, tau, alpha = basis.size_n, basis.slabs, basis.slab_length, order.alpha
    m = grid.m
    q = 4 * n + 16
    slab = build_basis(tau, n)
    ga = gamma_fn(alpha)

    C = field.coefficients.reshape(K, n, m)
    gvals = field.initial.evaluate(grid.points)
    L = laplacian_1d(m, grid.h)
    LC = np.array([(L @ c.T).T for c in C])

    # polynomial part and distant slabs: Gauss-Legendre on a slab
    x_gl, w_gl = np.polynomial.legendre.leggauss(q)
    t_gl = tau * (x_gl + 1.0) / 2.0
    w_gl = w_gl * tau / 2.0
    phi_gl = slab.evaluate(t_gl)
    # same slab: I_k(t) = t^alpha * polynomial on the slab's local time
    x_j, w_j = roots_jacobi(q, 0.0, alpha)
    t_j = tau * (x_j + 1.0) / 2.0
    w_eff = w_j * (tau / 2.0) ** (alpha + 1.0) / t_j**alpha
    phi_j = slab.evaluate(t_j) * w_eff
    IK = kernel_convolution(slab, order, t_j, q)
    # previous slab: t = b + tau u and s = b - tau v around the break b
    adjacent = adjacent_integral(lambda x: slab.evaluate(tau * x), q, alpha)
    adjacent *= tau ** (alpha + 1.0) / ga

    worst = 0.0
    for j in range(K):
        proj = (phi_gl * w_gl) @ (C[j].T @ phi_gl - gvals[:, None]).T
        proj += phi_j @ (LC[j].T @ IK).T
        if j >= 1:
            proj += adjacent @ LC[j - 1]
        for k in range(j - 1):
            lag = (j - k) * tau + t_gl[:, None] - t_gl[None, :]
            kern = lag ** (alpha - 1.0) / ga * np.outer(w_gl, w_gl)
            proj += phi_gl @ kern @ (LC[k].T @ phi_gl).T
        worst = max(worst, float(np.max(np.abs(proj))))
    return worst
