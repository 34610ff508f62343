"""The 1D grid and initial field, and the one assembly and slab-wise solve of every dimension.

Discretizing the Laplacian with the 3-point stencil along every grid axis,
L = sparse_linalg.laplacian(grid shape, h), turns the projected equations
into the block system (I + kron(a, L)) c = kron(w, g), with the basis
index outermost in the unknown vector.  assemble_1d and solve_slabs see
the grid only through its mesh and spacing, so they serve solver_2d too.
Ghost values outside the grid are zero (free boundary on a large enough
grid), guarded by a decay check on the initial data's grid faces.

The solvers split [0, T] into K slabs (see time_basis).  The coupling
matrix is then block lower-triangular, so time_basis.march solves it slab
by slab: every slab has the same matrix I + kron(tau^alpha B_0, L), and
earlier slabs enter its right-hand side through the blocks B_{j-k}.
K is the first of 1, 2, 4, ... at which doubling it moves the solution
at T by at most TIME_TOL * max|g|.  A type-I sine transform diagonalizes
the zero-ghost stencils, so that check runs the same march exactly, one
sine mode at a time, before any system is built.  sup_error and
residual_orthogonality check a solved field of either dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
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
    check_nnz,
    kron_system,
    laplacian,
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
    march,
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

    def mesh(self) -> tuple:
        """Coordinate arrays, one per axis: (points,)."""
        return (self.points,)


@dataclass(frozen=True)
class _Gaussian:
    """exp(-|x|^2 / sigma^2) over all given coordinates, a picklable rule for InitialField1D."""

    sigma: float

    def __call__(self, *coords):
        return np.exp(-sum(np.asarray(c, dtype=float) ** 2 for c in coords) / self.sigma**2)


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

    def evaluate(self, *coords) -> np.ndarray:
        """g at the points given by one coordinate array per axis."""
        return np.asarray(self.rule(*(np.asarray(c, dtype=float) for c in coords)), dtype=float)


@dataclass
class SolutionField1D:
    """Galerkin coefficients c_k(x_i), shape (K*n,) + grid shape, and all that evaluates f_n."""

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


def _sample(g: InitialField1D, grid: Grid1D) -> np.ndarray:
    """g on grid.mesh(); a rule whose output is not shaped like the grid is refused."""
    mesh = grid.mesh()
    values = g.evaluate(*mesh)
    if values.shape != mesh[0].shape:
        raise ValueError(f"g gave shape {values.shape} on a grid of shape {mesh[0].shape}")
    return values


def assemble_1d(
    coupling: CouplingMatrix,
    weights: SourceProjection,
    g: InitialField1D,
    grid: Grid1D,
) -> BlockSystem:
    """Assemble I + kron(a, L) and kron(w, g) on a 1D or 2D grid; solver_2d calls it assemble_2d."""
    if weights.n != coupling.n:
        raise ValueError(f"coupling size {coupling.n} does not match weights size {weights.n}")
    values = _sample(g, grid)
    A = kron_system(coupling.entries, laplacian(values.shape, grid.h))
    return BlockSystem(A, np.kron(weights.weights, values.ravel()))


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
    grid: Grid1D,
    g: InitialField1D,
    assemble,
    method: str,
    tol: float,
    max_iter: int,
):
    """Choose K, then solve the K-slab system through march; solve_1d and solve_2d are this call.

    Warns once when g on grid.mesh() exceeds BOUNDARY_DECAY_TOL on the grid
    faces, where the zero-ghost closure assumes it negligible.
    assemble(coupling, weights, g, grid) builds the one-slab BlockSystem.
    Its matrix is factored once (LU) or preconditioned once (BiCG) and
    reused on every slab.  Each BiCG slab solve runs to a residual below
    tol * ||w g|| with at most max_iter iterations, so the whole system's
    relative residual stays below tol.  Returns the K-slab basis, the
    coefficients shaped (K*n,) + grid shape and the whole system's SolveReport.
    """
    g_values, h = _sample(g, grid), grid.h
    L = laplacian(g_values.shape, h)
    check_nnz(n * n * L.nnz)  # before the slab choice, which costs more at large grids
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
    blocks = coupling_matrix(basis, order).entries[:, :n].reshape(K, n, n)  # tau^alpha B_d
    slab = CouplingMatrix(blocks[0])
    system = assemble(slab, source_weights(build_basis(basis.slab_length, n)), g, grid)
    b = system.rhs.reshape(n, -1)
    norm_b = float(np.linalg.norm(b))
    use_direct = method == "direct" or (method == "auto" and system.N <= DIRECT_LIMIT)
    name = "direct" if use_direct else "bicg+precond"
    pc = None if use_direct else build_preconditioner(slab, h, g_values.ndim, b.shape[1])
    iterations, breakdown, squares = 0, False, 0.0

    def solve(rhs, j):
        nonlocal iterations, breakdown, squares
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
                                slabs=K, time_drift=drift, slabs_capped=capped))
        # slab j's rows of the whole K-slab system's true residual
        squares += float(np.linalg.norm(rhs.ravel() - system.matrix.matvec(x))) ** 2
        return x.reshape(b.shape)

    X, _ = march(blocks, b, solve, lambda x: (L @ x.T).T)
    residual = float(np.sqrt(squares) / (np.sqrt(K) * norm_b)) if norm_b > 0 else 0.0
    report = SolveReport(iterations, residual, True, name, breakdown,
                         slabs=K, time_drift=drift, slabs_capped=capped)
    return basis, X.reshape((K * n,) + g_values.shape), report


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
    if len(grid.mesh()) != 1:
        raise ValueError(f"solve_1d needs a 1D grid, got {type(grid).__name__}; use solve_2d")
    basis, coeffs, report = solve_slabs(order, T, n, grid, g, assemble_1d, method, tol, max_iter)
    return SolutionField1D(coeffs, grid, basis, order, g, report)


def sup_error(field: SolutionField1D, t: float, reference) -> float:
    """Sup-norm distance between the reconstruction at t and a reference.

    reference is either a callable evaluated on grid.mesh() (x, or x and y)
    or an array of per-point values on the same grid.
    """
    numeric = field.reconstruct(t)
    if callable(reference):
        ref = np.asarray(reference(*field.grid.mesh()), dtype=float)
    else:
        ref = np.asarray(reference, dtype=float)
    if ref.shape != numeric.shape:
        raise ValueError(f"reference shape {ref.shape} does not match grid shape {numeric.shape}")
    return float(np.max(np.abs(numeric - ref)))


def residual_orthogonality(field: SolutionField1D) -> float:
    """Largest Galerkin residual projection over basis functions and grid points, 1D or 2D.

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
    q = 4 * n + 16
    slab = build_basis(tau, n)
    ga = gamma_fn(alpha)

    C = field.coefficients.reshape(K, n, -1)
    values = _sample(field.initial, grid)
    gvals, L = values.ravel(), laplacian(values.shape, grid.h)
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
