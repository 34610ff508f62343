"""The 1D grid and initial field, and the one assembly and slab-wise solve of every dimension.

Discretizing the Laplacian with the 3-point stencil along every grid axis,
L = sparse_linalg.laplacian(grid shape, h), turns the projected equations
into the block system (I + kron(a, L)) c = kron(w, g), with the basis
index outermost in the unknown vector.  assemble_1d and solve_slabs see
the grid only through its shape, mesh and spacing, so they serve solver_2d
too.
Ghost values outside the grid are zero (free boundary on a large enough
grid), guarded by one decay check on grid faces (an EdgeWarning) for this
solve and every resolvent action; initial data reaches a grid only through sample.

The solvers split [0, T] into K slabs (see time_basis).  The coupling
matrix is then block lower-triangular, so time_basis.march solves it slab
by slab: every slab has the same matrix I + kron(tau^alpha B_0, L), and
earlier slabs enter its right-hand side through the blocks B_{j-k}.
solve_slabs factors that matrix once (LU) or preconditions it once (BiCG).
K is the first of 1, 2, 4, ... at which doubling it moves the solution
at T by at most TIME_TOL * max|g|.  A type-I sine transform diagonalizes
the zero-ghost stencils, so that check runs the same march exactly, one
sine mode at a time, before any system is built.  sup_error and
residual_orthogonality check a solved field of either dimension.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dstn

from .memory_kernel import MemoryOrder
from .sparse_linalg import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DIRECT_LIMIT,
    BlockSystem,
    SolveReport,
    SparseMatrix,
    bicg_solve,
    build_preconditioner,
    check_direct,
    check_nnz,
    check_spacing,
    laplacian,
    laplacian_nnz,
    lu_solve,
    rhs_norm,
    sine_eigenvalues,
)
from .time_basis import (
    TIME_TOL,
    CouplingMatrix,
    SourceProjection,
    TimeBasis,
    _unit_block,
    build_basis,
    coupling_matrix,
    endpoint_transfer,
    march,
    reconstruct,
    slab_blocks,
    source_weights,
)

__all__ = [
    "Grid1D",
    "InitialField1D",
    "SolutionField1D",
    "SolverConvergenceError",
    "EdgeWarning",
    "BOUNDARY_DECAY_TOL",
    "MAX_SLABS",
    "assemble_1d",
    "choose_slabs",
    "solve_1d",
    "sup_error",
    "residual_orthogonality",
    "sample",
]

BOUNDARY_DECAY_TOL = 1e-12


class EdgeWarning(UserWarning):
    """Data above BOUNDARY_DECAY_TOL on the grid faces, where the zero-ghost closure needs none."""


# Largest slab count choose_slabs returns; reaching it is recorded in the report.
MAX_SLABS = 64


class SolverConvergenceError(RuntimeError):
    """Iterative solve failed; carries the SolveReport."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of m points spanning [x_min, x_max] inclusive along each of ndim axes.

    The stencil's ghost neighbors sit one spacing outside the interval and
    carry zero values.
    """

    ndim = 1  # unannotated: a class constant, not a dataclass field

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
        check_spacing(self.h)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.m - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.m)

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.ndim

    def mesh(self) -> tuple:
        """Coordinate arrays, one per axis, each shaped like the grid (x along the first axis)."""
        if self.ndim == 1:  # meshgrid would only copy, once per trajectory member
            return (self.points,)
        return tuple(np.meshgrid(*(self.points,) * self.ndim, indexing="ij"))


@dataclass(frozen=True)
class _Gaussian:
    """exp(-|x|^2 / sigma^2) over all given coordinates, a picklable rule for InitialField1D."""

    sigma: float

    def __call__(self, *coords):
        # a quotient past the float range only reaches exp's underflow to 0 one step early
        with np.errstate(over="ignore"):
            return np.exp(-sum(np.asarray(c, dtype=float) ** 2 for c in coords) / self.sigma**2)


def _check_width(sigma, name: str = "sigma") -> None:
    """Refuse a Gaussian width unless it is positive and its square a finite normal float.

    A subnormal square would lose digits in sigma / sqrt(sigma^2) and similar ratios.
    """
    if not (sigma > 0 and sys.float_info.min <= float(sigma) * float(sigma) < math.inf):
        raise ValueError(f"{name} must be positive with a finite normal square, got {sigma!r}")


@dataclass(frozen=True)
class InitialField1D:
    """Initial condition g(x), assumed negligible at the grid boundary."""

    rule: object = field(repr=False)
    label: str = "custom"

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "InitialField1D":
        _check_width(sigma)
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


def _check_edges(template: str, *fields, stacklevel: int) -> None:
    """The one face check: one EdgeWarning(template.format(edge)), edge the fields' largest
    face value, if that is above BOUNDARY_DECAY_TOL."""
    edge = max(map(boundary_magnitude, fields))
    if edge > BOUNDARY_DECAY_TOL:
        warnings.warn(template.format(edge), EdgeWarning, stacklevel=stacklevel + 1)


def sample(g: InitialField1D, grid: Grid1D) -> np.ndarray:
    """g on grid.mesh(), the one gate to a grid: refuses values not finite or not grid-shaped."""
    values = g.evaluate(*grid.mesh())
    if values.shape != grid.shape:
        raise ValueError(f"g gave shape {values.shape} on a grid of shape {grid.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"g is not finite on the grid ({g.label})")
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
    values = sample(g, grid)
    rhs = np.kron(weights.weights, values.ravel())
    return BlockSystem(SparseMatrix(coupling.entries, laplacian(grid.shape, grid.h)), rhs)


def choose_slabs(order: MemoryOrder, T: float, n: int, g_values: np.ndarray, h: float):
    """Slab count K for the grid values g_values (1D or 2D) on spacing h.

    Tries K = 1, 2, 4, ... and stops at the first K whose solution at T is
    within TIME_TOL * max|g| of the solution with 2K slabs, both evaluated
    exactly per sine mode.  The tolerance is relative, so g and 3g get the
    same K.  Returns (K, drift, capped): drift is the last doubling
    difference, and capped is True when K reached MAX_SLABS unconverged.
    """
    g_values = np.asarray(g_values, dtype=float)
    # every level marches each distinct eigenvalue once
    lam, modes = np.unique(sine_eigenvalues(g_values.shape, h), return_inverse=True)
    modes = modes.reshape(g_values.shape)
    g_hat = dstn(g_values, type=1, norm="ortho")
    target = TIME_TOL * float(np.max(np.abs(g_values)))
    K = 1
    prev = endpoint_transfer(build_basis(T, n), order, lam)
    while True:
        nxt = endpoint_transfer(build_basis(T, n, 2 * K), order, lam)
        drift = float(np.max(np.abs(dstn((prev - nxt)[modes] * g_hat, type=1, norm="ortho"))))
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

    Before g is sampled, grid.shape alone decides check_nnz and, for a forced
    direct solve, check_direct.  Warns once when g on grid.mesh() exceeds
    BOUNDARY_DECAY_TOL on the grid faces, where the zero-ghost closure
    assumes it negligible.  assemble(coupling, weights, g, grid) builds the
    one-slab BlockSystem, whose matrix's L also carries earlier slabs into
    the right-hand side.  method "auto" takes LU for a 1D slab system of at
    most DIRECT_LIMIT unknowns when K >= n, and the preconditioned BiCG
    otherwise, in 2D at every size.  Timed with K forced (README's
    crossover table), that route is within 1.14x of the faster one for
    n <= 12; from n = 16 on BiCG is faster at K >= n too, LU up to 1.71x
    slower.  The matrix is factored once (LU) or preconditioned once (BiCG)
    and reused on every slab.  Each BiCG slab solve runs to a residual
    below tol * ||w g|| with at most max_iter iterations, so the whole
    system's relative residual stays below tol.  A right-hand side
    whose sum of squares overflows a float is refused (rhs_norm), since
    every residual is measured against its norm; data that overflows at
    every slab count is refused before the slab choice.  Returns the K-slab
    basis, the coefficients shaped (K*n,) + grid shape and the whole
    system's SolveReport.
    """
    if method not in ("auto", "direct", "bicg"):
        raise ValueError(f"unknown method {method!r}")
    check_nnz(n * n * laplacian_nnz(grid.shape))
    if method == "direct":
        check_direct(n * math.prod(grid.shape))
    g_values, h = sample(g, grid), grid.h
    _check_edges("initial data is {:.2e} at the grid boundary; free-boundary "
                 "closure assumes negligible values there", g_values, stacklevel=3)
    # the right-hand side kron(w, g) at K = MAX_SLABS, whose w_1 = sqrt(tau) is the least of
    # any K: where its sum of squares overflows, every K's does, so refuse before the slab choice
    rhs_norm(np.kron(source_weights(build_basis(T, n, MAX_SLABS)).weights[:n], g_values.ravel()))
    K, drift, capped = choose_slabs(order, T, n, g_values, h)
    if capped:
        warnings.warn(
            f"slab count capped at {MAX_SLABS}: doubling still moved the solution at T "
            f"by {drift:.2e}, above {TIME_TOL:g} x max|g|",
            stacklevel=3,
        )
    basis = build_basis(T, n, K)
    one_slab = build_basis(basis.slab_length, n)
    slab = coupling_matrix(one_slab, order)  # tau^alpha B_0
    _, blocks = slab_blocks(basis, order)
    system = assemble(slab, source_weights(one_slab), g, grid)
    b = system.rhs.reshape(n, -1)
    norm_b = rhs_norm(b)
    use_direct = method == "direct" or (method == "auto" and grid.ndim == 1
                                        and system.N <= DIRECT_LIMIT and K >= n)
    name = "direct" if use_direct else "bicg+precond"
    pc = None if use_direct else build_preconditioner(slab, h, grid.ndim, b.shape[1])
    iterations, breakdown, squares = 0, False, 0.0

    def solve(rhs, j):
        nonlocal iterations, breakdown, squares
        if use_direct:
            x = lu_solve(system.matrix, rhs.ravel())
            # slab j's rows of the whole K-slab system's true residual
            squares += float(np.linalg.norm(rhs.ravel() - system.matrix.matvec(x))) ** 2
        else:
            norm_rhs = rhs_norm(rhs)
            slab_tol = tol * norm_b / norm_rhs if norm_rhs > 0 else tol
            x, rep = bicg_solve(system.matrix, rhs.ravel(), pc, tol=slab_tol, max_iter=max_iter)
            iterations += rep.iterations
            breakdown = breakdown or rep.breakdown
            if not rep.converged:
                kind = "breakdown" if rep.breakdown else "no convergence"
                raise SolverConvergenceError(
                    f"iterative solve failed ({kind}) on slab {j + 1} of {K} after "
                    f"{iterations} iterations, residual {rep.residual:.3e}",
                    SolveReport(name, iterations, rep.residual, False, K, drift, capped,
                                rep.breakdown))
            # bicg_solve confirmed this true residual, relative to ||rhs||, before returning
            squares += (rep.residual * norm_rhs) ** 2
        return x.reshape(b.shape)

    X = march(blocks, b, solve, lambda x: (system.matrix.L @ x.T).T)
    residual = float(np.sqrt(squares) / (np.sqrt(K) * norm_b)) if norm_b > 0 else 0.0
    report = SolveReport(name, iterations, residual, True, K, drift, capped, breakdown)
    return basis, X.reshape((K * n,) + grid.shape), report


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
    choose_slabs.  method "auto" picks LU or the preconditioned iteration
    by solve_slabs' rule; "direct" or "bicg" force one path.
    """
    if len(grid.shape) != 1:
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
    Gauss-Legendre rule; the memory within the slab and from the previous
    slab through tau^alpha times the unit coupling blocks B_0 and B_1, by
    time_basis's Gauss-Jacobi and Duffy-split rules at this check's own
    node count; and earlier slabs, seen through a smooth kernel, through
    tensor Gauss-Legendre.  Each part is integrated exactly up to rounding.
    """
    basis, order, grid = field.basis, field.order, field.grid
    n, K, tau, alpha = basis.size_n, basis.slabs, basis.slab_length, order.alpha
    q = 4 * n + 16
    slab = build_basis(tau, n)
    ga = math.gamma(alpha)

    C = field.coefficients.reshape(K, n, -1)
    values = sample(field.initial, grid)
    gvals, L = values.ravel(), laplacian(values.shape, grid.h)
    LC = np.array([(L @ c.T).T for c in C])

    # polynomial part and distant slabs: Gauss-Legendre on a slab
    x_gl, w_gl = np.polynomial.legendre.leggauss(q)
    t_gl = tau * (x_gl + 1.0) / 2.0
    w_gl = w_gl * tau / 2.0
    phi_gl = slab.evaluate(t_gl)
    # same and previous slab: the coupling blocks tau^alpha B_0 and tau^alpha B_1
    own, previous = (tau**alpha * _unit_block(n, order, d, q) for d in (0, 1))

    worst = 0.0
    for j in range(K):
        proj = (phi_gl * w_gl) @ (C[j].T @ phi_gl - gvals[:, None]).T
        proj += own @ LC[j]
        if j >= 1:
            proj += previous @ LC[j - 1]
        for k in range(j - 1):
            lag = (j - k) * tau + t_gl[:, None] - t_gl[None, :]
            kern = lag ** (alpha - 1.0) / ga * np.outer(w_gl, w_gl)
            proj += phi_gl @ kern @ (LC[k].T @ phi_gl).T
        worst = max(worst, float(np.max(np.abs(proj))))
    return worst
