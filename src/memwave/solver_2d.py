"""Assembly and solution of the 2D block system.

The unknown vector is ordered with the basis index outermost, then x,
then y.  Each outer block [A_jk] is delta_jk I + a_jk L2 where L2 is the
5-point Laplacian stencil matrix: block-tridiagonal with tridiagonal
diagonal blocks (diagonal 4/h^2, off-diagonals -1/h^2) and diagonal
coupling blocks (-1/h^2) between adjacent x-slices.  The nonzero count is
bounded by n^2 m (5m - 4), with equality when every coupling entry is
nonzero.

Assembly proceeds one outer block row at a time so the peak memory stays
near the final matrix size; a predicted-nnz cap guards desk machines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .memory_kernel import MemoryOrder
from .solver_1d import BOUNDARY_DECAY_TOL, laplacian_1d, solve_slabs
from .sparse_linalg import BlockSystem, SolveReport, SparseMatrix
from .time_basis import CouplingMatrix, SourceProjection, TimeBasis, reconstruct

# The solve routes run inside solver_1d.solve_slabs.  perfbench's tracer
# wraps these module attributes (SITES in perfbench/harness.py), so they
# stay importable from here.
from .sparse_linalg import bicg_solve, build_preconditioner, lu_solve  # noqa: F401
from .time_basis import coupling_matrix  # noqa: F401

__all__ = [
    "Grid2D",
    "InitialField2D",
    "SolutionField2D",
    "DEFAULT_NNZ_CAP",
    "sparsity_bound",
    "laplacian_2d",
    "assemble_2d",
    "verify_sparsity",
    "solve_2d",
]

DEFAULT_NNZ_CAP = 200_000_000


@dataclass(frozen=True)
class Grid2D:
    """Square domain [x_min, x_max]^2 with m points per axis."""

    x_min: float
    x_max: float
    m: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 3):
            raise ValueError(f"m must be an integer >= 3, got {self.m!r}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.m - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.m)

    def mesh(self):
        """Coordinate arrays X, Y of shape (m, m), x along the first axis."""
        return np.meshgrid(self.points, self.points, indexing="ij")


@dataclass(frozen=True)
class _RadialGaussian:
    """exp(-(x^2 + y^2) / sigma^2), a picklable rule for InitialField2D."""

    sigma: float

    def __call__(self, x, y):
        return np.exp(-(np.asarray(x) ** 2 + np.asarray(y) ** 2) / self.sigma**2)


@dataclass(frozen=True)
class _AnisotropicGaussian:
    """exp(-(x+y)^2 / sigma1^2 - (x-y)^2 / sigma2^2), a picklable rule for InitialField2D."""

    sigma1: float
    sigma2: float

    def __call__(self, x, y):
        return np.exp(
            -((np.asarray(x) + np.asarray(y)) ** 2) / self.sigma1**2
            - ((np.asarray(x) - np.asarray(y)) ** 2) / self.sigma2**2
        )


@dataclass(frozen=True)
class InitialField2D:
    """Initial condition g(x, y), negligible on the domain boundary."""

    rule: object = field(repr=False)
    label: str = "custom"

    @classmethod
    def radial_gaussian(cls, sigma: float = 2.0) -> "InitialField2D":
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma!r}")
        return cls(rule=_RadialGaussian(sigma), label=f"radial_gaussian(sigma={sigma})")

    @classmethod
    def anisotropic_gaussian(cls, sigma1: float, sigma2: float) -> "InitialField2D":
        """Rotated Gaussian exp(-(x+y)^2/sigma1^2 - (x-y)^2/sigma2^2)."""
        if not (sigma1 > 0 and sigma2 > 0):
            raise ValueError(f"widths must be positive, got {sigma1!r}, {sigma2!r}")
        return cls(
            rule=_AnisotropicGaussian(sigma1, sigma2),
            label=f"anisotropic_gaussian(sigma1={sigma1}, sigma2={sigma2})",
        )

    def evaluate(self, x, y) -> np.ndarray:
        return np.asarray(self.rule(np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
                          dtype=float)

    def boundary_decay(self, grid: Grid2D) -> float:
        p = grid.points
        edges = [
            self.evaluate(p, np.full_like(p, grid.x_min)),
            self.evaluate(p, np.full_like(p, grid.x_max)),
            self.evaluate(np.full_like(p, grid.x_min), p),
            self.evaluate(np.full_like(p, grid.x_max), p),
        ]
        return float(max(np.max(np.abs(e)) for e in edges))


@dataclass
class SolutionField2D:
    """Galerkin coefficients c_k(x_i, y_l), stored as (K*n, m, m)."""

    coefficients: np.ndarray
    grid: Grid2D
    basis: TimeBasis
    order: MemoryOrder
    initial: InitialField2D
    report: SolveReport

    def reconstruct(self, t: float) -> np.ndarray:
        """Field f_n(x_i, y_l, t) of shape (m, m)."""
        return reconstruct(self.coefficients, self.basis, t)

    def section(self, t: float, y: float = 0.0) -> np.ndarray:
        """1D section f_n(x_i, y, t) along the grid row nearest to y."""
        iy = int(np.argmin(np.abs(self.grid.points - y)))
        return self.reconstruct(t)[:, iy]


def sparsity_bound(n: int, m: int) -> int:
    """Upper bound n^2 m (5m - 4) on the nonzero count of the 2D matrix."""
    return n * n * m * (5 * m - 4)


def laplacian_2d(m: int, h: float) -> sp.csr_matrix:
    """Negative 5-point Laplacian on the m x m grid, x index outermost."""
    L1 = laplacian_1d(m, h)
    eye = sp.identity(m, format="csr")
    return (sp.kron(L1, eye) + sp.kron(eye, L1)).tocsr()


def assemble_2d(
    coupling: CouplingMatrix,
    weights: SourceProjection,
    g: InitialField2D,
    grid: Grid2D,
    nnz_cap: int = DEFAULT_NNZ_CAP,
) -> BlockSystem:
    """Assemble the N = n*m^2 block system one outer block row at a time."""
    n = coupling.n
    if weights.n != n:
        raise ValueError(f"coupling size {n} does not match weights size {weights.n}")
    m = grid.m
    predicted = sparsity_bound(n, m)
    if predicted > nnz_cap:
        raise ValueError(
            f"predicted nnz {predicted} exceeds the cap {nnz_cap}; "
            "pass a larger nnz_cap to override"
        )
    L2 = laplacian_2d(m, grid.h)
    eye = sp.identity(m * m, format="csr")
    empty = sp.csr_matrix((m * m, m * m))
    a = coupling.entries
    rows = []
    for j in range(n):
        blocks = []
        for k in range(n):
            if a[j, k] == 0.0:
                blocks.append(eye if j == k else empty)
            else:
                block = a[j, k] * L2
                blocks.append(block + eye if j == k else block)
        rows.append(sp.hstack(blocks, format="csr"))
    A = sp.vstack(rows, format="csr")
    X, Y = grid.mesh()
    rhs = np.kron(weights.weights, g.evaluate(X, Y).ravel())
    return BlockSystem(matrix=SparseMatrix(A), rhs=rhs, n=n, spatial_shape=(m, m), h=grid.h)


def verify_sparsity(system: BlockSystem, n: int, m: int) -> bool:
    """True iff the assembled nonzero count respects the n^2 m (5m-4) bound."""
    return system.matrix.nnz <= sparsity_bound(n, m)


def solve_2d(
    order: MemoryOrder,
    T: float,
    n: int,
    grid: Grid2D,
    g: InitialField2D,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = 10_000,
    precond: bool = True,
    nnz_cap: int = DEFAULT_NNZ_CAP,
) -> SolutionField2D:
    """Solve on [0, T]; large systems go through preconditioned iteration.

    n counts basis functions per time slab; the slab count, the marching and
    the route choice are those of solver_1d.solve_slabs.
    """
    decay = g.boundary_decay(grid)
    if decay > BOUNDARY_DECAY_TOL:
        warnings.warn(
            f"initial data is {decay:.2e} at the domain boundary; "
            "free-boundary closure assumes negligible values there",
            stacklevel=2,
        )
    X, Y = grid.mesh()
    basis, coeffs, report = solve_slabs(
        order, T, n, g.evaluate(X, Y), grid.h, laplacian_2d(grid.m, grid.h),
        lambda coupling, weights: assemble_2d(coupling, weights, g, grid, nnz_cap=nnz_cap),
        method, tol, max_iter, precond,
    )
    coeffs = coeffs.reshape(-1, grid.m, grid.m)
    return SolutionField2D(coeffs, grid, basis, order, g, report)
