"""Assembly and solution of the 2D block system.

The unknown vector is ordered with the basis index outermost, then x,
then y.  Each outer block [A_jk] is delta_jk I + a_jk L2 where L2 is the
5-point Laplacian stencil matrix: block-tridiagonal with tridiagonal
diagonal blocks (diagonal 4/h^2, off-diagonals -1/h^2) and diagonal
coupling blocks (-1/h^2) between adjacent x-slices.  The nonzero count is
bounded by n^2 m (5m - 4), with equality when every coupling entry is
nonzero.

sparse_linalg.kron_system builds the matrix under its nonzero cap, as in
1D; solve_2d checks the same cap before any other work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import sparse_linalg
from .memory_kernel import MemoryOrder
from .solver_1d import Grid1D, SolutionField1D, laplacian_1d, solve_slabs
from .sparse_linalg import DEFAULT_MAX_ITER, DEFAULT_TOL, BlockSystem, kron_system
from .time_basis import CouplingMatrix, SourceProjection

# The solve routes and the reconstruction run inside solver_1d.  perfbench's
# tracer wraps these module attributes (SITES in perfbench/harness.py), so
# they stay importable from here.
from .sparse_linalg import bicg_solve, build_preconditioner, lu_solve  # noqa: F401
from .time_basis import coupling_matrix, reconstruct  # noqa: F401

__all__ = [
    "Grid2D",
    "InitialField2D",
    "SolutionField2D",
    "sparsity_bound",
    "laplacian_2d",
    "assemble_2d",
    "verify_sparsity",
    "solve_2d",
]

class Grid2D(Grid1D):
    """Square domain [x_min, x_max]^2 with m points per axis; the axis is a Grid1D."""

    def mesh(self):
        """Coordinate arrays X, Y of shape (m, m), x along the first axis."""
        return np.meshgrid(self.points, self.points, indexing="ij")

    def nearest_index(self, y: float) -> int:
        """Index of the grid coordinate nearest to y (the first one on a tie)."""
        return int(np.argmin(np.abs(self.points - y)))


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
    """Initial condition g(x, y), negligible at the grid boundary."""

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


class SolutionField2D(SolutionField1D):
    """Galerkin coefficients c_k(x_i, y_l), stored as (K*n, m, m); reconstruct gives (m, m)."""

    def section(self, t: float, y: float = 0.0) -> np.ndarray:
        """1D section f_n(x_i, y, t) along the grid row nearest to y."""
        return self.reconstruct(t)[:, self.grid.nearest_index(y)]


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
) -> BlockSystem:
    """Assemble the N = n*m^2 block system with 5-point blocks."""
    if weights.n != coupling.n:
        raise ValueError(f"coupling size {coupling.n} does not match weights size {weights.n}")
    A = kron_system(coupling.entries, laplacian_2d(grid.m, grid.h))
    X, Y = grid.mesh()
    return BlockSystem(A, np.kron(weights.weights, g.evaluate(X, Y).ravel()))


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
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolutionField2D:
    """Solve on [0, T]; large systems go through preconditioned iteration.

    n counts basis functions per time slab; the boundary check, the slab
    count, the marching and the route choice are those of
    solver_1d.solve_slabs.  The assembly's nonzero cap, sparse_linalg.MAX_NNZ,
    is checked before any of that work starts.
    """
    predicted, cap = sparsity_bound(n, grid.m), sparse_linalg.MAX_NNZ
    if predicted > cap:
        raise ValueError(f"predicted nnz {predicted} exceeds the cap {cap}")
    X, Y = grid.mesh()
    basis, coeffs, report = solve_slabs(
        order, T, n, g.evaluate(X, Y), grid.h, laplacian_2d(grid.m, grid.h),
        lambda coupling, weights: assemble_2d(coupling, weights, g, grid),
        method, tol, max_iter,
    )
    coeffs = coeffs.reshape(-1, grid.m, grid.m)
    return SolutionField2D(coeffs, grid, basis, order, g, report)
