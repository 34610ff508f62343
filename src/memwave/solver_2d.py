"""The 2D grid and initial fields, and solve_2d.

The unknown vector is ordered with the basis index outermost, then x, then
y.  Each outer block [A_jk] is delta_jk I + a_jk L2, where L2 =
sparse_linalg.laplacian((m, m), h), so the nonzero count is bounded by
n^2 sparse_linalg.laplacian_nnz((m, m)), with equality when every
coupling entry is nonzero.

The assembly, the size checks and the slab-wise solve are solver_1d's;
solve_2d only checks that its grid is a Grid2D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .memory_kernel import MemoryOrder
from .solver_1d import (
    Grid1D,
    InitialField1D,
    SolutionField1D,
    _check_width,
    _Gaussian,
    assemble_1d,
    solve_slabs,
)
from .sparse_linalg import DEFAULT_MAX_ITER, DEFAULT_TOL, BlockSystem, laplacian_nnz

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
    "assemble_2d",
    "verify_sparsity",
    "solve_2d",
]

class Grid2D(Grid1D):
    """Square domain [x_min, x_max]^2 with m points per axis; the axis is a Grid1D."""

    ndim = 2

    def nearest_index(self, y: float) -> int:
        """Index of the grid coordinate nearest to y (the first one on a tie); y must be finite."""
        if not math.isfinite(y):
            raise ValueError(f"y must be finite, got {y!r}")
        return int(np.argmin(np.abs(self.points - y)))


@dataclass(frozen=True)
class _AnisotropicGaussian:
    """exp(-(x+y)^2 / sigma1^2 - (x-y)^2 / sigma2^2), a picklable rule for InitialField2D."""

    sigma1: float
    sigma2: float

    def __call__(self, x, y):
        with np.errstate(over="ignore"):  # as in _Gaussian: an overflow only reaches exp's 0
            return np.exp(
                -((np.asarray(x) + np.asarray(y)) ** 2) / self.sigma1**2
                - ((np.asarray(x) - np.asarray(y)) ** 2) / self.sigma2**2
            )


class InitialField2D(InitialField1D):
    """Initial condition g(x, y), negligible at the grid boundary; evaluate takes x and y."""

    @classmethod
    def radial_gaussian(cls, sigma: float = 2.0) -> "InitialField2D":
        _check_width(sigma)
        return cls(rule=_Gaussian(sigma), label=f"radial_gaussian(sigma={sigma})")

    @classmethod
    def anisotropic_gaussian(cls, sigma1: float, sigma2: float) -> "InitialField2D":
        """Rotated Gaussian exp(-(x+y)^2/sigma1^2 - (x-y)^2/sigma2^2)."""
        _check_width(sigma1, "sigma1")
        _check_width(sigma2, "sigma2")
        return cls(
            rule=_AnisotropicGaussian(sigma1, sigma2),
            label=f"anisotropic_gaussian(sigma1={sigma1}, sigma2={sigma2})",
        )


class SolutionField2D(SolutionField1D):
    """Galerkin coefficients c_k(x_i, y_l), stored as (K*n, m, m); reconstruct gives (m, m)."""

    def section(self, t: float, y: float = 0.0) -> np.ndarray:
        """1D section f_n(x_i, y, t) along the grid row nearest to y."""
        return self.reconstruct(t)[:, self.grid.nearest_index(y)]


def sparsity_bound(n: int, m: int) -> int:
    """Upper bound n^2 nnz(L2) on the nonzero count of the 2D matrix on an m x m grid."""
    return n * n * laplacian_nnz((m, m))


# the one assembly, under the name the acceptance tests import and perfbench traces
assemble_2d = assemble_1d


def verify_sparsity(system: BlockSystem, n: int, m: int) -> bool:
    """True iff the assembled nonzero count respects sparsity_bound(n, m)."""
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
    """Solve on [0, T]; method "auto" takes the preconditioned iteration at every size.

    n counts basis functions per time slab; "direct" or "bicg" force one
    path.  The grid must be a Grid2D; solver_1d.solve_slabs does the rest
    (the size checks, the boundary check, the slab count, the marching,
    the route choice).
    """
    if not isinstance(grid, Grid2D):
        raise ValueError(f"solve_2d needs a Grid2D, got {type(grid).__name__}; use solve_1d")
    basis, coeffs, report = solve_slabs(order, T, n, grid, g, assemble_2d, method, tol, max_iter)
    return SolutionField2D(coeffs, grid, basis, order, g, report)
