"""Galerkin-in-time solver for the heat-wave interpolation equation.

The equation f(x,t) = g(x) + int_0^t a(t-s) Lap f(x,s) ds with power-law
memory kernel a(t) = t^(alpha-1)/Gamma(alpha) interpolates between heat
conduction (alpha = 1) and wave propagation (alpha = 2).  The solver
projects the time dependence onto an orthonormal polynomial basis and
discretizes space with finite differences, producing one block-sparse
linear system per run.
"""

from .memory_kernel import MemoryOrder
from .time_basis import (
    CouplingMatrix,
    QuadratureError,
    SourceProjection,
    TimeBasis,
    build_basis,
    coupling_matrix,
    endpoint_transfer,
    reconstruct,
    source_weights,
)
from .sparse_linalg import (
    DIRECT_LIMIT,
    BlockSystem,
    SingularMatrixError,
    SinePreconditioner,
    SolveReport,
    SparseMatrix,
    bicg_solve,
    build_preconditioner,
    lu_solve,
    write_matrix_market,
)
from .solver_1d import (
    EdgeWarning,
    Grid1D,
    InitialField1D,
    SolutionField1D,
    SolverConvergenceError,
    assemble_1d,
    choose_slabs,
    residual_orthogonality,
    sample,
    solve_1d,
    sup_error,
)
from .solver_2d import (
    Grid2D,
    InitialField2D,
    SolutionField2D,
    assemble_2d,
    solve_2d,
    sparsity_bound,
    verify_sparsity,
)
from .analytic_reference import heat_solution, resolvent_apply, wave_solution
from .stochastic import (
    NoiseModel,
    TimePartition,
    Trajectory,
    default_partition,
    sample_increments,
    simulate_trajectory,
    stochastic_convolution,
)

__version__ = "0.1.0"

__all__ = [
    "MemoryOrder",
    "TimeBasis", "CouplingMatrix", "SourceProjection", "QuadratureError",
    "build_basis", "coupling_matrix", "endpoint_transfer", "source_weights", "reconstruct",
    "SparseMatrix", "SolveReport", "SinePreconditioner", "BlockSystem",
    "SingularMatrixError", "DIRECT_LIMIT",
    "lu_solve", "bicg_solve", "build_preconditioner", "write_matrix_market",
    "Grid1D", "InitialField1D", "SolutionField1D", "SolverConvergenceError", "EdgeWarning",
    "assemble_1d", "choose_slabs", "sample", "solve_1d", "sup_error", "residual_orthogonality",
    "Grid2D", "InitialField2D", "SolutionField2D",
    "assemble_2d", "solve_2d", "sparsity_bound", "verify_sparsity",
    "heat_solution", "wave_solution", "resolvent_apply",
    "NoiseModel", "TimePartition", "Trajectory", "default_partition",
    "sample_increments", "stochastic_convolution", "simulate_trajectory",
    "__version__",
]
