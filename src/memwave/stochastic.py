"""Stochastic trajectories via the mild solution and resolvent convolution.

A trajectory is f(x, s_k) = S(s_k) g + sum_{i<k} S(s_k - s_i) dW_i on a
uniform partition of [0, t], where dW_i are Gaussian increments of
strength C (independent per node, optionally smoothed in x).  The sum
uses left-endpoint evaluation of the resolvent.  Only the endpoint orders
alpha in {1, 2} have a closed-form resolvent, so simulation is restricted
to those.

simulate_trajectory groups the double sum by time lag: for j = 1..I it
applies S once to the block dW_0 .. dW_{I-j} and adds the result into the
fields at s_j .. s_I.  At alpha = 1 that is one product with the Toeplitz
matrix of the Gaussian kernel at t = j tau (a smooth function of t, so the
lag's rounding does not matter).  At alpha = 2 every row keeps its own lag
(i + j) tau - i tau, rounded as the pairwise sum rounds it: the
shift-average jumps to zero past the grid edge, and when tau = h the
shifts land on grid nodes, so one ulp decides whether an edge node is
inside.  stochastic_convolution keeps the pairwise resolvent_apply sum as
the reference for the final field.

Reproducibility contract: the increment stream is fully determined by
(master seed, trajectory index) through a splittable seed sequence, so
ensemble members are independent of evaluation order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .analytic_reference import (
    EDGE_WARNING,
    endpoint_order,
    heat_matrix,
    resolvent_apply,
    shift_average,
)
from .solver_1d import Grid1D, InitialField1D

__all__ = [
    "NoiseModel",
    "TimePartition",
    "Trajectory",
    "default_partition",
    "sample_increments",
    "stochastic_convolution",
    "simulate_trajectory",
]

_MODES = ("per-node", "smooth")


@dataclass(frozen=True)
class NoiseModel:
    """Noise strength, spatial mode, and the master seed."""

    strength: float = 0.1
    spatial_mode: str = "per-node"
    correlation_length: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.strength >= 0:
            raise ValueError(f"noise strength must be non-negative, got {self.strength!r}")
        if self.spatial_mode not in _MODES:
            raise ValueError(f"spatial mode must be one of {_MODES}, got {self.spatial_mode!r}")
        if not self.correlation_length > 0:
            raise ValueError(f"correlation length must be positive, got {self.correlation_length!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class TimePartition:
    """Uniform partition s_i = i * tau of [0, t_final] into I subintervals."""

    t_final: float
    I: int

    def __post_init__(self):
        if not 0 < self.t_final < np.inf:
            raise ValueError(f"final time must be positive and finite, got {self.t_final!r}")
        if not (isinstance(self.I, (int, np.integer)) and self.I >= 1):
            raise ValueError(f"I must be a positive integer, got {self.I!r}")

    @property
    def tau(self) -> float:
        return self.t_final / self.I

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.I + 1)


def default_partition(t_final: float, grid: Grid1D) -> TimePartition:
    """Partition with time step no coarser than the grid spacing."""
    steps = np.ceil(t_final / grid.h)
    if not np.isfinite(steps):
        raise ValueError(f"final time {t_final!r} gives no finite step count at h = {grid.h!r}")
    return TimePartition(t_final, max(1, int(steps)))


@dataclass
class Trajectory:
    """One realization: sampled fields at every partition node plus its noise."""

    times: np.ndarray
    fields: np.ndarray
    increments: np.ndarray
    alpha: int
    model: NoiseModel
    grid: Grid1D

    @property
    def final_field(self) -> np.ndarray:
        return self.fields[-1]


def sample_increments(
    model: NoiseModel,
    grid: Grid1D,
    partition: TimePartition,
    trajectory_index: int = 0,
) -> np.ndarray:
    """Draw the I increment fields dW_i(x_j), shape (I, m).

    Per-node mode: independent N(0, C^2 tau) at every node.  Smooth mode:
    the same draws convolved in x with a unit-mass Gaussian of width
    correlation_length.  C = 0 returns exact zeros.
    """
    if model.strength == 0.0:
        return np.zeros((partition.I, grid.m))
    seq = np.random.SeedSequence(entropy=model.seed, spawn_key=(trajectory_index,))
    rng = np.random.default_rng(seq)
    scale = model.strength * np.sqrt(partition.tau)
    draws = scale * rng.standard_normal((partition.I, grid.m))
    if model.spatial_mode == "smooth":
        ell, h = model.correlation_length, grid.h
        w = max(1, int(np.ceil(5.0 * ell / h)))
        offsets = h * np.arange(-w, w + 1)
        kernel = np.exp(-(offsets**2) / (2.0 * ell**2))
        kernel /= h * kernel.sum()
        draws = np.array(
            [h * np.convolve(row, kernel, mode="full")[w : w + grid.m] for row in draws]
        )
    return draws


def stochastic_convolution(
    alpha,
    partition: TimePartition,
    increments: np.ndarray,
    grid: Grid1D,
) -> np.ndarray:
    """Left-endpoint sum  sum_{i=0}^{I-1} S(t - s_i) dW_i  on the grid."""
    increments = np.asarray(increments, dtype=float)
    if increments.shape != (partition.I, grid.m):
        raise ValueError(
            f"increments shape {increments.shape} does not match (I={partition.I}, m={grid.m})"
        )
    t = partition.t_final
    out = np.zeros(grid.m)
    with warnings.catch_warnings():
        # noise never decays at the boundary; the edge check is for initial data
        warnings.filterwarnings("ignore", message=".*grid edge.*")
        for i in range(partition.I):
            dw = increments[i]
            if not dw.any():
                continue
            out += resolvent_apply(alpha, t - i * partition.tau, dw, grid)
    return out


def _add_noise(fields: np.ndarray, alpha: int, increments: np.ndarray, tau: float,
               grid: Grid1D) -> None:
    """Add sum_{i<k} S(s_k - s_i) dW_i to fields[k], one lag j = k - i at a time."""
    I = len(increments)
    for j in range(1, I + 1):
        block = increments[: I - j + 1]
        if alpha == 1:
            fields[j:] += block @ heat_matrix(j * tau, grid).T
        else:
            i = np.arange(I - j + 1)
            fields[j:] += shift_average(block, (i + j) * tau - i * tau, grid)


def simulate_trajectory(
    alpha,
    g: InitialField1D,
    model: NoiseModel,
    partition: TimePartition,
    grid: Grid1D,
    trajectory_index: int = 0,
) -> Trajectory:
    """Mild-solution trajectory f(x, s_k) = S(s_k) g + convolution up to s_k.

    The edge warnings of the S(s_k) g steps are collected into one warning
    that counts the steps; the noise terms are not edge-checked.
    """
    order = endpoint_order(alpha)
    increments = sample_increments(model, grid, partition, trajectory_index)
    gvals = g.evaluate(grid.points)
    tau = partition.tau
    fields = np.empty((partition.I + 1, grid.m))
    edge_steps = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in range(partition.I + 1):
            seen = len(caught)
            fields[k] = resolvent_apply(order, k * tau, gvals, grid)
            if any(EDGE_WARNING in str(w.message) for w in caught[seen:]):
                edge_steps.append(k)
    for w in caught:
        if EDGE_WARNING not in str(w.message):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if edge_steps:
        first = next(w for w in caught if EDGE_WARNING in str(w.message))
        warnings.warn(
            f"S(s_k) g warned at {len(edge_steps)} of {partition.I + 1} steps, "
            f"first at s_k = {edge_steps[0] * tau:.6g}: {first.message}",
            stacklevel=2,
        )
    _add_noise(fields, order, increments, tau, grid)
    return Trajectory(
        times=partition.nodes,
        fields=fields,
        increments=increments,
        alpha=alpha,
        model=model,
        grid=grid,
    )
