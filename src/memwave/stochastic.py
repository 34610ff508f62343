"""Stochastic trajectories via the mild solution and resolvent convolution.

A trajectory is f(x, s_k) = S(s_k) g + sum_{i<k} S(s_k - s_i) dW_i on a
uniform partition of [0, t], where dW_i are Gaussian increments of
strength C (independent per node, optionally smoothed in x).  The sum
uses left-endpoint evaluation of the resolvent.  Only the endpoint orders
alpha in {1, 2} have a closed-form resolvent, so simulation is restricted
to those.

At both orders S(t) acts on a field as a convolution in x: the truncated
Gaussian at alpha = 1, the two-tap linear interpolation at +-t at
alpha = 2.  The noise sum depends on k and i only through the lag
j = k - i, so it is a discrete convolution in time and space at once, and
simulate_trajectory evaluates it for every step by one zero-padded 2D real
FFT of the increments against a table of S(j tau) for j = 0..I (after
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  The
table's rows are analytic_reference._weights at the lags j tau, the same
weights resolvent_apply applies, so this module forms no kernel or tap of
its own.  The table holds one S per lag; the pairwise sum rounds each
row's lag (i + j) tau - i tau on its own.  Both resolvents are continuous
in t (the alpha = 2 interpolant falls linearly to a zero ghost node one
spacing beyond each edge), so that rounding moves a field by O(ulp) only,
and the FFT sum needs no correction.  stochastic_convolution keeps the pairwise
resolvent_apply sum as the reference for the final field.

The deterministic part S(s_k) g of every step comes from one
resolvent_apply call over all the step times, each row bit for bit the
call at its own s_k.  The closed forms assume data negligible on the grid
faces.  That call's one solver_1d.EdgeWarning is the trajectory's edge
report: it counts the steps where g or S(s_k) g breaks that and names the
first.  Noise never decays at the faces and is not checked, so
stochastic_convolution ignores the warnings of its own calls by category.

Reproducibility contract: the increment stream is fully determined by
(master seed, trajectory index) through a splittable seed sequence, so
ensemble members are independent of evaluation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, irfft2, next_fast_len, rfft, rfft2

from .analytic_reference import _weights, endpoint_order, resolvent_apply
from .solver_1d import EdgeWarning, Grid1D, InitialField1D, sample
from .sparse_linalg import MAX_NNZ

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
        if not 0 <= self.strength < math.inf:
            raise ValueError(f"noise strength must be non-negative and finite, "
                             f"got {self.strength!r}")
        if self.spatial_mode not in _MODES:
            raise ValueError(f"spatial mode must be one of {_MODES}, got {self.spatial_mode!r}")
        if not 0 < self.correlation_length < math.inf:
            raise ValueError(f"correlation length must be positive and finite, "
                             f"got {self.correlation_length!r}")
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
    correlation_length, over 5 widths each side; a width whose FFT work
    array would hold more than MAX_NNZ values is refused before drawing.
    C = 0 returns exact zeros.
    """
    if model.strength == 0.0:
        return np.zeros((partition.I, grid.m))
    smooth = model.spatial_mode == "smooth"
    if smooth:
        h = grid.h
        # below h/40 every off-centre weight is under e^-800, which rounds to 0: the kernel
        # is [0, 1, 0] as at h/40, and offsets^2 / 2 ell^2 stays finite
        ell = max(model.correlation_length, h / 40.0)
        reach = np.ceil(5.0 * ell / h)  # a float, as 5 ell / h may pass every integer size
        if partition.I * (grid.m + 2 * reach) > MAX_NNZ:
            raise ValueError(f"correlation length {model.correlation_length!r} spans {reach:g} "
                             f"steps each side, whose FFT exceeds the cap of {MAX_NNZ} values")
        w = max(1, int(reach))
        offsets = h * np.arange(-w, w + 1)
        kernel = np.exp(-(offsets**2) / (2.0 * ell**2))
        kernel /= h * kernel.sum()
    seq = np.random.SeedSequence(entropy=model.seed, spawn_key=(trajectory_index,))
    rng = np.random.default_rng(seq)
    scale = model.strength * np.sqrt(partition.tau)
    draws = scale * rng.standard_normal((partition.I, grid.m))
    if smooth:
        # every row at once; n >= m + 2w holds the whole linear convolution, so none wraps
        n = next_fast_len(grid.m + 2 * w, real=True)
        draws = h * irfft(rfft(draws, n, axis=1) * rfft(kernel, n), n, axis=1)[:, w : w + grid.m]
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
    alpha = endpoint_order(alpha)
    t = partition.t_final
    out = np.zeros(grid.m)
    with warnings.catch_warnings():
        # noise never decays at the boundary; the edge check is for initial data
        warnings.simplefilter("ignore", EdgeWarning)
        for i in range(partition.I):
            dw = increments[i]
            if not dw.any():
                continue
            out += resolvent_apply(alpha, t - i * partition.tau, dw, grid)
    return out


def _fft_shape(I: int, m: int) -> tuple:
    """Padded (time, space) shape of the noise sum's FFT convolution.

    Lags 0..I of increments 0..I-1 reach time index 2I - 1, so 2I rows keep
    every wrapped term out of steps 0..I; offsets -(m-1)..m-1 of m points
    need 2m - 1 columns.
    """
    return next_fast_len(2 * I), next_fast_len(2 * m - 1, real=True)


def _add_noise(fields: np.ndarray, alpha: int, increments: np.ndarray, tau: float,
               grid: Grid1D) -> None:
    """Add sum_{i<k} S(s_k - s_i) dW_i to fields[k] for every step k at once.

    The sum is the 2D convolution of the (I, m) increments with the
    (I + 1, 2m - 1) lag table over (time, space): a zero row, as an
    increment does not act at its own step, over the resolvent's weights
    at the lags j tau, j = 1..I.  One zero-padded real FFT evaluates it,
    sliced back to steps 1..I and the m grid points.
    """
    I, m = increments.shape
    shape = _fft_shape(I, m)
    weights = _weights(alpha, np.arange(1, I + 1) * tau, grid)
    table = np.concatenate((np.zeros((1, 2 * m - 1)), weights))
    spectrum = rfft2(increments, shape) * rfft2(table, shape)
    # step 0 has no earlier increment: it keeps S(0) g bit for bit, without the FFT's rounding
    fields[1:] += irfft2(spectrum, shape)[1 : I + 1, m - 1 : 2 * m - 1]


def simulate_trajectory(
    alpha,
    g: InitialField1D,
    model: NoiseModel,
    partition: TimePartition,
    grid: Grid1D,
    trajectory_index: int = 0,
) -> Trajectory:
    """Mild-solution trajectory f(x, s_k) = S(s_k) g + convolution up to s_k.

    g reaches the grid through solver_1d.sample, and S(s_k) g for every
    step comes from one resolvent_apply call at the times k tau, whose one
    EdgeWarning is the edge report: it counts the steps (step 0 too when g
    itself is on the faces) and names the first.  Every warning of that call
    reaches the caller as raised; the noise terms are not edge-checked.  A
    trajectory whose padded FFT work array of the noise sum holds more than
    MAX_NNZ values is refused before sampling.
    """
    order = endpoint_order(alpha)
    work = math.prod(_fft_shape(partition.I, grid.m))
    if work > MAX_NNZ:
        raise ValueError(f"a trajectory of {partition.I + 1} steps on {grid.m} points needs "
                         f"{work} FFT work values, which exceeds the cap of {MAX_NNZ} values")
    increments = sample_increments(model, grid, partition, trajectory_index)
    gvals = sample(g, grid)
    tau = partition.tau
    # np.arange(I + 1) * tau is k * tau bit for bit
    fields = resolvent_apply(order, np.arange(partition.I + 1) * tau, gvals, grid)
    if model.strength > 0:
        _add_noise(fields, order, increments, tau, grid)
    return Trajectory(
        times=partition.nodes,
        fields=fields,
        increments=increments,
        alpha=order,
        model=model,
        grid=grid,
    )
