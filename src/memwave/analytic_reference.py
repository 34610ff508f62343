"""Closed-form solutions and resolvent actions at the two endpoint orders.

At alpha = 1 the resolvent is convolution with the Gaussian kernel
exp(-x^2/4t)/sqrt(4 pi t); at alpha = 2 it is the shift-average
(f(x-t) + f(x+t))/2.  Both serve as validation oracles for the Galerkin
solver and as the propagator inside the stochastic convolution.  No
closed form is available strictly between the endpoints.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .memory_kernel import MemoryOrder
from .solver_1d import BOUNDARY_DECAY_TOL, Grid1D, boundary_magnitude

__all__ = [
    "heat_solution",
    "wave_solution",
    "resolvent_apply",
    "KERNEL_TRUNCATION",
]

# kernel values below this are dropped from the convolution window
KERNEL_TRUNCATION = 1e-16

# every edge warning ends with this
EDGE_WARNING = "mass is leaving the grid"


def heat_solution(x, t: float, sigma: float):
    """Heat evolution of the Gaussian exp(-x^2/sigma^2) at time t.

    The Gaussian convolved with the heat kernel stays Gaussian:
    sigma/sqrt(sigma^2 + 4t) * exp(-x^2/(sigma^2 + 4t)).
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    x = np.asarray(x, dtype=float)
    spread = sigma**2 + 4.0 * t
    out = sigma / math.sqrt(spread) * np.exp(-(x**2) / spread)
    return float(out) if out.ndim == 0 else out


def wave_solution(x, t: float, g):
    """Wave evolution of initial datum g: (g(x - t) + g(x + t)) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (np.asarray(g(x - t), dtype=float) + np.asarray(g(x + t), dtype=float))
    return float(out) if out.ndim == 0 else out


def _check_edges(values: np.ndarray, what: str) -> None:
    edge = boundary_magnitude(values)
    if edge > BOUNDARY_DECAY_TOL:
        warnings.warn(
            f"{what} is {edge:.2e} at the grid edge; {EDGE_WARNING}",
            stacklevel=3,
        )


def endpoint_order(alpha) -> int:
    """alpha as the endpoint order 1 or 2; a MemoryOrder is unwrapped."""
    if isinstance(alpha, MemoryOrder):
        alpha = alpha.alpha
    if alpha not in (1, 2):
        raise ValueError(f"closed-form resolvent exists only for alpha in {{1, 2}}, got {alpha!r}")
    return int(alpha)


def _heat_kernel(t: float, grid: Grid1D):
    """Gaussian exp(-x^2/4t)/sqrt(4 pi t) at offsets -w..w grid steps, and w.

    The window ends where the kernel drops below KERNEL_TRUNCATION (and at
    m - 1 steps); values under the threshold inside it are zeroed.
    """
    half_width = math.sqrt(4.0 * t * math.log(1.0 / KERNEL_TRUNCATION))
    w = min(int(math.ceil(half_width / grid.h)), grid.m - 1)
    offsets = grid.h * np.arange(-w, w + 1)
    kernel = np.exp(-(offsets**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    kernel[kernel < KERNEL_TRUNCATION] = 0.0
    return kernel, w


def _interpolate(f: np.ndarray, rows, q, grid: Grid1D) -> np.ndarray:
    """Linear interpolant of the fields f[rows] at the points q, zero beyond the edges.

    f has shape (r, m) and rows broadcasts against q.  This is the alpha = 2
    resolvent's np.interp(q, x, f, left=0, right=0), but the bracket comes
    from the uniform spacing, so a point within rounding of a node may use
    the neighbouring bracket; the edge test uses the points themselves,
    exactly as np.interp does.
    """
    x, h, m = grid.points, grid.h, grid.m
    node = ((q - x[0]) / h).astype(np.intp)
    np.clip(node, 0, m - 2, out=node)
    at = rows * m + node
    flat = f.ravel()
    left = flat[at]
    value = (flat[at + 1] - left) / h * (q - x[node]) + left
    value[(q < x[0]) | (q > x[-1])] = 0.0
    return value


def resolvent_apply(alpha, t: float, field, grid: Grid1D) -> np.ndarray:
    """Apply the closed-form resolvent S(t) to a sampled field.

    alpha must be exactly 1 or 2, given as a bare number or a MemoryOrder.
    At alpha = 1 the action is a trapezoid discretization of the Gaussian
    convolution with the kernel truncated below KERNEL_TRUNCATION; at
    alpha = 2 the field is shifted by +-t with linear interpolation for
    off-grid shifts and zero beyond the edges.
    """
    alpha = endpoint_order(alpha)
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.m,):
        raise ValueError(f"field shape {f.shape} does not match grid with m={grid.m}")
    if t == 0:
        return f.copy()
    _check_edges(f, "input field")

    if alpha == 1:
        kernel, w = _heat_kernel(t, grid)
        # full convolution sliced back to the grid; out_i = h sum_j K(x_i - x_j) f_j
        out = grid.h * np.convolve(f, kernel, mode="full")[w : w + grid.m]
    else:
        x = grid.points
        out = 0.5 * (
            np.interp(x - t, x, f, left=0.0, right=0.0)
            + np.interp(x + t, x, f, left=0.0, right=0.0)
        )
    _check_edges(out, "resolvent output")
    return out
