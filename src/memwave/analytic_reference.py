"""Closed-form solutions and resolvent actions at the two endpoint orders.

At alpha = 1 the resolvent is convolution with the Gaussian kernel
exp(-x^2/4t)/sqrt(4 pi t); at alpha = 2 it is the shift-average
(f(x-t) + f(x+t))/2.  Both serve as validation oracles for the Galerkin
solver and as the propagator inside the stochastic convolution.  No
closed form is available strictly between the endpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .memory_kernel import MemoryOrder
from .solver_1d import Grid1D, _check_edges, _check_width

__all__ = [
    "heat_solution",
    "wave_solution",
    "resolvent_apply",
    "KERNEL_TRUNCATION",
]

# kernel values below this are dropped from the convolution window
KERNEL_TRUNCATION = 1e-16

_EDGE = "resolvent input or output is {:.2e} at the grid edge; mass is leaving the grid"


def heat_solution(x, t: float, sigma: float):
    """Heat evolution of the Gaussian exp(-x^2/sigma^2) at time t.

    The Gaussian convolved with the heat kernel stays Gaussian:
    sigma/sqrt(sigma^2 + 4t) * exp(-x^2/(sigma^2 + 4t)).
    """
    _check_width(sigma)
    if not t >= 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    x = np.asarray(x, dtype=float)
    spread = sigma**2 + 4.0 * t
    with np.errstate(over="ignore"):  # as in the Gaussian rule: an overflow only reaches exp's 0
        out = sigma / math.sqrt(spread) * np.exp(-(x**2) / spread)
    return float(out) if out.ndim == 0 else out


def wave_solution(x, t: float, g):
    """Wave evolution of initial datum g: (g(x - t) + g(x + t)) / 2; t must be finite."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    x = np.asarray(x, dtype=float)
    out = 0.5 * (np.asarray(g(x - t), dtype=float) + np.asarray(g(x + t), dtype=float))
    return float(out) if out.ndim == 0 else out


def endpoint_order(alpha) -> int:
    """alpha as the endpoint order 1 or 2; a MemoryOrder is unwrapped."""
    if isinstance(alpha, MemoryOrder):
        alpha = alpha.alpha
    if alpha not in (1, 2):
        raise ValueError(f"closed-form resolvent exists only for alpha in {{1, 2}}, got {alpha!r}")
    return int(alpha)


def _heat_window(t, h: float):
    """Grid steps beyond which exp(-x^2/4t) falls below KERNEL_TRUNCATION (rounded up)."""
    return np.ceil(np.sqrt(4.0 * t * math.log(1.0 / KERNEL_TRUNCATION)) / h)


def _heat_kernel(t, h: float, steps: np.ndarray) -> np.ndarray:
    """The Gaussian exp(-x^2/4t)/sqrt(4 pi t) at x = steps * h, truncated.

    t broadcasts against the integer offsets steps.  A weight is zero beyond
    _heat_window(t, h) steps and wherever it is below KERNEL_TRUNCATION.
    """
    x = h * steps
    kernel = np.exp(-(x**2) / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)
    kernel[(kernel < KERNEL_TRUNCATION) | (np.abs(steps) > _heat_window(t, h))] = 0.0
    return kernel


def _taps(r, m: int) -> tuple:
    """The two (offset, weight) taps (n, 1 - theta) and (n + 1, theta) of the shifts r.

    r is in grid steps, n its whole cells and theta its fraction.  A shift
    of more than m + 1 cells reaches no point of an m-point grid from any
    other; it is cut to m + 1, so that n fits an integer.
    """
    r = np.minimum(r, m + 1)
    n = np.floor(r)
    theta = r - n
    n = n.astype(np.intp)
    return (n, 1.0 - theta), (n + 1, theta)


def resolvent_apply(alpha, t: float, field, grid: Grid1D) -> np.ndarray:
    """Apply the closed-form resolvent S(t) to a sampled field.

    alpha must be exactly 1 or 2, given as a bare number or a MemoryOrder.
    At alpha = 1 the action is a trapezoid discretization of the Gaussian
    convolution with the kernel truncated below KERNEL_TRUNCATION.  At
    alpha = 2 the field is shifted by +-t, n + theta grid steps, and
    interpolated linearly between the nodes, with a zero ghost node one
    spacing beyond each edge and zeros further out: the two taps
    (1 - theta, theta) at n and n + 1 steps.  The result is continuous in t.
    A shifted point within one cell beyond an edge takes at most half the
    edge value, not 0: under 1e-12 for data that passes the edge check.
    One EdgeWarning reports the larger face value of input and output when
    it is above BOUNDARY_DECAY_TOL.
    """
    alpha = endpoint_order(alpha)
    if not t >= 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.m,):
        raise ValueError(f"field shape {f.shape} does not match grid with m={grid.m}")
    if t == 0:
        return f.copy()

    m, h = grid.m, grid.h
    if alpha == 1:
        w = int(min(_heat_window(t, h), m - 1))
        kernel = _heat_kernel(t, h, np.arange(-w, w + 1))
        # full convolution sliced back to the grid; out_i = h sum_j K(x_i - x_j) f_j
        out = h * np.convolve(f, kernel, mode="full")[w : w + m]
    else:
        out = np.zeros(m)
        for d, weight in _taps(t / h, m):
            if d < m:
                out[d:] += weight * f[: m - d]
                out[: m - d] += weight * f[d:]
        out *= 0.5
    _check_edges(_EDGE, f, out, stacklevel=2)
    return out
