"""Closed-form solutions and resolvent actions at the two endpoint orders.

At alpha = 1 the resolvent is convolution with the Gaussian kernel
exp(-x^2/4t)/sqrt(4 pi t); at alpha = 2 it is the shift-average
(f(x-t) + f(x+t))/2.  Both serve as validation oracles for the Galerkin
solver and as the propagator inside the stochastic convolution.  No
closed form is available strictly between the endpoints.

The grid form of S(t) is decided here alone: _weights gives it as
convolution weights, which resolvent_apply's alpha = 1 rows convolve
with and the stochastic noise sum takes as its lag table.
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

# a later time acts as this one, so that no product with a time overflows: from t = 1e31 the
# heat kernel is below KERNEL_TRUNCATION everywhere, and a shift of 1e300 leaves every grid
# whose h^2 is finite, so both rows are zeros wherever t >= h^2 (any h below 1e150)
_LATEST = 1e300

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


def _weights(alpha: int, t: np.ndarray, grid: Grid1D) -> np.ndarray:
    """S(t_k) at the positive times t as convolution weights, shape (len(t), 2m - 1).

    (S(t_k) f)_p = sum_d W[k, m - 1 + d] f_{p - d}, with f zero off the grid.
    At alpha = 1 row k is h times the Gaussian kernel at x = d h, zero beyond
    _heat_window and below KERNEL_TRUNCATION; a time below h^2/4000, where
    the row is the identity already, acts as h^2/4000.  Below t = h^2 the
    trapezoid sum of the Gaussian loses its unit mass (it tends to
    h/sqrt(4 pi t)), so such a row is first divided by that mass over its
    whole window, at most _heat_window(h^2, h) = 13 steps.  At alpha = 2 row
    k is the two _taps at -t_k and +t_k, halved, with the taps past the grid
    dropped.
    """
    m, h = grid.m, grid.h
    t = np.minimum(t, _LATEST)
    weights = np.zeros((t.size, 2 * m - 1))
    if alpha == 1:
        # exp(-h^2 / 4t) is 0 from t = h^2/4000 down (exp(-1000)), so such a row is the
        # identity there already; a smaller t would only overflow -(d h)^2 / 4t
        t = np.maximum(t, h * h / 4000.0)
        windows = _heat_window(t, h)[:, None]
        reach = int(min(windows.max(), max(m - 1, _heat_window(h * h, h))))
        steps = np.arange(-reach, reach + 1)
        times = t[:, None]
        norm = np.sqrt(4.0 * math.pi * times)
        kernel = np.exp(-((h * steps) ** 2) / (4.0 * times)) / norm
        sharp = t < h * h
        # past its window a row's exp is below KERNEL_TRUNCATION, and so is its kernel where
        # sqrt(4 pi t) >= 1, which the truncation below zeroes; only other rows need the cut
        narrow = sharp | (norm[:, 0] < 1.0)
        if narrow.any():
            part = kernel[narrow]
            part[np.abs(steps) > windows[narrow]] = 0.0
            kernel[narrow] = part
        if sharp.any():
            # a running sum: the zeros past a row's window, as many as the batch's widest
            # row adds, leave its mass, and so the row, bit for bit as for the row alone
            kernel[sharp] /= h * np.cumsum(kernel[sharp], axis=1)[:, -1:]
        kernel[kernel < KERNEL_TRUNCATION] = 0.0
        cut = min(reach, m - 1)
        weights[:, m - 1 - cut : m + cut] = h * kernel[:, reach - cut : reach + cut + 1]
    else:
        rows = np.arange(t.size)
        for d, weight in _taps(t / h, m):
            inside = d < m
            for sign in (-1, 1):
                weights[rows[inside], m - 1 + sign * d[inside]] += 0.5 * weight[inside]
    return weights


def resolvent_apply(alpha, t, field, grid: Grid1D) -> np.ndarray:
    """Apply the closed-form resolvent S(t) to a sampled field.

    t is one time, giving S(t) f of shape (m,), or a 1-D array of times,
    giving one row S(t_k) f per time, shape (len(t), m); each row is bit
    for bit the call at its own t, and a time of 0 gives a copy of f.
    alpha must be exactly 1 or 2, given as a bare number or a MemoryOrder.
    At alpha = 1 the action is a trapezoid discretization of the Gaussian
    convolution with the kernel truncated below KERNEL_TRUNCATION.  The
    trapezoid sum is exponentially accurate while h is below about sqrt(t);
    below t = h^2 the kernel's lattice mass drifts from 1 to h/sqrt(4 pi t),
    so there each kernel is scaled to unit lattice mass, and S(t) f is then
    within about 2 t max|f''| of the closed form; below h^2/4000 the row is
    the identity.  A time beyond 1e300 acts as 1e300, where both orders
    give zeros for any spacing h below 1e150.  At
    alpha = 2 the field is shifted by +-t, n + theta grid steps, and
    interpolated linearly between the nodes, with a zero ghost node one
    spacing beyond each edge and zeros further out: the two taps
    (1 - theta, theta) at n and n + 1 steps.  The result is continuous in t.
    A shifted point within one cell beyond an edge takes at most half the
    edge value, not 0: under 1e-12 for data that passes the edge check.
    One EdgeWarning per call reports the largest face value of the input
    and every row when it is above BOUNDARY_DECAY_TOL; a call whose times
    are all 0 checks nothing.
    """
    alpha = endpoint_order(alpha)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a number or a 1-D array of times, got shape {times.shape}")
    rows = times.reshape(-1)
    if not rows.min(initial=0.0) >= 0:  # a NaN is the minimum
        raise ValueError(f"t must be non-negative, got {float(rows[~(rows >= 0)][0])!r}")
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.m,):
        raise ValueError(f"field shape {f.shape} does not match grid with m={grid.m}")

    m, h = grid.m, grid.h
    out = np.empty((rows.size, m))
    moving = rows.nonzero()[0]
    if moving.size < rows.size:
        out[rows == 0] = f  # S(0) f is f
    if moving.size:
        lags = np.minimum(rows[moving], _LATEST)
        if alpha == 1:
            windows = np.minimum(_heat_window(lags, h), m - 1).astype(np.intp).tolist()
            for k, w, row in zip(moving.tolist(), windows, _weights(1, lags, grid)):
                # full convolution sliced back to the grid; each row keeps its own window,
                # as np.convolve's summation order depends on the kernel's length
                out[k] = np.convolve(f, row[m - 1 - w : m + w])[w : w + m]
        else:
            # f between zero pads of m + 2 cells, the longest tap; each row adds f_{i-d},
            # f_{i+d}, f_{i-d-1}, f_{i+d+1} in the order of a tap-by-tap shift of f
            padded = np.concatenate((np.zeros(m + 2), f, np.zeros(m + 2)))
            (near, near_w), (_, far_w) = _taps(lags / h, m)
            taps = zip(moving.tolist(), near.tolist(), near_w.tolist(), far_w.tolist())
            for k, d, a, b in taps:
                left = padded[m + 1 - d : 2 * m + 2 - d]
                right = padded[m + 2 + d : 2 * m + 3 + d]
                out[k] = 0.5 * (a * left[1:] + a * right[:-1] + b * left[:-1] + b * right[1:])
        # the faces of the input and of every row in one check: out[:, ::m-1] holds each
        # row's two end values, all of which are faces of that (k, 2) array
        _check_edges(_EDGE, f, out[:, :: m - 1], stacklevel=2)
    return out.reshape(times.shape + (m,))
