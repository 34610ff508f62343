"""Slab-wise orthonormal time basis on [0, T] and the Galerkin coupling integrals.

[0, T] is split into K uniform slabs of length tau = T/K.  Each slab
carries the shifted Legendre family phi_j(t) = sqrt((2j-1)/tau) *
P_{j-1}(2(t - t_k)/tau - 1), j = 1..n, generated by the stable three-term
recurrence and zero outside its slab, so n counts functions per slab and
the basis has K*n functions.  K = 1 is the single-interval basis of the
paper.  Projecting the memory integral onto this basis produces the
coupling matrix

    a_jk = int_0^T phi_j(t) [ int_0^t a(t - s) phi_k(s) ds ] dt,

which is non-symmetric in general.  For K slabs it is block lower-
triangular and block-Toeplitz: block (j, k) is tau^alpha B_{j-k}, where
the unit blocks B_d are the same integrals between slabs d apart on
slabs of length 1.  Every coupling matrix, one slab included, is built
from these blocks, which are computed and checked once and cached.

On one slab the inner integral carries the weight (t - s)^(alpha-1), and
the outer integrand behaves like t^alpha times a polynomial, so both are
evaluated with Gauss-Jacobi rules that absorb those algebraic factors
exactly.  Plain Gauss-Legendre converges only algebraically in the node
count for fractional alpha and cannot reach the required entry tolerance.
Adjacent slabs meet at a corner where t - s vanishes; splitting the unit
square into two triangles (a Duffy split) turns that corner into a
Jacobi weight.  Slabs further apart see a smooth kernel and use
Gauss-Legendre.  No slab's polynomial is ever evaluated outside its slab.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import schur
from scipy.special import roots_jacobi, roots_legendre

from .memory_kernel import MemoryOrder

__all__ = [
    "TimeBasis",
    "CouplingMatrix",
    "SourceProjection",
    "QuadratureError",
    "build_basis",
    "coupling_matrix",
    "march",
    "ModeMarch",
    "mode_march",
    "ModeFactors",
    "mode_factors",
    "mode_solve",
    "kernel_convolution",
    "source_weights",
    "reconstruct",
]

# Tolerance on every unit-block entry (slabs of length 1), two orders
# below the tightest linear-solver tolerance.
ENTRY_TOL = 1e-12

# Slab doubling stops once the solution at T moves by at most this share
# of max|g| (see solver_1d.choose_slabs).
TIME_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when the quadrature doubling check exceeds the entry tolerance."""


@dataclass(frozen=True)
class TimeBasis:
    """Orthonormal shifted Legendre basis, n functions on each of K slabs of [0, T].

    Functions are ordered slab by slab: index k*n + j is phi_{j+1} on slab k.
    """

    horizon_T: float
    size_n: int
    slabs: int = 1

    def __post_init__(self):
        if not 0 < self.horizon_T < np.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.horizon_T!r}")
        if not (isinstance(self.size_n, (int, np.integer)) and self.size_n >= 1):
            raise ValueError(f"basis size n must be a positive integer, got {self.size_n!r}")
        if not (isinstance(self.slabs, (int, np.integer)) and self.slabs >= 1):
            raise ValueError(f"slab count must be a positive integer, got {self.slabs!r}")
        if not (2.0 * self.size_n - 1.0) / self.slab_length < math.inf:
            # end_values, sqrt((2n - 1) / tau), would overflow
            raise ValueError(f"slab length {self.slab_length!r} is too short for "
                             f"{self.size_n} functions: their end values overflow a float")

    @property
    def slab_length(self) -> float:
        return self.horizon_T / self.slabs

    @property
    def dimension(self) -> int:
        """Total number of basis functions, K * n."""
        return self.slabs * self.size_n

    @property
    def end_values(self) -> np.ndarray:
        """phi_1 .. phi_n at the end of their slab: sqrt((2j - 1) / tau), as P_{j-1}(1) = 1."""
        return np.sqrt((2.0 * np.arange(1, self.size_n + 1) - 1.0) / self.slab_length)

    def slab_index(self, t) -> np.ndarray:
        """Slab holding each time; a break belongs to the later slab, T to the last."""
        k = np.floor(np.asarray(t, dtype=float) / self.slab_length).astype(int)
        return np.clip(k, 0, self.slabs - 1)

    def evaluate(self, t) -> np.ndarray:
        """Evaluate all basis functions at times t.

        Returns an array of shape (K*n, len(t)); a scalar t gives shape (K*n,).
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        k = self.slab_index(t_arr)
        out = np.zeros((self.slabs, self.size_n, t_arr.size))
        out[k, :, np.arange(t_arr.size)] = self._on_slab(t_arr - k * self.slab_length).T
        out = out.reshape(self.dimension, t_arr.size)
        return out[:, 0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def _on_slab(self, s: np.ndarray) -> np.ndarray:
        """The n functions of one slab at local times s in [0, tau], shape (n, len(s))."""
        tau, n = self.slab_length, self.size_n
        u = 2.0 * s / tau - 1.0
        P = np.empty((n, s.size))
        P[0] = 1.0
        if n > 1:
            P[1] = u
        for j in range(1, n - 1):
            P[j + 1] = ((2 * j + 1) * u * P[j] - j * P[j - 1]) / (j + 1)
        return P * self.end_values[:, None]


def build_basis(T: float, n: int, slabs: int = 1) -> TimeBasis:
    """Construct the orthonormal basis with n functions on each of `slabs` slabs of [0, T]."""
    # n and slabs go uncast, so TimeBasis refuses a fractional count instead of truncating it
    return TimeBasis(horizon_T=float(T), size_n=n, slabs=slabs)


@dataclass
class CouplingMatrix:
    """The Galerkin coupling matrix a_jk for one (T, alpha) pair, square in the basis size."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("coupling entries must form a square matrix")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SourceProjection:
    """Projection weights w_j = int_0^T phi_j dt; g_j(x) = f(x,0) * w_j."""

    weights: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def kernel_convolution(basis: TimeBasis, order: MemoryOrder, t, num_nodes: int) -> np.ndarray:
    """Evaluate I_k(t) = int_0^t a(t - s) phi_k(s) ds for all k of a single-slab basis.

    Uses a Gauss-Jacobi rule with weight (1+x)^(alpha-1) so the algebraic
    kernel factor is integrated exactly; the remaining factor of the
    integrand is polynomial, making the rule exact for num_nodes >= n/2.
    Returns shape (n, len(t)).
    """
    if basis.slabs != 1:
        raise ValueError("kernel_convolution takes a single-slab basis; "
                         "use build_basis(basis.slab_length, basis.size_n) for one slab")
    alpha = order.alpha
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    xi, wi = roots_jacobi(num_nodes, 0.0, alpha - 1.0)
    ga = math.gamma(alpha)
    out = np.empty((basis.size_n, t_arr.size))
    for i, tv in enumerate(t_arr):
        if tv == 0.0:
            out[:, i] = 0.0
            continue
        # s = tv - tv*(xi+1)/2 so that (tv - s) supplies the Jacobi weight
        s = tv * (1.0 - (xi + 1.0) / 2.0)
        out[:, i] = basis.evaluate(s) @ wi * (tv / 2.0) ** alpha / ga
    return out


def _coupling_entries(basis: TimeBasis, order: MemoryOrder, num_nodes: int) -> np.ndarray:
    alpha = order.alpha
    T, n = basis.horizon_T, basis.size_n
    x_out, w_out = roots_jacobi(num_nodes, 0.0, alpha)
    tau = T * (x_out + 1.0) / 2.0
    # I_k(tau) = tau^alpha * (polynomial); the Jacobi weight already carries
    # tau^alpha, so divide it back out of the evaluated inner integrals.
    w_eff = w_out * (T / 2.0) ** (alpha + 1.0) / tau**alpha
    inner = kernel_convolution(basis, order, tau, num_nodes)
    phi_tau = basis.evaluate(tau)
    return (phi_tau * w_eff) @ inner.T


def adjacent_integral(phi, num_nodes: int, alpha: float) -> np.ndarray:
    """int_0^1 int_0^1 (u + v)^(alpha-1) phi(u) phi(1 - v)^T du dv.

    phi maps points of [0, 1] to an array of shape (n, len(points)).  The
    square is split along u = v into two triangles; on each, coordinates
    (r, w) with u = r, v = r w (or the mirror) turn the corner factor into
    r^alpha (1 + w)^(alpha-1).  r^alpha is a Gauss-Jacobi weight, so the
    rule is exact in r for polynomial phi, and (1 + w)^(alpha-1) is
    analytic on [0, 1], where Gauss-Legendre converges geometrically.
    The w sums are taken a few r nodes at a time, so no evaluation of phi
    holds more than about 4096 points.
    """
    xr, wr = roots_jacobi(num_nodes, 0.0, alpha)
    r = (xr + 1.0) / 2.0
    wr = wr / 2.0 ** (alpha + 1.0)
    xw, ww = roots_legendre(num_nodes)
    w = (xw + 1.0) / 2.0
    ww = ww / 2.0 * (1.0 + w) ** (alpha - 1.0)
    # triangle u >= v: (u, v) = (r, r w); triangle v > u: (u, v) = (r w, r)
    inner_v, inner_u = [], []
    step = max(1, 4096 // num_nodes)
    for start in range(0, num_nodes, step):
        rw = np.outer(r[start:start + step], w).ravel()
        inner_v.append(phi(1.0 - rw).reshape(-1, rw.size // num_nodes, num_nodes) @ ww)
        inner_u.append(phi(rw).reshape(-1, rw.size // num_nodes, num_nodes) @ ww)
    inner_v, inner_u = np.hstack(inner_v), np.hstack(inner_u)
    return (phi(r) * wr) @ inner_v.T + (inner_u * wr) @ phi(1.0 - r).T


@functools.cache
def _distant_rule(n: int, num_nodes: int) -> tuple:
    """The Gauss-Legendre rule on [0, 1]^2 of the distant blocks, cached per (n, num_nodes).

    Returns the node gaps x_i - x_j, the weight products w_i w_j and the n
    basis functions at the nodes, all read-only.
    """
    x, w = roots_legendre(num_nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0
    rule = (x[:, None] - x[None, :], np.outer(w, w), build_basis(1.0, n).evaluate(x))
    for a in rule:
        a.setflags(write=False)
    return rule


def _unit_block(n: int, order: MemoryOrder, d: int, num_nodes: int) -> np.ndarray:
    """B_d: phi_j on slab d against the kernel on slab 0, slabs of length 1."""
    alpha = order.alpha
    if d == 0:
        return _coupling_entries(build_basis(1.0, n), order, num_nodes)
    if d == 1:
        # t = 1 + u and s = 1 - v, so t - s = u + v vanishes at the shared corner
        return adjacent_integral(build_basis(1.0, n).evaluate, num_nodes, alpha) / math.gamma(alpha)
    gaps, weights, p = _distant_rule(n, num_nodes)
    # t = d + u and s = v, so t - s >= d - 1 >= 1: a smooth kernel.  Its
    # constant part d^(alpha-1) meets only phi_1 x phi_1, with integral 1;
    # the quadrature sees the remainder, which is d times smaller, so the
    # rounding error does not grow with d.
    z = gaps / d
    rest = np.expm1((alpha - 1.0) * np.log1p(z)) * d ** (alpha - 1.0)
    b = p @ (rest * weights) @ p.T
    b[0, 0] += d ** (alpha - 1.0)
    return b / math.gamma(alpha)


# unit blocks B_0, B_1, ... per (n, alpha), which every horizon and slab count reuses
_UNIT_BLOCKS: dict[tuple, list] = {}


def unit_blocks(n: int, order: MemoryOrder, count: int) -> list:
    """The unit coupling blocks B_0 .. B_{count-1}, each checked by quadrature doubling.

    Each block takes 2n+8 nodes per quadrature direction, is recomputed at
    doubled order and raises QuadratureError when an entry moves by more
    than ENTRY_TOL.  Results are cached; do not modify them.
    """
    q = 2 * n + 8
    blocks = _UNIT_BLOCKS.setdefault((n, order.alpha), [])
    for d in range(len(blocks), count):
        b = _unit_block(n, order, d, q)
        drift = float(np.max(np.abs(b - _unit_block(n, order, d, 2 * q))))
        if drift > ENTRY_TOL:
            raise QuadratureError(
                f"coupling block B_{d} did not converge: doubling changed entries by {drift:.3e}"
            )
        blocks.append(b)
    return blocks[:count]


@functools.cache
def _unit_schur(n: int, order: MemoryOrder):
    """Real Schur form (T, Z) of B_0, cached per (n, order)."""
    return schur(unit_blocks(n, order, 1)[0], output="real")


def slab_blocks(basis: TimeBasis, order: MemoryOrder) -> tuple[float, np.ndarray]:
    """tau^alpha and the (K, n, n) blocks tau^alpha B_d; ValueError if either overflows a float."""
    try:
        with np.errstate(over="raise"):
            scale = float(basis.slab_length) ** order.alpha
            return scale, scale * np.array(unit_blocks(basis.size_n, order, basis.slabs))
    except (OverflowError, FloatingPointError):
        raise ValueError(f"slab length {basis.slab_length:g} to the power alpha = "
                         f"{order.alpha:g} overflows a float") from None


def coupling_matrix(basis: TimeBasis, order: MemoryOrder) -> CouplingMatrix:
    """Compute the coupling matrix a_jk from the checked unit blocks.

    On K slabs of length tau (K = 1 included), block (j, k) is
    tau^alpha B_{j-k} for j >= k and zero above the diagonal.  unit_blocks
    checks every B_d to ENTRY_TOL at unit scale, so the entries are
    accurate to tau^alpha * ENTRY_TOL.
    """
    n, K = basis.size_n, basis.slabs
    _, blocks = slab_blocks(basis, order)
    a = np.zeros((basis.dimension, basis.dimension))
    for j in range(K):
        for k in range(j + 1):
            a[j * n:(j + 1) * n, k * n:(k + 1) * n] = blocks[j - k]
    return CouplingMatrix(entries=a)


def source_weights(basis: TimeBasis) -> SourceProjection:
    """w_j = int_0^T phi_j dt exactly: sqrt(tau) for each slab's phi_1 = 1/sqrt(tau), else 0."""
    w = np.zeros((basis.slabs, basis.size_n))
    w[:, 0] = np.sqrt(basis.slab_length)
    return SourceProjection(weights=w.ravel())


def march(blocks, b, solve, op):
    """Forward substitution through a block lower-triangular system over K slabs.

    blocks, shaped (K, n, n), holds in blocks[d] the coupling of slabs d
    apart.  Slab j gets x_j = solve(b - sum_{k<j} blocks[j-k] op(x_k), j);
    b and each x_j are shaped (n, ...).  The history sum is the one np.dot
    that np.tensordot would form, without its per-call reshaping: the
    (n, j n) row of blocks against the (j n, ...) stack of op(x_k).  Returns
    x of every slab, shaped (K, n, ...).
    """
    n = len(b)
    # two arrays, not one (2, K, ...) buffer: a caller that keeps X keeps only X
    X = np.empty((len(blocks),) + np.shape(b))
    opX = np.empty_like(X)
    for j in range(len(blocks)):
        rhs = b
        if j:
            history = np.dot(blocks[j:0:-1].transpose(1, 0, 2).reshape(n, j * n),
                             opX[:j].reshape(j * n, -1))
            rhs = b - history.reshape(np.shape(b))
        X[j] = solve(rhs, j)
        opX[j] = op(X[j])
    return X


@dataclass(frozen=True)
class ModeFactors:
    """I + lam[p] a for every mode p, with its diagonal blocks inverted, in a = Z T Z^T.

    (T, Z) is a real Schur form of a: Z is orthogonal and T quasi-upper-
    triangular, with every 2 x 2 diagonal block in LAPACK's standard form,
    whose two diagonal entries are equal.  blocks lists T's diagonal blocks
    as (start, stop) row ranges; inverses holds, per block, the inverse of
    I + lam[p] T_kk for every mode, shaped (size, size, M).  singular marks
    the modes with a block pivot that is zero to rounding.  Built by
    mode_factors; do not modify the arrays.
    """

    T: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    blocks: tuple
    inverses: tuple = field(repr=False)
    singular: np.ndarray = field(repr=False)

    def transpose(self) -> ModeFactors:
        """The factors of I + lam[p] a^T: views of these arrays, read backwards.

        With J the reversal, a^T = (Z J) (J T^T J) (Z J)^T has T's diagonal
        blocks, and so their inverses, in reverse order: J X^T J only swaps
        the two equal diagonal entries of a standard 2 x 2 block.
        """
        n = len(self.T)
        return replace(self, T=self.T.T[::-1, ::-1], Z=self.Z[:, ::-1], inverses=self.inverses[::-1],
                       blocks=tuple((n - j, n - i) for i, j in reversed(self.blocks)))


def mode_factors(schur_form, lam) -> ModeFactors:
    """Invert each diagonal block of I + lam[p] T once for every mode p, in real arithmetic.

    schur_form is (T, Z) from schur(a, output="real"): T's diagonal blocks
    are 1 x 1, or 2 x 2 in LAPACK's standard form [[t, b], [c, t]], b c < 0,
    with eigenvalues u = t +- i sqrt|b| sqrt|c|; a 1 x 1 block [t] is read
    as that form with b = c = 0.  Mode p is scaled by w = max(1, |lam[p]|),
    mu = 1/w and nu = lam/w, so a block is w (mu I + nu T_kk) and no
    product pairs lam with itself or two Schur entries.  With s = mu + nu t,
    a block has pivot rho = hypot(s, nu sqrt|b| sqrt|c|) and inverse
    (mu / rho^2) [[s, -nu b], [-nu c, s]], exact also where c underflowed
    to 0; a 1 x 1 block keeps its top left entry, mu / s.  Pivots are
    measured against bound = mu + |nu| |u|, which keeps every square in
    range: a mode is singular where a pivot is at most n eps bound, that
    is |1 + lam u| <= n eps (1 + |lam| |u|), and there its inverse is not
    finite.
    """
    T, Z = (np.asarray(x, dtype=float) for x in schur_form)
    lam = np.asarray(lam, dtype=float)
    n = len(T)
    blocks, entries, i = [], [], 0
    while i < n:
        size = 2 if i + 1 < n and T[i + 1, i] != 0.0 else 1
        blocks.append((i, i + size))
        entries.append((T[i, i], T[i, i + 1], T[i + 1, i]) if size == 2 else (T[i, i], 0.0, 0.0))
        i += size
    w = np.maximum(1.0, np.abs(lam))
    mu, nu = 1.0 / w, lam / w
    reach = np.abs(nu)
    tiny = n * np.finfo(float).eps

    # every block at once, each block's root and bound still by scalar math
    t, b, c = np.array(entries).T
    root = np.array([math.sqrt(abs(x)) * math.sqrt(abs(y)) for x, y in zip(b, c)])
    hyp = np.array([math.hypot(x, y) for x, y in zip(t, root)])
    t, b, c, root, hyp = (x[:, None] for x in (t, b, c, root, hyp))  # against every mode
    s = mu + nu * t
    bound = mu + reach * hyp
    s_rel, nu_rel = s / bound, nu / bound
    q_rel = nu_rel * root
    rho2 = s_rel * s_rel + q_rel * q_rel  # (rho / bound)^2
    singular = np.any(rho2 <= tiny * tiny, axis=0)
    inverse = np.empty((len(blocks), 2, 2) + lam.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan where singular
        share = mu / bound / rho2  # mu bound / rho^2
        np.multiply(s_rel, share, out=inverse[:, 0, 0])
        # b nu / bound before share: b may be 1e300 where nu share underflows
        np.multiply(-b * nu_rel, share, out=inverse[:, 0, 1])
        np.multiply(-c * nu_rel, share, out=inverse[:, 1, 0])
    inverse[:, 1, 1] = inverse[:, 0, 0]

    # per-block views, in T's order, each (size, size, M)
    inverses = tuple(inverse[k, :j - i, :j - i] for k, (i, j) in enumerate(blocks))
    return ModeFactors(T, Z, lam, tuple(blocks), inverses, singular)


def mode_solve(factors: ModeFactors, rhs) -> np.ndarray:
    """Solve (I + lam[p] a) x_p = rhs[:, p] for every column p, on the real arrays of mode_factors.

    In Z's frame every system is block upper triangular, so one block back
    substitution over T's rows, in place on Z^T rhs, serves all columns of
    rhs: it multiplies by the stored block inverses and never divides.
    """
    T, Z, lam = factors.T, factors.Z, factors.lam
    z = Z.T @ rhs
    for (i, j), inverse in zip(reversed(factors.blocks), reversed(factors.inverses)):
        v = z[i:j] - lam * (T[i:j, j:] @ z[j:])
        z[i:j] = inverse[:, 0] * v[0]
        if j - i == 2:
            z[i:j] += inverse[:, 1] * v[1]
    return Z @ z


def _mode_columns(basis: TimeBasis, order: MemoryOrder, lam: np.ndarray) -> np.ndarray:
    """(I + lam[p] a)^{-1} w on every slab for the 1-D lam as given, shaped (K, n, len(lam)):
    march over the slabs, each solved by mode_solve on the factors of tau^alpha B_0."""
    n = basis.size_n
    scale, blocks = slab_blocks(basis, order)
    w = source_weights(basis).weights[:n]
    T, Z = _unit_schur(n, order)
    factors = mode_factors((T * scale, Z), lam)
    return march(blocks, np.broadcast_to(w[:, None], (n, lam.size)),
                 lambda rhs, j: mode_solve(factors, rhs), lambda x: lam * x)


@dataclass(frozen=True)
class ModeMarch:
    """The K-slab solution of the projected scalar equation f = 1 - lam (a * f), per eigenvalue.

    lam holds the distinct eigenvalues, sorted, and index each given
    eigenvalue's position in lam, in the shape they were given.  X[j][:, p]
    is slab j's coefficients for lam[p], so a field whose sine coefficients
    are g_i has coefficients g_i X[j][:, index_i] on slab j.  Built by
    mode_march; do not modify the arrays.
    """

    basis: TimeBasis
    order: MemoryOrder
    lam: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)

    def end(self) -> np.ndarray:
        """Each given eigenvalue's value at T, phi(T) . (I + lam a)^{-1} w, shaped like index."""
        return (self.basis.end_values @ self.X[-1])[self.index]

    def doubled(self) -> ModeMarch:
        """The same distinct eigenvalues marched on 2K slabs of [0, T], without a second dedupe."""
        basis = build_basis(self.basis.horizon_T, self.basis.size_n, 2 * self.basis.slabs)
        return replace(self, basis=basis, X=_mode_columns(basis, self.order, self.lam))


def mode_march(basis: TimeBasis, order: MemoryOrder, lam) -> ModeMarch:
    """The ModeMarch of the eigenvalues lam, of any shape, marching each distinct value once."""
    distinct, index = np.unique(np.asarray(lam, dtype=float), return_inverse=True)
    return ModeMarch(basis, order, distinct, index.reshape(np.shape(lam)),
                     _mode_columns(basis, order, distinct))


def reconstruct(coeffs, basis: TimeBasis, t: float):
    """Evaluate f_n(t) = sum_k c_k phi_k(t).

    coeffs has shape (K*n,) or (K*n, ...); the sum is over the first axis, so
    per-grid-point coefficient arrays reconstruct a whole spatial field.
    Only the slab holding t contributes, and only its n functions are evaluated.
    """
    if not 0.0 <= t <= basis.horizon_T:
        raise ValueError(f"t={t!r} outside [0, {basis.horizon_T}]")
    c = np.asarray(coeffs, dtype=float)
    if c.shape[0] != basis.dimension:
        raise ValueError(f"expected {basis.dimension} coefficients, got {c.shape[0]}")
    n = basis.size_n
    k = int(basis.slab_index(float(t)))
    phi = basis._on_slab(np.array([float(t) - k * basis.slab_length]))[:, 0]
    out = np.tensordot(phi, c[k * n:(k + 1) * n], axes=(0, 0))
    return float(out) if out.ndim == 0 else out
