"""Host-speed kernels: fixed work, timed between ops to scale op times.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 2x for seconds to minutes at a time.  Over one seven-minute stretch
the same field2d op took 1.7 to 3.2 s and a fixed small-array kernel 5 to
12 ms.  So each run also times a fixed kernel between its ops, built from
numpy and scipy only (never memwave), and scales each op's wall time by
how much slower or faster than its nominal time the host ran the kernel
just before and just after the op.  The reported times read as if the host
had run at the nominal speed throughout.  A change to memwave moves the op
times and leaves the kernel alone, so it moves the scaled times by the same
factor.

Nominal times are round figures near each kernel's median on a 2-vCPU
Intel Xeon VM with numpy 2.4.6, scipy 1.17.1 and one OpenBLAS thread.  They
only set the scale of the reported times: two commits compare only if both
are measured with the same kernels and nominal times.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy import integrate


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if scipy.sparse.issparse(value):
        parts = (getattr(value, name, None) for name in ("data", "indices", "indptr", "offsets"))
        return sum(part.nbytes for part in parts if isinstance(part, np.ndarray))
    return 0


class Kernel:
    """A kernel of fixed work; `time()` returns its wall time in seconds."""

    nominal_s: float

    def run(self) -> None:
        raise NotImplementedError

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the kernel keeps between runs."""
        return sum(_nbytes(value) for value in vars(self).values())


class SmallArrays(Kernel):
    """Many numpy calls on 151-point fields: convolution, interpolation, exp.

    Like an ensemble trajectory, its time is mostly per-call overhead.
    """

    nominal_s = 0.0087
    CALLS = 400

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = np.linspace(-15.0, 15.0, 151)
        self.f = rng.random(151)
        self.kernel = np.exp(-np.linspace(-3.0, 3.0, 41) ** 2)

    def run(self) -> None:
        acc = 0.0
        for i in range(self.CALLS):
            out = np.convolve(self.f, self.kernel, mode="full")[20:171]
            out += 0.5 * np.interp(self.x - 0.01 * i, self.x, self.f, left=0.0, right=0.0)
            acc += float(np.max(np.abs(np.exp(-0.01 * out))))
        if not np.isfinite(acc):
            raise ArithmeticError("host-speed kernel produced a non-finite sum")


class QuadratureAndLU(Kernel):
    """Adaptive quadrature with Python integrands, a Kronecker assembly and a sparse LU.

    The mix of a 1D solve: coupling quadrature, CSR assembly, SuperLU.
    """

    nominal_s = 0.0193
    INTEGRALS = 12

    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = rng.random((18, 18)) * 0.05
        self.laplacian = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(151, 151)) / 0.04
        self.rhs = rng.random(18 * 151)

    def run(self) -> None:
        acc = 0.0
        for k in range(self.INTEGRALS):
            value, _ = integrate.quad(lambda s: s ** (0.25 + 0.03 * k) * np.exp(-s) * np.cos(k * s),
                                      0.0, 3.0, limit=100)
            acc += value
        system = (scipy.sparse.identity(self.rhs.size, format="csr")
                  + scipy.sparse.kron(self.block, self.laplacian, format="csr")).tocsc()
        x = scipy.sparse.linalg.splu(system).solve(self.rhs)
        if not np.isfinite(acc + float(x.sum())):
            raise ArithmeticError("host-speed kernel produced a non-finite sum")


class KroneckerIterations(Kernel):
    """Iteration steps of a block-preconditioned solve on an 8-block Kronecker matrix.

    field2d's system on a 51 x 51 grid instead of 101 x 101 (N = 20,808,
    0.8M nnz, 10 MB of CSR), so that the kernel adds little to the
    process's memory.  Each step does a matvec, a transposed matvec, a dense
    8 x 8 block apply, a dot and an update.  Like a field2d solve, and
    unlike the small-array kernel, it spends its time streaming sparse
    arrays.
    """

    nominal_s = 0.075
    STEPS = 40

    def __init__(self):
        rng = np.random.default_rng(0)
        m, n = 51, 8
        lap = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
        self.matrix = (scipy.sparse.identity(n * m * m, format="csr")
                       + scipy.sparse.kron(rng.random((n, n)) * 0.1,
                                           scipy.sparse.kronsum(lap, lap), format="csr"))
        self.block = np.linalg.inv(np.eye(n) + rng.random((n, n)) * 0.1)
        self.x = rng.random(n * m * m)

    def run(self) -> None:
        acc = 0.0
        for _ in range(self.STEPS):
            y = self.matrix @ self.x
            z = self.matrix.T @ y
            w = (self.block @ z.reshape(self.block.shape[0], -1)).ravel()
            acc += float(w @ y)
            y += 1e-3 * w
        if not np.isfinite(acc):
            raise ArithmeticError("host-speed kernel produced a non-finite sum")
