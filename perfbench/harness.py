"""Spans, per-layer totals and the arithmetic behind every reported metric.

The tracer wraps the public names that memwave's own modules import from
each other (``memwave.solver_1d.coupling_matrix``, ``memwave.cli.solve_2d``,
``SparseMatrix.matvec``, ...), so the spans follow whatever route the
library takes without any change to the library.  Spans are kept in memory
and only recorded while an op is open; calls made by the benchmark's own
checks are not traced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import math
import time
from dataclasses import dataclass

# Layer name -> the module attributes through which memwave reaches it.
# A site that no longer exists makes installation fail, so a rename in the
# library cannot silently drop a layer from the traced run.
SITES = {
    "cli.main": ["cli.main"],
    "solver_1d.solve_1d": ["solver_1d.solve_1d", "cli.solve_1d"],
    "solver_1d.assemble_1d": ["solver_1d.assemble_1d"],
    "solver_1d.sup_error": ["solver_1d.sup_error", "cli.sup_error"],
    "solver_2d.solve_2d": ["solver_2d.solve_2d", "cli.solve_2d"],
    "solver_2d.assemble_2d": ["solver_2d.assemble_2d", "cli.assemble_2d"],
    "time_basis.coupling_matrix": [
        "solver_1d.coupling_matrix", "solver_2d.coupling_matrix", "cli.coupling_matrix",
    ],
    "time_basis.reconstruct": ["solver_1d.reconstruct", "solver_2d.reconstruct"],
    "sparse_linalg.lu_solve": ["solver_1d.lu_solve", "solver_2d.lu_solve"],
    "sparse_linalg.bicg_solve": ["solver_1d.bicg_solve", "solver_2d.bicg_solve", "cli.bicg_solve"],
    "sparse_linalg.build_preconditioner": [
        "solver_1d.build_preconditioner", "solver_2d.build_preconditioner",
        "cli.build_preconditioner",
    ],
    "sparse_linalg.matvec": ["sparse_linalg.SparseMatrix.matvec"],
    "sparse_linalg.rmatvec": ["sparse_linalg.SparseMatrix.rmatvec"],
    "analytic_reference.resolvent_apply": ["stochastic.resolvent_apply"],
    "stochastic.sample_increments": ["stochastic.sample_increments"],
    "stochastic.simulate_trajectory": ["stochastic.simulate_trajectory", "cli.simulate_trajectory"],
}

OP_SPAN = "op"


def _csr_bytes(csr) -> int:
    return csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes


def _system_size(args, result):
    csr = result.matrix.csr
    return {"nnz": csr.nnz, "bytes": _csr_bytes(csr)}


def _product_size(args, result):
    # one CSR product reads the matrix and x and writes y; counted, not measured
    csr = args[0].csr
    return {"flops": 2 * csr.nnz, "bytes": _csr_bytes(csr) + 16 * csr.shape[0]}


def _bicg_outcome(args, result):
    report = result[1]
    return {"iterations": report.iterations, "failed": int(not report.converged)}


ATTRIBUTES = {
    "solver_1d.assemble_1d": _system_size,
    "solver_2d.assemble_2d": _system_size,
    "sparse_linalg.matvec": _product_size,
    "sparse_linalg.rmatvec": _product_size,
    "sparse_linalg.bicg_solve": _bicg_outcome,
}


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    failed: bool = False
    attrs: dict | None = None


class Tracer:
    """Records a span per traced call while an op is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, sites in SITES.items():
            for site in sites:
                module, *owners, attr = site.split(".")
                owner = importlib.import_module(f"memwave.{module}")
                for part in owners:
                    owner = getattr(owner, part)
                if not hasattr(owner, attr):
                    self.uninstall()
                    raise AttributeError(f"trace site memwave.{site} for layer {name} is gone")
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, ATTRIBUTES.get(name)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                    self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, attributes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
            if attributes is not None:
                span.attrs = attributes(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Open the root span of one op; library calls inside become its children."""
        self._op = op_id
        span = self._open(OP_SPAN)
        try:
            yield
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)
            self._op = None

    def write_csv(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,start_ns,end_ns,parent,failed\n")
            for s in self.spans:
                fh.write(f"{s.op},{s.name},{s.start},{s.end},{s.parent},{int(s.failed)}\n")


def covered(start: int, end: int, intervals) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total, run_start, run_end = 0, None, None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, ch) for s, ch in zip(spans, children)]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self nanoseconds, failures, summed attributes."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"calls": 0, "ns": 0, "self_ns": 0, "failures": 0})
        attrs = span.attrs or {}
        t["calls"] += 1
        t["ns"] += span.end - span.start
        t["self_ns"] += own
        t["failures"] += int(span.failed or bool(attrs.get("failed")))
        for key, value in attrs.items():
            if key != "failed":
                t[key] = t.get(key, 0) + value
    return totals


def missing_layers(totals: dict[str, dict], expected) -> list[str]:
    """Expected layers that recorded no span in the traced run."""
    return [name for name in expected if totals.get(name, {}).get("calls", 0) == 0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q of all samples at or below it."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[math.ceil(q * len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked above the nearest-rank q percentile of count samples."""
    return count - math.ceil(q * count)


def scale_to_host_speed(ops: list[dict], samples: list[float], nominal_s: float) -> list[float]:
    """Set each op's "s" to its "wall_s" at the host-speed kernel's nominal speed.

    Op records carry the index of the last kernel sample taken before them
    ("segment"); the next sample was taken after the segment's last op.
    Each op is scaled by nominal_s over the mean of those two samples.
    Returns the per-segment factors.
    """
    if len(samples) < 2 or min(samples) <= 0.0:
        raise ValueError(f"need at least two positive kernel samples, got {samples!r}")
    factors = [2.0 * nominal_s / (a + b) for a, b in zip(samples, samples[1:])]
    for op in ops:
        op["s"] = op["wall_s"] * factors[op["segment"]]
    return factors


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 0 <= failed <= attempted and attempted >= 1, got {failed}/{attempted}")
    return failed / attempted
