#!/usr/bin/env python3
"""memwave benchmark: one workload in one process, end to end or traced.

    python3 perfbench/run.py --workload sweep1d --seed 1 --seconds 20 --trace 0

Runs the workload's ops in a closed loop for about --seconds (always whole
passes), checks every op, prints every metric with its name and unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Op and set-up times are scaled to the host's nominal speed by a fixed
kernel timed between them (hostspeed.py); wall figures are printed beside.
--trace 0 reports the end-to-end metrics; --trace 1 traces every second
pass and reports the per-layer metrics.  Workloads,
metrics and the known baseline failures are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# One BLAS thread, set before numpy loads.  memwave's BLAS calls (8 x 8
# block applies, dots of 81,608-vectors) ran no faster with OpenBLAS's
# default two threads on a 2-vCPU host, but kept both vCPUs busy, so every
# other tenant's burst slowed the op.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import harness  # noqa: E402
import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
RESOLVENT_WARNING = "mass is leaving the grid"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "completed_share": "1",
    "max_error": "1",
    "peak_rss_mb": "MB",
}


class Layers:
    """Per-op and per-call views of the traced totals."""

    def __init__(self, totals, ops, plain_rate, traced_rate, output_bytes):
        self.totals, self.ops = totals, ops
        self.overhead = traced_rate / plain_rate - 1.0
        self.output_bytes = output_bytes

    def get(self, layer, key="calls"):
        return self.totals.get(layer, {}).get(key, 0)

    def per_op(self, layer, key="calls"):
        return self.get(layer, key) / self.ops

    def per_call(self, layer, key):
        calls = self.get(layer)
        return self.get(layer, key) / calls if calls else 0.0

    def ms(self, layer, key="ns"):
        return self.per_op(layer, key) / 1e6


CM, RC, LU, BICG = ("time_basis.coupling_matrix", "time_basis.reconstruct",
                    "sparse_linalg.lu_solve", "sparse_linalg.bicg_solve")
MV, RMV, RES = "sparse_linalg.matvec", "sparse_linalg.rmatvec", "analytic_reference.resolvent_apply"

# name -> (unit, better, value from the traced run)
PER_LAYER = {
    f"{CM}.calls": ("calls/op", "lower", lambda L: L.per_op(CM)),
    f"{CM}.ms": ("ms/op", "lower", lambda L: L.ms(CM)),
    f"{CM}.share": ("1", "lower", lambda L: L.get(CM, "ns") / L.get(harness.OP_SPAN, "ns")),
    f"{CM}.failures": ("1/op", "lower", lambda L: L.per_op(CM, "failures")),
    f"{RC}.calls": ("calls/op", "lower", lambda L: L.per_op(RC)),
    f"{RC}.ms": ("ms/op", "lower", lambda L: L.ms(RC)),
    "solver_1d.assemble_1d.ms": ("ms/op", "lower", lambda L: L.ms("solver_1d.assemble_1d")),
    "solver_1d.assemble_1d.nnz": ("nnz/call", "lower",
                                  lambda L: L.per_call("solver_1d.assemble_1d", "nnz")),
    "solver_1d.assemble_1d.bytes": ("B/call", "lower",
                                    lambda L: L.per_call("solver_1d.assemble_1d", "bytes")),
    f"{LU}.calls": ("calls/op", "lower", lambda L: L.per_op(LU)),
    f"{LU}.ms": ("ms/op", "lower", lambda L: L.ms(LU)),
    "solver_1d.solve_1d.self_ms": ("ms/op", "lower", lambda L: L.ms("solver_1d.solve_1d", "self_ns")),
    "solver_2d.assemble_2d.ms": ("ms/op", "lower", lambda L: L.ms("solver_2d.assemble_2d")),
    "solver_2d.assemble_2d.nnz": ("nnz/call", "lower",
                                  lambda L: L.per_call("solver_2d.assemble_2d", "nnz")),
    "solver_2d.assemble_2d.bytes": ("B/call", "lower",
                                    lambda L: L.per_call("solver_2d.assemble_2d", "bytes")),
    "solver_2d.solve_2d.self_ms": ("ms/op", "lower", lambda L: L.ms("solver_2d.solve_2d", "self_ns")),
    f"{BICG}.calls": ("calls/op", "lower", lambda L: L.per_op(BICG)),
    f"{BICG}.ms": ("ms/op", "lower", lambda L: L.ms(BICG)),
    f"{BICG}.iterations": ("iter/call", "lower", lambda L: L.per_call(BICG, "iterations")),
    f"{BICG}.failures": ("1/op", "lower", lambda L: L.per_op(BICG, "failures")),
    "sparse_linalg.build_preconditioner.ms": (
        "ms/op", "lower", lambda L: L.ms("sparse_linalg.build_preconditioner")),
    f"{MV}.calls": ("calls/op", "lower", lambda L: L.per_op(MV)),
    f"{MV}.ms": ("ms/op", "lower", lambda L: L.ms(MV)),
    f"{RMV}.calls": ("calls/op", "lower", lambda L: L.per_op(RMV)),
    f"{RMV}.ms": ("ms/op", "lower", lambda L: L.ms(RMV)),
    f"{MV}.flops_computed": ("flop/call", "lower", lambda L: L.per_call(MV, "flops")),
    f"{MV}.bytes_computed": ("B/call", "lower", lambda L: L.per_call(MV, "bytes")),
    f"{MV}.flops_per_byte": ("flop/B", "higher",
                             lambda L: L.get(MV, "flops") / L.get(MV, "bytes") if L.get(MV) else 0.0),
    "cli.main.self_ms": ("ms/op", "lower", lambda L: L.ms("cli.main", "self_ns")),
    "cli.output_bytes": ("B/op", "lower", lambda L: L.output_bytes / L.ops),
    f"{RES}.calls": ("calls/op", "lower", lambda L: L.per_op(RES)),
    f"{RES}.ms": ("ms/op", "lower", lambda L: L.ms(RES)),
    f"{RES}.warnings": ("1/op", "lower", lambda L: L.per_op(RES, "warnings")),
    "stochastic.sample_increments.ms": ("ms/op", "lower",
                                        lambda L: L.ms("stochastic.sample_increments")),
    "stochastic.simulate_trajectory.self_ms": (
        "ms/op", "lower", lambda L: L.ms("stochastic.simulate_trajectory", "self_ns")),
    "trace_overhead": ("1", "higher", lambda L: L.overhead),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep1d", "field2d", "ensemble"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready <unix time>' and exit (one setup_s sample)")
    return p.parse_args(argv)


def run_op(workload, item, op_id, tracer):
    """One timed op and its untimed checks; returns (op record, problems)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                result = workload.op(item)
            failure = None
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    op = {"item": item, "wall_s": elapsed, "ok": False, "failure": failure, "err": None,
          "traced": tracer is not None, "warnings": len(caught), "extras": {},
          "resolvent_warnings": sum(RESOLVENT_WARNING in str(w.message) for w in caught)}
    if failure is not None:
        return op, []
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        op["err"], bad, op["extras"] = workload.check(item, result)
    op["ok"] = not bad
    op["failure"] = "; ".join(bad) or None
    return op, [f"op {op_id} {item}: {p}" for p in bad]


def measure(workload, kernel, seconds, tracer=None):
    """Run whole passes until `seconds` have gone by; returns (op records, problems, samples).

    With a tracer, every second pass is traced and the run ends on a traced
    pass, so traced and untraced passes share the machine's conditions.
    The host-speed kernel is timed before the first op, between ops at least
    workload.HOST_SPEED_EVERY seconds apart, and after the last op; each op's
    "s" is its wall time scaled to the kernel's nominal speed.
    """
    ops, problems, samples = [], [], []
    started = time.perf_counter()
    last_sample = -math.inf
    for pass_id, batch in enumerate(workload.passes()):
        traced = tracer is not None and pass_id % 2 == 1
        if traced:
            tracer.install()
        try:
            for item in batch:
                if time.perf_counter() - last_sample >= workload.HOST_SPEED_EVERY:
                    samples.append(kernel.time())
                    last_sample = time.perf_counter()
                op, bad = run_op(workload, item, len(ops), tracer if traced else None)
                op["pass"], op["segment"] = pass_id, len(samples) - 1
                ops.append(op)
                problems += bad
        finally:
            if traced:
                tracer.uninstall()
        if time.perf_counter() - started >= seconds and (tracer is None or traced):
            break
    samples.append(kernel.time())
    harness.scale_to_host_speed(ops, samples, kernel.nominal_s)
    return ops, problems, samples


# Every pass holds the same mix of cases, so per-pass figures are comparable.
# Their median keeps seconds-long interference from other tenants of the
# machine out of the run's figure better than a total over the run does.

def by_pass(ops):
    groups = collections.defaultdict(list)
    for o in ops:
        groups[o["pass"]].append(o)
    return list(groups.values())


def rate(ops):
    """Completed ops per second of op wall time, median over passes.

    Failed ops spend time and complete nothing.
    """
    return statistics.median(sum(o["ok"] for o in p) / sum(o["s"] for o in p)
                             for p in by_pass(ops))


def median_latency_ms(ops):
    """Median over passes of each pass's median successful-op latency."""
    return statistics.median(statistics.median(o["s"] for o in p if o["ok"]) * 1e3
                             for p in by_pass(ops) if any(o["ok"] for o in p))


def tail_latency_ms(ops):
    """Nearest-rank p90 of successful ops where ten samples lie beyond it.

    A run with fewer successful ops (field2d has about ten) has no tail
    estimate, so the figure falls back to median_latency_ms.
    """
    lat = [o["s"] * 1e3 for o in ops if o["ok"]]
    if harness.samples_beyond(len(lat), 0.9) >= 10:
        return harness.percentile(lat, 0.9)
    return median_latency_ms(ops)


def setup_samples(args, kernel):
    """Wall time from spawning a fresh process to it being ready for the first op.

    Each probe is scaled to the host-speed kernel's nominal speed like an op,
    with the kernel timed before the first probe and after every probe.
    """
    probes, samples = [], [kernel.time()]
    for i in range(SETUP_SAMPLES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        probes.append({"wall_s": float(proc.stdout.split()[-1]) - spawned, "segment": i})
        samples.append(kernel.time())
    harness.scale_to_host_speed(probes, samples, kernel.nominal_s)
    return probes


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _cpuinfo():
    info = {}
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            info.setdefault(key.strip(), value.strip())
    return info.get("model name", platform.processor() or "unknown"), info.get("cache size", "unknown")


def environment(args, workloads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu, cache = _cpuinfo()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset")
                       for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_model": cpu,
        "cpu_cache_size": cache,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "field2d_max_iter": workloads.Field2D.MAX_ITER,
    }


def show(name, value, unit, note=""):
    print(f"{name:<46} {value:>16.6g} {unit:<9} {note}".rstrip())


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "memwave" / "__init__.py").is_file():
        print(f"perfbench: no memwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        workload.warm_up()
    if args.setup_only:
        print(f"ready {time.time()!r}")
        return 0

    # built and warmed after the setup point: the kernels are the benchmark's, not memwave's
    kernel, setup_kernel = workload.HOST_SPEED(), hostspeed.SmallArrays()
    kernel.run()
    setup_kernel.run()
    kernel_bytes = kernel.nbytes + setup_kernel.nbytes
    setup = setup_samples(args, setup_kernel) if args.trace == 0 else []
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(args, workloads)))

    tracer = harness.Tracer() if args.trace else None
    ops, problems, samples = measure(workload, kernel, args.seconds, tracer)

    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        finish_errors, finish_problems = workload.finish()
    problems += finish_problems

    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    seen, repeats = set(), 0
    for o in ops:
        key = workload.coupling_key(o["item"])
        repeats += key in seen
        if key is not None:
            seen.add(key)
    print(f"# ops attempted={attempted} failed={failed} "
          f"failed_share={harness.failed_share(attempted, failed):.6g} "
          f"repeat_share={repeats / attempted:.6g} (ops whose (n, alpha) came earlier) "
          f"warnings/op={sum(o['warnings'] for o in ops) / attempted:.6g}")
    print(f"# host speed: {type(kernel).__name__} kernel, nominal {kernel.nominal_s * 1e3:.4g} ms, "
          f"{len(samples)} samples, median {statistics.median(samples) * 1e3:.4g} ms, "
          f"range {min(samples) * 1e3:.4g}-{max(samples) * 1e3:.4g} ms; op times below are "
          "scaled to the nominal speed, wall figures are given beside them")
    kinds = collections.Counter(o["failure"] for o in ops if o["failure"])
    for kind, count in sorted(kinds.items()):
        print(f"# failure x{count}: {kind}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    metrics = {}
    if args.trace == 0:
        lat = [o["s"] * 1e3 for o in ops if o["ok"]]
        errors = [o["err"] for o in ops if o["err"] is not None] + finish_errors
        if not (lat and errors):
            print("perfbench: no op completed, or none had a closed form to check",
                  file=sys.stderr)
            return 1
        beyond = harness.samples_beyond(len(lat), 0.9)
        wall = [{**o, "s": o["wall_s"]} for o in ops]
        values = {
            "setup_s": statistics.median(p["s"] for p in setup),
            "ops_per_s": rate(ops),
            "op_ms_p50": median_latency_ms(ops),
            "op_ms_p90": tail_latency_ms(ops),
            "completed_share": 1.0 - harness.failed_share(attempted, failed),
            "max_error": max(errors),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                            - kernel_bytes) / 1e6,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes, scaled; wall "
                       + ", ".join(f"{p['wall_s']:.4f}" for p in setup),
            "ops_per_s": f"median over {len(by_pass(ops))} passes; {attempted - failed} "
                         f"completed in {sum(o['wall_s'] for o in ops):.3f} s of ops (wall); "
                         f"wall {rate(wall):.6g}",
            "op_ms_p50": f"median over {len(by_pass(ops))} passes of the pass median; "
                         f"n={len(lat)} successful ops; wall {median_latency_ms(wall):.6g}",
            "op_ms_p90": f"n={len(lat)}, {beyond} samples beyond"
                         + ("" if beyond >= 10 else "; fewer than 10, so no tail: repeats op_ms_p50")
                         + f"; wall {tail_latency_ms(wall):.6g}",
            "completed_share": f"1 - failed_share ({failed}/{attempted} failed)",
            "max_error": f"worst of {len(errors)} sup-norm errors against closed forms",
            "peak_rss_mb": f"ru_maxrss of this process less the {kernel_bytes / 1e6:.4g} MB "
                           "of arrays the host-speed kernels keep",
        }
        for name, unit in END_TO_END.items():
            show(name, values[name], unit, notes[name])
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        plain = [o for o in ops if not o["traced"]]
        traced = [o for o in ops if o["traced"]]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        print(f"# ops_per_s untraced {rate(plain):.6g} ({len(plain)} ops), "
              f"traced {rate(traced):.6g} ({len(traced)} ops)")
        totals = harness.layer_totals(tracer.spans)
        totals.setdefault(RES, {})["warnings"] = sum(o["resolvent_warnings"] for o in traced)
        layers = Layers(totals, len(traced), rate(plain), rate(traced),
                        sum(o["extras"].get("output_bytes", 0) for o in traced))
        for name, (unit, _, value) in PER_LAYER.items():
            v = float(value(layers))
            show(name, v, unit)
            metrics[name] = {"value": v, "unit": unit}
        missing = harness.missing_layers(totals, workload.expected_layers)
        for layer in missing:
            print(f"perfbench: layer guard: {layer} recorded no spans on {args.workload}",
                  file=sys.stderr)
        problems += missing

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
