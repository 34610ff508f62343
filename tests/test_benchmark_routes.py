"""The benchmark's traced routes still reach every layer its workloads expect.

perfbench's traced runs report a layer guard failure when a workload's
traced run records no span for one of its expected_layers.  Here ops of
each workload run under perfbench's Tracer, loaded from
perfbench/harness.py by path, and every layer in that workload's
expected_layers (read from perfbench/workloads.py by ast, which imports
the benchmark's host-speed kernels) must have recorded a span.  sweep1d
runs one whole pass of its cases, since its solve route depends on the
case; the other two run one small op each.  So a change that moves a
solve or a trajectory off a traced route, such as one that reuses
S(s_k) g across calls instead of applying the resolvent, fails here, in
tier-1, before a benchmark run finds it.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import memwave.cli
from memwave import (Grid1D, InitialField1D, MemoryOrder, NoiseModel, TimePartition,
                     solver_1d, stochastic)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_harness():
    name = "perfbench_harness"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "harness.py")
        harness = importlib.util.module_from_spec(spec)
        sys.modules[name] = harness  # its dataclass looks its module up there
        spec.loader.exec_module(harness)
    return sys.modules[name]


def workload_constant(workload: str, attribute: str):
    """A literal class attribute of the workload class whose name attribute is workload."""
    path = PERFBENCH / "workloads.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, ast.ClassDef):
            continue
        values = {t.id: stmt.value for stmt in node.body if isinstance(stmt, ast.Assign)
                  for t in stmt.targets if isinstance(t, ast.Name)}
        if "name" in values and ast.literal_eval(values["name"]) == workload:
            return ast.literal_eval(values[attribute])
    raise AssertionError(f"no workload named {workload!r} in {path}")


def traced_missing_layers(workload: str, *ops) -> list:
    """Expected layers of workload that no span recorded, over ops traced one op each."""
    harness = load_harness()
    tracer = harness.Tracer()
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            with tracer.op(op_id):
                op()
    finally:
        tracer.uninstall()
    expected = workload_constant(workload, "expected_layers")
    return harness.missing_layers(harness.layer_totals(tracer.spans), expected)


def test_field2d_route_records_every_expected_layer(tmp_path, capsys):
    # n = 8, m = 51 through field2d's CLI call; 2D auto takes BiCG at every size
    def op():
        argv = ["solve2d", "--alpha", "1.5", "--T", "6.0", "--n", "8", "--m", "51",
                "--sigma", "2.0", "-o", str(tmp_path / "field.csv"), "--max-iter", "400"]
        assert memwave.cli.main(argv) == 0

    assert traced_missing_layers("field2d", op) == []


def test_sweep1d_route_records_every_expected_layer():
    # the slab solver depends on n and K, so trace one whole pass, as perfbench sums its spans
    # over the whole traced run; the grids are the workload's: [-15, 15] with m = 151 up to
    # T = 6, [-20, 20] with m = 201 beyond
    g = InitialField1D.gaussian(1.0)

    def op(alpha, T, n):
        grid = Grid1D(-15.0, 15.0, 151) if T <= 6 else Grid1D(-20.0, 20.0, 201)
        return lambda: solver_1d.solve_1d(MemoryOrder(alpha), T, n, grid, g).reconstruct(T)

    ops = [op(alpha, T, n) for T in workload_constant("sweep1d", "HORIZONS")
           for n in workload_constant("sweep1d", "SIZES")
           for alpha in workload_constant("sweep1d", "ALPHAS")]
    assert traced_missing_layers("sweep1d", *ops) == []


def test_ensemble_route_records_every_expected_layer():
    def op():
        stochastic.simulate_trajectory(2, InitialField1D.gaussian(1.0), NoiseModel(0.1, seed=3),
                                       TimePartition(1.0, 5), Grid1D(-15.0, 15.0, 151))

    assert traced_missing_layers("ensemble", op) == []
